"""The shooting nodes split a stack's pairs into one chunk per CPU: same bits at any count."""

import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import cardiomotion.geodesic as geodesic
from cardiomotion.errors import IntegrationDivergedError
from cardiomotion.geodesic import ShootingConfig, integrate_epdiff, integrate_inverse_flow
from cardiomotion.grid import Grid2
from cardiomotion.metric import MetricOperator
from cardiomotion.nn.networks import RegistrationNet, UNetConfig
from cardiomotion.nn.tensor import Tensor, constant, mul, sum_all
from cardiomotion.registration import (RegistrationConfig, registration_network_loss,
                                       train_registration_network)

GRID = Grid2(16, 16)
WORKERS = (1, 2, 3)


def _cfg(num_steps=6):
    op = MetricOperator(GRID, alpha=3.0, gamma=1.0, power=3)
    return RegistrationConfig(ShootingConfig(num_steps, op), sigma=0.1)


def _smooth(op, rng, lead):
    """A stack of smooth velocities, each scaled to max |v| = 1."""
    v = op.multiply(rng.standard_normal(lead + (2,) + GRID.shape), inverse=True)
    return v / np.abs(v).max(axis=(-3, -2, -1), keepdims=True)


def _pairs(t, rng):
    """(T, 2, H, W) source/target images: a blob moving a little per frame, plus noise."""
    ys, xs = np.mgrid[0:GRID.height, 0:GRID.width].astype(np.float64)
    frames = np.stack([np.exp(-((xs - 7.0 - 0.4 * k) ** 2 + (ys - 8.0 + 0.2 * k) ** 2) / 12.0)
                       for k in range(t + 1)])
    frames += 0.01 * rng.standard_normal(frames.shape)
    return np.stack(np.broadcast_arrays(frames[:1], frames[1:]), axis=1)


@pytest.fixture
def workers(monkeypatch):
    """Set the CPU count the nodes see; record the chunk count of every node call."""
    counts = []
    real = geodesic._run_chunks

    def recording(fn, chunks, *per_chunk):
        counts.append(len(chunks))
        return real(fn, chunks, *per_chunk)

    monkeypatch.setattr(geodesic, "_run_chunks", recording)

    def use(n):
        monkeypatch.setattr(geodesic, "_cpu_count", lambda: n)
        counts.clear()
        return counts

    return use


def _shooting_outputs(cfg, v0, g_v, g_phi):
    """Values and input gradients of both nodes, as bytes."""
    op = cfg.shooting.operator
    v = Tensor(v0, requires_grad=True)
    m = Tensor(op.multiply(v0), requires_grad=True)
    vs = integrate_epdiff(cfg.shooting, v, m)
    sum_all(mul(vs, constant(g_v))).backward()
    w = Tensor(vs.values, requires_grad=True)
    phi = integrate_inverse_flow(cfg.shooting, w)
    sum_all(mul(phi, constant(g_phi))).backward()
    return [a.tobytes() for a in (vs.values, v.grad, m.grad, phi.values, w.grad)]


def _loss_outputs(cfg, v0, pairs):
    v = Tensor(v0, requires_grad=True)
    loss = registration_network_loss(cfg, v, pairs)
    loss.backward()
    return [loss.values.tobytes(), v.grad.tobytes()]


def _training_outputs(cfg, pairs):
    net = RegistrationNet(UNetConfig(in_channels=2, base_channels=4, latent_channels=4,
                                     num_down=2, time_embed_dim=4), seed=0)
    history = train_registration_network(net, [pairs], cfg, epochs=2, learning_rate=1e-3,
                                         seed=0)
    return [np.array(history).tobytes()] + [p.values.tobytes()
                                            for p in net.store.params.values()]


@pytest.mark.parametrize("t", [2, 3, 5, 8])
def test_outputs_are_the_same_bits_at_any_worker_count(workers, t):
    cfg = _cfg()
    rng = np.random.default_rng(100 + t)
    op = cfg.shooting.operator
    v0 = 2.0 * _smooth(op, rng, (t,))
    g_v = rng.standard_normal((cfg.shooting.num_steps, t, 2) + GRID.shape)
    g_phi = rng.standard_normal((t, 2) + GRID.shape)
    pairs = _pairs(t, rng)
    results = {}
    for n in WORKERS:
        counts = workers(n)
        results[n] = (_shooting_outputs(cfg, v0, g_v, g_phi), _loss_outputs(cfg, v0, pairs),
                      _training_outputs(cfg, pairs))
        # every node call, forward and backward, split the stack as asked
        assert counts and set(counts) == {min(n, t)}
    for n in WORKERS[1:]:
        for serial, chunked in zip(results[1], results[n]):
            assert serial == chunked


def test_a_single_field_and_a_stack_of_one_run_inline(workers, monkeypatch):
    cfg = _cfg().shooting
    seen = []
    real = geodesic.epdiff_force_values

    def recording(v, m):
        seen.append(threading.current_thread())
        return real(v, m)

    monkeypatch.setattr(geodesic, "epdiff_force_values", recording)
    workers(2)
    for lead in ((), (1,)):
        v0 = _smooth(cfg.operator, np.random.default_rng(5), lead)
        integrate_epdiff(cfg, v0, cfg.operator.multiply(v0))
    assert seen and all(t is threading.main_thread() for t in seen)
    seen.clear()
    v0 = _smooth(cfg.operator, np.random.default_rng(5), (2,))
    integrate_epdiff(cfg, v0, cfg.operator.multiply(v0))
    assert seen and not any(t is threading.main_thread() for t in seen)


def test_importing_the_module_starts_no_thread():
    code = ("import threading, cardiomotion.geodesic as g, cardiomotion.registration; "
            "assert g._pool is None and threading.active_count() == 1")
    subprocess.run([sys.executable, "-c", code], check=True)


# each pair's own divergence step at 10 Euler steps, for velocities scaled to
# max |v| = 10^e: 10^10 diverges at step 6, 10^50 at step 3
_EXPONENTS = {
    "only the last pair": (0, 0, 0, 10),
    "both halves, the later one first": (10, 0, 0, 50),
}


def _diverging_stack(cfg, exponents):
    v0 = _smooth(cfg.operator, np.random.default_rng(3), (len(exponents),))
    return v0 * 10.0 ** np.array(exponents, dtype=np.float64)[:, None, None, None]


def _divergence(cfg, v0, silence):
    """The IntegrationDivergedError of shooting v0, with floating-point warnings silenced.

    "filter" ignores RuntimeWarning process-wide, in every thread; "errstate"
    sets np.errstate in the calling thread only, while RuntimeWarning is an
    error, so the workers must run under the caller's errstate.
    """
    with warnings.catch_warnings():
        if silence == "filter":
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(IntegrationDivergedError) as info:
                integrate_epdiff(cfg, v0, cfg.operator.multiply(v0))
        else:
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(all="ignore"), pytest.raises(IntegrationDivergedError) as info:
                integrate_epdiff(cfg, v0, cfg.operator.multiply(v0))
    return info.value.step, str(info.value)


@pytest.mark.parametrize("silence", ["filter", "errstate"])
@pytest.mark.parametrize("case", list(_EXPONENTS))
def test_divergence_across_chunks_names_the_serial_step(workers, case, silence):
    cfg = ShootingConfig(10, MetricOperator(GRID))
    v0 = _diverging_stack(cfg, _EXPONENTS[case])
    workers(1)
    serial = _divergence(cfg, v0, silence)
    alone = {}
    for t, e in enumerate(_EXPONENTS[case]):
        if e:
            alone[t] = _divergence(cfg, v0[t:t + 1], silence)[0]
    assert serial[0] == min(alone.values())
    for n in WORKERS[1:]:
        counts = workers(n)
        assert _divergence(cfg, v0, silence) == serial
        assert counts == [min(n, len(v0))]
    if len(alone) > 1:
        # the pair of the second chunk at two workers diverges first
        assert alone[3] < alone[0]


_FORK_SCRIPT = """
import os, signal, threading, time
import cardiomotion.geodesic as g
g._cpu_count = lambda: 2
chunks = [slice(0, 1), slice(1, 2)]
both = threading.Barrier(2)
g._run_chunks(lambda p: both.wait(timeout=10), chunks)  # the pool now holds two idle threads
time.sleep(0.2)
pid = os.fork()
if pid == 0:
    signal.alarm(10)
    g._run_chunks(lambda p: None, chunks)
    os._exit(0)
_, status = os.waitpid(pid, 0)
assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
"""


def test_a_forked_child_shoots_on_threads_of_its_own():
    # the child inherits the parent's pool object but none of its threads
    subprocess.run([sys.executable, "-c", _FORK_SCRIPT], check=True, timeout=60)
