"""Registration-net training runs a stack's pairs in fixed groups on worker processes:
the same bytes at any worker count, divergence named as on one CPU, and no worker
outlives its parent."""

import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

import cardiomotion
import cardiomotion.registration as registration
from cardiomotion.errors import ContainerFormatError, IntegrationDivergedError
from cardiomotion.geodesic import ShootingConfig
from cardiomotion.grid import Grid2, ScalarField
from cardiomotion.metric import MetricOperator
from cardiomotion.nn.networks import RegistrationNet, UNetConfig
from cardiomotion.registration import (PAIRS_PER_GROUP, RegistrationConfig, register_pair,
                                       train_registration_network)

GRID = Grid2(16, 16)
UNET = UNetConfig(in_channels=2, base_channels=4, latent_channels=4, num_down=2, time_embed_dim=4)
WORKERS = (1, 2, 3)


def _cfg(num_steps=6):
    op = MetricOperator(GRID, alpha=3.0, gamma=1.0, power=3)
    return RegistrationConfig(ShootingConfig(num_steps, op), sigma=0.1)


def _pairs(t, rng):
    """(T, 2, H, W) source/target images: a blob moving a little per frame, plus noise."""
    ys, xs = np.mgrid[0:GRID.height, 0:GRID.width].astype(np.float64)
    frames = np.stack([np.exp(-((xs - 7.0 - 0.4 * k) ** 2 + (ys - 8.0 + 0.2 * k) ** 2) / 12.0)
                       for k in range(t + 1)])
    frames += 0.01 * rng.standard_normal(frames.shape)
    return np.stack(np.broadcast_arrays(frames[:1], frames[1:]), axis=1)


@pytest.fixture
def workers(monkeypatch):
    """Set the CPU count, and so the pool size, that registration-net training sees."""

    def use(n):
        monkeypatch.setattr(registration, "_cpu_count", lambda: n)

    return use


def test_a_stack_splits_into_fixed_groups_of_pairs(workers, monkeypatch):
    workers(1)  # inline, where the patched loss is the one called
    calls = []
    real = registration.registration_network_loss

    def recording(cfg, v0, pairs, mean_over=None):
        calls.append((len(pairs), mean_over))
        return real(cfg, v0, pairs, mean_over)

    monkeypatch.setattr(registration, "registration_network_loss", recording)
    net = RegistrationNet(UNET, seed=0)
    train_registration_network(net, [_pairs(9, np.random.default_rng(1))], _cfg(2), epochs=1)
    assert PAIRS_PER_GROUP == 4 and calls == [(4, 9), (4, 9), (1, 9)]


@pytest.mark.parametrize("t", [2, 5, 9])
def test_training_is_the_same_bytes_at_any_worker_count(workers, t):
    cfg = _cfg()
    rng = np.random.default_rng(100 + t)
    stacks = [_pairs(t, rng), _pairs(t, rng)[::-1].copy()]
    results = {}
    for n in WORKERS:
        workers(n)
        net = RegistrationNet(UNET, seed=0)
        history = train_registration_network(net, stacks, cfg, epochs=2, learning_rate=1e-3,
                                             seed=0)
        results[n] = [np.array(history).tobytes()] + [p.values.tobytes()
                                                      for p in net.store.params.values()]
        groups = -(-t // PAIRS_PER_GROUP)
        if n > 1 and groups > 1:  # the groups ran on a pool of n workers
            assert registration._pool[0] == n and registration._pool[1]._processes
    for n in WORKERS[1:]:
        assert results[n] == results[1]


def _net_with_output(seed=1):
    """A net whose velocity head is not zero, so that its velocities scale with the images."""
    net = RegistrationNet(UNET, seed=0)
    w = net.store["reg.dec.out.w"]
    w.values[:] = np.random.default_rng(seed).standard_normal(w.values.shape)
    return net


def _divergence(stack):
    """The step and message of training one step on ``stack``, floating-point errors ignored."""
    with np.errstate(all="ignore"), pytest.raises(IntegrationDivergedError) as info:
        train_registration_network(_net_with_output(), [stack], _cfg(10), epochs=1,
                                   learning_rate=1e-3)
    return info.value.step, str(info.value)


def test_divergence_in_two_groups_names_the_earliest_step(workers):
    # at 10 Euler steps, images scaled by 10^2 diverge at step 6, by 10^6 at step 3
    pairs = _pairs(8, np.random.default_rng(3))
    stack = pairs * np.repeat([1e2, 1e6], 4)[:, None, None, None]
    workers(1)
    alone = [_divergence(stack[:4])[0], _divergence(stack[4:])[0]]
    assert alone == [6, 3]
    serial = _divergence(stack)
    assert serial == (3, "EPDiff integration diverged (non-finite values) at step 3")
    for n in WORKERS[1:]:
        workers(n)
        assert _divergence(stack) == serial


def test_the_groups_run_under_the_callers_errstate(workers):
    stack = _pairs(8, np.random.default_rng(3)) * 1e6
    for n in WORKERS:
        workers(n)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            train_registration_network(_net_with_output(), [stack], _cfg(10), epochs=1,
                                       learning_rate=1e-3)


def test_a_group_with_a_non_finite_loss_names_the_optimisation_step(workers):
    # the velocity head starts at zero, and a tiny learning rate keeps it near zero, so
    # only the squared differences of the 10^20-scaled pairs overflow: in the second group
    rng = np.random.default_rng(4)
    good, bad = _pairs(8, rng), _pairs(8, rng)
    bad[4:] *= 1e20
    seed = next(s for s in range(10) if list(np.random.default_rng(s).permutation(2)) == [0, 1])
    for n in WORKERS:
        workers(n)
        net = RegistrationNet(UNET, seed=0)
        with np.errstate(all="ignore"), pytest.raises(IntegrationDivergedError) as info:
            train_registration_network(net, [good, bad], _cfg(), epochs=2, learning_rate=1e-30,
                                       seed=seed)
        # the good stack was zero-based step 0 and took its update; the bad one is step 1
        assert str(info.value) == ("registration network training diverged "
                                   "(non-finite values) at step 1")
        assert net.store.step_count == 1


def test_a_single_pair_registers_outside_the_pool_with_the_same_bytes(workers, monkeypatch):
    # one CPU shoots inline, two or more on the flow helper
    op = MetricOperator(GRID, alpha=3.0, gamma=1.0, power=3)
    cfg = RegistrationConfig(ShootingConfig(5, op), sigma=0.1, learning_rate=0.01,
                             max_iterations=20)
    source, target = (ScalarField(GRID, img) for img in _pairs(1, np.random.default_rng(6))[0])
    monkeypatch.setattr(registration, "_worker_pool", None)  # any use of the pool fails
    results = []
    for n in WORKERS:
        workers(n)
        result = register_pair(cfg, source, target)
        results.append([result.v0.values.tobytes(),
                        np.array(result.energy_trace).tobytes(),
                        result.path.forward_map.x.tobytes(), result.path.inverse_map.y.tobytes()])
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("error", [IntegrationDivergedError(3, "EPDiff integration"),
                                   ContainerFormatError("bad magic", 0)])
def test_errors_keep_their_message_and_fields_through_pickling(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and str(copy) == str(error)
    assert copy.__dict__ == error.__dict__


def test_importing_the_package_starts_no_thread_or_process():
    code = ("import threading, multiprocessing, cardiomotion.cli; "
            "assert threading.active_count() == 1; "
            "assert not multiprocessing.active_children(); "
            "from multiprocessing import forkserver; "
            "assert forkserver._forkserver._forkserver_pid is None")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


# trains one step on two workers and prints the pids of the workers and the forkserver
_CHILD_SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:2]
import numpy as np
from multiprocessing import forkserver
import cardiomotion.registration as registration
from cardiomotion.geodesic import ShootingConfig
from cardiomotion.grid import Grid2
from cardiomotion.metric import MetricOperator
from cardiomotion.nn.networks import RegistrationNet, UNetConfig

registration._cpu_count = lambda: 2
grid = Grid2(16, 16)
cfg = registration.RegistrationConfig(ShootingConfig(3, MetricOperator(grid)), sigma=0.1)
net = RegistrationNet(UNetConfig(base_channels=4, latent_channels=4, num_down=2,
                                 time_embed_dim=4), seed=0)
pairs = np.random.default_rng(0).random((8, 2, 16, 16))
registration.train_registration_network(net, [pairs], cfg, epochs=1)
print(*registration._pool[1]._processes, forkserver._forkserver._forkserver_pid)
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie, which only its parent's reaping removes, does not."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_no_worker_outlives_its_parent():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cardiomotion.__file__)))
    proc = subprocess.run([sys.executable, "-c", _CHILD_SCRIPT, src], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pids = [int(p) for p in proc.stdout.split()]
    assert len(pids) == 3  # two workers and their forkserver
    deadline = time.monotonic() + 10.0
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not [p for p in pids if _alive(p)]
