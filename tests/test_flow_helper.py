"""The registration energy's inverse flow on a helper process, one Euler step behind
EPDiff: the same bytes and exceptions as inline, state kept per recorded graph, and
no helper in the pool's workers, on one CPU or after its parent exits."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import cardiomotion
import cardiomotion.geodesic as geodesic
import cardiomotion.registration as registration
from cardiomotion.errors import IntegrationDivergedError
from cardiomotion.geodesic import ShootingConfig, integrate_geodesic, shoot
from cardiomotion.grid import Grid2, ScalarField, VectorField
from cardiomotion.metric import MetricOperator
from cardiomotion.nn.tensor import Tensor
from cardiomotion.registration import (RegistrationConfig, energy, energy_gradient, register_pair,
                                       registration_network_loss)

GRID = Grid2(16, 16)
OP = MetricOperator(GRID, alpha=3.0, gamma=1.0, power=3)
CFG = RegistrationConfig(ShootingConfig(5, OP), sigma=0.1, learning_rate=0.01, max_iterations=15)


def _images(rng):
    ys, xs = np.mgrid[0:GRID.height, 0:GRID.width].astype(np.float64)
    src = np.exp(-((xs - 7.0) ** 2 + (ys - 8.0) ** 2) / 12.0)
    tgt = np.exp(-((xs - 8.2) ** 2 + (ys - 7.6) ** 2) / 12.0)
    return src + 0.01 * rng.standard_normal(src.shape), tgt


def _velocity(rng, scale=0.3):
    return VectorField(GRID, *OP.multiply(rng.standard_normal((2,) + GRID.shape), inverse=True)
                       * scale)


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count that the energy sees: 1 shoots inline, 2 on the helper."""

    def use(n):
        monkeypatch.setattr(registration, "_cpu_count", lambda: n)
        helper = registration._flow_helper()
        assert (helper is None) == (n == 1)
        return helper

    return use


def _both(cpus, run):
    """``run()`` inline, then on the helper."""
    out = []
    for n in (1, 2):
        cpus(n)
        out.append(run())
    return out


def test_energy_gradient_and_registration_are_the_same_bytes_on_the_helper(cpus):
    rng = np.random.default_rng(0)
    src, tgt = (ScalarField(GRID, a) for a in _images(rng))
    v0 = _velocity(rng)

    def run():
        result = register_pair(CFG, src, tgt)
        path = result.path
        return [np.array(energy(CFG, v0, src, tgt)).tobytes(),
                energy_gradient(CFG, v0, src, tgt).values.tobytes(),
                result.v0.values.tobytes(), np.array(result.energy_trace).tobytes(),
                path.velocities.tobytes(), path.inverse_map.values.tobytes(),
                path.forward_map.values.tobytes()]

    inline, helper = _both(cpus, run)
    assert helper == inline


def test_registration_path_is_the_path_that_shoot_gives(cpus):
    src, tgt = (ScalarField(GRID, a) for a in _images(np.random.default_rng(1)))
    for n in (1, 2):
        cpus(n)
        result = register_pair(CFG, src, tgt)
        path = shoot(CFG.shooting, result.v0)
        assert result.path.velocities.tobytes() == path.velocities.tobytes()
        assert result.path.inverse_map.values.tobytes() == path.inverse_map.values.tobytes()
        assert result.path.forward_map.values.tobytes() == path.forward_map.values.tobytes()


def test_shooting_on_the_helper_is_shoots_bytes(cpus):
    v0 = _velocity(np.random.default_rng(2))
    path = shoot(CFG.shooting, v0)
    velocities, inverse = integrate_geodesic(CFG.shooting, v0.values, OP.multiply(v0.values),
                                             cpus(2))
    assert velocities.tobytes() == path.velocities.tobytes()
    assert inverse.values.tobytes() == path.inverse_map.values.tobytes()


def test_float32_network_loss_gradient_is_the_same_bytes_on_the_helper(cpus):
    rng = np.random.default_rng(3)
    v = (0.3 * rng.standard_normal((3, 2) + GRID.shape)).astype(np.float32)
    pairs = rng.random((3, 2) + GRID.shape).astype(np.float32)

    def run():
        v0 = Tensor(v, requires_grad=True)
        loss = registration_network_loss(CFG, v0, pairs)
        loss.backward()
        assert v0.grad.dtype == np.float32
        return loss.values.tobytes(), v0.grad.tobytes()

    inline, helper = _both(cpus, run)
    assert helper == inline


def _energy_graph(v):
    src, tgt = _images(np.random.default_rng(4))
    v0 = Tensor(v.values, requires_grad=True)
    total = registration._energy_terms(CFG.shooting, CFG.sigma, v0, src, tgt)[0]
    return v0, total


def test_recorded_graphs_keep_their_flow_until_their_backward(cpus):
    rng = np.random.default_rng(5)
    velocities = [_velocity(rng) for _ in range(3)]
    cpus(1)
    expected = []
    for v in velocities:
        v0, total = _energy_graph(v)
        total.backward()
        expected.append(v0.grad.tobytes())

    helper = cpus(2)
    graphs = [_energy_graph(v) for v in velocities]
    assert len(helper._held) >= 3
    # backward in another order than the forwards ran, the middle graph twice:
    # its second backward runs the flow again, here, and the gradients add up
    for k in (2, 0, 1, 1):
        graphs[k][1].backward()
    assert [v0.grad.tobytes() for v0, _ in graphs[::2]] == expected[::2]
    assert graphs[1][0].grad.tobytes() == (2 * np.frombuffer(expected[1])).tobytes()

    # a graph freed without a backward lets the process drop its flow at the next exchange
    dropped = _energy_graph(velocities[0])
    before = set(helper._held)
    del dropped
    assert helper._freed and not helper._held & set(helper._freed) and helper._held < before
    energy(CFG, velocities[0], *(ScalarField(GRID, a) for a in _images(rng)))
    assert not helper._freed and not helper.closed


def test_divergence_is_named_at_the_same_step_and_the_next_call_works(cpus):
    rng = np.random.default_rng(6)
    src, tgt = (ScalarField(GRID, a) for a in _images(rng))
    huge = VectorField(GRID, *(_velocity(rng).values * 1e40))
    v0 = _velocity(rng)
    messages, after = [], []
    for n in (1, 2):
        first = cpus(n)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(IntegrationDivergedError) as info:
            energy_gradient(CFG, huge, src, tgt)
        messages.append(str(info.value))
        if first is not None:
            # the exception discarded the helper; the next call starts a fresh one
            assert first.closed
            first.process.join(10)
            assert first.process.exitcode == 0
            assert registration._flow_helper() is not first
        after.append(energy_gradient(CFG, v0, src, tgt).values.tobytes())
    assert "EPDiff integration" in messages[0] and messages[1] == messages[0]
    assert after[1] == after[0]


def test_an_exception_in_the_backward_exchange_discards_the_helper(cpus, monkeypatch):
    rng = np.random.default_rng(7)
    src, tgt = (ScalarField(GRID, a) for a in _images(rng))
    v0 = _velocity(rng)
    cpus(1)
    expected = energy_gradient(CFG, v0, src, tgt).values.tobytes()
    first = cpus(2)
    real = geodesic._epdiff_adjoint

    def failing(cfg, vs, ms, grads):
        next(grads)
        raise RuntimeError("adjoint failed")

    monkeypatch.setattr(geodesic, "_epdiff_adjoint", failing)
    with pytest.raises(RuntimeError, match="adjoint failed"):
        energy_gradient(CFG, v0, src, tgt)
    assert first.closed
    monkeypatch.setattr(geodesic, "_epdiff_adjoint", real)
    assert energy_gradient(CFG, v0, src, tgt).values.tobytes() == expected
    assert registration._helper is not first and not registration._helper.closed


@pytest.mark.parametrize("setting, error", [("raise", FloatingPointError), ("ignore", IndexError)])
def test_the_flow_runs_under_the_callers_errstate(cpus, setting, error):
    # one step: EPDiff makes no step, so the not-a-number reaches the flow alone, whose
    # sample coordinates raise on their cast to indices, or index out of bounds
    cfg = ShootingConfig(1, OP)
    v = _velocity(np.random.default_rng(8)).values
    v[0, 3, 4] = np.nan
    messages = []
    for n in (1, 2):
        helper = cpus(n)
        with np.errstate(all=setting), pytest.raises(error) as info:
            integrate_geodesic(cfg, v, OP.multiply(v), helper)
        messages.append(str(info.value))
    assert messages[1] == messages[0]


def test_pool_workers_and_one_cpu_start_no_helper(cpus, monkeypatch):
    monkeypatch.setattr(registration, "_helper", None)
    cpus(1)
    register_pair(CFG, *(ScalarField(GRID, a) for a in _images(np.random.default_rng(9))))
    assert registration._helper is None
    assert registration._worker_pool(1).submit(registration._flow_helper).result() is None


# registers one pair on two CPUs and prints the pids of the helper and the forkserver
_CHILD_SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:2]
import numpy as np
from multiprocessing import forkserver
import cardiomotion.registration as registration
from cardiomotion.geodesic import ShootingConfig
from cardiomotion.grid import Grid2, ScalarField
from cardiomotion.metric import MetricOperator

registration._cpu_count = lambda: 2
grid = Grid2(16, 16)
cfg = registration.RegistrationConfig(ShootingConfig(3, MetricOperator(grid)), sigma=0.1,
                                      max_iterations=3)
images = np.random.default_rng(0).random((2, 16, 16))
registration.register_pair(cfg, ScalarField(grid, images[0]), ScalarField(grid, images[1]))
assert registration._pool is None
print(registration._helper.process.pid, forkserver._forkserver._forkserver_pid)
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie, which only its parent's reaping removes, does not."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_no_helper_outlives_its_parent():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cardiomotion.__file__)))
    proc = subprocess.run([sys.executable, "-c", _CHILD_SCRIPT, src], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pids = [int(p) for p in proc.stdout.split()]
    assert len(pids) == 2  # the helper and its forkserver
    deadline = time.monotonic() + 10.0
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not [p for p in pids if _alive(p)]
