"""The geometry kernels follow their input's dtype, and float32 training geometry is accurate.

Registration-net training runs the registration energy in float32: every
kernel must keep a float32 input float32 (a float64 array anywhere in the
graph promotes the rest of it, and the gradient reaching the float32
networks), and a float64 input float64.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import cardiomotion
from cardiomotion.geodesic import (ShootingConfig, epdiff_force_adjoint, epdiff_force_values,
                                   integrate_epdiff, integrate_inverse_flow)
from cardiomotion.grid import (Grid2, bilinear_adjoint_field, bilinear_apply,
                               bilinear_coord_derivatives, bilinear_prepare, ddx, ddx_adjoint,
                               ddy, ddy_adjoint)
from cardiomotion.metric import MetricOperator
from cardiomotion.nn.tensor import Tensor, mul, sum_all
from cardiomotion.phantom import DatasetRanges, make_dataset
from cardiomotion.registration import (RegistrationConfig, pair_stack,
                                       registration_network_loss)

GRID = Grid2(16, 16)
DTYPES = [np.float32, np.float64]


def _cfg(num_steps=4):
    op = MetricOperator(GRID, alpha=3.0, gamma=1.0, power=3)
    return RegistrationConfig(ShootingConfig(num_steps, op), sigma=0.1)


def _smooth(rng, lead, dtype):
    """Smooth velocities of max |v| = 1.5 px."""
    v = _cfg().shooting.operator.multiply(rng.standard_normal(lead + (2,) + GRID.shape),
                                          inverse=True)
    return (1.5 * v / np.abs(v).max()).astype(dtype)


def _assert_dtype(dtype, *arrays):
    for a in arrays:
        assert a.dtype == dtype


@pytest.mark.parametrize("dtype", DTYPES)
def test_finite_differences_and_their_adjoints_keep_the_dtype(dtype):
    a = np.random.default_rng(0).standard_normal((3, 2) + GRID.shape).astype(dtype)
    _assert_dtype(dtype, ddx(a), ddy(a), ddx_adjoint(a), ddy_adjoint(a))


@pytest.mark.parametrize("dtype", DTYPES)
def test_bilinear_kernels_keep_the_dtype(dtype):
    rng = np.random.default_rng(1)
    values = rng.standard_normal((3, 2) + GRID.shape).astype(dtype)
    # coordinates inside, on and beyond the domain, shared by both components
    mx = rng.uniform(-2.0, 17.0, (3, 1) + GRID.shape).astype(dtype)
    my = rng.uniform(-2.0, 17.0, (3, 1) + GRID.shape).astype(dtype)
    idx, tx, ty, inx, iny = bilinear_prepare(values.shape, mx, my)
    _assert_dtype(dtype, tx, ty)
    _assert_dtype(dtype, bilinear_apply(values, idx, tx, ty),
                  *bilinear_coord_derivatives(values, idx, tx, ty, inx, iny),
                  bilinear_adjoint_field(values.shape, idx, tx, ty, values))


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("dtype", DTYPES)
def test_metric_multiplies_keep_the_dtype(dtype, inverse):
    op = _cfg().shooting.operator
    a = np.random.default_rng(2).standard_normal((3, 2) + GRID.shape)
    got = op.multiply(a.astype(dtype), inverse=inverse)
    _assert_dtype(dtype, got)
    ref = op.multiply(a, inverse=inverse)
    assert np.max(np.abs(got - ref)) <= 1e-5 * np.max(np.abs(ref))


@pytest.mark.parametrize("dtype", DTYPES)
def test_the_force_and_its_adjoint_keep_the_dtype(dtype):
    rng = np.random.default_rng(3)
    v, m, g = (rng.standard_normal((3, 2) + GRID.shape).astype(dtype) for _ in range(3))
    _assert_dtype(dtype, epdiff_force_values(v, m), *epdiff_force_adjoint(v, m, g))


@pytest.mark.parametrize("dtype", DTYPES)
def test_both_shooting_nodes_keep_the_dtype_forward_and_backward(dtype):
    cfg = _cfg().shooting
    rng = np.random.default_rng(4)
    v0 = _smooth(rng, (3,), dtype)
    v = Tensor(v0, requires_grad=True)
    m = Tensor(cfg.operator.multiply(v0), requires_grad=True)
    vs = integrate_epdiff(cfg, v, m)
    w = Tensor(vs.values, requires_grad=True)
    phi = integrate_inverse_flow(cfg, w)
    _assert_dtype(dtype, m.values, vs.values, phi.values)
    g_v = Tensor(rng.standard_normal(vs.shape).astype(dtype))
    g_phi = Tensor(rng.standard_normal(phi.shape).astype(dtype))
    sum_all(mul(vs, g_v)).backward()
    sum_all(mul(phi, g_phi)).backward()
    _assert_dtype(dtype, v.grad, m.grad, w.grad)


@pytest.mark.parametrize("dtype", DTYPES)
def test_the_network_loss_and_its_v0_gradient_keep_the_dtype(dtype):
    rng = np.random.default_rng(5)
    v = Tensor(_smooth(rng, (3,), dtype), requires_grad=True)
    # float64 images, as the pair stacks are stored
    pairs = rng.random((3, 2) + GRID.shape)
    loss = registration_network_loss(_cfg(), v, pairs)
    loss.backward()
    _assert_dtype(dtype, loss.values, v.grad)


# Criterion 6's registration settings and its first training sequence.  v0 is
# the sequence's true motion under a Gaussian window (std 16 px about the
# centre), so it is smooth and moves the myocardium by up to 2.2 px; half of
# it and all of it are compared.  Measured errors of float32 against float64
# (OpenBLAS, 2-core x86-64 VM): loss 2.3e-7 and 8.8e-7 relative, v0 gradient
# 8.6e-6 and 1.2e-4 relative in the L2 norm.
_LOSS_REL = 1e-5
_GRAD_REL = 1e-3


@pytest.mark.parametrize("scale", [0.5, 1.0])
def test_float32_energy_matches_float64_on_a_criterion_6_stack(scale):
    grid = Grid2(64, 64)
    cfg = RegistrationConfig(ShootingConfig(10, MetricOperator(grid, alpha=200.0, gamma=1.0,
                                                               power=1)), sigma=0.01)
    sample = make_dataset(3, grid, DatasetRanges(), seed=2026)["train"][0]
    pairs = pair_stack(sample.images)
    assert pairs.shape == (8, 2, 64, 64)
    ys, xs = np.mgrid[0:64, 0:64] - 31.5
    v0 = scale * sample.motions.values * np.exp(-(xs**2 + ys**2) / (2 * 16.0**2))
    results = {}
    for dtype in DTYPES:
        v = Tensor(v0.astype(dtype), requires_grad=True)
        loss = registration_network_loss(cfg, v, pairs)
        loss.backward()
        results[dtype] = (loss.item(), v.grad.astype(np.float64))
    (l32, g32), (l64, g64) = results[np.float32], results[np.float64]
    assert abs(l32 - l64) <= _LOSS_REL * abs(l64)
    assert np.linalg.norm(g32 - g64) <= _GRAD_REL * np.linalg.norm(g64)


# one child process per BLAS thread count, since the count is read when numpy loads
_THREADS_SCRIPT = """
import hashlib, numpy as np
from cardiomotion.geodesic import ShootingConfig
from cardiomotion.grid import Grid2
from cardiomotion.metric import MetricOperator
from cardiomotion.nn.tensor import Tensor
from cardiomotion.registration import RegistrationConfig, registration_network_loss
op = MetricOperator(Grid2(64, 64), alpha=200.0, gamma=1.0, power=1)
rng = np.random.default_rng(7)
a = rng.standard_normal((8, 2, 64, 64)).astype(np.float32)
v = Tensor(op.multiply(a, inverse=True), requires_grad=True)
loss = registration_network_loss(RegistrationConfig(ShootingConfig(10, op), sigma=0.01), v,
                                 rng.random((8, 2, 64, 64)))
loss.backward()
outputs = (op.multiply(a), v.values, loss.values, v.grad)
assert all(x.dtype == np.float32 for x in outputs)
print(hashlib.sha256(b"".join(x.tobytes() for x in outputs)).hexdigest())
"""


def test_float32_geometry_is_the_same_bits_at_one_and_two_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cardiomotion.__file__)))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    digests = set()
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT],
                              env=dict(env, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                                       MKL_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1
