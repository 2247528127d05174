"""Shared test utilities: the small configuration document of the CLI pipeline tests,
directional finite-difference gradient probes, the metric norm, a tap-by-tap clamped
convolution, and probes of graph lifetime and page faults."""

import contextlib
import gc
import resource
import weakref

import numpy as np

from cardiomotion.geodesic import epdiff_force_adjoint, epdiff_force_values
from cardiomotion.nn.tensor import Tensor, _as_tensor, _make, no_grad

# a 32x32 run small enough to take every CLI subcommand in seconds
RUN_CFG = {
    "grid": {"height": 32, "width": 32},
    "metric": {"alpha": 200.0, "gamma": 1.0, "power": 1},
    "shooting": {"num_steps": 5},
    "registration": {"sigma": 0.05, "learning_rate": 0.01, "max_iterations": 150,
                     "convergence_tol": 1e-9},
    "nets": {"base_channels": 4, "latent_channels": 4, "num_down": 2, "time_embed_dim": 8},
    "diffusion": {"num_steps": 3, "kernel_std": 1.0, "batch_size": 2, "max_epochs": 15,
                  "patience": 10, "learning_rate": 1e-3},
    "phantom": {"num_frames": 4, "r_inner": [6.0, 8.0], "r_outer": [12.0, 14.0]},
    "seed": 0,
}


def force_node(v, m):
    """The EPDiff force of (..., 2, H, W) Tensors v and m as one graph node."""
    v, m = _as_tensor(v), _as_tensor(m)
    vv, mv = v.values, m.values
    return _make(epdiff_force_values(vv, mv), (v, m), lambda g: epdiff_force_adjoint(vv, mv, g))


def metric_norm(op, v):
    """<L v, v> summed over pixels and components of a (..., 2, H, W) array v."""
    return float(np.sum(op.multiply(v) * v))


def directional_probe_check(f, leaves, rng, probes=4, eps=1e-6, rtol=1e-5):
    """Compare reverse-mode gradients of a scalar graph against central FD.

    f maps a list of Tensors (same shapes as ``leaves``) to a scalar Tensor.
    For each random direction d the analytic directional derivative
    sum_i <grad_i, d_i> must match (f(x + eps d) - f(x - eps d)) / (2 eps).
    Returns the worst relative error over all probes.
    """
    base = [np.asarray(a, dtype=np.float64) for a in leaves]
    ts = [Tensor(a.copy(), requires_grad=True) for a in base]
    out = f(ts)
    out.backward()
    grads = [t.grad if t.grad is not None else np.zeros_like(t.values) for t in ts]

    worst = 0.0
    for _ in range(probes):
        ds = [rng.standard_normal(a.shape) for a in base]
        analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, ds))

        def value(sign):
            with no_grad():
                shifted = [Tensor(a + sign * eps * d) for a, d in zip(base, ds)]
                return f(shifted).item()

        fd = (value(+1.0) - value(-1.0)) / (2.0 * eps)
        denom = max(abs(analytic), abs(fd), 1e-8)
        rel = abs(analytic - fd) / denom
        worst = max(worst, rel)
        assert rel < rtol, f"directional derivative mismatch: {analytic} vs {fd} (rel {rel:.2e})"
    return worst


def clamped_convolution(weights, a, axis):
    """The clamped-edge 1-D convolution of ``a`` with ``weights`` along ``axis``, tap by tap.

    Output i adds weight k times sample i + k - r, clamped into the axis (r the
    radius); an oracle for the diffusion noise smoothing.
    """
    r = (len(weights) - 1) // 2
    n = a.shape[axis]
    out = np.zeros(np.shape(a))
    for k, wk in enumerate(weights):
        out += wk * np.take(a, np.clip(np.arange(n) + k - r, 0, n - 1), axis=axis)
    return out


def keep_away_from(values, points, margin=0.05, nudge=0.1):
    """Nudge entries of ``values`` that sit within ``margin`` of any point.

    Finite differencing a piecewise-linear op across one of its kinks is
    meaningless, so test inputs step clear of them first.
    """
    out = np.asarray(values, dtype=np.float64).copy()
    for p in np.atleast_1d(points):
        close = np.abs(out - p) < margin
        out[close] = out[close] + nudge
    return out


def keep_off_lattice(coords, margin=0.05, nudge=0.1):
    """Push coordinates away from integer lattice lines (bilinear kinks)."""
    out = np.asarray(coords, dtype=np.float64).copy()
    close = np.abs(out - np.round(out)) < margin
    out[close] = out[close] + nudge
    return out


@contextlib.contextmanager
def graph_lifetimes(module, name, scalar=lambda out: out):
    """Patch the graph builder ``module.name`` to record, at each call, whether the
    scalar node returned by the previous call is still alive.

    ``scalar`` picks that node from the builder's return value.  Yields the
    list of those flags, one per call after the first.  The cycle collector
    is off inside the block, so only reference counting frees a node.
    """
    build = getattr(module, name)
    last, alive = [], []

    def tracked(*args, **kwargs):
        if last:
            alive.append(last.pop()() is not None)
        out = build(*args, **kwargs)
        last.append(weakref.ref(scalar(out)))
        return out

    collecting = gc.isenabled()
    setattr(module, name, tracked)
    gc.disable()
    try:
        yield alive
    finally:
        setattr(module, name, build)
        if collecting:
            gc.enable()


class MinorFaults:
    """Minor page faults of this process, every thread counted, inside a ``with`` block.

    ``count`` holds the number once the block has exited.
    """

    def __enter__(self):
        self.count = None
        self._start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        return self

    def __exit__(self, *exc):
        self.count = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - self._start
