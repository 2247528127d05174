"""Geodesic shooting: EPDiff integration and flow maps.

An initial velocity v0 determines the whole deformation path.  In
momentum form, EPDiff reads

    dm/dt = -f(v, m),   f = (Dv)^T m + (Dm) v + m div v,   m = L v,

and forward Euler carries the momentum along with the velocity,

    m_{k+1} = m_k - dt * f_k,    v_{k+1} = v_k - dt * K f_k.

This is the same discrete velocity sequence as Euler steps of
dv/dt = -K f(v, L v): L K = I on the periodic grid, so L v_{k+1} =
m_{k+1} in exact arithmetic, and each step needs one K multiply
instead of recomputing m = L v.  The force f and its adjoint are array
functions (``epdiff_force_values``, ``epdiff_force_adjoint``) that
EPDiff calls once per Euler step.  The deformation maps are accumulated
from the per-step velocities:

    forward:  phi_{k+1} = phi_k + dt * (v_k o phi_k)
    inverse:  phi_{k+1}^-1 (x) = phi_k^-1 (x - dt * v_k(x))

Velocities, momenta and maps are (..., 2, H, W) Tensors, the (x, y)
components on axis -3; (2, H, W) is one field and (T, 2, H, W) a stack
of T.  ``integrate_epdiff`` returns the N velocities stacked as one
(N, ..., 2, H, W) Tensor, which the flows take.

Shooting is two stages over the Euler steps.  EPDiff makes v_k from
v_{k-1}, and the inverse flow takes v_k in the same order; in the
backward pass the flow's adjoint hands back the gradients of v_{N-1} ..
v_0 in the order that EPDiff's adjoint takes them.  Each stage's steps
and their exact adjoint (discretize, then differentiate) have one
implementation: ``_epdiff_steps`` and ``_epdiff_adjoint``, and
``_InverseFlow``.  ``integrate_epdiff`` and ``integrate_inverse_flow``
are one graph node over one stage each; ``integrate_geodesic`` is one
node over both, from (v0, L v0) to phi_1^-1, and ``shoot`` and the
registration energy call it.  It runs the stages one after the other, or,
given a ``FlowHelper``, the flow on a helper process one Euler step
behind EPDiff, with the same bits and the same exceptions.  The forward
flow, which only ``shoot`` needs, runs on the bilinear kernels and
records no graph.  The nodes always keep the velocities; the momenta,
maps and sample sets that only the backward pass reads are kept only
while the node records (``nn.tensor.recording``).  Without a graph
(``shoot``, ``energy``, an evaluation under ``no_grad``) each loop holds
only its current momentum, map and sample set, and returns the same
bits.

Every array the nodes allocate (velocities, momenta, maps, their
gradients and the identity coordinates) takes the dtype of the velocity,
and the kernels they call keep it: registration-net training shoots in
float32, while ``shoot`` and the direct registration path shoot in
float64.

The fields of a (T, 2, H, W) stack are independent geodesics, and every
operation of the stages acts on one field at a time.  Each stage runs its
step loop over the whole stack; registration-net training shoots its
stacks in groups of pairs on worker processes (``registration``).
"""

from __future__ import annotations

import builtins
import contextlib
import itertools
import json
import signal
import weakref
from dataclasses import dataclass
from multiprocessing import BufferTooShort

import numpy as np

from .errors import IntegrationDivergedError
from .grid import (Grid2, MapField, VectorField, bilinear_adjoint_field, bilinear_apply,
                   bilinear_coord_derivatives, bilinear_prepare, bilinear_sample,
                   coordinate_arrays, ddx, ddx_adjoint, ddy, ddy_adjoint)
from .metric import MetricOperator
from .nn.tensor import Tensor, _as_tensor, _keep_heap_mapped, _make, recording

# one component of a (..., 2, H, W) stack, kept as a (..., 1, H, W) axis
_X, _Y = np.s_[..., 0:1, :, :], np.s_[..., 1:2, :, :]


# the shooting nodes keep every step's velocity, and while recording its
# momentum, map and sample set too
MAX_STEPS = 10_000


@dataclass
class ShootingConfig:
    """Time discretization of [0, 1] plus the metric operator."""

    num_steps: int
    operator: MetricOperator

    def __post_init__(self):
        if not 1 <= self.num_steps <= MAX_STEPS:
            raise ValueError(f"num_steps must be in [1, {MAX_STEPS}], got {self.num_steps}")


@dataclass
class GeodesicPath:
    """The (N, 2, H, W) per-step velocities and the endpoint maps of one geodesic."""

    velocities: np.ndarray
    inverse_map: MapField
    forward_map: MapField


def epdiff_force_values(v, m):
    """The EPDiff force (Dv)^T m + (Dm) v + m div v of (..., 2, H, W) arrays v and m.

    Rows r of the terms are sum_c dv_c/dx_r m_c, sum_c dm_r/dx_c v_c and
    m_r div v; the sums over c run over the component axis.
    """
    dvx, dvy, dmx, dmy = ddx(v), ddy(v), ddx(m), ddy(m)
    f = dmx * v[_X]
    f += dmy * v[_Y]
    f += m * (dvx[_X] + dvy[_Y])
    for r, d in ((0, dvx), (1, dvy)):
        f[..., r, :, :] += (d * m).sum(axis=-3)
    return f


def epdiff_force_adjoint(v, m, g):
    """(g_v, g_m): the gradients of <g, epdiff_force_values(v, m)> with respect to v and m.

    The derivatives of v and m are recomputed rather than kept.  The terms
    that a finite-difference adjoint acts on are summed before applying it:
    one d/dx and one d/dy adjoint of a (..., 2, H, W) stack for each input.
    """
    dvx, dvy, dmx, dmy = ddx(v), ddy(v), ddx(m), ddy(m)
    gx, gy = g[_X], g[_Y]
    # momentum: the d/dx and d/dy adjoints of g vx and g vy, plus
    # gx dv/dx + gy dv/dy + g div v
    gm = ddx_adjoint(g * v[_X])
    gm += ddy_adjoint(g * v[_Y])
    local = gx * dvx
    local += gy * dvy
    local += g * (dvx[_X] + dvy[_Y])
    gm += local
    # velocity: the d/dx and d/dy adjoints of gx m + (s, 0) and gy m + (0, s),
    # s = <g, m> over components, plus (<g, dm/dx>, <g, dm/dy>)
    s = (g * m).sum(axis=-3)
    px = gx * m
    px[..., 0, :, :] += s
    py = gy * m
    py[..., 1, :, :] += s
    gv = ddx_adjoint(px)
    gv += ddy_adjoint(py)
    for r, d in ((0, dmx), (1, dmy)):
        gv[..., r, :, :] += (g * d).sum(axis=-3)
    return gv, gm


def _epdiff(cfg: ShootingConfig, v: Tensor, m: Tensor):
    """(vs, ms, steps) for EPDiff from v with momentum m.

    ``vs`` is the (N, ..., 2, H, W) velocity stack with v_0 = v, and ``ms``
    the stack of m_0 .. m_{N-2} while v and m record, else None (the last
    momentum drives no step).  Iterating ``steps`` fills them, one Euler
    step per item, and yields each v_k, v_0 first, as soon as it is made.
    The momentum is carried in v's dtype.
    """
    n, dtype = cfg.num_steps, v.values.dtype
    vs = np.empty((n,) + v.shape, dtype)
    vs[0] = v.values
    ms = np.empty((n - 1,) + v.shape, dtype) if recording(v, m) else None
    return vs, ms, _epdiff_steps(cfg, vs, ms, m.values.astype(dtype, copy=False))


def _epdiff_steps(cfg: ShootingConfig, vs: np.ndarray, ms, m_k: np.ndarray):
    op, dt = cfg.operator, 1.0 / cfg.num_steps
    yield vs[0]
    for k in range(len(vs) - 1):
        if ms is not None:
            ms[k] = m_k
        f = epdiff_force_values(vs[k], m_k)
        vs[k + 1] = vs[k] - op.multiply(f, inverse=True) * dt
        if not np.all(np.isfinite(vs[k + 1])):
            raise IntegrationDivergedError(k + 1, "EPDiff integration")
        m_k = m_k - f * dt
        yield vs[k + 1]


def _epdiff_adjoint(cfg: ShootingConfig, vs: np.ndarray, ms: np.ndarray, grads):
    """(a_v, a_m): the gradients of v_0 and m_0 from those of v_{N-1} .. v_0.

    ``grads`` yields the gradients of the outputs v_{N-1} .. v_0 in that
    order, and each is read before the next is asked for.  The adjoint of
    the Euler steps runs from the last to the first: with a_v and a_m the
    gradients reaching v_{k+1} and m_{k+1}, the force f_k receives g_f =
    -dt (K a_v + a_m); the force adjoint carries g_f to (v_k, m_k), where
    it adds to a_v and a_m along with the gradient of the output v_k.
    """
    op, dt = cfg.operator, 1.0 / cfg.num_steps
    a_v = next(grads).copy()
    a_m = np.zeros(vs.shape[1:], vs.dtype)
    for k in range(len(vs) - 2, -1, -1):
        g_f = (op.multiply(a_v, inverse=True) + a_m) * -dt
        g_v, g_m = epdiff_force_adjoint(vs[k], ms[k], g_f)
        a_v += g_v
        a_v += next(grads)
        a_m += g_m
    return a_v, a_m


def _identity(shape: tuple, dtype) -> np.ndarray:
    """Identity map coordinates in a (..., 2, H, W) ``shape`` and ``dtype``."""
    xs, ys = coordinate_arrays(Grid2(*shape[-2:]))
    return np.broadcast_to(np.stack([xs, ys]).astype(dtype, copy=False), shape)


class _InverseFlow:
    """The inverse flow's semi-Lagrangian steps, one per velocity, and their adjoint.

    Only while it records does it keep each step's sample coordinates
    (their ``bilinear_prepare`` output) and the map phi_k they sample;
    otherwise it holds the current map alone.  ``phi`` is the map so far,
    in the velocities' (..., 2, H, W) shape and dtype.
    """

    def __init__(self, shape: tuple, dtype, num_steps: int, record: bool):
        self.ident = _identity(shape, dtype)
        self.dt = 1.0 / num_steps
        self.phi = self.ident
        self.kept = [] if record else None

    def step(self, w: np.ndarray) -> None:
        q = w * -self.dt + self.ident
        prep = bilinear_prepare(self.ident.shape, q[_X], q[_Y])
        if self.kept is not None:
            self.kept.append((self.phi, prep))
        self.phi = bilinear_apply(self.phi, *prep[:3])

    def adjoint(self, g: np.ndarray):
        """Yields the gradients of v_{N-1} .. v_0, given the gradient ``g`` of the final map.

        The derivatives of phi_k with respect to the coordinates give the
        gradient of v_k, and the adjoint of the sampling carries the
        gradient on to phi_k.
        """
        for k in range(len(self.kept) - 1, -1, -1):
            phi, prep = self.kept[k]
            grad = np.empty(phi.shape, phi.dtype)
            for axis, d in zip((_X, _Y), bilinear_coord_derivatives(phi, *prep)):
                grad[axis] = (d * g).sum(axis=-3, keepdims=True)
            grad *= -self.dt
            yield grad
            if k:  # phi_0 is the identity, a constant
                g = bilinear_adjoint_field(phi.shape, *prep[:3], g)


def _flow_along(velocities: np.ndarray, record: bool) -> _InverseFlow:
    """The inverse flow after a step along each of the (N, ..., 2, H, W) velocities."""
    flow = _InverseFlow(velocities.shape[1:], velocities.dtype, len(velocities), record)
    for w in velocities:
        flow.step(w)
    return flow


def _check_count(cfg: ShootingConfig, velocities: Tensor) -> np.ndarray:
    if velocities.shape[0] != cfg.num_steps:
        raise ValueError(f"expected {cfg.num_steps} velocities, got {velocities.shape[0]}")
    return velocities.values


def integrate_epdiff(cfg: ShootingConfig, v, m) -> Tensor:
    """Forward-Euler velocities v_0 .. v_{N-1} from v_0 = v, stacked on a new axis 0.

    ``v`` is a (..., 2, H, W) Tensor and ``m`` its momentum L v, which is
    required: the registration energy passes the L v0 of its regulariser.
    One graph node: it keeps every v_k, and every m_k only while it
    records; its backward pass is ``_epdiff_adjoint``.
    """
    v, m = _as_tensor(v), _as_tensor(m)
    vs, ms, steps = _epdiff(cfg, v, m)
    for _ in steps:
        pass
    return _make(vs, (v, m),
                 lambda g: _epdiff_adjoint(cfg, vs, ms, (g[k] for k in range(len(g) - 1, -1, -1))))


def integrate_inverse_flow(cfg: ShootingConfig, velocities) -> Tensor:
    """phi_1^-1 accumulated by semi-Lagrangian pullback, as (x, y) coordinates.

    ``velocities`` is the (N, ..., 2, H, W) stack of ``integrate_epdiff``.
    One graph node over ``_InverseFlow``, whose adjoint runs from the last
    step to the first.
    """
    velocities = _as_tensor(velocities)
    vs = _check_count(cfg, velocities)
    flow = _flow_along(vs, recording(velocities))
    return _make(flow.phi, (velocities,), lambda g: (np.stack(list(flow.adjoint(g))[::-1]),))


def integrate_geodesic(cfg: ShootingConfig, v, m,
                       helper: FlowHelper | None = None) -> tuple[np.ndarray, Tensor]:
    """(velocities, phi_1^-1): ``integrate_epdiff`` and ``integrate_inverse_flow`` in one node.

    The velocities come back as the (N, ..., 2, H, W) array; the inverse
    map is a Tensor whose one graph node has v and m as parents.  Without a
    ``helper`` the two stages run one after the other.  With one, the flow
    runs on the helper's process, one Euler step behind EPDiff: each v_k is
    sent as soon as it is made, and in the backward pass each gradient of
    v_k comes back as soon as the flow's adjoint has it, for the EPDiff
    adjoint to consume.  The bits are the same either way, and so are the
    exceptions: in the forward pass EPDiff's come first, in the backward
    pass the flow's, as if the two nodes ran one after the other.
    """
    v, m = _as_tensor(v), _as_tensor(m)
    vs, ms, steps = _epdiff(cfg, v, m)
    record = ms is not None
    if helper is None:
        for _ in steps:
            pass
        flow = _flow_along(vs, record)
        phi, token = flow.phi, None
    else:
        flow = None
        phi, token = helper.forward(vs, steps, record)

    def vjp(g):
        nonlocal flow
        if token is not None and helper.holds(token):
            return helper.backward(token, g, vs, lambda grads: _epdiff_adjoint(cfg, vs, ms, grads))
        if flow is None:  # the helper that kept this forward's flow is gone: run it again
            flow = _flow_along(vs, True)
        # the flow's adjoint runs to its end first, so that its errors come first
        return _epdiff_adjoint(cfg, vs, ms, iter(list(flow.adjoint(g))))

    out = _make(phi, (v, m), vjp)
    if token is not None:
        helper.free_with(out, token)
    return vs, out


def integrate_forward_flow(cfg: ShootingConfig, velocities) -> np.ndarray:
    """phi_1 accumulated by Euler steps along the velocity at the mapped point.

    ``velocities`` is the (N, ..., 2, H, W) stack of ``integrate_epdiff``.
    The map is returned as a (..., 2, H, W) array: nothing differentiates it.
    """
    vs = _check_count(cfg, _as_tensor(velocities))
    phi = np.array(_identity(vs.shape[1:], vs.dtype))
    dt = 1.0 / cfg.num_steps
    for w in vs:
        phi += bilinear_sample(w, phi[_X], phi[_Y]) * dt
    return phi


def shoot(cfg: ShootingConfig, v0: VectorField) -> GeodesicPath:
    """Integrate EPDiff from v0 and accumulate both endpoint maps."""
    if v0.grid != cfg.operator.grid:
        raise ValueError("vector field grid does not match operator grid")
    grid = v0.grid
    velocities, inverse = integrate_geodesic(cfg, v0.values, cfg.operator.multiply(v0.values))
    return GeodesicPath(
        velocities=velocities,
        inverse_map=MapField(grid, *inverse.values),
        forward_map=MapField(grid, *integrate_forward_flow(cfg, velocities)),
    )


# ---------------------------------------------------------------------------
# the inverse flow on a helper process
# ---------------------------------------------------------------------------


def _bytes(a: np.ndarray) -> np.ndarray:
    """The bytes of a C-contiguous array, as a writable flat view."""
    return a.reshape(-1).view(np.uint8)


def _send_error(conn, error: Exception, size: int) -> None:
    """Send ``error`` in place of an array of ``size`` bytes, as a message of another length."""
    message = json.dumps([type(error).__name__, str(error)]).encode()
    conn.send_bytes(message + b" " * (len(message) == size))


class FlowHelper:
    """The calling end of a process that runs the inverse flow (``serve_inverse_flow``).

    One ``multiprocessing.Pipe`` connects the two.  Each exchange is one
    header (JSON) followed by arrays as raw bytes, which the receiving side
    reads into preallocated arrays.  A recorded forward's flow stays on the
    process until that graph's backward pass runs or the graph is freed;
    the freed ones are named in the next header.  Any exception during an
    exchange closes the pipe, the process then exits, and the helper is
    ``closed`` for good.  One thread at a time may use a helper.
    """

    def __init__(self, conn, process):
        self.conn, self.process = conn, process
        self.closed = False
        self._tokens = itertools.count()
        self._held: set[int] = set()  # tokens of the recorded forwards the process keeps
        self._freed: list[int] = []  # tokens whose graphs were freed since the last header

    @classmethod
    def start(cls, context) -> FlowHelper:
        """A helper on a new daemon process of the multiprocessing ``context``."""
        ours, theirs = context.Pipe()
        process = context.Process(target=serve_inverse_flow, args=(theirs,), daemon=True)
        process.start()
        theirs.close()
        return cls(ours, process)

    def close(self) -> None:
        self.closed = True
        self._held.clear()
        self.conn.close()

    def holds(self, token: int) -> bool:
        return token in self._held

    def free_with(self, graph, token: int) -> None:
        """Let the process drop ``token``'s flow once ``graph`` is freed."""
        weakref.finalize(graph, self._free, token).atexit = False

    def _free(self, token: int) -> None:
        if token in self._held:
            self._held.discard(token)
            self._freed.append(token)

    @contextlib.contextmanager
    def _exchange(self, **header):
        try:
            header.update(free=self._freed, errstate=np.geterr())
            self._freed = []
            self.conn.send_bytes(json.dumps(header).encode())
            yield
        except BaseException:
            self.close()
            raise

    def _receive(self, out: np.ndarray) -> np.ndarray:
        """The next array into ``out``; a message of another length is the process's error."""
        try:
            size = self.conn.recv_bytes_into(_bytes(out))
            if size == out.nbytes:
                return out
            message = _bytes(out)[:size].tobytes()
        except BufferTooShort as e:
            message = e.args[0]
        name, text = json.loads(message)
        kind = getattr(builtins, name, None)
        if isinstance(kind, type) and issubclass(kind, Exception):
            raise kind(text)
        raise RuntimeError(f"{name}: {text}")

    def forward(self, vs: np.ndarray, steps, record: bool) -> tuple[np.ndarray, int | None]:
        """(phi_N, token): the flow along the velocities that ``steps`` yields into ``vs``.

        Each velocity is sent as soon as ``steps`` yields it.  ``token``
        names a recorded forward, and is None otherwise.
        """
        token = next(self._tokens) if record else None
        with self._exchange(op="forward", token=token, steps=len(vs), shape=vs.shape[1:],
                            dtype=vs.dtype.name):
            for w in steps:
                self.conn.send_bytes(w)
            phi = self._receive(np.empty(vs.shape[1:], vs.dtype))
        if record:
            self._held.add(token)
        return phi, token

    def backward(self, token: int, g: np.ndarray, vs: np.ndarray, adjoint):
        """``adjoint`` of the gradients of v_{N-1} .. v_0 that token's flow sends back.

        ``adjoint`` takes them as an iterator, each in one buffer that the
        next one overwrites; ``vs`` gives their count, shape and dtype.
        """
        self._held.discard(token)  # the process drops the flow as it runs its adjoint
        g = np.ascontiguousarray(g)
        with self._exchange(op="backward", token=token, dtype=g.dtype.name):
            self.conn.send_bytes(g)
            buffer = np.empty(vs.shape[1:], vs.dtype)
            grads = (self._receive(buffer) for _ in vs)
            try:
                return adjoint(grads)
            except Exception:
                for _ in grads:  # an error of the flow's adjoint comes first
                    pass
                raise


def serve_inverse_flow(conn) -> None:
    """Run the inverse flow for the ``FlowHelper`` at the other end of ``conn`` until it closes.

    Each exchange runs under the caller's NumPy errstate.  An exception
    during one is sent back in place of the next array, once every array
    of the exchange is read.  Interrupts are left to the caller, whose exit
    closes the pipe.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _keep_heap_mapped()
    flows: dict[int, _InverseFlow] = {}
    try:
        while True:
            header = json.loads(conn.recv_bytes())
            for token in header["free"]:
                del flows[token]
            with np.errstate(**header["errstate"]):
                if header["op"] == "forward":
                    _serve_forward(conn, header, flows)
                else:
                    _serve_backward(conn, header, flows)
    except (EOFError, OSError):  # the caller closed its end
        return


def _serve_forward(conn, header: dict, flows: dict) -> None:
    shape, dtype, token = tuple(header["shape"]), np.dtype(header["dtype"]), header["token"]
    flow = _InverseFlow(shape, dtype, header["steps"], token is not None)
    w = np.empty(shape, dtype)
    error = None
    for _ in range(header["steps"]):
        conn.recv_bytes_into(_bytes(w))
        if error is None:
            try:
                flow.step(w)
            except Exception as e:  # sent once every velocity is read
                error = e
    if error is not None:
        _send_error(conn, error, w.nbytes)
        return
    conn.send_bytes(flow.phi)
    if token is not None:
        flows[token] = flow


def _serve_backward(conn, header: dict, flows: dict) -> None:
    flow = flows.pop(header["token"])
    g = np.empty(flow.phi.shape, header["dtype"])
    conn.recv_bytes_into(_bytes(g))
    try:
        for grad in flow.adjoint(g):
            conn.send_bytes(grad)
    except Exception as e:
        _send_error(conn, e, flow.phi.nbytes)
