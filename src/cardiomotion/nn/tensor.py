"""Minimal reverse-mode automatic differentiation over dense float tensors.

A Tensor wraps a numpy array plus an optional gradient slot.  A float32
input stays float32 and anything else becomes float64; a gradient comes
back in its tensor's dtype, and ``cast`` moves a value between the two
(its gradient goes back in the source dtype).  The networks compute in
float32, and so does the registration energy in registration-net
training; the direct registration path, ``shoot``, strain and the
checkpoints are float64.  Operations record a
vector-Jacobian product closure; ``backward()`` on a scalar traverses the
graph in reverse topological order and accumulates exact gradients into
every reachable leaf with ``requires_grad`` set.  The
primitive set is deliberately small: elementwise arithmetic, reductions
(the losses' squared-error sum among them), shape plumbing, and the layers
the networks are built from (conv2d 3x3, the 3x3 convolution of a 2x
nearest-upsampled input, 2x2 average pooling, relu, linear, channel
concat, per-channel scale-shift).  Nearest upsampling alone is a
primitive too, though no network calls it.  Field-specific primitives
(bilinear warps, spectral multipliers, finite differences) live in
``fieldops``.
"""

from __future__ import annotations

import contextlib
import ctypes
import platform

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (pure forward evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_vjp", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        values = np.asarray(values)
        if values.dtype != np.float32:
            values = values.astype(np.float64, copy=False)
        self.values = values
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._vjp = None

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable differentiable leaf.

        Repeated calls without clearing add up (gradients accumulate).
        """
        if self.values.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.values)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is not None:
                for parent, pg in zip(node._parents, node._vjp(g)):
                    if pg is None or not parent.requires_grad:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg
            elif node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap_mapped() -> None:
    """Let glibc keep freed graph memory mapped for the next training step.

    A training loop frees each step's graph before building the next one.
    By default glibc then returns the freed top of the heap to the system,
    and serves the large arrays by mmap, so every step faults all of its
    pages in again.  Fixed thresholds keep the heap: blocks up to 32 MB come
    from it, and it is trimmed only above 1 GB of free space.  Both are set,
    because a fixed trim threshold alone also switches off glibc's dynamic
    mmap threshold.  The setting is process-wide and stays; elsewhere than
    glibc this does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    libc = ctypes.CDLL(None)
    libc.mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def recording(*parents: Tensor) -> bool:
    """Whether an operation on ``parents`` records a graph node.

    It does when grad is enabled and some parent requires grad.  Nodes that
    keep per-step state for their backward pass keep it only then.
    """
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _make(values: np.ndarray, parents: tuple, vjp) -> Tensor:
    out = Tensor(values)
    if recording(*parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def cast(a, dtype) -> Tensor:
    """``a`` in ``dtype`` (float32 or float64); ``a`` itself when it already is.

    The gradient goes back in ``a``'s dtype.
    """
    a = _as_tensor(a)
    src = a.values.dtype
    if src == dtype:
        return a
    return _make(a.values.astype(dtype), (a,), lambda g: (g.astype(src),))


# ---------------------------------------------------------------------------
# elementwise arithmetic and reductions
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` over the axes along which an operand of ``shape`` was broadcast."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
    return g.sum(axis=axes).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.values.shape, b.values.shape
    return _make(a.values + b.values, (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def mul(a, b) -> Tensor:
    """Elementwise product; operands broadcast as in numpy."""
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.values, b.values
    return _make(av * bv, (a, b),
                 lambda g: (_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)))


def smul(a, s: float) -> Tensor:
    """Multiplication by a python scalar."""
    a = _as_tensor(a)
    s = float(s)
    return _make(a.values * s, (a,), lambda g: (g * s,))


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    shape = a.values.shape
    return _make(np.asarray(a.values.sum()), (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


def squared_error_sum(a, target) -> Tensor:
    """sum((a - target)^2) in the operands' result dtype, for a constant ``target``.

    The gradient to ``a`` is (2 g)(a - target).  Negation and doubling are
    exact, so the value and gradient equal those of the chain
    ``d = add(a, smul(target, -1.0)); sum_all(mul(d, d))`` bit for bit.
    """
    a, target = _as_tensor(a), _as_tensor(target)
    d = a.values - target.values
    shape = a.values.shape
    return _make(np.asarray((d * d).sum()), (a,), lambda g: (_unbroadcast((2 * g) * d, shape),))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.values > 0
    return _make(a.values * mask, (a,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.values.shape
    return _make(a.values.reshape(shape), (a,), lambda g: (g.reshape(old),))


def take_index(a, index) -> Tensor:
    """Select a basic index of ``a``: an int, a slice, or a tuple of them.

    ``take_index(a, 1)`` is ``a[1]``; ``take_index(a, (slice(None), 0))``
    is ``a[:, 0]``.
    """
    a = _as_tensor(a)
    shape, dtype = a.values.shape, a.values.dtype

    def vjp(g):
        out = np.zeros(shape, dtype)
        out[index] = g
        return (out,)

    return _make(a.values[index].copy(), (a,), vjp)


def concat_channels(tensors) -> Tensor:
    """Concatenate (N, C, H, W) tensors along the channel axis."""
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.values.shape[1] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[:, offsets[i] : offsets[i + 1]] for i in range(len(sizes)))

    return _make(np.concatenate([t.values for t in tensors], axis=1), tuple(tensors), vjp)


# ---------------------------------------------------------------------------
# network layers
# ---------------------------------------------------------------------------


# the nine taps (i, j) of a 3x3 kernel, row-major
_TAPS = [(i, j) for i in range(3) for j in range(3)]
# samples go through the nine taps a group at a time; a group's output rows,
# (O, H*(W+2)) per sample, total about 256 KB and stay in cache across the taps
_GROUP_ELEMS = 1 << 15


def _sample_groups(n: int, row_elems: int) -> list:
    step = max(1, _GROUP_ELEMS // row_elems)
    return [slice(s, s + step) for s in range(0, n, step)]


def _frames(a: np.ndarray) -> np.ndarray:
    """Zero-pad an (N, C, H, W) batch by one pixel and flatten each frame.

    Returns (N, C, (H+2)*(W+2)).
    """
    n, c, h, w = a.shape
    xp = np.zeros((n, c, h + 2, w + 2), dtype=a.dtype)
    xp[:, :, 1:-1, 1:-1] = a
    return xp.reshape(n, c, (h + 2) * (w + 2))


def _conv3_frames(xp: np.ndarray, k: np.ndarray, h: int, w: int) -> np.ndarray:
    """3x3 convolution of flattened padded frames (``_frames``) as nine shifted GEMMs.

    xp: (N, C, (H+2)*(W+2)); k: (O, C, 3, 3).  Output pixel (r, s) sits at
    r*(W+2)+s of a padded-width row, so tap (i, j) reads the input frame
    shifted by i*(W+2)+j: a strided view that BLAS takes through its leading
    dimension, never an unfolded copy.  The two columns of each row past W
    wrap into the next row and are dropped.  Returns an (N, O, H, W) view.
    """
    n, o, wp = xp.shape[0], k.shape[0], w + 2
    span = h * wp - 2
    taps = k.transpose(2, 3, 0, 1).copy()  # (3, 3, O, C)
    acc = np.empty((n, o, h * wp), dtype=np.result_type(xp, k))
    for group in _sample_groups(n, o * span):
        head, xg = acc[group, :, :span], xp[group]
        np.matmul(taps[0, 0], xg[:, :, :span], out=head)
        tmp = np.empty_like(head)
        for i, j in _TAPS[1:]:
            off = i * wp + j
            head += np.matmul(taps[i, j], xg[:, :, off:off + span], out=tmp)
    return acc.reshape(n, o, h, wp)[..., :w]


def conv2d(x, w, b=None) -> Tensor:
    """3x3 convolution, stride 1, zero padding 1.

    x: (N, C, H, W); w: (O, C, 3, 3); b: (O,) or None.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    b = _as_tensor(b) if b is not None else None
    n, c, h, wd = x.values.shape
    o = w.values.shape[0]
    if w.values.shape != (o, c, 3, 3):
        raise ValueError(f"kernel shape {w.values.shape} incompatible with input {x.values.shape}")
    xp = _frames(x.values)
    y = np.empty((n, o, h, wd), dtype=np.result_type(x.values, w.values))
    if b is None:
        np.copyto(y, _conv3_frames(xp, w.values, h, wd))
    else:
        np.add(_conv3_frames(xp, w.values, h, wd), b.values[:, None, None], out=y)

    def vjp(g):
        wp = wd + 2
        span = h * wp - 2
        gp = _frames(g)
        # g in the output's padded-width layout, zero in the wrap columns:
        # the interior of its padded frame
        gr = gp[:, :, wp + 1:wp + 1 + span]
        dw = np.empty((n, 3, 3, o, c), dtype=np.result_type(g, xp))
        for group in _sample_groups(n, o * span):
            gg, xg = gr[group], xp[group]
            for i, j in _TAPS:
                off = i * wp + j
                np.matmul(gg, xg[:, :, off:off + span].transpose(0, 2, 1), out=dw[group, i, j])
        dw = np.ascontiguousarray(dw.sum(axis=0).transpose(2, 3, 0, 1))
        dx = None
        if x.requires_grad:
            # the input gradient is the 3x3 convolution of the gradient with
            # the flipped, channel-transposed kernel
            dx = np.ascontiguousarray(
                _conv3_frames(gp, w.values[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), h, wd))
        if b is not None:
            return (dx, dw, g.sum(axis=(0, 2, 3)))
        return (dx, dw)

    parents = (x, w) if b is None else (x, w, b)
    return _make(y, parents, vjp)


def _block_sum2(a: np.ndarray) -> np.ndarray:
    """The sum of each 2x2 block of the two trailing axes, whose sizes are even.

    The four strided slices are added in the order of numpy's reduction over
    the block axes of ``reshape(..., H/2, 2, W/2, 2)``, so for W >= 4 the
    result equals that reduction bit for bit, without its slow strided inner
    loop.  (At W = 2 numpy sums each block in sequence, and the last bit may
    differ.)
    """
    return (a[..., 0::2, 0::2] + a[..., 0::2, 1::2]) + (a[..., 1::2, 0::2] + a[..., 1::2, 1::2])


def avgpool2(x) -> Tensor:
    """2x2 average pooling; spatial dims must be even."""
    x = _as_tensor(x)
    _, _, h, w = x.values.shape
    if h % 2 or w % 2:
        raise ValueError(f"spatial dims must be even for avgpool2, got {h}x{w}")
    y = _block_sum2(x.values)
    y *= 0.25

    def vjp(g):
        return (np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25,)

    return _make(y, (x,), vjp)


def nearest_upsample2(x) -> Tensor:
    """Nearest-neighbour 2x upsampling."""
    x = _as_tensor(x)
    y = np.repeat(np.repeat(x.values, 2, axis=2), 2, axis=3)

    def vjp(g):
        return (_block_sum2(g),)

    return _make(y, (x,), vjp)


def _phase_taps() -> np.ndarray:
    """The (9, 36) 0/1 matrix from 3x3 taps to the phase kernels of a 2x-upsampled convolution.

    Output pixel (2r + a, 2s + b) of a 3x3 convolution of the nearest
    2x-upsampled input reads, through fine tap (i, j), the coarse pixel
    (r + p, s + q) with p = (a + i - 1) // 2 and q = (b + j - 1) // 2.  Row
    i*3 + j is fine tap (i, j); column ((p+1)*3 + q+1)*4 + a*2 + b is coarse
    tap (p, q) of phase (a, b).
    """
    m = np.zeros((3, 3, 3, 3, 2, 2))
    for i, j, a, b in np.ndindex(3, 3, 2, 2):
        m[i, j, (a + i - 1) // 2 + 1, (b + j - 1) // 2 + 1, a, b] = 1.0
    return m.reshape(9, 36)


_PHASE_TAPS = _phase_taps()
# the output phases that read coarse tap (p, q): rows a in _PHASES[p + 1], columns b in
# _PHASES[q + 1]; 16 of the 36 (tap, phase) pairs.  Every phase reads the centre tap,
# which therefore writes the accumulators, and the other eight add to them.
_PHASES = (slice(0, 1), slice(0, 2), slice(1, 2))
_OFF_CENTRE = [t for t in _TAPS if t != (1, 1)]


def upsample_conv2d(x, w, b) -> Tensor:
    """``conv2d(nearest_upsample2(x), w, b)``, computed on the coarse grid.

    x: (N, C, h, w); w: (O, C, 3, 3); b: (O,); the output is
    (N, O, 2h, 2w).  Each of the four output phases (a, b), pixels
    (2r + a, 2s + b), is a 2x2 convolution of x, whose kernel sums the 3x3
    taps that read the same coarse pixel; one GEMM against ``_PHASE_TAPS``
    gives all of them.  Each coarse tap then takes one GEMM over every
    phase that reads it: 16 (O, C) tap products on h*w pixels, against the
    upsampled convolution's 9 on 4*h*w.  The phases are kept as (a, O, b)
    rows, so every tap's phases form one strided matrix, and a transpose
    copy interleaves them into the fine grid.  The backward pass runs the
    same tap GEMMs on the phases of the gradient.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    n, c, h, wd = x.values.shape
    o = w.values.shape[0]
    if w.values.shape != (o, c, 3, 3):
        raise ValueError(f"kernel shape {w.values.shape} incompatible with input {x.values.shape}")
    wv = w.values
    # the phase kernels as [i, j, a, O, b, C], for coarse tap (i - 1, j - 1)
    kk = (wv.reshape(o * c, 9) @ _PHASE_TAPS.astype(wv.dtype)).reshape(o, c, 3, 3, 2, 2)
    kk = kk.transpose(2, 3, 4, 0, 5, 1)
    stacks = {(i, j): kk[i, j, _PHASES[i], :, _PHASES[j]].reshape(-1, c) for i, j in _TAPS}
    xp = _frames(x.values)
    wp = wd + 2
    span = h * wp - 2
    dtype = np.result_type(x.values, wv)
    # the phases in the padded-width layout of ``_conv3_frames``, as (a, O, b) rows
    acc = np.empty((n, 4 * o, h * wp), dtype=dtype)
    rows = acc.reshape(n, 2, o, 2, h * wp)
    for group in _sample_groups(n, o * span):
        xg = xp[group]
        np.matmul(stacks[1, 1], xg[:, :, wp + 1:wp + 1 + span], out=acc[group, :, :span])
        for i, j in _OFF_CENTRE:
            out = rows[group, _PHASES[i], :, _PHASES[j], :span]
            out += np.matmul(stacks[i, j], xg[:, :, i * wp + j:i * wp + j + span]).reshape(
                out.shape)
    rows[..., :span] += b.values[:, None, None]
    # (N, a, O, b, h, w) -> (N, O, h, a, w, b), which is (N, O, 2h, 2w); one copy per
    # column phase b, so that the copy's inner loop runs along w
    phases = rows.reshape(n, 2, o, 2, h, wp)[..., :wd]
    y = np.empty((n, o, 2 * h, 2 * wd), dtype=dtype)
    fine = y.reshape(n, o, h, 2, wd, 2)
    for col in (0, 1):
        np.copyto(fine[..., col], phases[:, :, :, col].transpose(0, 2, 3, 1, 4))

    def vjp(g):
        # the gradient's phases as (a, O, b) rows of padded frames, zero on the border
        gp = np.zeros((n, 4 * o, (h + 2) * wp), dtype=g.dtype)
        grows = gp.reshape(n, 2, o, 2, (h + 2) * wp)
        grows.reshape(n, 2, o, 2, h + 2, wp)[..., 1:-1, 1:-1] = (
            g.reshape(n, o, h, 2, wd, 2).transpose(0, 3, 1, 5, 2, 4))
        dkk = np.zeros((3, 3, 2, o, 2, c), dtype=np.result_type(g, xp))
        dx = np.zeros((n, c, h * wp), dtype=np.result_type(g, wv)) if x.requires_grad else None
        for group in _sample_groups(n, o * span):
            xg = xp[group]
            m = len(xg)
            for i, j in _TAPS:
                ga = grows[group, _PHASES[i], :, _PHASES[j]].reshape(m, -1, gp.shape[-1])
                # the phases' gradient in the output's padded-width layout, zero in the
                # wrap columns, against the input the tap reads
                dk = dkk[i, j, _PHASES[i], :, _PHASES[j]]
                off = i * wp + j
                dk += np.matmul(ga[..., wp + 1:wp + 1 + span],
                                xg[:, :, off:off + span].transpose(0, 2, 1)).sum(axis=0).reshape(
                                    dk.shape)
                if dx is not None:
                    # coarse pixel (r, s) reaches phase pixel (r + 1 - i, s + 1 - j)
                    off = (2 - i) * wp + 2 - j
                    dx[group, :, :span] += np.matmul(stacks[i, j].T, ga[..., off:off + span])
        dw = (dkk.transpose(3, 5, 0, 1, 2, 4).reshape(o * c, 36)
              @ _PHASE_TAPS.T.astype(dkk.dtype)).reshape(o, c, 3, 3)
        if dx is not None:
            dx = np.ascontiguousarray(dx.reshape(n, c, h, wp)[..., :wd])
        return (dx, dw, g.sum(axis=(0, 2, 3)))

    return _make(y, (x, w, b), vjp)


def linear(x, w, b=None) -> Tensor:
    """x (N, F) @ w (F, G) + b (G,)."""
    x, w = _as_tensor(x), _as_tensor(w)
    b = _as_tensor(b) if b is not None else None
    y = x.values @ w.values
    if b is not None:
        y = y + b.values[None, :]
    xv, wv = x.values, w.values

    def vjp(g):
        if b is not None:
            return (g @ wv.T, xv.T @ g, g.sum(axis=0))
        return (g @ wv.T, xv.T @ g)

    parents = (x, w) if b is None else (x, w, b)
    return _make(y, parents, vjp)


def scale_shift(x, scale, shift) -> Tensor:
    """Per-channel modulation: y = x * (1 + scale) + shift.

    x: (N, C, H, W); scale, shift: (N, C).  Used to inject conditioning
    vectors (diffusion step embeddings, pooled latents) into conv features.
    """
    x, scale, shift = _as_tensor(x), _as_tensor(scale), _as_tensor(shift)
    s = scale.values[:, :, None, None]
    y = x.values * (1.0 + s) + shift.values[:, :, None, None]
    xv = x.values

    def vjp(g):
        return (g * (1.0 + s), (g * xv).sum(axis=(2, 3)), g.sum(axis=(2, 3)))

    return _make(y, (x, scale, shift), vjp)
