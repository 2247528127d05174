"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

A Tensor wraps a numpy array plus an optional gradient slot.  Operations
record a vector-Jacobian product closure; ``backward()`` on a scalar
traverses the graph in reverse topological order and accumulates exact
gradients into every reachable leaf with ``requires_grad`` set.  The
primitive set is deliberately small: elementwise arithmetic, reductions,
shape plumbing, and the layers the networks are built from (conv2d 3x3,
2x2 average pooling, nearest upsampling, relu, linear, channel concat,
per-channel scale-shift).  Field-specific primitives (bilinear warps,
spectral multipliers, finite differences) live in ``fieldops``.
"""

from __future__ import annotations

import contextlib

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
    __slots__ = ("values", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
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


def constant(values) -> Tensor:
    return Tensor(values, requires_grad=False)


def _make(values: np.ndarray, parents: tuple, vjp) -> Tensor:
    out = Tensor(values)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


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


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.values.shape, b.values.shape
    return _make(a.values - b.values, (a, b),
                 lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


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


def neg(a) -> Tensor:
    return smul(a, -1.0)


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    shape = a.values.shape
    return _make(np.asarray(a.values.sum()), (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


def add_n(tensors) -> Tensor:
    """Sum of a non-empty list of same-shape tensors."""
    out = tensors[0]
    for t in tensors[1:]:
        out = add(out, t)
    return out


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.values > 0
    return _make(a.values * mask, (a,), lambda g: (g * mask,))


def sqrt(a) -> Tensor:
    """Elementwise square root; the gradient diverges at exactly 0."""
    a = _as_tensor(a)
    root = np.sqrt(a.values)
    return _make(root, (a,), lambda g: (g * 0.5 / root,))


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
    shape = a.values.shape

    def vjp(g):
        out = np.zeros(shape)
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
    xp = np.zeros((n, c, h + 2, w + 2))
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
    acc = np.empty((n, o, h * wp))
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
    y = np.empty((n, o, h, wd))
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
        dw = np.empty((n, 3, 3, o, c))
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


def avgpool2(x) -> Tensor:
    """2x2 average pooling; spatial dims must be even."""
    x = _as_tensor(x)
    n, c, h, w = x.values.shape
    if h % 2 or w % 2:
        raise ValueError(f"spatial dims must be even for avgpool2, got {h}x{w}")
    y = x.values.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))

    def vjp(g):
        return (np.repeat(np.repeat(g, 2, axis=2), 2, axis=3) * 0.25,)

    return _make(y, (x,), vjp)


def nearest_upsample2(x) -> Tensor:
    """Nearest-neighbour 2x upsampling."""
    x = _as_tensor(x)
    n, c, h, w = x.values.shape
    y = np.repeat(np.repeat(x.values, 2, axis=2), 2, axis=3)

    def vjp(g):
        return (g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)),)

    return _make(y, (x,), vjp)


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
