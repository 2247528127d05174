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

    def zero_grad(self):
        self.grad = None

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


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(a.values + b.values, (a, b), lambda g: (g, g))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _make(a.values - b.values, (a, b), lambda g: (g, -g))


def mul(a, b) -> Tensor:
    """Elementwise product of same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.values, b.values
    return _make(av * bv, (a, b), lambda g: (g * bv, g * av))


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


def _pad1(a: np.ndarray) -> np.ndarray:
    """Zero-pad the two trailing axes of an (N, C, H, W) batch by one pixel."""
    return np.pad(a, ((0, 0), (0, 0), (1, 1), (1, 1)))


def _im2col3(xp: np.ndarray, h: int, w: int) -> np.ndarray:
    """Unfold 3x3 patches of a zero-padded (N, C, H+2, W+2) batch.

    Returns (N, C*9, H*W) with the (C, 3, 3) block flattened in C order.
    """
    n, c = xp.shape[0], xp.shape[1]
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
    # (N, C, H, W, 3, 3) -> (N, C, 3, 3, H, W)
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * 9, h * w)


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
    cols = _im2col3(_pad1(x.values), h, wd)
    w2 = w.values.reshape(o, c * 9)
    y = np.matmul(w2, cols).reshape(n, o, h, wd)
    if b is not None:
        y = y + b.values[None, :, None, None]

    def vjp(g):
        g2 = g.reshape(n, o, h * wd)
        dw = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(o, c, 3, 3)
        dx = None
        if x.requires_grad:
            # the input gradient is the 3x3 convolution of the gradient with
            # the flipped, channel-transposed kernel
            wt = w.values[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * 9)
            dx = np.matmul(wt, _im2col3(_pad1(g), h, wd)).reshape(n, c, h, wd)
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
