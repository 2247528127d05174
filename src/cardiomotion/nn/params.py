"""Named parameter collections, the Adam optimizer, and checkpoints.

One ParameterStore holds every trainable tensor of a model (or of several
models trained jointly), its Adam moment buffers, and a shared step
counter.  Checkpoints serialize all of that through the LMF1 container,
so a save/load round trip is bit-exact and resumes optimization mid-run.
"""

from __future__ import annotations

import numpy as np

from ..container import checked_record, read_checked, write_container
from .tensor import Tensor


class ParameterStore:
    """Ordered map of parameter name -> Tensor plus Adam state."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, values) -> Tensor:
        if name in self.params:
            raise ValueError(f"parameter {name!r} already registered")
        tensor = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
        self.params[name] = tensor
        self.moment1[name] = np.zeros_like(tensor.values)
        self.moment2[name] = np.zeros_like(tensor.values)
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]


# Adam moment decay rates and denominator floor (Kingma & Ba, 2015)
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


def check_learning_rate(name: str, learning_rate: float) -> None:
    """Refuse a learning rate that is not positive and finite; ``name`` is its option."""
    if not (np.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(f"{name} must be positive and finite, got {learning_rate}")


def adam_step(
    store: ParameterStore,
    learning_rate: float,
    weight_decay=None,
) -> None:
    """One Adam update with decoupled weight decay over every parameter.

    Decay multiplies each parameter by (1 - lr*decay) independently of the
    gradient path, so a parameter receiving only zero gradients shrinks
    geometrically.  ``weight_decay`` is None (no decay) or a callable
    mapping a parameter name to its decay rate, so that a store holding
    several models can give each its own.  Gradients are consumed: they
    are cleared on return.
    """
    for name, p in store.params.items():
        if p.grad is None:
            raise ValueError(
                f"parameter {name!r} has no gradient; run backward() before adam_step"
            )
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    for name, p in store.params.items():
        g = p.grad
        m1 = store.moment1[name]
        m2 = store.moment2[name]
        m1 *= _BETA1
        m1 += (1.0 - _BETA1) * g
        m2 *= _BETA2
        m2 += (1.0 - _BETA2) * (g * g)
        decay = weight_decay(name) if weight_decay is not None else 0.0
        if decay:
            p.values *= 1.0 - learning_rate * decay
        p.values -= learning_rate * (m1 / bc1) / (np.sqrt(m2 / bc2) + _EPS)
        p.grad = None


def checkpoint_records(store: ParameterStore) -> dict[str, np.ndarray]:
    """The container records of a checkpoint: step, parameters and Adam moments."""
    records: dict[str, np.ndarray] = {"meta/step": np.asarray(float(store.step_count))}
    for name, p in store.params.items():
        records[f"param/{name}"] = p.values
        records[f"m1/{name}"] = store.moment1[name]
        records[f"m2/{name}"] = store.moment2[name]
    return records


def save_checkpoint(store: ParameterStore, path) -> None:
    write_container(path, checkpoint_records(store))


def load_checkpoint(store: ParameterStore, path) -> None:
    """Restore parameters and optimizer state in place.

    The store must already contain the same parameter names with the same
    shapes (construct the models first, then load).  A missing, misshapen,
    unexpected or non-finite record is an error naming ``path``, and leaves
    the store as it was.
    """

    def restore(records):
        step = checked_record(records, "meta/step", None).reshape(-1)
        if step.size != 1 or not (step[0] >= 0 and float(step[0]).is_integer()):
            raise ValueError(f"meta/step must hold one non-negative integer, "
                             f"got {step[:4].tolist()}")
        arrays = {f"{kind}/{name}": checked_record(records, f"{kind}/{name}", p.values.shape)
                  for name, p in store.params.items() for kind in ("param", "m1", "m2")}
        extra = set(records) - set(arrays) - {"meta/step"}
        if extra:
            raise ValueError(f"unexpected records {sorted(extra)}")
        store.step_count = int(step[0])
        for name, p in store.params.items():
            p.values = arrays[f"param/{name}"].astype(np.float64)
            p.grad = None
            store.moment1[name] = arrays[f"m1/{name}"].astype(np.float64)
            store.moment2[name] = arrays[f"m2/{name}"].astype(np.float64)

    read_checked(path, restore)
