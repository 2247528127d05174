"""Span recording around calls into the program's public functions.

The tracer patches named functions and methods of ``cardiomotion``
modules for as long as it is installed; no file of the program changes.
A module-level function is replaced in every ``cardiomotion`` module that
bound it, so calls through ``from .x import f`` names are recorded too.
When a traced graph primitive returns a Tensor that carries a backward
closure, the closure is wrapped as well and records a ``<name>.vjp`` span
when ``Tensor.backward`` runs it.

Spans (name, start, end, parent) are kept in memory and written once, at
the end of the run.  A layer is the module part of a span name, and its
self time is the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# module -> traced public names ("Class.method" for methods)
TRACED = {
    "nn.tensor": ["conv2d", "avgpool2", "nearest_upsample2", "concat_channels", "linear",
                  "scale_shift", "take_index", "Tensor.backward"],
    "nn.fieldops": ["spectral_multiply", "fd_dx", "fd_dy", "bilinear_warp"],
    "grid": ["bilinear_prepare", "bilinear_apply", "bilinear_sample", "bilinear_adjoint_field",
             "bilinear_coord_derivatives", "ddx", "ddy", "ddx_adjoint", "ddy_adjoint",
             "jacobian", "jacobian_determinant", "warp_vector"],
    "metric": ["MetricOperator.multiply", "smooth_noise"],
    "geodesic": ["shoot", "integrate_epdiff", "integrate_inverse_flow", "integrate_forward_flow"],
    "registration": ["register_pair", "energy", "energy_gradient", "registration_network_loss",
                     "train_registration_network", "pair_stack"],
    "nn.networks": ["RegistrationNet.forward", "RegistrationNet.encode", "RegistrationNet.decode",
                    "NoisePredictor.forward", "MotionDecoder.forward", "encoder_forward"],
    "nn.params": ["adam_step", "save_checkpoint", "load_checkpoint"],
    "diffusion": ["train", "infer", "diffusion_loss", "motion_loss", "forward_sample",
                  "reverse_step"],
    "phantom": ["generate", "render_frame", "motion_model", "save_sample", "load_sample"],
    "container": ["write_container", "read_container"],
    "strain": ["strain_from_displacement", "segment_mask", "segmental_strain", "epe",
               "segmental_strain_error", "write_pgm"],
    "cli": ["main", "cmd_infer", "cmd_eval"],
}
LAYERS = list(TRACED)
# layers whose functions are graph primitives: the backward closure of the
# Tensor they return is their own, so it is traced as "<name>.vjp"
PRIMITIVE_LAYERS = ("nn.tensor", "nn.fieldops")


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` may alternate."""

    package = "cardiomotion"

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent_index]
        self._stack: list[int] = []
        self._patches: list | None = None
        self.graphs: list[tuple[int, float]] = []  # (nodes, MB) per backward while installed
        self.installed = False

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _timed(self, name: str, fn, wrap_vjp: bool):
        nid = self._name_id(name)
        vjp_name = name + ".vjp"
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([nid, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                rec = spans[idx]
                rec[1], rec[2] = t0, t1
            if wrap_vjp and getattr(out, "_vjp", None) is not None:
                out._vjp = self._timed(vjp_name, out._vjp, False)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """One span recorded by the benchmark's own code."""
        idx = len(self.spans)
        self.spans.append([self._name_id(name), 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = [t0, t1]

    def mark(self) -> int:
        return len(self.spans)

    # -- patching ----------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding of a traced name."""
        pkg = self.package
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        plan = []
        for layer, names in TRACED.items():
            module = importlib.import_module(f"{pkg}.{layer}")
            for qual in names:
                span_name = f"{layer}:{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    if qual == "Tensor.backward":
                        wrapped = self._backward_wrapper(span_name, orig)
                    else:
                        wrapped = self._timed(span_name, orig, False)
                    plan.append((cls, meth, orig, wrapped))
                    continue
                orig = getattr(module, qual)
                wrapped = self._timed(span_name, orig, layer in PRIMITIVE_LAYERS)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            plan.append((mod, attr, orig, wrapped))
        return plan

    def install(self) -> None:
        if self.installed:
            return
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches or ()):
            setattr(owner, attr, orig)
        self.installed = False

    def _backward_wrapper(self, name: str, orig):
        timed = self._timed(name, orig, False)
        graphs = self.graphs

        def backward(tensor):
            graphs.append(graph_size(tensor))
            return timed(tensor)

        return backward

    # -- summaries ---------------------------------------------------------

    def layer_totals(self, start: int = 0, stop: int | None = None) -> dict:
        """{layer: (self seconds, calls)} over spans[start:stop]; vjp spans count as calls."""
        spans = self.spans[start:stop]
        child = np.zeros(len(spans))
        for i, (_, t0, t1, parent) in enumerate(spans):
            p = parent - start
            if 0 <= p < len(spans):
                child[p] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (nid, t0, t1, _) in enumerate(spans):
            layer = self.names[nid].split(":", 1)[0]
            out[layer][0] += (t1 - t0) - child[i]
            out[layer][1] += 1
        return {k: tuple(v) for k, v in out.items()}

    def durations(self, name: str, start: int = 0, stop: int | None = None) -> list[float]:
        nid = self._name_ids.get(name)
        return [t1 - t0 for n, t0, t1, _ in self.spans[start:stop] if n == nid]

    def count(self, prefix: str, start: int = 0, stop: int | None = None) -> int:
        ids = {i for i, n in enumerate(self.names) if n.startswith(prefix) and
               not n.endswith(".vjp")}
        return sum(1 for n, *_ in self.spans[start:stop] if n in ids)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, round(a, 7), round(b, 7), p] for n, a, b, p in self.spans]},
                      fh, separators=(",", ":"))


def graph_size(root) -> tuple[int, float]:
    """(nodes, MB) of the graph behind a Tensor.

    Nodes are every Tensor reachable through parents; bytes are their
    values plus the arrays their backward closures hold, each array once.
    """
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend(node._parents)
    arrays = {}
    for node in seen.values():
        arrays[id(node.values)] = node.values
        fn = getattr(node._vjp, "__wrapped__", node._vjp)
        for cell in (getattr(fn, "__closure__", None) or ()):
            try:
                value = cell.cell_contents
            except ValueError:
                continue
            for item in (value if isinstance(value, tuple) else (value,)):
                if isinstance(item, np.ndarray):
                    arrays[id(item)] = item
    return len(seen), sum(a.nbytes for a in arrays.values()) / 1e6
