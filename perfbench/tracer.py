"""Per-layer tracing from outside the library.

A Tracer replaces selected lrckit functions and methods with wrappers that
record one span per call: layer name, parent span, start and end.  Each
function is patched at every place callers look it up (every ``lrckit``
module attribute bound to it, or the defining class for methods), and the
originals are put back when the ``installed()`` block ends.  Spans stay in
memory; ``summary()`` derives per-layer calls, total seconds and self
seconds (total minus the time covered by wrapped child calls).

Only the calling process is traced: calls made inside worker processes of
a process pool are not seen, so traced runs are serial.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

import lrckit  # noqa: F401  (loads every submodule the targets refer to)
from lrckit import algebra, designs, erasure, goppa, gsd, lrc

# layer name -> (owner, attribute); methods are patched on their class,
# functions on every lrckit module that binds them
TARGETS = {
    "algebra.FiniteField.init": (algebra.FiniteField, "__init__"),
    "algebra.Poly.mul": (algebra.Poly, "__mul__"),
    "algebra.Poly.divmod": (algebra.Poly, "__divmod__"),
    "algebra.Poly.eval": (algebra.Poly, "__call__"),
    "algebra.interpolate": (algebra, "interpolate"),
    "algebra.Matrix.rref": (algebra.Matrix, "rref"),
    "designs.ag_steiner": (designs, "ag_steiner"),
    "designs.pg_steiner": (designs, "pg_steiner"),
    "lrc.parity_check_matrix": (lrc, "parity_check_matrix"),
    "lrc.build_code": (lrc, "build_code"),
    "lrc.encode": (lrc, "encode"),
    "lrc.verify_locality": (lrc, "verify_locality"),
    "erasure.pattern_admissible": (erasure, "pattern_admissible"),
    "erasure.decode_structured": (erasure, "decode_structured"),
    "erasure.decode_linear": (erasure, "decode_linear"),
    "erasure.recoverable": (erasure, "recoverable"),
    "erasure.min_distance": (erasure, "min_distance"),
    "gsd.check_array": (gsd, "check_array"),
    "goppa.distance_report": (goppa, "distance_report"),
}

# layers whose calls can contain calls of other traced layers
WITH_CHILDREN = (
    "algebra.interpolate",
    "designs.ag_steiner",
    "designs.pg_steiner",
    "lrc.parity_check_matrix",
    "lrc.build_code",
    "lrc.encode",
    "lrc.verify_locality",
    "erasure.decode_structured",
    "erasure.decode_linear",
    "erasure.recoverable",
    "erasure.min_distance",
    "gsd.check_array",
    "goppa.distance_report",
)


def binding_sites(owner, attr):
    """Every (namespace, name) through which callers reach owner.attr."""
    if isinstance(owner, type):
        return [(owner, attr)]
    original = getattr(owner, attr)
    sites = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "lrckit" or mod_name.startswith("lrckit.")):
            continue
        for name, value in vars(mod).items():
            if value is original:
                sites.append((mod, name))
    return sites


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers = list(TARGETS)
        self.span_layer: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.recoverable_true = 0
        self.patterns_checked = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer_id: int, fn):
        span_layer, span_parent = self.span_layer, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, clock = self._stack, self.clock
        name = self.layers[layer_id]

        def traced(*args, **kwargs):
            sid = len(span_layer)
            span_layer.append(layer_id)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_start[sid] = t0
                span_end[sid] = t1
            if name == "erasure.recoverable" and result:
                self.recoverable_true += 1
            elif name == "gsd.check_array":
                self.patterns_checked += result["checked"]
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for layer_id, layer in enumerate(self.layers):
                owner, attr = TARGETS[layer]
                fn = getattr(owner, attr)
                wrapper = self._wrap(layer_id, fn)
                for ns, name in binding_sites(owner, attr):
                    self._saved.append((ns, name, getattr(ns, name)))
                    setattr(ns, name, wrapper)
            yield self
        finally:
            while self._saved:
                ns, name, original = self._saved.pop()
                setattr(ns, name, original)

    def summary(self) -> dict[str, float]:
        """Per-layer ``.calls``, ``.s`` and, for layers with children,
        ``.self_s``; plus the recoverable true fraction and the number of
        patterns the sweeps checked."""
        n_layers = len(self.layers)
        calls = [0] * n_layers
        total = [0.0] * n_layers
        self_total = [0.0] * n_layers
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        child = [0.0] * len(durations)
        for sid, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += durations[sid]
        for sid, layer_id in enumerate(self.span_layer):
            calls[layer_id] += 1
            total[layer_id] += durations[sid]
            self_total[layer_id] += durations[sid] - child[sid]
        out: dict[str, float] = {}
        for layer_id, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = calls[layer_id]
            out[f"{layer}.s"] = total[layer_id]
            if layer in WITH_CHILDREN:
                out[f"{layer}.self_s"] = self_total[layer_id]
        rec = calls[self.layers.index("erasure.recoverable")]
        out["erasure.recoverable.true_frac"] = self.recoverable_true / rec if rec else 0.0
        out["gsd.patterns_checked"] = self.patterns_checked
        return out
