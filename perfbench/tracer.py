"""Span tracer for the umbra layers, installed from outside the program.

``Tracer.install`` wraps every public function of each layer module and
the arithmetic methods of its classes (``__rmul__``/``__radd__`` aliases
included), then rebinds each wrapped name in every loaded ``umbra``
module, so calls between modules go through the wrappers. No file of the
program is changed.

A span records (id, parent id, name, start ns, end ns). Spans stay in
memory and are written out once, at the end of the traced process. Self
time is a span's duration minus the durations of its direct children;
it is accumulated while the spans close, per span name.
"""
from __future__ import annotations

import bisect
import importlib
import json
import time
import types
from array import array
from pathlib import Path

LAYERS = ("series", "operators", "sequences", "logarithmic", "numbers", "parsing", "suites", "cli")

# Methods wrapped on the classes a layer defines, where the class has them.
METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__call__", "__getitem__",
    "scale", "shift", "derivative", "mul_x", "evaluate",
    "truncate", "truncate_floor", "inverse_series",
)

MUL_SPANS = ("series:TruncatedSeries.__mul__", "series:TruncatedSeries.__rmul__")

# Function-level metrics: name -> span names whose calls and self times it
# sums. A name ending in "." selects every span with that prefix.
GROUPS = {
    "series.mul": MUL_SPANS,
    "series.reciprocal": ("series:reciprocal",),
    "series.int_pow": ("series:int_pow",),
    "series.compose": ("series:compose",),
    "series.exp_log": ("series:exp_series", "series:log_series"),
    "series.compositional_inverse": ("series:compositional_inverse",),
    "operators.apply_to_polynomial": ("operators:apply_to_polynomial",),
    "operators.polynomial": ("operators:Polynomial.",),
    "sequences.generate_transfer": ("sequences:generate_transfer",),
    "sequences.connection_constants": ("sequences:connection_constants",),
    "sequences.verify_binomial_identity": ("sequences:verify_binomial_identity",),
    "logarithmic.apply_operator": ("logarithmic:apply_operator",),
    "logarithmic.log_sequence": ("logarithmic:log_sequence",),
    "logarithmic.numeric": ("logarithmic:evaluate_numeric", "logarithmic:tail_bound"),
    "logarithmic.newton_expand": ("logarithmic:newton_expand",),
    "parsing.parse_operator": ("parsing:parse_operator",),
    "parsing.elaborate": ("parsing:elaborate",),
}


def _bits(q) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


class Tracer:
    def __init__(self):
        self.names = []            # span name per name id
        self.name_layer = []       # layer index per name id
        self.calls = []            # per name id
        self.self_ns = []          # per name id
        self.failed = [0] * len(LAYERS)
        self.spans = array("q")    # flat records: id, parent, name id, start, end
        self.stack = []            # open spans: [id, layer, child ns]
        self.next_id = 0
        self.mul_pairs = 0
        self.bits_out = 0
        self.coeff_bits_max = 0
        self._restore = []         # (owner, attribute, original)

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        from umbra.errors import UmbraError
        from umbra.series import TruncatedSeries

        self._error = UmbraError
        self._series_type = TruncatedSeries
        modules = {name: importlib.import_module(f"umbra.{name}") for name in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer_index, (name, module) in enumerate(modules.items()):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, name, layer_index)
                elif callable(obj):
                    wrapped[id(obj)] = self._wrapper(obj, f"{name}:{attr}", layer_index)
        for module in [importlib.import_module("umbra"), *modules.values()]:
            for attr, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def _wrap_class(self, cls, layer: str, layer_index: int) -> None:
        for attr in METHODS:
            original = cls.__dict__.get(attr)
            if not isinstance(original, types.FunctionType):
                continue
            name = f"{layer}:{cls.__name__}.{attr}"
            if name in MUL_SPANS:
                wrapper = self._mul_wrapper(original, name, layer_index)
            else:
                wrapper = self._wrapper(original, name, layer_index)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _name_id(self, name: str, layer_index: int) -> int:
        self.names.append(name)
        self.name_layer.append(layer_index)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    # -- wrappers -----------------------------------------------------------

    def _wrapper(self, fn, name: str, layer: int):
        nid = self._name_id(name, layer)
        tracer = self
        stack, spans, calls, self_ns, failed = self.stack, self.spans, self.calls, self.self_ns, self.failed
        clock = time.perf_counter_ns
        error = self._error
        series_layer = layer == LAYERS.index("series")

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [sid, layer, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except error:
                if parent is None or parent[1] != layer:
                    failed[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[nid] += duration - frame[2]
                calls[nid] += 1
                spans.extend((sid, -1 if parent is None else parent[0], nid, start, end))
                if parent is not None:
                    parent[2] += duration
            if series_layer and (parent is None or parent[1] != layer):
                tracer._count_bits(result, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def _mul_wrapper(self, fn, name: str, layer: int):
        inner = self._wrapper(fn, name, layer)
        tracer = self
        series_type = self._series_type
        clock = time.perf_counter_ns

        def traced_mul(a, b):
            if isinstance(b, series_type):
                start = clock()
                tracer.mul_pairs += _pairs(a, b)
                spent = clock() - start
                if tracer.stack:
                    tracer.stack[-1][2] += spent
            return inner(a, b)

        traced_mul.__wrapped__ = fn
        return traced_mul

    def _count_bits(self, result, parent) -> None:
        """Heights of the coefficients leaving the series layer."""
        if not isinstance(result, self._series_type):
            return
        start = time.perf_counter_ns()
        total = 0
        top = self.coeff_bits_max
        for c in result.coeffs.values():
            bits = _bits(c)
            total += bits
            if bits > top:
                top = bits
        self.bits_out += total
        self.coeff_bits_max = top
        spent = time.perf_counter_ns() - start
        if parent is not None:
            parent[2] += spent

    # -- results ------------------------------------------------------------

    def report(self, job_s: float) -> dict:
        """Per-layer and per-function counts and self times of everything
        traced so far; ``job_s`` is the traced time of the jobs, measured
        around the calls into the program."""
        layers = {}
        for i, layer in enumerate(LAYERS):
            ids = [n for n in range(len(self.names)) if self.name_layer[n] == i]
            layers[layer] = {
                "calls": sum(self.calls[n] for n in ids),
                "self_s": sum(self.self_ns[n] for n in ids) / 1e9,
                "failed": self.failed[i],
            }
        groups = {}
        for group, members in GROUPS.items():
            ids = [
                n for n, name in enumerate(self.names)
                if any(name == m or (m.endswith(".") and name.startswith(m)) for m in members)
            ]
            groups[group] = {
                "calls": sum(self.calls[n] for n in ids),
                "self_s": sum(self.self_ns[n] for n in ids) / 1e9,
            }
        return {
            "layers": layers,
            "groups": groups,
            "mul_pairs": self.mul_pairs,
            "bits_out": self.bits_out,
            "coeff_bits_max": self.coeff_bits_max,
            "job_s": job_s,
        }

    def write_spans(self, path: Path) -> None:
        """Spans as int64 records in native byte order (id, parent, name id,
        start ns, end ns), with the name table beside them as JSON."""
        with open(path, "wb") as fh:
            self.spans.tofile(fh)
        Path(str(path) + ".names.json").write_text(json.dumps(
            {"names": self.names, "layers": [LAYERS[i] for i in self.name_layer]}
        ))


def _pairs(a, b) -> int:
    """Coefficient products the operand windows demand for a * b: pairs of
    stored coefficients whose exponent sum lies below the product's order."""
    order = min(a.order + b.valuation, b.order + a.valuation)
    exps = sorted(b.coeffs)
    if order == float("inf"):
        return len(a.coeffs) * len(exps)
    return sum(bisect.bisect_left(exps, order - e) for e in a.coeffs)
