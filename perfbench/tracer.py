"""Span tracing of cliffqt's layers, installed from outside the package.

``Tracer.install`` replaces each traced function, in every module that binds
it (including dicts of functions such as ``dsl._CONJ_METHODS``), with a
wrapper that records a span while the tracer is active; ``uninstall`` puts
the originals back.  A span is ``(id, parent id, op index, layer, start,
end)``; spans of one op share the op index and descend from its ``op``
span.  Work counts are taken from each call's inputs, except the term
counts of ``parse_mv`` and ``random_instance``, which only their results
know.

Per layer the tracer keeps calls, busy time (the time covered by the
layer's outermost spans, so recursion is not counted twice) and self time
(span time not covered by child spans).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import comb

from cliffqt import algebra, cli, dsl, mvtext, qtype
from cliffqt.algebra import Multivector

_METHODS = (
    ("algebra.mul", "__mul__"),
    ("algebra.add", "__add__"),
    ("algebra.add", "__sub__"),
    ("algebra.add", "__neg__"),
    ("algebra.add", "scale"),
    ("algebra.conj", "reversion"),
    ("algebra.conj", "grade_involution"),
    ("algebra.conj", "complex_conjugate"),
    ("algebra.conj", "pseudo_hermitian"),
)

_FUNCTIONS = (
    ("algebra.bracket", algebra.commutator),
    ("algebra.bracket", algebra.anticommutator),
    ("qtype.project", qtype.qtype_project),
    ("qtype.member", qtype.member),
    ("mvtext.parse", mvtext.parse_mv),
    ("mvtext.format", mvtext.format_mv),
    ("dsl.parse", dsl.parse_program),
    ("dsl.infer", dsl.infer_type),
    ("dsl.canonical_form", dsl.canonical_form),
    ("dsl.sample", dsl.random_instance),
    ("dsl.check", dsl.check_soundness),
    ("cli", cli.main),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _ in _METHODS + _FUNCTIONS))
SPAN_CAP = 100_000  # spans kept for writing out; the per-layer totals cover every span


def _candidates(tset, sig) -> int:
    """(atom, blade) pairs random_instance draws for: its work before sampling."""
    n = sig.n
    return sum(comb(n, r) for k, _ in tset.atoms() for r in range(k, n + 1, 4))


def _components(u: Multivector) -> int:
    return sum((re != 0) + (im != 0) for _, (re, im) in u.terms())


# Work counts per call: counter names, and their amounts from (args, result).
_SIZERS = {
    "algebra.mul": (("term_pairs",), lambda a, r: (len(a[0]) * len(a[1]),)),
    "algebra.conj": (("terms",), lambda a, r: (len(a[0]),)),
    "qtype.member": (("terms",), lambda a, r: (len(a[0]),)),
    "mvtext.parse": (("chars", "terms"), lambda a, r: (len(a[0]), len(r))),
    "mvtext.format": (("terms",), lambda a, r: (len(a[0]),)),
    "dsl.sample": (("candidates", "terms"), lambda a, r: (_candidates(a[0], a[1]), _components(r))),
}


class Tracer:
    """Records spans and per-layer totals for the ops between begin_op and end_op."""

    def __init__(self, *extra_modules):
        self.extra_modules = extra_modules
        self.active = False
        self.spans: list[tuple] = []
        self.dropped = 0
        self.ops = 0
        self.stats = {layer: [0, 0.0, 0.0] for layer in LAYERS}  # calls, busy, self
        self.counters = {layer: dict.fromkeys(names, 0) for layer, (names, _) in _SIZERS.items()}
        self._depth = dict.fromkeys(LAYERS, 0)
        self._stack: list[list] = []
        self._next_id = 0
        self._op = None
        self._undo: list = []

    # ---------------------------------------------------------------- spans

    def _enter(self, layer: str) -> list:
        self._next_id += 1
        self._depth[layer] += 1
        frame = [self._next_id, layer, 0.0, 0.0]  # id, layer, start, child time
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, layer, start, child = frame
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1]
        parent[3] += duration
        if layer != "op":
            stats = self.stats[layer]
            stats[0] += 1
            stats[2] += duration - child
            self._depth[layer] -= 1
            if not self._depth[layer]:
                stats[1] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[0], self._op, layer, start, end))
        else:
            self.dropped += 1

    def begin_op(self, index: int) -> None:
        self._op = index
        self._stack = [[0, "root", 0.0, 0.0]]
        self._next_id += 1
        self._stack.append([self._next_id, "op", time.perf_counter(), 0.0])
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self._exit(self._stack[-1])
        self.ops += 1

    # ---------------------------------------------------------------- patching

    def _wrap(self, layer: str, fn):
        tracer = self
        names, sizer = _SIZERS.get(layer, ((), None))
        # u * 3 is a scale, which the algebra.add layer records
        skip_scalar = layer == "algebra.mul"
        counters = self.counters.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or (skip_scalar and not isinstance(args[1], Multivector)):
                return fn(*args, **kwargs)
            frame = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if sizer is not None:
                for key, amount in zip(names, sizer(args, result)):
                    counters[key] += amount
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced entry point wherever cliffqt or the extra modules bind it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        # id(original) -> wrapper; the originals stay alive, so their ids stay unique
        wrappers = {}
        for layer, name in _METHODS:
            original = Multivector.__dict__[name]
            wrappers[id(original)] = self._wrap(layer, original)
            self._patch(Multivector, name, original, wrappers[id(original)])
        for layer, original in _FUNCTIONS:
            wrappers[id(original)] = self._wrap(layer, original)

        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "cliffqt"]
        for module in modules + list(self.extra_modules):
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, name, value, wrappers[id(value)])
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patch_item(value, key, item, wrappers[id(item)])

    def _patch(self, owner, name, original, replacement) -> None:
        setattr(owner, name, replacement)
        self._undo.append(("attr", owner, name, original))

    def _patch_item(self, mapping, key, original, replacement) -> None:
        mapping[key] = replacement
        self._undo.append(("item", mapping, key, original))

    def uninstall(self) -> None:
        for kind, owner, key, original in reversed(self._undo):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._undo = []

    # ---------------------------------------------------------------- results

    def metrics(self) -> dict:
        """Per-op averages of every layer's calls, busy and self time and counters."""
        ops = max(self.ops, 1)
        out = {}
        for layer in LAYERS:
            calls, busy, self_time = self.stats[layer]
            out[f"{layer}.calls"] = (calls / ops, "count/op")
            out[f"{layer}.busy_s"] = (busy / ops, "s/op")
            out[f"{layer}.self_s"] = (self_time / ops, "s/op")
            for key, total in self.counters.get(layer, {}).items():
                out[f"{layer}.{key}"] = (total / ops, "count/op")
        sample = self.counters["dsl.sample"]
        ratio = sample["terms"] / sample["candidates"] if sample["candidates"] else 0.0
        out["dsl.sample.kept_ratio"] = (ratio, "ratio")
        return out

    def write(self, path, **meta) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            **meta,
            "ops": self.ops,
            "spans_dropped": self.dropped,
            "fields": ["id", "parent", "op", "layer", "start_s", "end_s"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))

