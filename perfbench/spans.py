"""Spans and call counts for the bistellar library, recorded from outside it.

``Tracer.install`` replaces each public function named in ``FUNCTIONS`` by a
wrapper, in every ``bistellar`` module namespace that holds it (a name
imported with ``from .x import f`` is a separate binding, so patching only
the defining module would miss those callers).  A wrapper records one span
``[name, start, end, parent]``; spans stay in memory until ``dump``.  The
layer roll-up (self time = span minus the time covered by child spans) and
the derived counters are computed from the span list at the end.

Only the traced run installs the wrappers; untimed code such as the answer
checks runs with ``Tracer.active`` off.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (module, attribute) of each wrapped callable; the span name is
# "<module>.<function>", so both ``link`` methods share "simplicial.link".
FUNCTIONS = [
    ("canonical", "okey"),
    ("canonical", "ukey"),
    ("canonical", "unoriented_canon"),
    ("canonical", "oriented_canon"),
    ("canonical", "materialize"),
    ("canonical", "marked_encoding"),
    ("canonical", "designated_labelings"),
    ("moves", "enumerate_moves"),
    ("moves", "apply_move"),
    ("moves", "induced_vertex_moves"),
    ("moves", "edge_key"),
    ("moves", "materialize_edge"),
    ("moves", "move_from_endpoint"),
    ("reduction", "reduce_to_boundary"),
    ("reduction", "replay"),
    ("spheres", "is_combinatorial_sphere"),
    ("library", "cp2_9"),
    ("gamma2", "decompose_cycle"),
    ("gamma2", "c_of_cycle"),
    ("gamma2", "commutation_cycle"),
    ("gamma2", "special_cycle_a"),
    ("gamma2", "special_cycle_b"),
    ("gamma2", "special_cycle_c"),
    ("gamma2", "decreasing_moves"),
    ("pontryagin", "local_f"),
    ("pontryagin", "p1_dual_local"),
    ("pontryagin", "p1_dual_direct"),
    ("sw", "sw_duals"),
    ("enumeration", "spheres_by_expansion"),
    ("simplicial", "Complex.link"),
    ("simplicial", "OrientedComplex.link"),
]

MODULES = sorted({m for m, _ in FUNCTIONS})
CYCLE_BUILDERS = ("commutation_cycle", "special_cycle_a", "special_cycle_b", "special_cycle_c")
# names whose inclusive time is reported; nested calls of the same name
# (is_combinatorial_sphere recurses into links) are counted once.  The
# reduction entry also marks the apply_move calls made by its search.
INCLUSIVE = (
    "reduction.reduce_to_boundary",
    "gamma2.decompose_cycle",
    "spheres.is_combinatorial_sphere",
    "library.cp2_9",
    "sw.sw_duals",
    "enumeration.spheres_by_expansion",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._ucanon_inputs: set = set()

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if after is not None:
                try:
                    after(args, out)
                except (AttributeError, TypeError):
                    # a changed argument or result type must not break the
                    # traced program; the counter just stays short
                    pass
            return out

        return traced

    def _hook(self, name: str):
        c = self.counters
        if name == "gamma2.decompose_cycle":
            def after(args, out):
                c["gamma2.input_edges"] += len(args[0].terms)
                c["gamma2.pieces"] += len(out)
            return after
        if name.split(".")[1] in CYCLE_BUILDERS:
            def after(args, out):
                c["gamma2.candidates_built"] += out is not None
            return after
        if name == "reduction.reduce_to_boundary":
            def after(args, out):
                c["reduction.cert_moves"] += len(out.moves)
            return after
        if name == "canonical.unoriented_canon":
            def after(args, out):
                self._ucanon_inputs.add(args[0].facets)
            return after
        return None

    def install(self) -> None:
        """Wrap every name in ``FUNCTIONS`` wherever the package binds it.

        A name the library no longer has is skipped and counts 0, so the
        benchmark keeps running across refactors of the library.
        """
        importlib.import_module("bistellar")
        pkg = [m for n, m in list(sys.modules.items()) if n == "bistellar" or n.startswith("bistellar.")]
        for modname, attr in FUNCTIONS:
            mod = sys.modules.get("bistellar." + modname)
            name = f"{modname}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    setattr(cls, meth, self._wrap(name, vars(cls)[meth], self._hook(name)))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(name, orig, self._hook(name))
            for m in pkg:
                if vars(m).get(attr) is orig:
                    setattr(m, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)

    # -- roll-up -------------------------------------------------------------

    def rollup(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded, ``wall_s`` being the
        traced wall time the spans fall in."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        top_s = 0.0
        inclusive: Counter = Counter()
        # above[i]: the INCLUSIVE names among the ancestors of span i
        above: list[frozenset] = []
        applies_under_reduction = 0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child[i]
            if parent < 0:
                top_s += dur
                anc = frozenset()
            else:
                pname = spans[parent][0]
                anc = above[parent] | {pname} if pname in INCLUSIVE else above[parent]
            above.append(anc)
            if name in INCLUSIVE and name not in anc:
                inclusive[name] += dur
            if name == "moves.apply_move" and "reduction.reduce_to_boundary" in anc:
                applies_under_reduction += 1

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        out: dict[str, float] = {}
        for fn in ("okey", "ukey", "unoriented_canon"):
            out[f"canonical.{fn}.calls"] = calls[f"canonical.{fn}"]
        out["canonical.ucanon_distinct_ratio"] = ratio(len(self._ucanon_inputs), calls["canonical.unoriented_canon"])
        for fn in ("enumerate_moves", "apply_move"):
            out[f"moves.{fn}.calls"] = calls[f"moves.{fn}"]
        out["reduction.reduce_to_boundary.calls"] = calls["reduction.reduce_to_boundary"]
        out["reduction.reduce_to_boundary.self_s"] = self_s["reduction.reduce_to_boundary"]
        out["reduction.reduce_to_boundary.s"] = inclusive["reduction.reduce_to_boundary"]
        out["reduction.cert_moves"] = c["reduction.cert_moves"]
        out["reduction.applies_per_cert_move"] = ratio(applies_under_reduction, c["reduction.cert_moves"])
        out["spheres.is_combinatorial_sphere.calls"] = calls["spheres.is_combinatorial_sphere"]
        out["spheres.is_combinatorial_sphere.s"] = inclusive["spheres.is_combinatorial_sphere"]
        out["library.cp2_9.s"] = inclusive["library.cp2_9"]
        out["gamma2.decompose_cycle.calls"] = calls["gamma2.decompose_cycle"]
        out["gamma2.decompose_cycle.self_s"] = self_s["gamma2.decompose_cycle"]
        out["gamma2.decompose_cycle.s"] = inclusive["gamma2.decompose_cycle"]
        out["gamma2.input_edges"] = c["gamma2.input_edges"]
        out["gamma2.pieces"] = c["gamma2.pieces"]
        for fn in CYCLE_BUILDERS + ("decreasing_moves",):
            out[f"gamma2.{fn}.calls"] = calls[f"gamma2.{fn}"]
        out["gamma2.accept_ratio"] = ratio(c["gamma2.pieces"], c["gamma2.candidates_built"])
        out["pontryagin.local_f.calls"] = calls["pontryagin.local_f"]
        out["pontryagin.local_f.self_s"] = self_s["pontryagin.local_f"]
        out["simplicial.link.calls"] = calls["simplicial.link"]
        out["sw.sw_duals.s"] = inclusive["sw.sw_duals"]
        out["enumeration.spheres_by_expansion.s"] = inclusive["enumeration.spheres_by_expansion"]
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == mod)
        out["trace.unattributed_s"] = wall_s - top_s
        out["trace.spans"] = len(spans)
        return out
