"""Spans around the calls into each symbreak module, recorded from the
benchmark's side: every wrapper replaces a name at the place that calls
it (for example `symbreak.pipeline.build_model_graph`), so nothing under
`src/` changes.  A span is (name, start, end, parent span index); spans
live in memory and are reduced to per-layer metrics after each pass.

A layer is the part of a span name before the first dot.  The `cli`
layer is the root span the benchmark opens around `symbreak.cli.main`.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "cnf", "modelgraph", "refine", "detectors", "remainder",
          "breaking", "pipeline")

# detector attempts; their time counts under their own name only when the
# pipeline made them, and under detectors.recursion otherwise
DETECTOR_SPANS = ("detectors.johnson", "detectors.row_column",
                  "detectors.row")


class TraceError(RuntimeError):
    """A wrapped name is gone from its call site."""


def _recolored(report, before) -> int:
    return int(np.count_nonzero(report.coloring.color != before.color))


def _hooks():
    """Counter updates per span name: f(tracer, args, result)."""
    from symbreak.detectors import DetectionFailure

    def verify(t, args, ok):
        t.counts["cnf.verify_calls"] += 1
        t.counts["cnf.verify_rejected"] += not ok

    def graph(t, args, g):
        t.counts["modelgraph.vertices"] += g.vertex_count
        t.counts["modelgraph.edges"] += g.edge_count()

    def session(t, args, rep):
        t.counts["refine.session_calls"] += 1
        t.counts["refine.recolored"] += _recolored(rep, rep.base)

    def ir(t, args, rep):
        t.counts["refine.ir_calls"] += 1
        t.counts["refine.recolored"] += _recolored(rep, args[1])
        if t.inside("remainder.search"):
            t.counts["remainder.individualizations"] += 1

    def detect(t, args, result):
        t.counts["detectors.attempts"] += 1
        t.counts["detectors.found"] += not isinstance(result,
                                                      DetectionFailure)

    def remainder(t, args, gens):
        # the budget counts only when the search dived at all
        t.counts["remainder.generators"] += len(gens)
        dived = t.counts["remainder.individualizations"]
        if dived > t.counts["remainder.dived_before"]:
            t.counts["remainder.dive_pairs"] += args[3].dive_pairs
        t.counts["remainder.dived_before"] = dived

    def lex(t, args, bc):
        t.counts["breaking.lex_calls"] += 1
        t.counts["breaking.clauses"] += len(bc.clauses)
        t.counts["breaking.aux_vars"] += bc.aux_count

    def binary(t, args, result):
        t.counts["breaking.clauses"] += len(result[0].clauses)

    def stable(t, args, rep):
        t.counts["refine.stable_calls"] += 1

    return {"cnf.verify": verify, "modelgraph.build": graph,
            "refine.session": session, "refine.ir": ir,
            "refine.stable": stable,
            "detectors.johnson": detect, "detectors.row_column": detect,
            "detectors.row": detect, "remainder.search": remainder,
            "breaking.lex": lex, "breaking.binary": binary}


# (call site, span name); a span name of None counts calls without a span
TARGETS = (
    ("symbreak.cli.parse_dimacs", "cnf.parse"),
    ("symbreak.cnf.Formula", "cnf.formula"),
    ("symbreak.cli.emit_dimacs", "cnf.emit"),
    ("symbreak.detectors.is_automorphism", "cnf.verify"),
    ("symbreak.remainder.is_automorphism", "cnf.verify"),
    ("symbreak.pipeline.build_model_graph", "modelgraph.build"),
    ("symbreak.pipeline.initial_coloring", "refine.initial"),
    ("symbreak.pipeline.refine_stable", "refine.stable"),
    ("symbreak.detectors.IRSession.__init__", "refine.session_init"),
    ("symbreak.detectors.IRSession.individualize", "refine.session"),
    ("symbreak.detectors.individualize_refine", "refine.ir"),
    ("symbreak.remainder.individualize_refine", "refine.ir"),
    ("symbreak.refine.Coloring.copy", None),
    ("symbreak.pipeline.detect_johnson", "detectors.johnson"),
    ("symbreak.pipeline.detect_row_column", "detectors.row_column"),
    ("symbreak.pipeline.detect_row_blocks", "detectors.row"),
    ("symbreak.pipeline.stabilizer_recursion", "detectors.recursion"),
    ("symbreak.pipeline.find_remainder_generators", "remainder.search"),
    ("symbreak.pipeline.build_order", "breaking.order"),
    ("symbreak.pipeline.structure_generators", "breaking.order"),
    ("symbreak.pipeline.lex_leader_encode", "breaking.lex"),
    ("symbreak.pipeline.binary_clause_heuristic", "breaking.binary"),
    ("symbreak.cli.run", "pipeline.run"),
)

# spans every traced `break` call passes through before detection; one
# missing after a pass means a wrapper no longer sits on the call path
REQUIRED = ("cnf.parse", "cnf.formula", "modelgraph.build", "refine.stable",
            "pipeline.run")


def _resolve(path: str):
    """(owner object, attribute, current value) for a dotted call site;
    the longest importable prefix is the module."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            break
    raise TraceError(f"wrapped name {path} no longer exists at its call "
                     "site; update perfbench/tracing.py")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self._saved = []
        self._hooks = _hooks()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def call(self, name, fn, *args, **kwargs):
        rec = [name, time.perf_counter(), 0.0,
               self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
        hook = self._hooks.get(name)
        if hook is not None:
            hook(self, args, result)
        return result

    def _wrap(self, name, fn):
        if name is None:
            def counted(*args, **kwargs):
                self.counts["refine.copies"] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self):
        """Patch every call site; raises TraceError, patching nothing,
        when one is missing."""
        resolved = [(_resolve(path), name) for path, name in TARGETS]
        for (owner, attr, fn), name in resolved:
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        seen = {s[0] for s in spans}
        missing = [n for n in REQUIRED if n not in seen]
        if missing:
            raise TraceError(f"no span {missing} in a traced pass: a "
                             "wrapper no longer sits on the call path")
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        total = Counter()
        own = Counter()
        for i, s in enumerate(spans):
            self_s[s[0].split(".")[0]] += dur[i] - child[i]
            own[s[0]] += dur[i] - child[i]
            if s[0] in DETECTOR_SPANS and _under(spans, i,
                                                 "detectors.recursion"):
                continue
            total[s[0]] += dur[i]
        c = self.counts
        m = {f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS}
        m.update({
            # parse excludes the Formula() it builds, reported apart
            "cnf.parse_s": (own["cnf.parse"], "s"),
            "cnf.formula_s": (total["cnf.formula"], "s"),
            "cnf.emit_s": (total["cnf.emit"], "s"),
            "cnf.verify_calls": (c["cnf.verify_calls"], "count"),
            "cnf.verify_s": (total["cnf.verify"], "s"),
            "cnf.verify_rejected_ratio": (
                _ratio(c["cnf.verify_rejected"], c["cnf.verify_calls"]),
                "ratio"),
            "modelgraph.build_s": (total["modelgraph.build"], "s"),
            "modelgraph.vertices": (c["modelgraph.vertices"], "count"),
            "modelgraph.edges": (c["modelgraph.edges"], "count"),
            "refine.stable_calls": (c["refine.stable_calls"], "count"),
            "refine.stable_s": (total["refine.stable"], "s"),
            "refine.session_calls": (c["refine.session_calls"], "count"),
            "refine.session_s": (total["refine.session"]
                                 + total["refine.session_init"], "s"),
            "refine.recolored": (c["refine.recolored"], "count"),
            "refine.ir_calls": (c["refine.ir_calls"], "count"),
            "refine.ir_s": (total["refine.ir"], "s"),
            "refine.copies": (c["refine.copies"], "count"),
            "detectors.attempts": (c["detectors.attempts"], "count"),
            "detectors.found_ratio": (
                _ratio(c["detectors.found"], c["detectors.attempts"]),
                "ratio"),
            "detectors.johnson_s": (total["detectors.johnson"], "s"),
            "detectors.row_column_s": (total["detectors.row_column"], "s"),
            "detectors.row_s": (total["detectors.row"], "s"),
            "detectors.recursion_s": (total["detectors.recursion"], "s"),
            "remainder.s": (total["remainder.search"], "s"),
            "remainder.individualizations": (
                c["remainder.individualizations"], "count"),
            "remainder.generators": (c["remainder.generators"], "count"),
            "remainder.yield_ratio": (
                _ratio(c["remainder.generators"],
                       c["remainder.dive_pairs"]), "ratio"),
            "breaking.lex_calls": (c["breaking.lex_calls"], "count"),
            "breaking.lex_s": (total["breaking.lex"], "s"),
            "breaking.binary_s": (total["breaking.binary"], "s"),
            "breaking.clauses": (c["breaking.clauses"], "count"),
            "breaking.aux_vars": (c["breaking.aux_vars"], "count"),
            "pipeline.run_s": (total["pipeline.run"], "s"),
        })
        return m


def _under(spans, i, name) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def _ratio(a, b) -> float:
    return a / b if b else 0.0
