"""End-to-end symmetry breaking pipeline.

Three steps: build the model graph and its stable coloring; detect
structures orbit by orbit (Johnson first, then row-column, then row, each
over the unmarked classes largest-first); freeze what was found in the
remainder coloring, search it for leftover symmetry, and assemble the
breaking clauses under one global variable order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .breaking import (BreakingClauses, binary_clause_heuristic,
                       build_order, lex_leader_encode, structure_generators)
from .cnf import Formula
from .detectors import (DetectionFailure, detect_johnson, detect_row_blocks,
                        detect_row_column, negation_class_of,
                        stabilizer_recursion)
from .modelgraph import build_model_graph
from .refine import Coloring, initial_coloring, refine_stable
from .remainder import find_remainder_generators


@dataclass
class PipelineConfig:
    johnson: bool = True
    row_column: bool = True
    row: bool = True
    binary: bool = True
    max_len: int = 64                  # 0 emits no lex chains
    dive_pairs: int = 32               # 0 skips the remainder search
    seed: int = 0

    def __post_init__(self):
        for name in ("max_len", "dive_pairs"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass
class BreakerOutput:
    """The run's breaking clauses, binary ones first, as the int32 arrays
    `added`; ``added_clauses`` is their tuple view."""

    added: BreakingClauses
    structures: list
    remainder_generators: list
    stats: dict = field(default_factory=dict)

    @property
    def added_clauses(self) -> list:
        return self.added.clauses

    @property
    def aux_count(self) -> int:
        return self.added.aux_count


def _literal_classes(graph, pi: Coloring, covered) -> list:
    """Non-singleton literal classes with no member in the boolean
    vertex mask `covered`, largest first (ties by ascending color id)."""
    out = [c for c in pi.classes()
           if pi.clen[c] >= 2 and pi.order[c] < graph.num_literal_vertices
           and not covered[pi.class_members(c)].any()]
    out.sort(key=lambda c: (-int(pi.clen[c]), c))
    return out


def _cover(covered, s):
    """Mark the literals of structure `s` and their negations in the
    boolean vertex mask `covered`; returns the mask."""
    covered[s.literals] = True
    covered[[lit ^ 1 for lit in s.literals]] = True
    return covered


def _polarity_split_base(graph, pi: Coloring, sigma: int):
    """Attempt base for a self-negating class: split sigma by literal
    polarity (positive slots first), re-refine, and return the stable
    coloring plus the class now holding sigma's positive literals.

    Polarity is not a graph invariant, so this is purely a heuristic seed
    for detection; final verification keeps it sound.
    """
    keys = pi.color.astype(np.int64) * 2
    members = [int(v) for v in pi.class_members(sigma)]
    for v in members:
        if v % 2 == 1:
            keys[v] += 1
    split = refine_stable(graph, Coloring.from_color_map(keys)).coloring
    return split, int(split.color[next(v for v in members if v % 2 == 0)])


def _enabled_detectors(config: PipelineConfig) -> list:
    """(name, detector) for the enabled detectors in attempt order.  The
    detectors are looked up on every call, so a wrapper put in their
    place is what runs."""
    return [(name, det) for on, name, det in (
        (config.johnson, "johnson", detect_johnson),
        (config.row_column, "row-column", detect_row_column),
        (config.row, "row", detect_row_blocks)) if on]


def _detect_structures(formula, graph, pi: Coloring, config: PipelineConfig):
    """(structures, boolean mask of the covered vertices, attempt log)."""
    structures = []
    covered = np.zeros(graph.vertex_count, dtype=bool)
    attempts = []
    split_cache: dict = {}

    def sweep(name, attempt):
        """attempt(sigma) on each unmarked literal class, largest first;
        a found structure marks the vertices it covers.  Every attempt is
        logged under `name`."""
        for sigma in _literal_classes(graph, pi, covered):
            if covered[pi.class_members(sigma)].any():
                continue
            t0 = time.perf_counter()
            result = attempt(sigma)
            ms = (time.perf_counter() - t0) * 1000.0
            failed = isinstance(result, DetectionFailure)
            attempts.append({"detector": name, "class": int(sigma),
                             "size": int(pi.clen[sigma]),
                             "outcome": "failed" if failed else "found",
                             "reason": result.reason if failed else None,
                             "ms": ms})
            if not failed:
                structures.append(result)
                _cover(covered, result)

    def direct(det, sigma):
        if negation_class_of(pi, sigma) == sigma:
            if sigma not in split_cache:
                split_cache[sigma] = _polarity_split_base(graph, pi, sigma)
            coloring, sig = split_cache[sigma]
        else:
            coloring, sig = pi, sigma
        if det is not detect_johnson:
            return det(formula, graph, coloring, sig)
        # only Johnson reads the other classes, for its row extension
        others = [c for c in _literal_classes(graph, coloring, covered)
                  if c != sig and c != negation_class_of(coloring, sig)]
        return det(formula, graph, coloring, sig, other_colors=others)

    enabled = _enabled_detectors(config)
    for name, det in enabled:
        sweep(name, partial(direct, det))
    # last resort: one level of stabilizer recursion on leftover classes
    if enabled:
        sweep("recursion", lambda sigma: stabilizer_recursion(
            formula, graph, pi, sigma, enabled))
    return structures, covered, attempts


def _remainder_coloring(graph, pi: Coloring, covered) -> Coloring:
    """Discretize every vertex of the mask `covered` (fresh singleton per
    vertex, in id order), keeping the stable coloring elsewhere."""
    keys = pi.color.astype(np.int64)
    keys[covered] = graph.vertex_count + np.arange(np.count_nonzero(covered))
    return Coloring.from_color_map(keys)


def _output(structures, attempts, rem_gens, added, binary_count, times,
            pi) -> BreakerOutput:
    # orbit sizes read the covered vertices by index: a boolean-mask read
    # raised peak RSS on php instances by about 0.4 MB
    stats = {
        "structures": [
            {
                "kind": s.kind,
                "dims": list(s.dims),
                "generators": len(s.generators),
                "orbit_sizes": sorted(np.unique(
                    pi.color[np.flatnonzero(
                        _cover(np.zeros(len(pi.color), dtype=bool), s))],
                    return_counts=True)[1].tolist(), reverse=True),
            }
            for s in structures
        ],
        "attempts": attempts,
        "remainder": {
            "generators": len(rem_gens),
            "binary_clauses": binary_count,
        },
        "clauses_added": len(added.lens),
        "aux_vars": added.aux_count,
        "phase_times_ms": times,
    }
    return BreakerOutput(added=added, structures=structures,
                         remainder_generators=rem_gens, stats=stats)


def run(formula: Formula, config: PipelineConfig = None) -> BreakerOutput:
    if config is None:
        config = PipelineConfig()
    times = dict.fromkeys(("graph_ms", "detect_ms", "remainder_ms",
                           "encode_ms"), 0.0)
    if not formula.lens.all():
        # an empty clause already makes the formula unsatisfiable
        return _output([], [], [], BreakingClauses(), 0, times, None)

    t0 = time.perf_counter()
    graph = build_model_graph(formula)
    pi = refine_stable(graph, initial_coloring(graph)).coloring
    times["graph_ms"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    structures, covered, attempts = _detect_structures(formula, graph, pi,
                                                       config)
    times["detect_ms"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    rem_gens = []
    if (config.dive_pairs > 0
            and np.count_nonzero(covered) < graph.num_literal_vertices):
        rem_pi = _remainder_coloring(graph, pi, covered)
        rem_pi = refine_stable(graph, rem_pi).coloring
        rem_gens = find_remainder_generators(formula, graph, rem_pi, config)
    times["remainder_ms"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    order = build_order(structures, formula)
    binary = BreakingClauses()
    if config.binary and rem_gens:
        binary, order = binary_clause_heuristic(rem_gens, order)
    chain_gens = []
    for s in structures:
        chain_gens.extend(structure_generators(s))
    chain_gens.extend(rem_gens)
    chains = lex_leader_encode(chain_gens, order, formula.num_vars + 1,
                               max_len=config.max_len)
    added = BreakingClauses(np.concatenate((binary.lens, chains.lens)),
                            np.concatenate((binary.lits, chains.lits)),
                            chains.aux_count)
    times["encode_ms"] = (time.perf_counter() - t0) * 1000.0
    return _output(structures, attempts, rem_gens, added, len(binary.lens),
                   times, pi)
