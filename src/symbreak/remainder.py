"""Budgeted random-dive automorphism search on the remainder coloring.

Not a complete group search: each budget unit runs two random
individualization dives to discrete colorings and pairs their leaves
positionally (sound because color ids are isomorphism-invariant, and a
wrong pairing is rejected by verification anyway).
"""

from __future__ import annotations

import random

import numpy as np

from .cnf import Formula, LiteralPermutation, is_automorphism
from .modelgraph import ColoredGraph
from .refine import Coloring, individualize_refine


def _first_nonsingleton(pi: Coloring):
    """Color id of the first non-singleton class in partition order (the
    smallest id, as ids are slots), or None for a discrete coloring."""
    # clen is nonzero only at class starts, so the first slot with
    # clen > 1 starts that class
    c = int(np.argmax(pi.clen > 1))
    return c if pi.clen[c] > 1 else None


def _dive(graph: ColoredGraph, pi: Coloring, rng: random.Random) -> Coloring:
    cur = pi
    while True:
        c = _first_nonsingleton(cur)
        if c is None:
            return cur
        members = cur.class_members(c).tolist()
        cur = individualize_refine(graph, cur, rng.choice(members)).coloring


def _pair_leaves(graph: ColoredGraph, d1: Coloring, d2: Coloring):
    """Literal permutation pairing the two discrete leaves slot by slot;
    None when the pairing is no negation-closed permutation of the
    literals."""
    lit = d1.order < graph.num_literal_vertices
    try:
        return LiteralPermutation(d1.order[lit], d2.order[lit])
    except ValueError:
        return None


def find_remainder_generators(formula: Formula, graph: ColoredGraph,
                              pi_rem: Coloring, config) -> list:
    """Verified automorphisms found by `config.dive_pairs` paired random
    dives on the remainder coloring, `config` being the run's
    `PipelineConfig`.  Deterministic given `config.seed`; may return an
    empty list (the search is incomplete by design)."""
    nlit = graph.num_literal_vertices
    if (pi_rem.clen[pi_rem.color[:nlit]] == 1).all():
        return []
    rng = random.Random(config.seed)
    found = []
    seen = set()
    for _ in range(config.dive_pairs):
        d1 = _dive(graph, pi_rem, rng)
        d2 = _dive(graph, pi_rem, rng)
        phi = _pair_leaves(graph, d1, d2)
        if phi is None or not len(phi) or phi in seen:
            continue
        if is_automorphism(formula, phi):
            seen.add(phi)
            found.append(phi)
    return found
