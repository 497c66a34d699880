"""Budgeted random-dive automorphism search on the remainder coloring.

Not a complete group search: each budget unit runs two random
individualization dives to discrete colorings and pairs their leaves
positionally (sound because color ids are isomorphism-invariant, and a
wrong pairing is rejected by verification anyway).

The dives run in place in two working colorings, each reset from the
remainder coloring before its dive.  That coloring is checked once per
search; a split and a refinement keep a coloring an ordered partition,
so the steps of a dive need no check.
"""

from __future__ import annotations

import random

import numpy as np

from .cnf import Formula, LiteralPermutation, is_automorphism
from .modelgraph import ColoredGraph
from .refine import (Coloring, _check_coloring, _kernel_addresses,
                     _run_refinement, _split_off, native_kernel)
# unused here, but perfbench/tracing.py wraps this module's name
from .refine import individualize_refine  # noqa: F401


def _next_nonsingleton(clen, start: int):
    """Slot of the first class of more than one member at or after the
    class start `start`, or None when every class from there on is a
    singleton.  clen is nonzero only at class starts, so the first slot
    from `start` on with clen > 1 starts that class."""
    big = clen[start:] > 1
    k = int(big.argmax())
    return start + k if big[k] else None


def _workspace(pi: Coloring):
    """A copy of pi to dive in, with its addresses for the C kernel."""
    work = pi.copy()
    return work, _kernel_addresses(work)


def _dive(graph: ColoredGraph, pi: Coloring, work: Coloring, addresses,
          rng: random.Random):
    """Reset `work` to pi, then individualize a random member of its
    first non-singleton class and refine, in place, until `work` is
    discrete.  `addresses` are the C kernel's addresses of work's arrays
    (see `_run_refinement`); pi must be a checked coloring."""
    for name in ("order", "pos", "color", "clen"):
        np.copyto(getattr(work, name), getattr(pi, name))
    # the classes before an individualized one are singletons and stay
    # so, as refinement splits a class only inside its own slots
    c = _next_nonsingleton(work.clen, 0)
    while c is not None:
        v = int(rng.choice(work.class_members(c)))
        worklist, _, _ = _split_off(work, v)
        _run_refinement(graph, work, worklist, addresses=addresses)
        c = _next_nonsingleton(work.clen, c)


def _pair_leaves(slots, d1: Coloring, d2: Coloring):
    """Literal permutation pairing the two discrete leaves at the literal
    slots `slots`; None when the pairing is no negation-closed
    permutation of the literals."""
    try:
        return LiteralPermutation(d1.order[slots], d2.order[slots])
    except ValueError:
        return None


def find_remainder_generators(formula: Formula, graph: ColoredGraph,
                              pi_rem: Coloring, config) -> list:
    """Verified automorphisms found by `config.dive_pairs` paired random
    dives on the remainder coloring, `config` being the run's
    `PipelineConfig`.  Deterministic given `config.seed`; may return an
    empty list (the search is incomplete by design).  Raises ValueError,
    before any refinement, when pi_rem is no ordered-partition coloring
    of the graph's vertices."""
    nlit = graph.num_literal_vertices
    _check_coloring(pi_rem, graph.vertex_count, native_kernel())
    if (pi_rem.clen[pi_rem.color[:nlit]] == 1).all():
        return []
    # every class of pi_rem is all-literal or all-clause, and a dive
    # splits a class only inside its own slots, so each leaf holds the
    # literals in these slots
    slots = np.flatnonzero(pi_rem.order < nlit)
    (d1, a1), (d2, a2) = _workspace(pi_rem), _workspace(pi_rem)
    rng = random.Random(config.seed)
    found = []
    seen = set()
    for _ in range(config.dive_pairs):
        _dive(graph, pi_rem, d1, a1, rng)
        _dive(graph, pi_rem, d2, a2, rng)
        phi = _pair_leaves(slots, d1, d2)
        if phi is None or not len(phi) or phi in seen:
            continue
        if is_automorphism(formula, phi):
            seen.add(phi)
            found.append(phi)
    return found
