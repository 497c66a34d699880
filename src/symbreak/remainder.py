"""Budgeted random-dive automorphism search on the remainder coloring.

Not a complete group search: each budget unit runs two random
individualization dives to discrete colorings and pairs their leaves
positionally (sound because color ids are isomorphism-invariant, and a
wrong pairing is rejected by verification anyway).

The dives run in place in two working colorings, each reset from the
remainder coloring before its dive.  That coloring is checked once per
search; a split and a refinement keep a coloring an ordered partition,
so the steps of a dive need no check.

Verification draws no random numbers, so all the dives run first.  The
pairings become one image table, checked for bijection and negation in
one pass, and its distinct non-identity rows are verified in one
`automorphisms` call; a budget whose table would outgrow
`cnf.BLOCK_ENTRIES` entries runs block by block.
"""

from __future__ import annotations

import random

import numpy as np

from . import cnf
from .cnf import Formula, LiteralPermutation, automorphisms
from .modelgraph import ColoredGraph
from .refine import (Coloring, _check_coloring, _kernel_addresses,
                     _run_refinement, _split_off, native_kernel)
# unused here, but perfbench/tracing.py wraps these names of this module
from .cnf import is_automorphism  # noqa: F401
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


def _pairing(d1: Coloring, d2: Coloring, nlit: int, out):
    """Write into `out` the raw image-table row pairing two leaves
    positionally: literal l goes to the vertex that d2 holds in the slot
    where d1 holds l."""
    np.take(d2.order, d1.pos[:nlit], out=out)


def _image_table(raw, nlit: int):
    """Check and close a K x nlit table of `_pairing` rows.  Returns the
    int32 table of each row's images closed under negation, and a mask
    of the rows that ``LiteralPermutation`` accepts as pairings of the
    literals: every literal must face a literal, so that, the leaves'
    orders being permutations, the row is a bijection on the literals,
    and a literal moved with its negation must go to the negation of
    the negation's image.  A variable moved by one literal alone takes
    its other literal along.  Refused rows hold no permutation."""
    ok = (raw < nlit).all(axis=1)
    p, n = raw[:, 0::2], raw[:, 1::2]
    fixed = np.arange(0, nlit, 2, dtype=np.int32)
    p_moved, n_moved = p != fixed, n != fixed + 1
    ok &= ~(p_moved & n_moved & (n != p ^ 1)).any(axis=1)
    table = np.empty_like(raw)
    table[:, 0::2] = np.where(n_moved & ~p_moved, n ^ 1, p)
    table[:, 1::2] = table[:, 0::2] ^ 1
    return table, ok


def _permutation(row) -> LiteralPermutation:
    """The literal permutation of one negation-closed image-table row."""
    support = np.flatnonzero(row != np.arange(len(row))).astype(np.int32)
    return LiteralPermutation._closed(support, row[support])


def find_remainder_generators(formula: Formula, graph: ColoredGraph,
                              pi_rem: Coloring, config) -> list:
    """Verified automorphisms found by `config.dive_pairs` paired random
    dives on the remainder coloring, `config` being the run's
    `PipelineConfig`: each distinct one once, in the order of the first
    pair that gives it.  Deterministic given `config.seed`; may return
    an empty list (the search is incomplete by design).  Raises
    ValueError, before any refinement, when pi_rem is no
    ordered-partition coloring of the graph's vertices."""
    nlit = graph.num_literal_vertices
    _check_coloring(pi_rem, graph.vertex_count, native_kernel())
    if (pi_rem.clen[pi_rem.color[:nlit]] == 1).all():
        return []
    (d1, a1), (d2, a2) = _workspace(pi_rem), _workspace(pi_rem)
    rng = random.Random(config.seed)
    identity = np.arange(nlit, dtype=np.int32)
    block = max(1, cnf.BLOCK_ENTRIES // nlit)
    found = []
    seen = set()
    for start in range(0, config.dive_pairs, block):
        raw = np.empty((min(block, config.dive_pairs - start), nlit),
                       dtype=np.int32)
        for row in raw:
            _dive(graph, pi_rem, d1, a1, rng)
            _dive(graph, pi_rem, d2, a2, rng)
            _pairing(d1, d2, nlit, row)
        table, ok = _image_table(raw, nlit)
        ok &= (table != identity).any(axis=1)
        fresh = []
        for r in np.flatnonzero(ok).tolist():
            key = table[r].tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(r)
        verified = automorphisms(formula, table[fresh])
        found += [_permutation(table[r])
                  for r, good in zip(fresh, verified.tolist()) if good]
    return found
