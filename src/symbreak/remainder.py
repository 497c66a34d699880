"""Budgeted random-dive automorphism search on the remainder coloring.

Not a complete group search: each budget unit runs two random
individualization dives to discrete colorings and pairs their leaves
positionally (sound because color ids are isomorphism-invariant, and a
wrong pairing is rejected by verification anyway).  The dives and the
pairing are `refine.dive_pairs`, one call per block of pairs, which
runs them in C where it can.

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
from .refine import Coloring, dive_pairs
# unused here, but perfbench/tracing.py wraps these names of this module
from .cnf import is_automorphism  # noqa: F401
from .refine import individualize_refine  # noqa: F401


def _image_table(raw, nlit: int):
    """Check and close a K x nlit table of `dive_pairs` rows.  Returns the
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
    an empty list (the search is incomplete by design).  Before any
    refinement, `dive_pairs` refuses with ValueError a pi_rem that is no
    ordered-partition coloring of the graph's vertices."""
    nlit = graph.num_literal_vertices
    if (pi_rem.clen[pi_rem.color[:nlit]] == 1).all():
        return []
    rng = random.Random(config.seed)
    identity = np.arange(nlit, dtype=np.int32)
    block = max(1, cnf.BLOCK_ENTRIES // nlit)
    found = []
    seen = set()
    for start in range(0, config.dive_pairs, block):
        raw = dive_pairs(graph, pi_rem, rng,
                         min(block, config.dive_pairs - start))
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
