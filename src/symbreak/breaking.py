"""Symmetry breaking constraints: lex-leader chains and binary clauses.

All constraints share one direction, theta^phi lex-below-or-equal theta,
and one global variable order.  Mixing directions or orders across the
emitted permutations would be unsound, so the order is built once and
threaded through every encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cnf import MAX_VAR, Formula, _clause_tuples, var_of


@dataclass
class VariableOrder:
    """A total order on the variables; structure-owned variables first.
    ``rank[v]`` is variable v's position in it, -1 for a variable not in
    it."""

    variables: list
    structured_count: int = 0
    rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        variables = np.asarray(self.variables, dtype=np.int64)
        self.rank = np.full(int(variables.max(initial=0)) + 1, -1)
        self.rank[variables] = np.arange(len(variables))
        if np.count_nonzero(self.rank >= 0) != len(variables):
            raise ValueError("order contains duplicate variables")


_NONE = np.empty(0, dtype=np.int32)


@dataclass(eq=False)
class BreakingClauses:
    """Clauses over original + auxiliary variables, stored as CSR the way
    :class:`~symbreak.cnf.Formula` stores its own: int32 ``lens`` and
    ``lits``, the clauses' literals back to back.  ``clauses`` is the same
    list as tuples, built on first use.  No arguments give no clauses."""

    lens: np.ndarray = field(default_factory=_NONE.copy)
    lits: np.ndarray = field(default_factory=_NONE.copy)
    aux_count: int = 0

    @cached_property
    def clauses(self) -> list:
        return _clause_tuples(self.lens, self.lits)


def build_order(structures: list, formula: Formula) -> VariableOrder:
    """Global order: the variables of each structure's literals, in
    detection order, then all remaining variables ascending by id.  A
    variable enters at its first occurrence."""
    lits = np.concatenate([_NONE] + [np.asarray(s.literals, dtype=np.int32)
                                     for s in structures])
    seen, first = np.unique(lits // 2 + 1, return_index=True)
    head = seen[np.argsort(first)]
    unseen = np.ones(formula.num_vars + 1, dtype=bool)
    unseen[0] = False
    unseen[head] = False
    variables = np.concatenate((head, np.flatnonzero(unseen)))
    return VariableOrder(variables.tolist(), structured_count=len(head))


def structure_generators(s) -> list:
    return list(s.generators)


def lex_leader_encode(gens: list, order: VariableOrder, next_aux: int,
                      max_len: int = 64) -> BreakingClauses:
    """Clauses forcing theta^phi to not exceed theta lexicographically on
    the order-restricted support prefix, one chain per generator phi of
    `gens`, in list order; the chains number their auxiliary variables
    from `next_aux` on, also in list order.

    Per position i (variable x_i, image literal p_i = phi(pos(x_i))), with
    prefix-equality auxiliary a_i and a_0 folded away as true:
      order clause (!a_{i-1} | !p_i | x_i)
      aux clauses  (!a_{i-1} | x_i | a_i), (!a_{i-1} | !p_i | a_i)
    the aux clauses omitted at the last position.  A phase flip
    p_i = !x_i degenerates the order clause to the unit (!a_{i-1} | x_i)
    and truncates the chain: prefix equality is impossible beyond it.
    At most ``max_len`` positions are encoded; 0 encodes none.

    All chains are built in one pass: every generator's positions are
    ranked and sorted by (generator, rank), each chain is cut at its
    first flip or ``max_len``, and each kept position writes its three
    clauses as one row of a position x clause x literal array whose mask
    drops the absent a_0 and the aux clauses of a chain's last position.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    # the positions: each moved variable's positive literal and its image
    px = np.concatenate([_NONE] + [g.support[0::2] for g in gens])
    p = np.concatenate([_NONE] + [g.images[0::2] for g in gens])
    owner = np.repeat(np.arange(len(gens)), [len(g) // 2 for g in gens])
    xs = px // 2 + 1
    rank = np.full(len(xs), -1)
    inside = xs < len(order.rank)
    rank[inside] = order.rank[xs[inside]]
    # variables outside the order are dropped
    ranked = np.flatnonzero(rank >= 0)
    by = ranked[np.lexsort((rank[ranked], owner[ranked]))]
    px, p, owner = px[by], p[by], owner[by]
    count = np.bincount(owner, minlength=len(gens))
    j = np.arange(len(by)) - (np.cumsum(count) - count)[owner]
    # a chain ends at its first phase flip or after max_len positions
    flip = p == px ^ 1
    length = np.minimum(count, max_len)
    np.minimum.at(length, owner[flip], j[flip] + 1)
    kept = j < length[owner]
    px, p, owner, j, flip = px[kept], p[kept], owner[kept], j[kept], flip[kept]
    aux = np.maximum(length - 1, 0)
    aux_count = int(aux.sum())
    if next_aux - 1 + aux_count > MAX_VAR:
        raise ValueError(f"auxiliary variable beyond {MAX_VAR}")
    a = 2 * ((next_aux - 1 + np.cumsum(aux) - aux)[owner] + j)  # pos(a_i)
    notp = p ^ 1
    rows = np.empty((len(px), 3, 3), dtype=np.int32)
    rows[:, :, 0] = (a - 1)[:, None]                  # !a_{i-1}
    rows[:, 0, 1], rows[:, 0, 2] = notp, px
    rows[:, 1, 1], rows[:, 1, 2] = px, a
    rows[:, 2, 1], rows[:, 2, 2] = notp, a
    mask = np.ones(rows.shape, dtype=bool)
    mask[:, :, 0] = (j > 0)[:, None]
    mask[j == length[owner] - 1, 1:] = False
    mask[flip, 0, 1] = False
    lens = np.count_nonzero(mask, axis=2).ravel()
    return BreakingClauses(lens[lens > 0].astype(np.int32), rows[mask],
                           aux_count)


def _component_roots(size: int, a, b):
    """Per node of the graph on range(size) with edges (a[i], b[i]), the
    least node of its connected component: roots hook onto the least
    root across each edge, then every label jumps to its root, until no
    edge joins two roots."""
    label = np.arange(size)
    while True:
        la, lb = label[a], label[b]
        low = np.minimum(la, lb)
        hooked = label.copy()
        np.minimum.at(hooked, la, low)
        np.minimum.at(hooked, lb, low)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, label):
            return label
        label = hooked


def binary_clause_heuristic(gens: list, order: VariableOrder):
    """Approximate-stabilizer-chain binary breaking clauses.

    Repeatedly: pick the order-minimal variable x whose positive-literal
    orbit under the surviving generators is non-singleton, emit the
    first-position order clause (pos(x) | !y) for every other orbit
    literal y, then drop the generators moving pos(x).  Returns the
    clauses and the order updated so the stabilized variables head the
    remainder segment.

    Each clause is the first-position lex-leader clause of a verified
    permutation mapping pos(x) to y under an order starting at x, hence
    individually sound; a phase-flip orbit member y = !x degenerates to
    the unit (pos(x)).

    The generators' moves are numbered once as edges (a -> b, owner)
    between the moved literals; each round takes the orbits from the
    edges of the surviving generators.
    """
    gens = list(gens)
    lens, clause_lits = [_NONE], [_NONE]
    stabilized = []
    src = np.concatenate([_NONE] + [g.support for g in gens])
    dst = np.concatenate([_NONE] + [g.images for g in gens])
    owner = np.repeat(np.arange(len(gens)), [len(g) for g in gens])
    lits, ends = np.unique(np.concatenate((src, dst)), return_inverse=True)
    a, b = ends[:len(src)], ends[len(src):]
    positive = lits % 2 == 0
    rank = np.full(len(lits), len(order.variables))
    rank[positive] = order.rank[lits[positive] // 2 + 1]
    alive = np.ones(len(gens), dtype=bool)
    while True:
        live = alive[owner]
        moved = np.zeros(len(lits), dtype=bool)
        moved[a[live]] = True
        candidates = np.flatnonzero(moved & positive)
        if not len(candidates):
            break
        x = candidates[np.argmin(rank[candidates])]
        roots = _component_roots(len(lits), a[live], b[live])
        xl = int(lits[x])
        ys = lits[roots == roots[x]]
        ys = ys[ys != xl]
        pair = np.empty((len(ys), 2), dtype=np.int32)
        pair[:, 0], pair[:, 1] = xl, ys ^ 1
        keep = np.ones(pair.shape, dtype=bool)
        keep[:, 1] = ys != xl ^ 1
        lens.append(np.count_nonzero(keep, axis=1))
        clause_lits.append(pair[keep])
        stabilized.append(var_of(xl))
        alive[owner[a == x]] = False

    if stabilized:
        head = order.variables[:order.structured_count]
        moved = set(stabilized) - set(head)
        tail = [v for v in order.variables[order.structured_count:]
                if v not in moved]
        mid = [v for v in stabilized if v in moved]
        order = VariableOrder(head + mid + tail,
                              structured_count=order.structured_count)
    return BreakingClauses(np.concatenate(lens).astype(np.int32),
                           np.concatenate(clause_lits)), order
