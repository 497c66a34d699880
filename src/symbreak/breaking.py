"""Symmetry breaking constraints: lex-leader chains and binary clauses.

All constraints share one direction, theta^phi lex-below-or-equal theta,
and one global variable order.  Mixing directions or orders across the
emitted permutations would be unsound, so the order is built once and
threaded through every encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .cnf import Formula, LiteralPermutation, negate, pos, var_of


@dataclass
class VariableOrder:
    """A total order on the variables; structure-owned variables first."""

    variables: list
    structured_count: int = 0
    rank: dict = field(default=None)

    def __post_init__(self):
        if self.rank is None:
            self.rank = {v: i for i, v in enumerate(self.variables)}
        if len(self.rank) != len(self.variables):
            raise ValueError("order contains duplicate variables")


@dataclass
class BreakingClauses:
    """Clauses over original + auxiliary variables, with attribution."""

    clauses: list
    aux_count: int
    source: str


def build_order(structures: list, formula: Formula) -> VariableOrder:
    """Global order: per structure in detection order (matrices row-major,
    Johnson structures label-major), then all remaining variables
    ascending by id.  A variable enters at its first occurrence."""
    ordered = []
    seen = set()
    for s in structures:
        for v in s.ordered_variables():
            if v not in seen:
                seen.add(v)
                ordered.append(v)
    structured = len(ordered)
    for v in range(1, formula.num_vars + 1):
        if v not in seen:
            ordered.append(v)
    return VariableOrder(ordered, structured_count=structured)


def structure_generators(s) -> list:
    return list(s.generators)


def lex_leader_encode(phi: LiteralPermutation, order: VariableOrder,
                      next_aux: int, max_len: int = 64) -> BreakingClauses:
    """Clauses forcing theta^phi to not exceed theta lexicographically on
    the order-restricted support prefix.

    Per position i (variable x_i, image literal p_i = phi(pos(x_i))), with
    prefix-equality auxiliary a_i and a_0 folded away as true:
      order clause (!a_{i-1} | !p_i | x_i)
      aux clauses  (!a_{i-1} | x_i | a_i), (!a_{i-1} | !p_i | a_i)
    the aux clauses omitted at the last position.  A phase flip
    p_i = !x_i degenerates the order clause to the unit (!a_{i-1} | x_i)
    and truncates the chain: prefix equality is impossible beyond it.
    At most ``max_len`` positions are encoded; 0 encodes none.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    support_vars = sorted(
        set(var_of(l) for l in phi.support if var_of(l) in order.rank),
        key=order.rank.__getitem__)
    positions = []
    for x in support_vars:
        if len(positions) == max_len:
            break
        p = phi.image(pos(x))
        if p != pos(x):
            positions.append((x, p))

    # a phase flip ends the encodable prefix
    for i, (x, p) in enumerate(positions):
        if p == negate(pos(x)):
            positions = positions[:i + 1]
            break

    clauses = []
    aux = 0
    prev_a = None  # literal code of a_{i-1}, None while a_0 is folded away
    for i, (x, p) in enumerate(positions):
        last = i == len(positions) - 1
        prefix = [] if prev_a is None else [negate(prev_a)]
        if p == negate(pos(x)):
            clauses.append(tuple(prefix + [pos(x)]))
            break
        if last:
            clauses.append(tuple(prefix + [negate(p), pos(x)]))
            break
        a = pos(next_aux + aux)
        aux += 1
        clauses.append(tuple(prefix + [negate(p), pos(x)]))
        clauses.append(tuple(prefix + [pos(x), a]))
        clauses.append(tuple(prefix + [negate(p), a]))
        prev_a = a
    return BreakingClauses(clauses, aux, source="lex")


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
    clauses = []
    stabilized = []
    sizes = [len(g.mapping) for g in gens]
    moves = sum(sizes)
    src = np.fromiter(chain.from_iterable(g.mapping for g in gens),
                      dtype=np.int64, count=moves)
    dst = np.fromiter(chain.from_iterable(g.mapping.values() for g in gens),
                      dtype=np.int64, count=moves)
    owner = np.repeat(np.arange(len(gens)), sizes)
    lits, ends = np.unique(np.concatenate((src, dst)), return_inverse=True)
    a, b = ends[:moves], ends[moves:]
    positive = lits % 2 == 0
    rank = np.full(len(lits), len(order.rank))
    rank[positive] = [order.rank[var_of(l)] for l in lits[positive].tolist()]
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
        for y in lits[roots == roots[x]].tolist():
            if y == negate(xl):
                clauses.append((xl,))
            elif y != xl:
                clauses.append((xl, negate(y)))
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
    return BreakingClauses(clauses, 0, source="binary"), order
