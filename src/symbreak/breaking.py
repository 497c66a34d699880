"""Symmetry breaking constraints: lex-leader chains and binary clauses.

All constraints share one direction, theta^phi lex-below-or-equal theta,
and one global variable order.  Mixing directions or orders across the
emitted permutations would be unsound, so the order is built once and
threaded through every encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cnf import Formula, LiteralPermutation, negate, pos, var_of


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


@dataclass
class BreakingClauses:
    """Clauses over original + auxiliary variables."""

    clauses: list
    aux_count: int


def build_order(structures: list, formula: Formula) -> VariableOrder:
    """Global order: the variables of each structure's literals, in
    detection order, then all remaining variables ascending by id.  A
    variable enters at its first occurrence."""
    ordered = []
    seen = set()
    for s in structures:
        for v in map(var_of, s.literals):
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
    # the positions: moved variables in order, those outside it dropped
    xs = phi.support[0::2] // 2 + 1
    rank = np.full(len(xs), -1)
    inside = xs < len(order.rank)
    rank[inside] = order.rank[xs[inside]]
    ranked = np.flatnonzero(rank >= 0)
    by = ranked[np.argsort(rank[ranked])][:max_len]

    clauses = []
    aux = 0
    prefix = ()  # (!a_{i-1},), empty while a_0 is folded away
    last = len(by) - 1
    for i, (x, p) in enumerate(zip(xs[by].tolist(),
                                   phi.images[0::2][by].tolist())):
        px = pos(x)
        if p == negate(px):
            # a phase flip ends the encodable prefix
            clauses.append(prefix + (px,))
            break
        clauses.append(prefix + (negate(p), px))
        if i == last:
            break
        a = pos(next_aux + aux)
        aux += 1
        clauses.append(prefix + (px, a))
        clauses.append(prefix + (negate(p), a))
        prefix = (negate(a),)
    return BreakingClauses(clauses, aux)


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
    none = np.empty(0, dtype=np.int32)
    src = np.concatenate([none] + [g.support for g in gens])
    dst = np.concatenate([none] + [g.images for g in gens])
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
    return BreakingClauses(clauses, 0), order
