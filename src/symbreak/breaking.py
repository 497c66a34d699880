"""Symmetry breaking constraints: lex-leader chains and binary clauses.

All constraints share one direction, theta^phi lex-below-or-equal theta,
and one global variable order.  Mixing directions or orders across the
emitted permutations would be unsound, so the order is built once and
threaded through every encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cnf import Formula, LiteralPermutation, is_positive, negate, pos, var_of


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


def _literal_orbits(gens: list) -> dict:
    """Union-find closure of literal orbits under the generators; maps
    each moved literal to its orbit representative."""
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for g in gens:
        for a, b in g.mapping.items():
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups: dict = {}
    for l in parent:
        groups.setdefault(find(l), set()).add(l)
    for root, members in groups.items():
        members.add(root)
    return {l: members for members in groups.values() for l in members}


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
    """
    gens = list(gens)
    clauses = []
    stabilized = []
    while gens:
        orbits = _literal_orbits(gens)
        candidates = [l for l, orb in orbits.items()
                      if is_positive(l) and len(orb) > 1]
        if not candidates:
            break
        x = min(candidates, key=lambda l: order.rank[var_of(l)])
        for y in sorted(orbits[x] - {x}):
            if y == negate(x):
                clauses.append((x,))
            else:
                clauses.append((x, negate(y)))
        stabilized.append(var_of(x))
        gens = [g for g in gens if g.image(x) == x]

    if stabilized:
        head = order.variables[:order.structured_count]
        moved = set(stabilized) - set(head)
        tail = [v for v in order.variables[order.structured_count:]
                if v not in moved]
        mid = [v for v in stabilized if v in moved]
        order = VariableOrder(head + mid + tail,
                              structured_count=order.structured_count)
    return BreakingClauses(clauses, 0, source="binary"), order
