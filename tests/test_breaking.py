"""Lex-leader encoding, binary clause heuristic, and the global order."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from symbreak.breaking import (VariableOrder, binary_clause_heuristic,
                               build_order, lex_leader_encode,
                               structure_generators)
from symbreak.cnf import (MAX_VAR, Formula, LiteralPermutation, neg_var,
                          pos, transpose, var_of)
from symbreak.detectors import Structure
from test_generator_differential import as_dict


def make_order(vars_, structured=0):
    return VariableOrder(list(vars_), structured_count=structured)


def encoded_prefix(phi, order, max_len=64):
    """The (x_i, p_i) positions the encoder commits to, reimplemented
    independently for the exactness oracle."""
    mapping = as_dict(phi)
    rank = {v: i for i, v in enumerate(order.variables)}
    support = sorted(set(var_of(l) for l in mapping if var_of(l) in rank),
                     key=rank.__getitem__)
    out = []
    for x in support:
        p = mapping.get(pos(x), pos(x))
        if p == pos(x):
            continue
        out.append((x, p))
        if p == pos(x) ^ 1 or len(out) == max_len:
            break
    return out


def lex_ok(theta, prefix):
    """theta^phi lex-below-or-equal theta on the encoded prefix; theta
    maps variable -> bool."""
    for x, p in prefix:
        a = theta[var_of(p)] ^ (p % 2 == 1)
        b = theta[x]
        if a != b:
            return a < b
    return True


def clause_models(num_vars, aux, clauses):
    """Assignments of the original variables extendable to satisfy the
    clauses (auxiliaries existentially quantified)."""
    models = set()
    for bits in itertools.product((False, True), repeat=num_vars):
        theta = {v + 1: bits[v] for v in range(num_vars)}
        for ext in itertools.product((False, True), repeat=aux):
            full = dict(theta)
            full.update({num_vars + 1 + i: ext[i] for i in range(aux)})
            if all(any(full[l // 2 + 1] ^ (l % 2 == 1) for l in c)
                   for c in clauses):
                models.add(bits)
                break
    return models


class TestBuildOrder:
    def test_no_structures_ascending(self):
        f = Formula(3, [[pos(1)]])
        order = build_order([], f)
        assert order.variables == [1, 2, 3]
        assert order.structured_count == 0

    def test_matrix_row_major(self):
        f = Formula(5, [[pos(1)]])
        s = Structure("row", (2, 2), [pos(3), pos(1), pos(4), pos(2)], [])
        order = build_order([s], f)
        assert order.variables == [3, 1, 4, 2, 5]
        assert order.structured_count == 4

    def test_negative_cells_enter_at_first_occurrence(self):
        f = Formula(3, [[pos(1)]])
        s = Structure("row", (1, 3), [neg_var(2), pos(2), pos(1)], [])
        order = build_order([s], f)
        assert order.variables == [2, 1, 3]

    def test_duplicate_order_rejected(self):
        with pytest.raises(ValueError):
            VariableOrder([1, 2, 1])


class TestLexLeaderEncode:
    def test_identity_empty(self):
        out = lex_leader_encode([LiteralPermutation()], make_order([1, 2]),
                                3)
        assert out.clauses == [] and out.aux_count == 0

    def test_swap_two_vars_exact_clauses(self):
        phi = transpose([pos(1)], [pos(2)])
        out = lex_leader_encode([phi], make_order([1, 2]), 3)
        a = pos(3)
        expected = [
            (neg_var(2), pos(1)),
            (pos(1), a),
            (neg_var(2), a),
            (a ^ 1, neg_var(1), pos(2)),
        ]
        assert sorted(tuple(sorted(c)) for c in out.clauses) == \
            sorted(tuple(sorted(c)) for c in expected)
        assert out.aux_count == 1

    def test_swap_models_match_lex_predicate(self):
        phi = transpose([pos(1)], [pos(2)])
        out = lex_leader_encode([phi], make_order([1, 2]), 3)
        models = clause_models(2, out.aux_count, out.clauses)
        assert models == {(False, False), (True, False), (True, True)}

    def test_phase_flip_is_unit(self):
        phi = LiteralPermutation([pos(1), neg_var(1)], [neg_var(1), pos(1)])
        out = lex_leader_encode([phi], make_order([1]), 2)
        assert out.clauses == [(pos(1),)]
        assert out.aux_count == 0

    def test_phase_flip_truncates_chain(self):
        phi = LiteralPermutation([pos(1), neg_var(1), pos(2), pos(3)],
                                 [neg_var(1), pos(1), pos(3), pos(2)])
        out = lex_leader_encode([phi], make_order([1, 2, 3]), 4)
        # position 1 flips phase: single unit clause, nothing after
        assert out.clauses == [(pos(1),)]

    def test_max_len_truncation(self):
        mapping = {}
        for v in range(1, 7, 2):
            mapping[pos(v)] = pos(v + 1)
            mapping[pos(v + 1)] = pos(v)
        phi = LiteralPermutation(list(mapping), list(mapping.values()))
        out = lex_leader_encode([phi], make_order(range(1, 7)), 7,
                                max_len=2)
        prefix = encoded_prefix(phi, make_order(range(1, 7)), max_len=2)
        assert len(prefix) == 2
        models = clause_models(6, out.aux_count, out.clauses)
        theta_all = set(itertools.product((False, True), repeat=6))
        expected = {bits for bits in theta_all
                    if lex_ok({v + 1: bits[v] for v in range(6)}, prefix)}
        assert models == expected

    def test_max_len_zero_encodes_nothing(self):
        phi = transpose([pos(1)], [pos(2)])
        out = lex_leader_encode([phi], make_order([1, 2]), 3, max_len=0)
        assert out.clauses == [] and out.aux_count == 0

    def test_negative_max_len_rejected(self):
        phi = transpose([pos(1)], [pos(2)])
        with pytest.raises(ValueError):
            lex_leader_encode([phi], make_order([1, 2]), 3, max_len=-1)

    def test_aux_variables_stay_literal_codes(self):
        # the chain of a swap needs one auxiliary variable
        phi = transpose([pos(1)], [pos(2)])
        out = lex_leader_encode([phi], make_order([1, 2]), MAX_VAR)
        assert out.aux_count == 1 and max(map(max, out.clauses)) == \
            neg_var(MAX_VAR)
        with pytest.raises(ValueError):
            lex_leader_encode([phi], make_order([1, 2]), MAX_VAR + 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_permutation_exactness(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        vperm = list(range(1, n + 1))
        rng.shuffle(vperm)
        mapping = {}
        for v in range(1, n + 1):
            flip = rng.random() < 0.3
            mapping[pos(v)] = 2 * (vperm[v - 1] - 1) + flip
            mapping[neg_var(v)] = 2 * (vperm[v - 1] - 1) + (not flip)
        phi = LiteralPermutation(list(mapping), list(mapping.values()))
        order = make_order(range(1, n + 1))
        out = lex_leader_encode([phi], order, n + 1)
        prefix = encoded_prefix(phi, order)
        models = clause_models(n, out.aux_count, out.clauses)
        expected = {
            bits for bits in itertools.product((False, True), repeat=n)
            if lex_ok({v + 1: bits[v] for v in range(n)}, prefix)}
        assert models == expected


class TestBinaryClauseHeuristic:
    def test_three_cycle(self):
        phi = LiteralPermutation([pos(1), pos(2), pos(3)],
                                 [pos(2), pos(3), pos(1)])
        out, order = binary_clause_heuristic([phi], make_order([1, 2, 3]))
        assert sorted(out.clauses) == [(pos(1), neg_var(2)),
                                       (pos(1), neg_var(3))]
        assert out.aux_count == 0

    def test_empty_generators(self):
        out, order = binary_clause_heuristic([], make_order([1, 2]))
        assert out.clauses == []

    def test_phase_flip_orbit_gives_unit(self):
        phi = LiteralPermutation([pos(1), neg_var(1)], [neg_var(1), pos(1)])
        out, _ = binary_clause_heuristic([phi], make_order([1]))
        assert out.clauses == [(pos(1),)]

    def test_stabilized_vars_head_remainder_segment(self):
        # two independent swaps; var 2 and var 4 orbits
        g1 = transpose([pos(2)], [pos(3)])
        g2 = transpose([pos(4)], [pos(5)])
        order = make_order([1, 2, 3, 4, 5], structured=1)
        out, new_order = binary_clause_heuristic([g1, g2], order)
        assert new_order.variables[:3] == [1, 2, 4]
        assert len(out.clauses) == 2

    def test_respects_order_minimality(self):
        phi = transpose([pos(1)], [pos(2)])
        out, _ = binary_clause_heuristic([phi], make_order([2, 1]))
        assert out.clauses == [(pos(2), neg_var(1))]


def ref_binary_clause_heuristic(gens, order):
    """The dict union-find implementation the array version replaced,
    kept as its reference."""
    def literal_orbits(gens):
        parent = {}

        def find(x):
            root = x
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(x, x) != x:
                parent[x], x = root, parent[x]
            return root

        for g in gens:
            for a, b in g.items():
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        groups = {}
        for l in parent:
            groups.setdefault(find(l), set()).add(l)
        for root, members in groups.items():
            members.add(root)
        return {l: members for members in groups.values() for l in members}

    gens = [as_dict(g) for g in gens]
    rank = {v: i for i, v in enumerate(order.variables)}
    clauses = []
    stabilized = []
    while gens:
        orbits = literal_orbits(gens)
        candidates = [l for l, orb in orbits.items()
                      if l % 2 == 0 and len(orb) > 1]
        if not candidates:
            break
        x = min(candidates, key=lambda l: rank[var_of(l)])
        for y in sorted(orbits[x] - {x}):
            clauses.append((x,) if y == x ^ 1 else (x, y ^ 1))
        stabilized.append(var_of(x))
        gens = [g for g in gens if g.get(x, x) == x]
    head = order.variables[:order.structured_count]
    moved = set(stabilized) - set(head)
    tail = [v for v in order.variables[order.structured_count:]
            if v not in moved]
    return clauses, head + [v for v in stabilized if v in moved] + tail


@st.composite
def generator_sets(draw):
    """Negation-consistent permutations of a few variables (signed
    cycles, so orbits chain across generators and phase flips occur) and
    a variable order with a structured head."""
    n = draw(st.integers(1, 9))
    gens = []
    for _ in range(draw(st.integers(0, 5))):
        cycle = draw(st.lists(st.integers(1, n), min_size=1, max_size=n,
                              unique=True))
        signs = draw(st.lists(st.integers(0, 1), min_size=len(cycle),
                              max_size=len(cycle)))
        mapping = {}
        for i, v in enumerate(cycle):
            w = cycle[(i + 1) % len(cycle)]
            mapping[pos(v)] = pos(w) ^ signs[i]
            mapping[neg_var(v)] = pos(w) ^ signs[i] ^ 1
        phi = LiteralPermutation(list(mapping), list(mapping.values()))
        if len(phi):
            gens.append(phi)
    variables = draw(st.permutations(range(1, n + 1)))
    return gens, make_order(variables, draw(st.integers(0, n)))


@given(generator_sets())
def test_binary_heuristic_matches_reference(case):
    gens, order = case
    out, new_order = binary_clause_heuristic(gens, order)
    clauses, variables = ref_binary_clause_heuristic(gens, order)
    assert out.clauses == clauses
    assert new_order.variables == variables
    assert new_order.structured_count == order.structured_count


def test_structure_generator_counts():
    from symbreak.detectors import detect_row_column
    from symbreak.modelgraph import build_model_graph
    from symbreak.refine import initial_coloring, refine_stable
    from symbreak.testkit import gen_php

    f = gen_php(5)
    g = build_model_graph(f)
    pi = refine_stable(g, initial_coloring(g)).coloring
    s = detect_row_column(f, g, pi, int(pi.color[0]))
    assert len(structure_generators(s)) == 7
