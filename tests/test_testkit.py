"""Generators and oracles: ground truths and cross-checks."""

import itertools
import random

import pytest

from symbreak.cnf import Formula, LiteralPermutation, neg_var, pos
from symbreak.testkit import (dpll_count, edge_index, gen_cliquecolor,
                              gen_php, gen_ramsey)
from oracles import (brute_force_automorphisms, brute_force_sat,
                     formula_automorphisms, from_edges)
from test_generator_differential import as_dict


def test_edge_index_lexicographic():
    n = 5
    expected = 1
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            assert edge_index(u, v, n) == expected
            assert edge_index(v, u, n) == expected
            expected += 1


class TestGenPhp:
    def test_php5_counts(self):
        f = gen_php(5)
        assert f.num_vars == 20
        assert len(f.clauses) == 45

    def test_php21_clauses(self):
        f = gen_php(2, 1)
        assert f.clauses == [(pos(1),), (pos(2),),
                             (neg_var(1), neg_var(2))]
        assert not brute_force_sat(f)

    def test_enough_holes_satisfiable(self):
        for n in (2, 3, 4):
            assert brute_force_sat(gen_php(n, n))

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_php(1)


class TestGenRamsey:
    def test_counts_336(self):
        f = gen_ramsey(3, 3, 6)
        assert f.num_vars == 15
        assert len(f.clauses) == 40
        assert not brute_force_sat(f)

    def test_335_satisfiable(self):
        assert brute_force_sat(gen_ramsey(3, 3, 5))

    def test_338_is_smallest_johnson_gate(self):
        assert gen_ramsey(3, 3, 8).num_vars == 28

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_ramsey(3, 3, 2)


class TestGenCliquecolor:
    def test_variable_count(self):
        f = gen_cliquecolor(5, 3, 2)
        assert f.num_vars == 10 + 15 + 10

    def test_clique_larger_than_colors_unsat(self):
        assert not brute_force_sat(gen_cliquecolor(3, 3, 2))

    def test_triangle_three_colors_sat(self):
        assert brute_force_sat(gen_cliquecolor(3, 3, 3))

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_cliquecolor(2, 3, 2)


class TestBruteForceSat:
    def test_contradiction(self):
        assert not brute_force_sat(Formula(1, [[pos(1)], [neg_var(1)]]))

    def test_empty_formula_sat(self):
        assert brute_force_sat(Formula(0, []))

    def test_empty_clause_unsat(self):
        assert not brute_force_sat(Formula(1, [[]]))

    def test_php4_unsat(self):
        assert not brute_force_sat(gen_php(4))

    def test_dpll_fallback_above_cap(self):
        f = gen_php(5)  # 20 vars
        assert brute_force_sat(f, var_cap=10) == brute_force_sat(f)

    def test_agreement_with_dpll_on_random_formulas(self):
        rng = random.Random(0)
        for _ in range(60):
            n = rng.randint(1, 8)
            clauses = []
            for _ in range(rng.randint(0, 16)):
                width = rng.randint(1, 3)
                clauses.append([2 * (rng.randint(1, n) - 1) + rng.randint(0, 1)
                                for _ in range(width)])
            f = Formula(n, clauses)
            status, _ = dpll_count(f)
            assert (status == "sat") == brute_force_sat(f)


class TestDpllCount:
    def test_pure_propagation(self):
        assert dpll_count(Formula(1, [[pos(1)]])) == ("sat", 0)

    def test_empty_formula(self):
        assert dpll_count(Formula(0, [])) == ("sat", 0)

    def test_php4_breaking_reduces_decisions(self):
        from symbreak.pipeline import run

        f = gen_php(4)
        out = run(f)
        _, without = dpll_count(f)
        aug = Formula(f.num_vars + out.aux_count,
                      f.clauses + [list(c) for c in out.added_clauses])
        status, with_breaking = dpll_count(aug)
        assert status == "unsat"
        assert with_breaking < without

    def test_decision_limit_returns_unknown(self):
        status, d = dpll_count(gen_php(6), decision_limit=5)
        assert status == "unknown" and d == 5

    def test_deterministic(self):
        assert dpll_count(gen_php(5)) == dpll_count(gen_php(5))


class TestBruteForceAutomorphisms:
    def test_five_cycle_dihedral(self):
        g = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert len(brute_force_automorphisms(g)) == 10

    def test_discrete_coloring_identity_only(self):
        g = from_edges(3, [(0, 1), (1, 2)], color_keys=[0, 1, 2])
        assert brute_force_automorphisms(g) == [(0, 1, 2)]

    def test_two_isolated_vertices(self):
        g = from_edges(2, [])
        assert len(brute_force_automorphisms(g)) == 2

    def test_cap_enforced(self):
        g = from_edges(9, [(i, i + 1) for i in range(8)])
        with pytest.raises(ValueError):
            brute_force_automorphisms(g)


class TestFormulaAutomorphisms:
    def test_swap_group(self):
        f = Formula(2, [[pos(1), pos(2)]])
        group = formula_automorphisms(f)
        # identity and the 1<->2 swap only: phase flips break the clause
        assert len(group) == 2

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            formula_automorphisms(gen_php(4))

    def test_group_closed_under_composition(self):
        f = Formula(3, [[pos(1), pos(2), pos(3)]])
        group = formula_automorphisms(f)
        members = set(group)
        for a, b in itertools.product(group, repeat=2):
            a, b = as_dict(a), as_dict(b)
            lits = sorted(set(a) | set(b))
            ab = [b.get(a.get(l, l), a.get(l, l)) for l in lits]
            assert LiteralPermutation(lits, ab) in members
