"""Random-dive remainder search."""

import itertools
import random

from symbreak.cnf import (Formula, LiteralPermutation, is_automorphism,
                          neg_var, pos)
from symbreak.modelgraph import build_model_graph
from symbreak.refine import (individualize_refine, initial_coloring,
                             refine_stable)
from symbreak.pipeline import PipelineConfig, _remainder_coloring
from symbreak.remainder import (_dive, _first_nonsingleton, _pair_leaves,
                                find_remainder_generators)
from symbreak.testkit import formula_automorphisms, gen_cycle_coloring, gen_php

import numpy as np
import pytest


def prepared(formula):
    graph = build_model_graph(formula)
    pi = refine_stable(graph, initial_coloring(graph)).coloring
    return graph, pi


def test_budget_zero_returns_nothing():
    f = Formula(2, [[pos(1), pos(2)], [neg_var(1), neg_var(2)]])
    graph, pi = prepared(f)
    config = PipelineConfig(dive_pairs=0)
    assert find_remainder_generators(f, graph, pi, config) == []


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        PipelineConfig(dive_pairs=-1)


def test_swap_symmetry_found():
    # var1 and var2 interchangeable, var3 pinned by a unit clause
    f = Formula(3, [[pos(1), pos(3)], [pos(2), pos(3)], [neg_var(3)]])
    graph, pi = prepared(f)
    config = PipelineConfig(dive_pairs=8, seed=1)
    gens = find_remainder_generators(f, graph, pi, config)
    assert gens, "expected the var1/var2 swap to be found"
    truth = {g for g in formula_automorphisms(f) if len(g)}
    for g in gens:
        assert is_automorphism(f, g)
        assert g in truth


def test_asymmetric_formula_finds_nothing():
    f = Formula(3, [[pos(1)], [pos(1), pos(2)], [pos(1), pos(2), pos(3)]])
    assert all(not len(g) for g in formula_automorphisms(f))
    graph, pi = prepared(f)
    config = PipelineConfig(dive_pairs=16)
    assert find_remainder_generators(f, graph, pi, config) == []


def test_discrete_literal_part_short_circuits():
    f = Formula(2, [[pos(1)], [pos(1), pos(2)]])
    graph, pi = prepared(f)
    config = PipelineConfig(dive_pairs=16)
    assert find_remainder_generators(f, graph, pi, config) == []


def test_deterministic_given_seed():
    f = Formula(4, [[pos(1), pos(2)], [pos(3), pos(4)],
                    [neg_var(1), neg_var(2)], [neg_var(3), neg_var(4)]])
    graph, pi = prepared(f)
    a = find_remainder_generators(f, graph, pi,
                                  PipelineConfig(dive_pairs=8, seed=5))
    b = find_remainder_generators(f, graph, pi,
                                  PipelineConfig(dive_pairs=8, seed=5))
    assert a == b


def test_all_results_verified():
    f = Formula(4, [[pos(1), pos(2), pos(3), pos(4)]])
    graph, pi = prepared(f)
    config = PipelineConfig(dive_pairs=16, seed=2)
    for g in find_remainder_generators(f, graph, pi, config):
        assert is_automorphism(f, g)
        assert len(g)


def first_nonsingleton_loop(pi):
    """Reference for the vectorized _first_nonsingleton."""
    for c in pi.classes():
        if pi.clen[c] > 1:
            return c
    return None


def pair_leaves_loop(graph, d1, d2):
    """Reference for the vectorized _pair_leaves."""
    nlit = graph.num_literal_vertices
    mapping = {}
    for s in range(len(d1.order)):
        a, b = int(d1.order[s]), int(d2.order[s])
        if (a < nlit) != (b < nlit):
            return None
        if a < nlit:
            mapping[a] = b
    try:
        return LiteralPermutation(list(mapping), list(mapping.values()))
    except ValueError:
        return None


@pytest.mark.parametrize("formula", [
    gen_cycle_coloring(9, 3), gen_php(4),
    Formula(4, [[pos(1), pos(2)], [pos(3), pos(4)],
                [neg_var(1), neg_var(2)], [neg_var(3), neg_var(4)]])],
    ids=["c9-3coloring", "php4", "two-pairs"])
def test_vectorized_helpers_match_loops(formula):
    graph, pi = prepared(formula)
    rng = random.Random(11)
    leaves = []
    for _ in range(5):
        cur = pi
        while True:
            c = _first_nonsingleton(cur)
            assert c == first_nonsingleton_loop(cur)
            if c is None:
                break
            v = rng.choice(cur.class_members(c).tolist())
            cur = individualize_refine(graph, cur, v).coloring
        leaves.append(cur)
    for d1, d2 in itertools.product(leaves, repeat=2):
        assert _pair_leaves(graph, d1, d2) == pair_leaves_loop(graph, d1, d2)
    # a literal slot facing a clause slot
    mixed = leaves[1].copy()
    nlit = graph.num_literal_vertices
    a = int(mixed.pos[0])
    b = int(mixed.pos[nlit])
    mixed.order[a], mixed.order[b] = mixed.order[b], mixed.order[a]
    assert pair_leaves_loop(graph, leaves[0], mixed) is None
    assert _pair_leaves(graph, leaves[0], mixed) is None


def renamed(f, seed):
    """`f` with its variables renamed at random."""
    rng = random.Random(seed)
    perm = list(range(f.num_vars))
    rng.shuffle(perm)
    return Formula(f.num_vars, [[2 * perm[l // 2] + l % 2 for l in c]
                                for c in f.clauses])


@pytest.mark.parametrize("formula", [
    gen_cycle_coloring(9, 3), gen_cycle_coloring(20, 4),
    renamed(gen_cycle_coloring(20, 4), 3)],
    ids=["c9-3coloring", "c20-4coloring", "renamed-c20-4coloring"])
def test_dives_put_literals_in_the_same_slots(formula):
    """_pair_leaves pairs literal slots without checking that the other
    leaf holds literals there.  Refinement splits a class only inside its
    own slots, and every class of the remainder coloring is all-literal
    or all-clause, so every dive from it keeps its literal slots."""
    graph, pi = prepared(formula)
    nlit = graph.num_literal_vertices
    covered = np.zeros(graph.vertex_count, dtype=bool)
    covered[:2] = True
    rem = refine_stable(graph, _remainder_coloring(graph, pi, covered))
    rem = rem.coloring
    is_lit = np.arange(graph.vertex_count) < nlit
    assert np.array_equal(is_lit, is_lit[rem.order[rem.color]])
    lit = rem.order < nlit
    rng = random.Random(5)
    for _ in range(4):
        d1, d2 = _dive(graph, rem, rng), _dive(graph, rem, rng)
        assert (d1.clen[d1.color] == 1).all()
        assert np.array_equal(d1.order < nlit, lit)
        assert np.array_equal(d2.order < nlit, lit)
