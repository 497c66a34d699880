"""Random-dive remainder search."""

import itertools
import random

from symbreak.cnf import (Formula, LiteralPermutation, is_automorphism,
                          neg_var, pos)
from symbreak.modelgraph import build_model_graph
from symbreak.refine import (individualize_refine, initial_coloring,
                             refine_stable)
from symbreak.pipeline import PipelineConfig, _remainder_coloring
from symbreak.remainder import (_dive, _next_nonsingleton, _pair_leaves,
                                _workspace, find_remainder_generators)
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
    """Reference for the vectorized _next_nonsingleton from slot 0."""
    for c in pi.classes():
        if pi.clen[c] > 1:
            return c
    return None


def reference_dive(graph, pi, rng):
    """The dive as a chain of copying individualize_refine calls, each
    from the first non-singleton class found by a loop over the classes:
    the reference the in-place dive is compared against."""
    cur = pi
    while True:
        c = first_nonsingleton_loop(cur)
        if c is None:
            return cur
        members = cur.class_members(c).tolist()
        cur = individualize_refine(graph, cur, rng.choice(members)).coloring


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
        prev = 0
        while True:
            c = first_nonsingleton_loop(cur)
            assert _next_nonsingleton(cur.clen, 0) == c
            # the classes before the last individualized one stay
            # singletons, so a search from its slot finds the same class
            assert _next_nonsingleton(cur.clen, prev) == c
            if c is None:
                break
            v = rng.choice(cur.class_members(c).tolist())
            cur = individualize_refine(graph, cur, v).coloring
            prev = c
        leaves.append(cur)
    slots = np.flatnonzero(pi.order < graph.num_literal_vertices)
    for d1, d2 in itertools.product(leaves, repeat=2):
        assert _pair_leaves(slots, d1, d2) == pair_leaves_loop(graph, d1, d2)
    # a literal slot facing a clause slot
    mixed = leaves[1].copy()
    nlit = graph.num_literal_vertices
    a = int(mixed.pos[0])
    b = int(mixed.pos[nlit])
    mixed.order[a], mixed.order[b] = mixed.order[b], mixed.order[a]
    assert pair_leaves_loop(graph, leaves[0], mixed) is None
    assert _pair_leaves(slots, leaves[0], mixed) is None


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
    (d1, a1), (d2, a2) = _workspace(rem), _workspace(rem)
    for _ in range(4):
        _dive(graph, rem, d1, a1, rng)
        _dive(graph, rem, d2, a2, rng)
        assert (d1.clen[d1.color] == 1).all()
        assert np.array_equal(d1.order < nlit, lit)
        assert np.array_equal(d2.order < nlit, lit)


def torus_coloring(side, k):
    """Proper k-coloring of the side x side torus grid; variable
    v * k + j + 1 says vertex v has color j."""
    def x(v, j):
        return v * k + j + 1

    def at(i, j):
        return (i % side) * side + j % side

    edges = [(at(i, j), at(i + di, j + dj)) for i in range(side)
             for j in range(side) for di, dj in ((1, 0), (0, 1))]
    n = side * side
    clauses = [[pos(x(v, j)) for j in range(k)] for v in range(n)]
    clauses += [[neg_var(x(v, i)), neg_var(x(v, j))] for v in range(n)
                for i, j in itertools.combinations(range(k), 2)]
    clauses += [[neg_var(x(u, j)), neg_var(x(v, j))] for u, v in edges
                for j in range(k)]
    return Formula(n * k, clauses)


def same_coloring(a, b):
    return all(np.array_equal(getattr(a, x), getattr(b, x))
               for x in ("order", "pos", "color", "clen"))


DIVE_FORMULAS = [gen_cycle_coloring(9, 3), gen_php(4),
                 renamed(gen_cycle_coloring(20, 4), 3), torus_coloring(8, 3)]
DIVE_IDS = ["c9-3coloring", "php4", "renamed-c20-4coloring",
            "torus8-3coloring"]


@pytest.mark.parametrize("formula", DIVE_FORMULAS, ids=DIVE_IDS)
def test_in_place_dive_matches_copying_chain(formula):
    """The in-place dive, reset from pi and refined without a check per
    step, reaches the leaf of the chain of copying individualize_refine
    calls for the same random choices; one working coloring serves every
    dive."""
    graph, pi = prepared(formula)
    ref_rng, rng = random.Random(9), random.Random(9)
    work, addresses = _workspace(pi)
    for _ in range(6):
        want = reference_dive(graph, pi, ref_rng)
        _dive(graph, pi, work, addresses, rng)
        assert (want.clen[want.color] == 1).all()
        assert same_coloring(work, want)
    assert ref_rng.getstate() == rng.getstate()


@pytest.mark.parametrize("formula", DIVE_FORMULAS, ids=DIVE_IDS)
def test_dive_reset_is_complete(formula):
    """A dive from the leaf another dive left gives the leaf that a fresh
    copy of pi gives for the same seed."""
    graph, pi = prepared(formula)
    work, addresses = _workspace(pi)
    leaves = []
    for seed in (4, 5, 4):
        _dive(graph, pi, work, addresses, random.Random(seed))
        leaves.append(work.copy())
    fresh, fresh_addresses = _workspace(pi)
    _dive(graph, pi, fresh, fresh_addresses, random.Random(4))
    assert same_coloring(leaves[0], leaves[2])
    assert same_coloring(leaves[0], fresh)
    assert not same_coloring(leaves[0], leaves[1])


@pytest.mark.parametrize("formula", DIVE_FORMULAS, ids=DIVE_IDS)
def test_search_leaves_the_remainder_coloring_alone(formula):
    """The working colorings do not alias the remainder coloring: the
    search leaves its four arrays as they were."""
    graph, pi = prepared(formula)
    before = pi.copy()
    find_remainder_generators(formula, graph, pi,
                              PipelineConfig(dive_pairs=4, seed=1))
    assert same_coloring(pi, before)
