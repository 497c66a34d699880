"""Random-dive remainder search."""

import itertools
import random

import symbreak.cnf as cnf
from symbreak.cnf import (Formula, LiteralPermutation,
                          clause_multiset_image_check, is_automorphism,
                          neg_var, pos)
from symbreak.modelgraph import build_model_graph
from symbreak.refine import (individualize_refine, initial_coloring,
                             refine_stable)
from symbreak.pipeline import PipelineConfig, _remainder_coloring
from symbreak.remainder import (_dive, _image_table, _next_nonsingleton,
                                _pairing, _permutation, _workspace,
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
    """Reference for one row of the batched _image_table."""
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
    nlit = graph.num_literal_vertices
    # a literal slot facing a clause slot
    mixed = leaves[1].copy()
    a = int(mixed.pos[0])
    b = int(mixed.pos[nlit])
    mixed.order[a], mixed.order[b] = mixed.order[b], mixed.order[a]
    mixed.pos[[0, nlit]] = b, a
    pairs = [*itertools.product(leaves, repeat=2), (leaves[0], mixed),
             (mixed, leaves[0])]
    raw = np.empty((len(pairs), nlit), dtype=np.int32)
    for (d1, d2), row in zip(pairs, raw):
        _pairing(d1, d2, nlit, row)
    table, ok = _image_table(raw, nlit)
    for (d1, d2), row, good in zip(pairs, table, ok):
        assert (_permutation(row) if good else None) == \
            pair_leaves_loop(graph, d1, d2)
    assert pair_leaves_loop(graph, leaves[0], mixed) is None
    assert pair_leaves_loop(graph, mixed, leaves[0]) is None
    assert not ok[-2:].any()


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
    """Refinement splits a class only inside its own slots, and every
    class of the remainder coloring is all-literal or all-clause, so
    every dive from it keeps its literal slots, and a pairing of two
    leaves sends literals to literals."""
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


def graph_formula(n, edges):
    """One positive 2-clause per edge of a graph on vertices 0..n-1."""
    return Formula(n, [[pos(u + 1), pos(v + 1)] for u, v in edges])


# both 2-regular, so refinement cannot tell the components apart; most
# pairings send a literal and its negation to literals of two variables
C6_2K3 = graph_formula(12, [(i, (i + 1) % 6) for i in range(6)]
                       + [(6, 7), (7, 8), (8, 6), (9, 10), (10, 11),
                          (11, 9)])
# 3-regular with no automorphism but the identity: a pairing that passes
# as a permutation must fail verification
FRUCHT = graph_formula(12, [(i, (i + 1) % 7) for i in range(7)]
                       + [(0, 7), (1, 7), (2, 8), (3, 9), (4, 9), (5, 10),
                          (6, 10), (7, 11), (8, 11), (8, 9), (10, 11)])


def ref_find_remainder_generators(formula, graph, pi_rem, config,
                                  refused=None):
    """The search as it was before the batch: each dive pair built into
    a checked LiteralPermutation and verified on its own, at once.  The
    pairings that verification refuses are appended to `refused`."""
    nlit = graph.num_literal_vertices
    if (pi_rem.clen[pi_rem.color[:nlit]] == 1).all():
        return []
    slots = np.flatnonzero(pi_rem.order < nlit)
    (d1, a1), (d2, a2) = _workspace(pi_rem), _workspace(pi_rem)
    rng = random.Random(config.seed)
    found = []
    seen = set()
    for _ in range(config.dive_pairs):
        _dive(graph, pi_rem, d1, a1, rng)
        _dive(graph, pi_rem, d2, a2, rng)
        try:
            phi = LiteralPermutation(d1.order[slots], d2.order[slots])
        except ValueError:
            continue
        if not len(phi) or phi in seen:
            continue
        if is_automorphism(formula, phi):
            seen.add(phi)
            found.append(phi)
        elif refused is not None:
            refused.append(phi)
    return found


SEARCH_FORMULAS = [gen_cycle_coloring(9, 3),
                   renamed(gen_cycle_coloring(20, 4), 3), gen_php(4),
                   torus_coloring(8, 3), C6_2K3, FRUCHT]
SEARCH_IDS = ["c9-3coloring", "renamed-c20-4coloring", "php4",
              "torus8-3coloring", "c6+2k3", "frucht"]


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("formula", SEARCH_FORMULAS, ids=SEARCH_IDS)
def test_batched_search_matches_the_loop(formula, seed):
    graph, pi = prepared(formula)
    config = PipelineConfig(dive_pairs=24, seed=seed)
    got = find_remainder_generators(formula, graph, pi, config)
    assert got == ref_find_remainder_generators(formula, graph, pi, config)
    for g in got:
        assert g.support.dtype == g.images.dtype == np.int32
        assert not g.support.flags.writeable
        assert not g.images.flags.writeable


def test_frucht_pairings_fail_verification():
    """The case that takes the batch's refusal path: pairings that are
    permutations but no symmetries, seen through the reference."""
    graph, pi = prepared(FRUCHT)
    for seed in (1, 3):
        config = PipelineConfig(dive_pairs=32, seed=seed)
        refused = []
        assert ref_find_remainder_generators(FRUCHT, graph, pi, config,
                                             refused) == []
        assert refused
        assert find_remainder_generators(FRUCHT, graph, pi, config) == []


def test_c6_2k3_pairings_refused_as_permutations():
    """Most pairings of C6 with 2K3 are no negation-closed permutation;
    the search drops them before verification and keeps the rest."""
    graph, pi = prepared(C6_2K3)
    nlit = graph.num_literal_vertices
    rng = random.Random(0)
    (d1, a1), (d2, a2) = _workspace(pi), _workspace(pi)
    raw = np.empty((32, nlit), dtype=np.int32)
    for row in raw:
        _dive(graph, pi, d1, a1, rng)
        _dive(graph, pi, d2, a2, rng)
        _pairing(d1, d2, nlit, row)
    _, ok = _image_table(raw, nlit)
    assert 16 <= np.count_nonzero(~ok) < 32
    got = find_remainder_generators(C6_2K3, graph, pi,
                                    PipelineConfig(dive_pairs=32, seed=0))
    assert got
    assert all(clause_multiset_image_check(C6_2K3, g) for g in got)


@pytest.mark.parametrize("entries", [1, 200])
@pytest.mark.parametrize("formula", [C6_2K3, FRUCHT, torus_coloring(8, 3)],
                         ids=["c6+2k3", "frucht", "torus8-3coloring"])
def test_search_blocks_do_not_change_the_result(monkeypatch, formula,
                                                entries):
    """A budget run block by block, a pair or a few at a time, finds the
    generators of one block, in the same order."""
    graph, pi = prepared(formula)
    config = PipelineConfig(dive_pairs=24, seed=1)
    want = find_remainder_generators(formula, graph, pi, config)
    monkeypatch.setattr(cnf, "BLOCK_ENTRIES", entries)
    assert find_remainder_generators(formula, graph, pi, config) == want
