"""Random-dive remainder search."""

import contextlib
import itertools
import random
from unittest import mock

import symbreak.cnf as cnf
from symbreak import native, refine
from symbreak.cnf import (Formula, LiteralPermutation,
                          clause_multiset_image_check, is_automorphism,
                          neg_var, pos)
from symbreak.modelgraph import build_model_graph
from symbreak.refine import (_next_nonsingleton, dive_pairs,
                             individualize_refine, initial_coloring,
                             refine_stable)
from symbreak.pipeline import PipelineConfig, _remainder_coloring
from symbreak.remainder import (_image_table, _permutation,
                                find_remainder_generators)
from symbreak.testkit import formula_automorphisms, gen_cycle_coloring, gen_php

import numpy as np
import pytest

from test_refine import HAVE_C, python_kernel

NEEDS_C = pytest.mark.skipif(not HAVE_C, reason="no C kernel could be built")
# the C kernels, where they build, and the Python twins
KERNELS = [pytest.param(contextlib.nullcontext, id="c", marks=NEEDS_C),
           pytest.param(python_kernel, id="python")]


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
    the reference the dives of `dive_pairs` are compared against."""
    cur = pi
    while True:
        c = first_nonsingleton_loop(cur)
        if c is None:
            return cur
        members = cur.class_members(c).tolist()
        cur = individualize_refine(graph, cur, rng.choice(members)).coloring


def pairing(d1, d2, nlit):
    """The `dive_pairs` row of two leaves: literal l goes to the vertex
    that d2 holds in the slot where d1 holds l."""
    return d2.order[d1.pos[:nlit]]


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
    raw = np.array([pairing(d1, d2, nlit) for d1, d2 in pairs])
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
    table = dive_pairs(graph, rem, random.Random(5), 4)
    assert (np.sort(table, axis=1) == np.arange(nlit)).all()


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
# each dive formula on the C kernels, under its own id, and on the
# Python twins, under its id and "-python"
DIVE_CASES = [pytest.param(f, contextlib.nullcontext, id=i, marks=NEEDS_C)
              for f, i in zip(DIVE_FORMULAS, DIVE_IDS)] + \
    [pytest.param(f, python_kernel, id=f"{i}-python")
     for f, i in zip(DIVE_FORMULAS, DIVE_IDS)]


def reference_table(graph, pi, rng, rows):
    """The pairing table of `rows` pairs of `reference_dive` leaves."""
    nlit = graph.num_literal_vertices
    table = np.empty((rows, nlit), dtype=np.int32)
    for row in table:
        d1 = reference_dive(graph, pi, rng)
        d2 = reference_dive(graph, pi, rng)
        assert (d1.clen[d1.color] == 1).all()
        row[:] = pairing(d1, d2, nlit)
    return table


@pytest.mark.parametrize("formula, kernel", DIVE_CASES)
def test_in_place_dive_matches_copying_chain(formula, kernel):
    """The dives of `dive_pairs`, in place in the kernel, reach the
    leaves of the chain of copying individualize_refine calls for the
    same random choices, and leave the same random state."""
    graph, pi = prepared(formula)
    ref_rng, rng = random.Random(9), random.Random(9)
    want = reference_table(graph, pi, ref_rng, 3)
    with kernel():
        assert np.array_equal(dive_pairs(graph, pi, rng, 3), want)
    assert ref_rng.getstate() == rng.getstate()


@pytest.mark.parametrize("formula, kernel", DIVE_CASES)
def test_dive_reset_is_complete(formula, kernel):
    """Each dive starts from pi, whatever leaf the dive before it left:
    the second row of a call equals the row that a fresh call gives from
    the random state the first row left."""
    graph, pi = prepared(formula)
    with kernel():
        both = dive_pairs(graph, pi, random.Random(4), 2)
        rng = random.Random(4)
        first = dive_pairs(graph, pi, rng, 1)
        second = dive_pairs(graph, pi, rng, 1)
    assert np.array_equal(both, np.vstack([first, second]))
    assert not np.array_equal(both[0], both[1])


@pytest.mark.parametrize("kernel", KERNELS)
def test_one_kernel_call_per_dive_block(kernel):
    """A `dive_pairs` call checks pi once and runs its whole block in
    one call of the kernel `dive_pairs`: the C one, or its twin
    `_dive_pairs`, with the C one never called."""
    graph, pi = prepared(gen_cycle_coloring(9, 3))
    lib = native.native_kernel()
    with contextlib.ExitStack() as stack:
        def spy(owner, name):
            return stack.enter_context(mock.patch.object(
                owner, name, wraps=getattr(owner, name)))
        check = spy(refine, "_check_coloring")
        twin = spy(refine, "_dive_pairs")
        c_dives = spy(lib, "dive_pairs") if lib is not None else None
        stack.enter_context(kernel())
        dive_pairs(graph, pi, random.Random(1), 3)
    python = kernel is python_kernel
    assert check.call_count == 1
    assert twin.call_count == int(python)
    if c_dives is not None:
        assert c_dives.call_count == int(not python)


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
    rng = random.Random(config.seed)
    found = []
    seen = set()
    for row in dive_pairs(graph, pi_rem, rng, config.dive_pairs):
        try:
            phi = LiteralPermutation(np.arange(nlit), row)
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


SEEDS = [0, 1, 3, -7, 2 ** 40]


@pytest.mark.parametrize("seed", SEEDS)
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
    raw = dive_pairs(graph, pi, random.Random(0), 32)
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


class CountingRandom(random.Random):
    """A random.Random that counts its choices and the MT19937 words it
    draws: `choice` draws `getrandbits` until a value is below the
    sequence length, one word a draw for lengths below 2**32."""

    draws = choices = 0

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)

    def choice(self, seq):
        self.choices += 1
        return super().choice(seq)


def dive_tables(graph, pi, seed, rows, cuts):
    """The pairing table of `rows` dive pairs from pi, each from `seed`:
    from the `reference_dive` chain on a CountingRandom, from one
    `dive_pairs` call on the Python kernels and from C calls over the
    row blocks that `cuts` bound; with the random state each leaves."""
    ref_rng, py_rng, c_rng = (CountingRandom(seed), random.Random(seed),
                              random.Random(seed))
    want = reference_table(graph, pi, ref_rng, rows)
    with python_kernel():
        py = dive_pairs(graph, pi, py_rng, rows)
    got = np.vstack([dive_pairs(graph, pi, c_rng, hi - lo)
                     for lo, hi in itertools.pairwise([0, *cuts, rows])])
    return (want, py, got), (ref_rng, py_rng, c_rng)


def assert_tables_agree(tables, rngs):
    """Every table and random state of `dive_tables` equals the first."""
    want, state = tables[0], rngs[0].getstate()
    for table, rng in zip(tables[1:], rngs[1:]):
        assert np.array_equal(table, want)
        assert rng.getstate() == state


@NEEDS_C
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("formula", SEARCH_FORMULAS, ids=SEARCH_IDS)
def test_c_dives_match_python_dives(formula, seed):
    """The C dive loop, its MT19937 state carried from block to block,
    and the Python loop give the reference chain's leaf pairings and
    leave the random state that it leaves; and the search, which runs the C loop
    where it can, finds the generators that it finds on the Python
    kernels, which run no C dive."""
    graph, pi = prepared(formula)
    assert_tables_agree(*dive_tables(graph, pi, seed, 40, [1, 17]))
    config = PipelineConfig(dive_pairs=4, seed=seed)
    found = find_remainder_generators(formula, graph, pi, config)
    # the switch to the Python kernels switches the dives too
    with mock.patch.object(native.native_kernel(), "dive_pairs") as dives, \
            python_kernel():
        assert find_remainder_generators(formula, graph, pi,
                                         config) == found
    dives.assert_not_called()


@NEEDS_C
def test_c_dives_regenerate_the_state_and_reject_draws():
    """More than 624 words drawn makes the MT19937 state regenerate;
    classes whose size is no power of two make `randbelow` reject
    draws.  The C and Python loops match the reference chain through
    both, the C loop in a row block that straddles the regeneration."""
    graph, pi = prepared(C6_2K3)
    tables, rngs = dive_tables(graph, pi, 2, 64, [30])
    # counted on the reference chain, which draws what the kernels draw
    assert rngs[0].draws > 624
    assert rngs[0].draws > rngs[0].choices
    assert_tables_agree(tables, rngs)
