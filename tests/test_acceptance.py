"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Each test prints a single PASS line so the suite doubles as a checklist.
"""

import itertools
import math
import random
import time
from functools import lru_cache

from symbreak.cnf import Formula, is_automorphism, pos, var_of
from symbreak.modelgraph import build_model_graph
from symbreak.pipeline import PipelineConfig, _polarity_split_base, run
from symbreak.refine import individualize_refine, initial_coloring, refine_stable
from symbreak.testkit import dpll_count, gen_cliquecolor, gen_php, gen_ramsey

from oracles import (brute_force_automorphisms, brute_force_sat,
                     clause_multiset_image_check, from_edges, is_equitable,
                     neighbors_of, partition)


def augmented(formula, out):
    return Formula(formula.num_vars + out.aux_count,
                   formula.clauses + [list(c) for c in out.added_clauses])


@lru_cache(maxsize=None)
def pipe(family, *params):
    gen = {"php": gen_php, "ramsey": gen_ramsey,
           "cliquecolor": gen_cliquecolor}[family]
    formula = gen(*params)
    return formula, run(formula)


def equisat(formula):
    out = run(formula)
    return brute_force_sat(formula) == brute_force_sat(augmented(formula, out))


def random_formula(rng):
    n = rng.randint(1, 12)
    clauses = []
    for _ in range(rng.randint(0, 40)):
        width = rng.randint(1, 4)
        clauses.append([2 * (rng.randint(1, n) - 1) + rng.randint(0, 1)
                        for _ in range(width)])
    return Formula(n, clauses)


def test_acceptance_1_equisatisfiability():
    """200 random formulas plus the generated families keep their
    satisfiability; 0 failures allowed, under 2 minutes."""
    start = time.monotonic()
    rng = random.Random(20240824)
    for i in range(200):
        assert equisat(random_formula(rng)), f"random formula {i}"
    for n in (3, 4, 5):
        assert equisat(gen_php(n)), f"php({n})"
    for n in (5, 6):
        assert equisat(gen_ramsey(3, 3, n)), f"ramsey(3,3,{n})"
    for n in (3, 4):
        assert equisat(gen_cliquecolor(n, 3, 2)), f"cliquecolor({n},3,2)"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1: PASS — equisatisfiability on 207 instances "
          f"({elapsed:.1f}s)")


def test_acceptance_2_detection_completeness():
    """php(4..12) -> row-column {n, n-1}; ramsey/cliquecolor(8..12) ->
    Johnson base n; 0 failures, under 1 minute."""
    start = time.monotonic()
    for n in range(4, 13):
        _, out = pipe("php", n)
        kinds = [s.kind for s in out.structures]
        assert kinds == ["row-column"], f"php({n}): {kinds}"
        assert sorted(out.structures[0].dims) == [n - 1, n], f"php({n})"
    for n in range(8, 13):
        _, out = pipe("ramsey", 3, 3, n)
        assert [s.kind for s in out.structures] == ["johnson"], f"ram {n}"
        assert out.structures[0].dims == (n,), f"ramsey(3,3,{n})"
    for n in range(8, 13):
        _, out = pipe("cliquecolor", n, 3, 2)
        assert [s.kind for s in out.structures] == ["johnson"], f"cc {n}"
        assert out.structures[0].dims == (n,), f"cliquecolor({n},3,2)"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2: PASS — detection completeness on 19 instances "
          f"({elapsed:.1f}s)")


def test_acceptance_3_verified_symmetry_gate():
    """Every emitted generator is an automorphism; on small instances the
    full clause-multiset oracle agrees. 0 failures."""
    checked = multiset_checked = 0
    cases = [("php", (4,)), ("php", (5,)), ("php", (6,)),
             ("ramsey", (3, 3, 8)), ("cliquecolor", (8, 3, 2))]
    for family, params in cases:
        formula, out = pipe(family, *params)
        gens = [g for s in out.structures for g in s.generators]
        gens += out.remainder_generators
        for g in gens:
            assert is_automorphism(formula, g), (family, params)
            checked += 1
            if len(formula.clauses) <= 300:
                assert clause_multiset_image_check(formula, g), \
                    (family, params)
                multiset_checked += 1
    assert checked > 0 and multiset_checked > 0
    print(f"\nACCEPTANCE 3: PASS — {checked} generators verified, "
          f"{multiset_checked} against the full multiset oracle")


def test_acceptance_4_fragment_size_oracles():
    """Pivot individualization fragment sizes match the closed forms for
    row-column (php) and Johnson (ramsey) orbits. 0 failures."""
    for n in range(4, 9):
        m = n - 1
        graph = build_model_graph(gen_php(n))
        base = refine_stable(graph, initial_coloring(graph)).coloring
        sigma = int(base.color[pos(1)])
        rep = individualize_refine(graph, base, pos(1))
        sizes = sorted(len(m) for _, m in rep.fragments(sigma))
        assert sizes == sorted([1, m - 1, n - 1, (n - 1) * (m - 1)]), \
            f"php({n}): {sizes}"
    for n in range(8, 13):
        graph = build_model_graph(gen_ramsey(3, 3, n))
        stable = refine_stable(graph, initial_coloring(graph)).coloring
        whole = int(stable.color[pos(1)])
        split, sigma = _polarity_split_base(graph, stable, whole)
        pivot = int(split.class_members(sigma)[0])
        rep = individualize_refine(graph, split, pivot)
        sizes = sorted(len(m) for _, m in rep.fragments(sigma))
        expect = sorted([1, 2 * (n - 2), math.comb(n - 2, 2)])
        assert sizes == expect, f"ramsey(3,3,{n}): {sizes}"
    print("\nACCEPTANCE 4: PASS — fragment-size oracles on php(4..8) and "
          "ramsey(3,3,8..12)")


def test_acceptance_5_empty_remainder():
    """Structured coverage leaves no remainder symmetry on the Johnson
    families; default budget finds 0 generators."""
    for n in range(8, 13):
        _, out = pipe("cliquecolor", n, 3, 2)
        assert out.stats["remainder"]["generators"] == 0, f"cc {n}"
        _, out = pipe("ramsey", 3, 3, n)
        assert out.stats["remainder"]["generators"] == 0, f"ram {n}"
    print("\nACCEPTANCE 5: PASS — empty remainder on 10 Johnson-family "
          "instances")


def _encoded_prefix(mapping, order_vars, max_len=64):
    """The encoder's positions, from a negation-closed literal dict."""
    rank = {v: i for i, v in enumerate(order_vars)}
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


def _chain_accepts(theta, prefix, clauses, num_vars, aux):
    """Does theta extend to a model of the chain?  The auxiliaries are
    prefix-equality indicators; any valid extension dominates the forced
    minimal one (aux occur positively only in their defining clauses), so
    checking the minimal extension is exact."""
    lit = dict(theta)
    a = True
    for i, (x, p) in enumerate(prefix):
        forced = a and (lit[var_of(p)] ^ (p % 2 == 1) or not lit[x])
        lit[num_vars + 1 + i] = forced
        a = forced
    for i in range(len(prefix), aux):
        lit[num_vars + 1 + i] = False
    return all(any(lit.get(c // 2 + 1, False) ^ (c % 2 == 1) for c in cl)
               for cl in clauses)


def test_acceptance_6_lex_leader_exactness():
    """100 random permutations over <= 10 variables: projected chain
    models equal the lex predicate by enumeration. 0 failures."""
    from symbreak.breaking import VariableOrder, lex_leader_encode
    from symbreak.cnf import LiteralPermutation

    rng = random.Random(99)
    for trial in range(100):
        n = rng.randint(2, 10)
        vperm = list(range(1, n + 1))
        rng.shuffle(vperm)
        mapping = {}
        for v in range(1, n + 1):
            flip = rng.random() < 0.25
            mapping[pos(v)] = 2 * (vperm[v - 1] - 1) + flip
            mapping[2 * (v - 1) + 1] = 2 * (vperm[v - 1] - 1) + (not flip)
        phi = LiteralPermutation(list(mapping), list(mapping.values()))
        order = VariableOrder(list(range(1, n + 1)))
        out = lex_leader_encode([phi], order, n + 1)
        prefix = _encoded_prefix(mapping, order.variables)
        for bits in itertools.product((False, True), repeat=n):
            theta = {v + 1: bits[v] for v in range(n)}
            want = True
            for x, p in prefix:
                a = theta[var_of(p)] ^ (p % 2 == 1)
                b = theta[x]
                if a != b:
                    want = a < b
                    break
            got = _chain_accepts(theta, prefix, out.clauses, n,
                                 out.aux_count)
            assert got == want, f"trial {trial}, theta {bits}"
    print("\nACCEPTANCE 6: PASS — lex-leader exactness on 100 random "
          "permutations")


def test_acceptance_7_effort_reduction():
    """Breaking cuts DPLL decisions on php(7)/php(8) by at least 10x and
    makes php(12) solvable in 10s where the plain instance is not."""
    ratios = {}
    for n in (7, 8):
        formula, out = pipe("php", n)
        _, without = dpll_count(formula)
        status, with_breaking = dpll_count(augmented(formula, out))
        assert status == "unsat"
        ratios[n] = with_breaking / without
        assert ratios[n] <= 0.1, f"php({n}) ratio {ratios[n]:.3f}"
    formula, out = pipe("php", 12)
    start = time.monotonic()
    status, _ = dpll_count(augmented(formula, out), time_limit=10.0)
    solved_in = time.monotonic() - start
    assert status == "unsat" and solved_in < 10.0
    status, _ = dpll_count(formula, time_limit=10.0)
    assert status == "unknown", "plain php(12) unexpectedly solvable"
    print(f"\nACCEPTANCE 7: PASS — decision ratios php7 {ratios[7]:.3f}, "
          f"php8 {ratios[8]:.3f}; php(12)+breaking unsat in "
          f"{solved_in:.1f}s, plain times out")


def test_acceptance_8_overhead_scaling():
    """Preprocessing php(100) <= 10s and cliquecolor(150,3,2) <= 60s;
    php(50)->php(100) growth stays polynomial.

    The clause count itself grows 8.06x from php(50) to php(100) (the
    at-most-one constraints scale cubically in the hole count), so a
    preprocessor linear in formula size lands at ~8x; the growth pin is
    set at 11.0x, which rejects superlinear blowup while leaving headroom
    for cache effects on the larger working set.  Formula generation is
    excluded from the timed region: the criterion measures preprocessing.
    """
    import gc

    run(gen_php(6))  # build or load the C kernel before timing

    def best_of_three(n):
        """Minimum over three fresh formulas: the least-interfered run is
        the best estimate of intrinsic cost on a shared machine."""
        times = []
        for _ in range(3):
            formula = gen_php(n)
            gc.collect()
            gc.disable()
            start = time.monotonic()
            out = run(formula)
            times.append(time.monotonic() - start)
            gc.enable()
        return min(times), out

    t50, _ = best_of_three(50)
    t100, out = best_of_three(100)
    assert out.structures[0].dims in ((100, 99), (99, 100))
    assert t100 <= 10.0, f"php(100) took {t100:.1f}s"
    assert t100 / t50 <= 11.0, f"growth {t100 / t50:.1f}x"
    formula = gen_cliquecolor(150, 3, 2)
    gc.collect()
    gc.disable()
    start = time.monotonic()
    out = run(formula)
    tcc = time.monotonic() - start
    gc.enable()
    assert out.structures[0].dims == (150,)
    assert tcc <= 60.0, f"cliquecolor(150,3,2) took {tcc:.1f}s"
    print(f"\nACCEPTANCE 8: PASS — php(50) {t50:.1f}s, php(100) {t100:.1f}s "
          f"(x{t100 / t50:.1f}), cliquecolor(150,3,2) {tcc:.1f}s")


def _random_graph(rng, max_vertices):
    n = rng.randint(2, max_vertices)
    edges = set()
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    keys = [rng.randint(0, 2) for _ in range(n)]
    return from_edges(n, sorted(edges), color_keys=keys)


def test_acceptance_9_refinement_properties():
    """Equitability, refinement, and invariance on 500 random graphs;
    orbit coarseness against brute force on the <= 8 vertex ones."""
    rng = random.Random(7)
    coarseness_checked = 0
    for i in range(500):
        small = i % 4 == 0
        g = _random_graph(rng, 8 if small else 64)
        base = initial_coloring(g)
        rep = refine_stable(g, base)
        assert is_equitable(rep.coloring, g), f"graph {i}"
        base_part = partition(base)
        for cls in partition(rep.coloring):
            assert any(cls <= b for b in base_part), f"graph {i}"
        # invariance under a random relabeling
        n = g.vertex_count
        rho = list(range(n))
        rng.shuffle(rho)
        edges = set()
        for v in range(n):
            for u in neighbors_of(g, v):
                if v < u:
                    edges.add((v, int(u)))
        keys2 = [0] * n
        for v in range(n):
            keys2[rho[v]] = int(g.color_keys[v])
        g2 = from_edges(
            n, [(rho[u], rho[v]) for u, v in edges], color_keys=keys2)
        p1 = partition(rep.coloring)
        p2 = partition(refine_stable(g2, initial_coloring(g2)).coloring)
        assert [frozenset(rho[v] for v in cls) for cls in p1] == p2, \
            f"graph {i}"
        if g.vertex_count <= 8:
            color = rep.coloring.color
            for perm in brute_force_automorphisms(g):
                assert all(color[v] == color[perm[v]] for v in range(n)), \
                    f"graph {i}"
            coarseness_checked += 1
    assert coarseness_checked >= 100
    print(f"\nACCEPTANCE 9: PASS — 500 graphs checked, orbit coarseness on "
          f"{coarseness_checked} small graphs")
