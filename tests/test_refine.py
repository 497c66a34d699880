"""Refinement engine: equitability, invariance, and IR behavior."""

import contextlib
import inspect
import os
import random
import re
import stat
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symbreak import cnf, native, refine, remainder
from symbreak.cnf import emit_dimacs, parse_dimacs
from symbreak.modelgraph import ColoredGraph, build_model_graph
from symbreak.pipeline import PipelineConfig, run
from symbreak.refine import (Coloring, IRSession, RefinementReport,
                             individualize_refine, initial_coloring,
                             refine_stable)
from symbreak.testkit import (brute_force_automorphisms, gen_cliquecolor,
                              gen_cycle_coloring, gen_php, gen_ramsey)


def graph_from_edges(n, edges, keys=None):
    return ColoredGraph.from_edges(n, edges, color_keys=keys)


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def random_graphs(draw, max_vertices=64):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True,
                          max_size=min(len(possible), 3 * n)))
    ncolors = draw(st.integers(min_value=1, max_value=3))
    keys = draw(st.lists(st.integers(min_value=0, max_value=ncolors - 1),
                         min_size=n, max_size=n))
    return graph_from_edges(n, edges, keys)


def from_color_map_loop(keys):
    """The per-class loop `Coloring.from_color_map` replaced: the
    reference its vectorized form is compared against."""
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    order = np.argsort(keys, kind="stable").astype(np.int32)
    pos = np.empty(n, dtype=np.int32)
    pos[order] = np.arange(n, dtype=np.int32)
    color = np.empty(n, dtype=np.int32)
    clen = np.zeros(n, dtype=np.int32)
    start = 0
    for i in range(1, n + 1):
        if i == n or keys[order[i]] != keys[order[start]]:
            color[order[start:i]] = start
            clen[start] = i - start
            start = i
    return Coloring(order, pos, color, clen)


class TestColoring:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=-3, max_value=3), max_size=40)
           | st.lists(st.integers(min_value=-2 ** 40, max_value=2 ** 40),
                      max_size=40))
    @example([])
    @example([7])
    @example([5, 5, 5])
    def test_from_color_map_matches_loop(self, keys):
        got, want = Coloring.from_color_map(keys), from_color_map_loop(keys)
        for name in ("order", "pos", "color", "clen"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_from_color_map_orders_classes_by_key(self):
        c = Coloring.from_color_map([2, 0, 0, 1])
        assert c.as_partition() == [frozenset({1, 2}), frozenset({3}),
                                    frozenset({0})]
        assert c.color.tolist() == [3, 0, 0, 2]

    def test_class_ids_are_slot_starts(self):
        c = Coloring.from_color_map([0, 0, 1, 1, 1])
        assert list(c.classes()) == [0, 2]
        assert c.clen[0] == 2 and c.clen[2] == 3

    def test_uniform_and_discrete(self):
        uniform = Coloring.from_color_map([0, 0, 0])
        assert list(uniform.classes()) == [0] and uniform.clen[0] == 3
        discrete = Coloring.from_color_map([0, 1, 2])
        assert (discrete.clen[discrete.color] == 1).all()


class TestRefineStable:
    def test_regular_graph_stays_one_class(self):
        g = cycle(5)
        rep = refine_stable(g, initial_coloring(g))
        assert rep.coloring.as_partition() == [frozenset(range(5))]

    def test_path_splits_by_degree(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        rep = refine_stable(g, initial_coloring(g))
        assert rep.coloring.as_partition() == [frozenset({0, 2}),
                                               frozenset({1})]

    def test_cycle_with_individualized_vertex(self):
        g = cycle(5)
        rep = individualize_refine(g, initial_coloring(g), 0)
        assert rep.coloring.as_partition() == [frozenset({0}),
                                               frozenset({2, 3}),
                                               frozenset({1, 4})]


class TestIndividualizeRefine:
    def test_discrete_coloring_is_fixed_point(self):
        g = graph_from_edges(3, [(0, 1)], keys=[0, 1, 2])
        rep = individualize_refine(g, initial_coloring(g), 0)
        assert rep.coloring.as_partition() == \
            initial_coloring(g).as_partition()

    def test_php5_pivot_fragment_sizes(self):
        g = build_model_graph(gen_php(5))
        base = refine_stable(g, initial_coloring(g)).coloring
        sigma = int(base.color[0])
        rep = individualize_refine(g, base, 0)
        assert rep.base is base
        sizes = sorted(len(m) for _, m in rep.fragments(sigma))
        assert sizes == [1, 3, 4, 12]

    def test_pivot_and_its_negation_become_singletons(self):
        g = build_model_graph(gen_php(5))
        base = refine_stable(g, initial_coloring(g)).coloring
        refined = individualize_refine(g, base, 0).coloring
        assert base.clen[base.color[[0, 1]]].min() > 1
        assert (refined.clen[refined.color[[0, 1]]] == 1).all()

    @pytest.mark.parametrize("v", [-1, 5])
    def test_vertex_out_of_range_is_refused(self, v):
        """A vertex outside 0..n-1 is refused before pi is copied, on
        either kernel: -1 would otherwise reach the copy's arrays through
        numpy's negative indexing and be blamed on pi."""
        g = cycle(5)
        base = refine_stable(g, initial_coloring(g)).coloring
        before = base.copy()
        for kernel in (contextlib.nullcontext, python_kernel):
            with kernel(), pytest.raises(IndexError, match="out of range"):
                individualize_refine(g, base, v)
            assert same_coloring(base, before)

    def test_fragments_unknown_color(self):
        g = cycle(4)
        rep = refine_stable(g, initial_coloring(g))
        with pytest.raises(KeyError):
            rep.fragments(1)

    def test_fragments_read_only_refined_class_starts(self):
        """A class length left at a slot that starts no refined class is
        not taken for a fragment: this base is no ancestor."""
        base = Coloring.from_color_map([0, 0, 1, 1])
        refined = Coloring.from_color_map([0, 0, 0, 0])
        refined.clen[2] = 2
        with pytest.raises(ValueError, match="not an ancestor"):
            RefinementReport(base=base, coloring=refined).fragments(2)


class TestProperties:
    @settings(max_examples=120, deadline=None)
    @given(random_graphs())
    def test_refinement_and_equitability(self, g):
        base = initial_coloring(g)
        rep = refine_stable(g, base)
        assert rep.coloring.is_equitable(g)
        base_part = base.as_partition()
        for cls in rep.coloring.as_partition():
            assert any(cls <= b for b in base_part)

    @settings(max_examples=120, deadline=None)
    @given(random_graphs(), st.randoms(use_true_random=False))
    def test_isomorphism_invariance(self, g, rnd):
        """Relabeling the graph relabels the ordered partition verbatim."""
        n = g.vertex_count
        rho = list(range(n))
        rnd.shuffle(rho)
        edges = set()
        for v in range(n):
            for u in g.neighbors_of(v):
                if v < u:
                    edges.add((v, int(u)))
        keys2 = [0] * n
        for v in range(n):
            keys2[rho[v]] = int(g.color_keys[v])
        g2 = graph_from_edges(n, [(rho[u], rho[v]) for u, v in edges], keys2)
        p1 = refine_stable(g, initial_coloring(g)).coloring.as_partition()
        p2 = refine_stable(g2, initial_coloring(g2)).coloring.as_partition()
        assert [frozenset(rho[v] for v in cls) for cls in p1] == p2

    @settings(max_examples=100, deadline=None)
    @given(random_graphs(max_vertices=8))
    def test_orbit_coarseness(self, g):
        """Every automorphism orbit lies inside one refined class."""
        rep = refine_stable(g, initial_coloring(g))
        color = rep.coloring.color
        for perm in brute_force_automorphisms(g):
            assert all(color[v] == color[perm[v]]
                       for v in range(g.vertex_count))

    @settings(max_examples=60, deadline=None)
    @given(random_graphs(max_vertices=24))
    def test_individualization_refines_and_singles_out(self, g):
        base = refine_stable(g, initial_coloring(g)).coloring
        v = 0
        rep = individualize_refine(g, base, v)
        assert rep.coloring.is_equitable(g)
        assert rep.coloring.clen[rep.coloring.color[v]] == 1
        base_part = base.as_partition()
        for cls in rep.coloring.as_partition():
            assert any(cls <= b for b in base_part)


def same_coloring(a, b):
    return all(np.array_equal(getattr(a, x), getattr(b, x))
               for x in ("order", "pos", "color", "clen"))


class TestIRSession:
    def test_individualizing_a_class_head(self):
        """v heading its class makes the split swap v with itself; the
        journal must still log each index once and stay within n."""
        g = build_model_graph(gen_php(4))
        n = g.vertex_count
        base = refine_stable(g, initial_coloring(g)).coloring
        c = next(c for c in base.classes() if base.clen[c] > 1)
        session = IRSession(g, base)
        for v in (int(base.order[c]), int(base.order[c + 1])):
            rep = session.individualize(v)
            copied = individualize_refine(g, base, v)
            assert same_coloring(rep.coloring, copied.coloring)
            for logged in journal_rows(session):
                assert len(logged) <= n
                assert len(np.unique(logged)) == len(logged)
        session._rollback()
        assert same_coloring(session.work, base)
        assert not session._jc.any() and not session._jd.any()

    @settings(max_examples=100, deadline=None)
    @given(random_graphs(max_vertices=32), st.integers(min_value=0),
           st.integers(min_value=1, max_value=4))
    def test_stopped_individualization(self, g, pick, want):
        """A probe stopped once v's base class holds `want` classes ends
        between the base and the full probe: each of its classes is a
        union of the full probe's, and it either split v's class that
        far or ran to the end.  A rollback restores the base."""
        base = refine_stable(g, initial_coloring(g)).coloring
        v = pick % g.vertex_count
        sigma = int(base.color[v])
        session = IRSession(g, base)
        full = session.individualize(v).coloring.copy()
        stopped = session.individualize(v, until=(sigma, want)).coloring
        stopped_part = stopped.as_partition()
        for cls in stopped_part:
            assert any(cls <= b for b in base.as_partition())
        for cls in full.as_partition():
            assert any(cls <= c for c in stopped_part)
        end = sigma + int(base.clen[sigma])
        held = np.count_nonzero(stopped.clen[sigma:end])
        assert held >= want or same_coloring(stopped, full)
        session._rollback()
        assert same_coloring(session.work, base)
        assert not session._jc.any() and not session._jd.any()

    def test_no_push_onto_a_stopped_probe(self):
        """A stopped probe may leave the coloring not equitable, which a
        push's single splitter relies on; an individualize clears it."""
        g = build_model_graph(gen_php(4))
        base = refine_stable(g, initial_coloring(g)).coloring
        sigma = int(base.color[0])
        session = IRSession(g, base)
        session.individualize(0, until=(sigma, 4))
        with pytest.raises(RuntimeError, match="stopped early"):
            session.push(2)
        session.individualize(0)
        session.push(2)
        with pytest.raises(KeyError):
            session.individualize(0, until=(sigma + 1, 4))

    def test_journal_overflow_is_refused(self):
        """A journal row holding more entries than slots would let the
        next probe write past it, so a push or individualize refuses it
        before writing anything, on either kernel."""
        g = cycle(5)
        base = refine_stable(g, initial_coloring(g)).coloring
        for kernel in (contextlib.nullcontext, python_kernel):
            with kernel():
                session = IRSession(g, base)
                session.individualize(0)
                session._jc[refine.JRN_ORDER] = g.vertex_count + 1
                work = session.work.copy()
                journal = [a.copy() for a in session._journal]
                for probe in (session.push, session.individualize):
                    with pytest.raises(RuntimeError,
                                       match="journal overflow"):
                        probe(2)
                    assert same_coloring(session.work, work)
                    for before, after in zip(journal, session._journal):
                        assert np.array_equal(before, after)

    def test_rejects_arrays_the_c_kernel_cannot_read(self):
        g = cycle(4)
        good = initial_coloring(g)
        bad = Coloring(good.order.astype(np.int64), good.pos, good.color,
                       good.clen)
        with pytest.raises(ValueError):
            refine_stable(g, bad)
        with pytest.raises(ValueError):
            IRSession(g, bad)
        g64 = ColoredGraph(4, g.indptr.astype(np.int64), g.neighbors,
                           g.color_keys, 0)
        with pytest.raises(ValueError):
            refine_stable(g64, good)
        with pytest.raises(IndexError):
            IRSession(g, good).individualize(-1)
        with pytest.raises(IndexError):
            IRSession(g, good).push(g.vertex_count)


def journal_rows(session):
    return [session._jl[a, :session._jc[a]].copy()
            for a in range(len(session._jc))]


def kernel_trace(g, vs):
    """Everything the kernels write while refining g, individualizing the
    vertices vs one by one in a session and chained by copies, then
    stacking them in the session (individualize vs[0], push the rest),
    individualizing vs[0] once more over the stack, and rolling back.
    The stack must give the copying chain's partition and fragments, and
    the rollback the base with an empty journal."""
    base = refine_stable(g, initial_coloring(g)).coloring
    out = [base]
    session = IRSession(g, base)

    def record(rep):
        out.append(rep.coloring.copy())
        out.append(session._jc.copy())
        out.extend(journal_rows(session))

    chained = base
    for v in vs:
        record(session.individualize(v))
        chained = individualize_refine(g, chained, v).coloring
        out.append(chained)
    for want in (2, 3, 4):
        for v in vs:
            record(session.individualize(v, until=(int(base.color[v]),
                                                   want)))
    for i, v in enumerate(vs):
        rep = session.push(v) if i else session.individualize(v)
        record(rep)
    if vs:
        assert set(rep.coloring.as_partition()) == \
            set(chained.as_partition())
        copied = RefinementReport(base=base, coloring=chained)
        for sigma in base.classes():
            assert {frozenset(m.tolist()) for _, m in rep.fragments(sigma)} \
                == {frozenset(m.tolist())
                    for _, m in copied.fragments(sigma)}
        # a reset that rolls back the whole stack of pushes
        record(session.individualize(vs[0]))
    session._rollback()
    assert same_coloring(session.work, base)
    assert not session._jc.any() and not session._jd.any()
    out.append(session.work.copy())
    out.append(session._jd.copy())
    return out


def python_kernel():
    """The one switch to the Python twins, for every module at once."""
    return mock.patch.object(native, "native_kernel", lambda: None)


HAVE_C = native.native_kernel() is not None


# each entry point of native.c, whose argtypes `native_kernel` sets, and
# the module and name of its Python twin
TWINS = {"refine": (refine, "_refine_kernel"),
         "session_push": (refine, "_session_push"),
         "dive_pairs": (refine, "_dive_pairs"),
         "valid_coloring": (refine, "_valid_coloring"),
         "parse": (cnf, "_parse"), "emit": (cnf, "_emit"),
         "ascending": (cnf, "_ascending")}


INVALID_COLORINGS = [
    ("clen", 0, 10 ** 8),     # a class running past the end
    ("order", 2, 4),          # order no longer a permutation
    ("color", 1, -7),         # a color that is no class's first slot
    ("pos", 3, 10 ** 8),
    ("clen", 3, 10 ** 8),     # a class length at a slot inside a class
]


def assert_kernels_agree(g, vs):
    native = kernel_trace(g, vs)
    with python_kernel():
        reference = kernel_trace(g, vs)
    assert len(native) == len(reference)
    for a, b in zip(native, reference):
        if isinstance(a, Coloring):
            assert same_coloring(a, b)
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b)


def wide_splitter_graph(k):
    """Hubs 0 and 1, and k classes {2i + 2, 2i + 3} of their own color
    key, hub 0 joined to the first member of each and hub 1 to the
    second: equitable as colored, and individualizing a hub splits all
    k classes.  The edges come in shuffled class order, so a hub's
    neighbors meet their classes out of color order."""
    perm = list(range(k))
    random.Random(k).shuffle(perm)
    edges = [(hub, 2 * i + 2 + hub) for i in perm for hub in (0, 1)]
    keys = [0, 0] + [i + 1 for i in range(k) for _ in range(2)]
    return graph_from_edges(2 * k + 2, edges, keys)


@pytest.mark.skipif(not HAVE_C, reason="no C kernel could be built")
class TestNativeKernel:
    @settings(max_examples=150, deadline=None)
    @given(random_graphs(), st.lists(st.integers(min_value=0), max_size=6))
    def test_c_and_python_kernels_agree(self, g, picks):
        assert_kernels_agree(g, [p % g.vertex_count for p in picks])

    @pytest.mark.parametrize("k", [5, 16, 17, 24])
    def test_kernels_agree_on_wide_splitters(self, k):
        """Individualizing a hub splits k classes at once.  The C kernel
        sorts a splitter's touched classes by insertion sort up to 16 and
        by qsort above; the random graphs rarely reach the qsort branch.
        Both must give the Python kernel's np.sort order, which fixes
        the queue and hence the journals."""
        g = wide_splitter_graph(k)
        base = refine_stable(g, initial_coloring(g)).coloring
        touched = base.color[g.neighbors_of(0)].tolist()
        assert len(set(touched)) == k and touched != sorted(touched)
        assert_kernels_agree(g, [0, 1, 3, 2 * k])

    @pytest.mark.parametrize("formula", [gen_php(6), gen_ramsey(3, 3, 6),
                                         gen_cliquecolor(6, 3, 2),
                                         gen_cycle_coloring(9, 3)],
                             ids=["php6", "ramsey336", "cliquecolor632",
                                  "c9-3coloring"])
    def test_emitted_cnf_matches_python_kernel(self, formula):
        def emitted():
            out = run(formula, PipelineConfig(seed=3))
            return emit_dimacs(formula, added=out.added_clauses,
                               aux_vars=out.aux_count)
        native = emitted()
        with python_kernel():
            assert emitted() == native

    @pytest.mark.parametrize("array, slot, value", INVALID_COLORINGS)
    def test_invalid_coloring_is_refused(self, array, slot, value):
        """The C kernel indexes by these values unchecked, so a bad
        coloring must be refused before it runs, not crash the process;
        the Python kernels refuse it alike."""
        g = cycle(6)
        bad = Coloring.from_color_map([0] * 6)
        getattr(bad, array)[slot] = value
        for kernel in (contextlib.nullcontext, python_kernel):
            with kernel(), pytest.raises(ValueError,
                                         match="ordered-partition"):
                refine_stable(g, bad)
            with kernel(), pytest.raises(ValueError,
                                         match="ordered-partition"):
                IRSession(g, bad)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12),
           st.sampled_from(["order", "pos", "color", "clen"]),
           st.integers(0, 11), st.integers(-2, 13))
    def test_numpy_coloring_check_matches_c(self, keys, array, slot, value):
        """The numpy twin `_valid_coloring` accepts exactly the colorings
        that the C `valid_coloring` accepts."""
        c = Coloring.from_color_map(keys)
        n = len(keys)
        getattr(c, array)[slot % n] = value
        arrays = (c.order, c.pos, c.color, c.clen)
        assert refine._valid_coloring(n, *arrays) == \
            bool(native.native_kernel().valid_coloring(
                n, *native._ptrs(*arrays)))

    @pytest.mark.parametrize("array, slot, value", INVALID_COLORINGS)
    def test_remainder_search_refuses_invalid_coloring(self, array, slot,
                                                        value):
        """`refine.dive_pairs` checks its coloring once and then dives
        from it, in the C `dive_pairs` or in chains of Python
        refinements, so the search must refuse a bad one before the
        first refinement on either kernel."""
        formula = gen_cycle_coloring(3, 2)
        g = build_model_graph(formula)
        bad = Coloring.from_color_map([0] * g.vertex_count)
        getattr(bad, array)[slot] = value
        for kernel in (contextlib.nullcontext, python_kernel):
            with mock.patch.object(refine, "_refine_kernel") as refinement, \
                    mock.patch.object(native.native_kernel(),
                                      "dive_pairs") as dives, kernel():
                with pytest.raises(ValueError, match="ordered-partition"):
                    remainder.find_remainder_generators(
                        formula, g, bad, PipelineConfig(dive_pairs=4))
            refinement.assert_not_called()
            dives.assert_not_called()

    def test_one_kernel_call_per_probe(self):
        """Each session probe, a push or an individualize stopped or
        not, is one call of the C `session_push` and no other kernel
        call; with the Python kernels, one call of its twin
        `_session_push` and no refinement or coloring check besides."""
        assert_one_kernel_call_per_probe(native.native_kernel(), (
            "session_push", "refine", "valid_coloring", "dive_pairs"))
        with python_kernel():
            assert_one_kernel_call_per_probe(refine, (
                "_session_push", "_run_refinement", "_check_coloring"))

    def test_argtypes_match_kernel_signatures(self):
        """ctypes passes what argtypes says, unchecked against the C
        source; a count that drifts from the signature crashes or feeds
        garbage to the kernel.  The Python twins' signatures are checked
        by `test_python_twins_keep_c_signatures`."""
        lib = native.native_kernel()
        for name in TWINS:
            assert len(c_parameters(name)) == \
                len(getattr(lib, name).argtypes), name

    def test_build_into_private_cache(self, tmp_path, monkeypatch):
        """A build lands in the private cache next to the builds of other
        sources, flags or compilers, which stay."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = tmp_path / "symbreak"
        cache.mkdir(mode=0o700)
        (cache / "refine_kernel-0123456789abcdef0123.so").write_bytes(b"")
        (cache / "notes.txt").write_bytes(b"")
        lib = native._compiled_kernel()
        assert lib.parent == cache and lib.is_file()
        assert stat.S_IMODE(os.stat(lib.parent).st_mode) & 0o077 == 0
        assert sorted(os.listdir(lib.parent)) == sorted(
            [lib.name, "notes.txt", "refine_kernel-0123456789abcdef0123.so"])
        assert native._compiled_kernel() == lib

    def test_shared_cache_directory_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        (tmp_path / "symbreak").mkdir(mode=0o777)
        os.chmod(tmp_path / "symbreak", 0o777)
        with pytest.raises(OSError, match="not a private directory"):
            native._compiled_kernel()


def assert_one_kernel_call_per_probe(owner, names):
    """Each probe of a session makes one call of names[0], an attribute
    of `owner`, and none of the rest."""
    g = build_model_graph(gen_php(4))
    base = refine_stable(g, initial_coloring(g)).coloring
    sigma = int(base.color[0])
    one_push = {name: int(name == names[0]) for name in names}
    with contextlib.ExitStack() as stack:
        mocks = {name: stack.enter_context(mock.patch.object(
            owner, name, wraps=getattr(owner, name))) for name in names}
        # the session takes its kernel when it is made
        session = IRSession(g, base)
        for probe in (lambda: session.individualize(0),
                      lambda: session.push(2),
                      lambda: session.individualize(1, until=(sigma, 2))):
            for m in mocks.values():
                m.reset_mock()
            probe()
            assert {name: m.call_count
                    for name, m in mocks.items()} == one_push


def c_parameters(name):
    """The parameter names of the C function `name` in native.c."""
    src = native._KERNEL_SRC.read_text()
    m = re.search(rf"^(?:static )?(?:int|int32_t|int64_t|void) {name}\("
                  rf"([^)]*)\)", src, re.MULTILINE)
    assert m, f"no definition of {name}"
    return [re.split(r"[\s*]+", p.strip())[-1] for p in m.group(1).split(",")]


def test_python_twins_keep_c_signatures():
    """Each Python twin takes its C kernel's parameters by name and in
    order, so a change to one shows where the other must change."""
    for c_name, twin in (*((name, getattr(*twin))
                           for name, twin in TWINS.items()),
                         ("rollback", refine._rollback_kernel),
                         ("split_off", refine._split_off)):
        assert list(inspect.signature(twin).parameters) == \
            c_parameters(c_name), c_name


def test_fallback_holds_a_twin_for_each_entry_point():
    """The Python kernels are the twins of exactly the library's entry
    points, those whose argtypes `native_kernel` sets, so a new entry
    point fails here until it has a twin; arrays pass as themselves."""
    with python_kernel():
        kernels, addr = native.kernels()
    assert vars(kernels) == {name: getattr(*twin)
                             for name, twin in TWINS.items()}
    assert sorted(TWINS) == sorted(
        re.findall(r"^    lib\.(\w+)\.argtypes", inspect.getsource(
            native.native_kernel.__wrapped__), re.MULTILINE))
    arrays = (np.zeros(2), None)
    assert addr(*arrays) == arrays


def member_color_fragments(report, sigma):
    """The fragments of a base class found from its members' refined
    colors and positions: the definition the slot walk replaces."""
    members = report.base.class_members(sigma)
    cols = report.coloring.color[members]
    out = []
    for c in np.unique(cols):
        mem = members[cols == c]
        mem = mem[np.argsort(report.coloring.pos[mem], kind="stable")]
        out.append((int(c), mem.tolist()))
    return out


def check_fragments(g, vs):
    """Slot-walk fragments of every stable class against the member-color
    definition, after each individualization of vs in a session and in a
    chain of copies; and a base that is no ancestor is refused."""
    base = refine_stable(g, initial_coloring(g)).coloring
    session = IRSession(g, base)
    chained = base
    for v in vs:
        chained = individualize_refine(g, chained, v).coloring
        for rep in (session.individualize(v),
                    RefinementReport(base=base, coloring=chained)):
            for sigma in base.classes():
                walked = [(c, m.tolist()) for c, m in rep.fragments(sigma)]
                assert walked == member_color_fragments(rep, sigma)
            # swapped roles: the stable coloring is no refinement of the
            # individualized one, and each class it merges is refused
            refined = rep.coloring
            swapped = RefinementReport(base=refined, coloring=base)
            for c in refined.classes():
                if refined.clen[c] < base.clen[base.color[refined.order[c]]]:
                    with pytest.raises(ValueError, match="not an ancestor"):
                        swapped.fragments(c)


@settings(max_examples=100, deadline=None)
@given(random_graphs(), st.lists(st.integers(min_value=0), min_size=1,
                                 max_size=5))
def test_slot_walk_fragments_match_member_colors(g, picks):
    vs = [p % g.vertex_count for p in picks]
    check_fragments(g, vs)
    with python_kernel():
        check_fragments(g, vs)


def assert_pool_clean(g):
    """The pool's zero-initialized arrays are zero again: a count the
    kernel leaves behind would be read by the next call on g."""
    pool = g._refine_scratch
    for name, arr in (("in_queue", pool[3]), ("cnt", pool[4]),
                      ("tcnt", pool[8])):
        assert not arr.any(), f"{name} left nonzero"


def check_pool_clean(g, vs):
    base = refine_stable(g, initial_coloring(g)).coloring
    assert_pool_clean(g)
    for v in vs:
        individualize_refine(g, base, v)
        assert_pool_clean(g)
    session = IRSession(g, base)
    for i, v in enumerate(vs):
        # a stopped probe drops the splitters it leaves queued
        session.individualize(v, until=(int(base.color[v]), 2))
        assert_pool_clean(g)
        session.individualize(v)
        assert_pool_clean(g)
        for w in vs[i:]:
            session.push(w)
            assert_pool_clean(g)
    session._rollback()
    assert_pool_clean(g)


@settings(max_examples=100, deadline=None)
@given(random_graphs(), st.lists(st.integers(min_value=0), min_size=1,
                                 max_size=4))
def test_pool_is_clean_after_every_call(g, picks):
    """Both kernels clear the pool the same way, so the C/Python
    differential cannot see a clearing bug they share; this can."""
    vs = [p % g.vertex_count for p in picks]
    check_pool_clean(g, vs)
    with python_kernel():
        check_pool_clean(g, vs)


@pytest.mark.parametrize("failure", ["no-compiler", "compiler-error"])
def test_failed_build_falls_back_with_one_warning(failure, tmp_path,
                                                  monkeypatch):
    """Without a library, refinement and DIMACS I/O run their Python
    kernels, to the same results."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    if failure == "no-compiler":
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
    else:
        monkeypatch.setattr(native, "_CFLAGS",
                            native._CFLAGS + ("-Werror=no-such-warning",))
    native.native_kernel.cache_clear()
    try:
        g = cycle(5)
        # the warning names this file's line, not the package line that
        # first asked for the kernels
        with pytest.warns(RuntimeWarning, match="Python kernel") as record:
            rep = individualize_refine(g, initial_coloring(g), 0)
        assert len(record) == 1 and record[0].filename == __file__
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native.native_kernel() is None
            formula = parse_dimacs(b"c x\np cnf 4 3\n-1 3 0\n4 -1 -4 0\n0\n")
            text = emit_dimacs(formula, [(0, 9)], aux_vars=1)
        assert rep.coloring.as_partition() == [frozenset({0}),
                                               frozenset({2, 3}),
                                               frozenset({1, 4})]
        assert formula.lens.tolist() == [2, 3, 0]
        assert formula.lits.tolist() == [1, 4, 1, 6, 7]
        assert text == "p cnf 5 4\n-1 3 0\n-1 4 -4 0\n 0\n1 -5 0\n"
    finally:
        native.native_kernel.cache_clear()
