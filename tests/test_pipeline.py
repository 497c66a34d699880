"""Pipeline orchestration: detection order, marking, and output assembly."""

import contextlib
import hashlib
import json
from unittest import mock

import numpy as np

import symbreak.detectors as detectors
from symbreak import native
from symbreak.cnf import (Formula, clause_multiset_image_check, emit_dimacs,
                          neg_var, parse_dimacs, pos, transpose)
from symbreak.modelgraph import build_model_graph
from symbreak.pipeline import PipelineConfig, negation_class_of, run
from symbreak.refine import initial_coloring, refine_stable
from symbreak.testkit import (brute_force_sat, dpll_count, gen_cliquecolor,
                              gen_cycle_coloring, gen_php, gen_ramsey)

import pytest
from test_detectors import (attached_blocks_instance,
                            recorded_verifications, two_copy_instance)
from test_refine import TWINS, python_kernel


def augmented(formula, out):
    return Formula(formula.num_vars + out.aux_count,
                   formula.clauses + [list(c) for c in out.added_clauses])


# SHA-256 of the DIMACS emitted under PipelineConfig(seed=3).  The
# emitted CNF for a fixed input and seed is the program's contract, so a
# change of digest is a change of behaviour, not of implementation.
PINNED_DIMACS = pytest.mark.parametrize("make, digest", [
    # row-column
    (lambda: gen_php(6),
     "a9ba6ff5457e37ae01c07cc7717debc73f2b6f85d2569e423887f706aad46c14"),
    # Johnson on the polarity split
    (lambda: gen_ramsey(3, 3, 8),
     "ecf6c7a3c702c24aa7f9f209ac99e0b37f68754ef50f0d469cf8094d8f221df1"),
    # Johnson with two row extensions
    (lambda: gen_cliquecolor(10, 3, 2),
     "fb85a90cb098c0510740c1e6e5e155706a0f881c60bee48ea878fd22be7efbaa"),
    # no detector fits; the remainder dives, whose leaves depend on the
    # splitters each dive step refines from
    (lambda: gen_cycle_coloring(9, 3),
     "4366483733512fb8b531a03cf4bf6fa6cc44a1a1845977f4730e77aeb73e7cce"),
    (lambda: gen_cycle_coloring(15, 3),
     "4e862a94bc1cf47d3bb2c99f3e2e05dfe6fcb154cf062feffcec5f048a8f6a0e"),
    # row attempts on the large classes refuted by verification (C41)
    # and by overlapping rows (C20)
    (lambda: gen_cycle_coloring(41, 4),
     "d2e3c0be47a1c75e0338918e45f3395304edbe2021c5c6139799ce6c572ccaa6"),
    (lambda: gen_cycle_coloring(20, 4),
     "7a4b9d4cc98aca96920ae2517f36f2253414fc462c87572d4abf1a9a8301e09b"),
    # row structure found only by stabilizer recursion
    (lambda: two_copy_instance(3),
     "e2887b6caa3fe981c739dc1d52efb97962109a49cd2e6c61abef930a06f0c8b4"),
    # rows that absorb block fragments of another class
    (lambda: attached_blocks_instance(4),
     "fa21ac729817d3b8a10b476652567137f842d469b02eca0d34a63120fafc5495"),
], ids=["php6", "ramsey338", "cliquecolor1032", "c9-3coloring",
        "c15-3coloring", "c41-4coloring", "c20-4coloring", "two-copy-rows",
        "row-blocks"])


@PINNED_DIMACS
def test_emitted_dimacs_is_pinned(make, digest):
    formula = make()
    out = run(formula, PipelineConfig(seed=3))
    text = emit_dimacs(formula, added=out.added_clauses,
                       aux_vars=out.aux_count)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@PINNED_DIMACS
def test_emitted_dimacs_is_pinned_without_compiler(make, digest,
                                                    tmp_path, monkeypatch):
    """Where no `cc` is found, refinement and DIMACS I/O run their
    Python kernels; a formula read back from its DIMACS breaks to the
    same bytes."""
    source = make()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    native.native_kernel.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="Python kernel") as record:
            formula = parse_dimacs(emit_dimacs(source))
        # the warning names this line, not the package line that first
        # asked for the kernels
        assert len(record) == 1 and record[0].filename == __file__
        assert native.native_kernel() is None
        out = run(formula, PipelineConfig(seed=3))
        text = emit_dimacs(formula, added=out.added_clauses,
                           aux_vars=out.aux_count)
    finally:
        native.native_kernel.cache_clear()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("kernel", ["python", "c"])
def test_one_kernel_switch_for_every_module(kernel):
    """`native.kernels` alone picks the kernels: with the Python twins,
    every C entry point raises, and with the library, every twin raises,
    and still a pinned instance reads, breaks and writes to its pinned
    digest, with each kernel that runs called."""
    lib = native.native_kernel()
    if kernel == "c" and lib is None:
        pytest.skip("no compiled library")
    barred = ArithmeticError("the other kernel set ran")
    with contextlib.ExitStack() as stack:
        if kernel == "python":
            stack.enter_context(python_kernel())
        ran = []
        for name, (owner, attr) in TWINS.items():
            use, bar = ((owner, attr), (lib, name)) if kernel == "python" \
                else ((lib, name), (owner, attr))
            ran.append(stack.enter_context(mock.patch.object(
                *use, wraps=getattr(*use))))
            if bar[0] is not None:
                stack.enter_context(mock.patch.object(*bar,
                                                      side_effect=barred))
        formula = parse_dimacs(emit_dimacs(gen_cycle_coloring(9, 3)))
        out = run(formula, PipelineConfig(seed=3))
        text = emit_dimacs(formula, added=out.added_clauses,
                           aux_vars=out.aux_count)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "4366483733512fb8b531a03cf4bf6fa6cc44a1a1845977f4730e77aeb73e7cce"
    assert [spy.called for spy in ran] == [True] * len(TWINS)


@pytest.mark.parametrize("make", [
    lambda: gen_php(6),
    lambda: gen_cliquecolor(10, 3, 2),
    # binary clauses from the remainder's generators, then chains
    lambda: gen_cycle_coloring(15, 3),
    lambda: Formula(2, [[pos(1)], []]),
], ids=["php6", "cliquecolor1032", "c15-3coloring", "empty-clause"])
def test_emit_writes_clause_arrays_as_their_tuples(make):
    formula = make()
    out = run(formula, PipelineConfig(seed=3))
    assert out.added.lens.dtype == out.added.lits.dtype == np.int32
    assert emit_dimacs(formula, added=out.added, aux_vars=out.aux_count) == \
        emit_dimacs(formula, added=out.added_clauses, aux_vars=out.aux_count)


# SHA-256 of the attempt log (every field but "ms") and the structure
# stats under PipelineConfig(seed=3), on the instances above plus php(3),
# whose row-column attempts fail on a degenerate row or column fragment.
# Every attempt's detector, class, size, outcome and reason is pinned.
@pytest.mark.parametrize("make, digest", [
    (lambda: gen_php(3),
     "8b261f5b40cab7fbbe4911e6a8c18d251a095f57ea675badddcbc8efc5f978c0"),
    (lambda: gen_php(6),
     "0c62a0eeb1252ce07cafde26acd07c32d354d81eb28c6ac2eddab369b0f6867e"),
    (lambda: gen_ramsey(3, 3, 8),
     "47b518ec44925dc3ff233fbbb46c83ed4a2bbd55f336c4bd362fdb6e05995e11"),
    (lambda: gen_cliquecolor(10, 3, 2),
     "401cf77ebe13068bcc6b4c9e2f9bd741fd8c7b2f0e09defca97e4e6ca5adb16e"),
    (lambda: gen_cycle_coloring(9, 3),
     "3e0b43309d961d739a8e45b14e26b5b62e5f57ce648f943e496ad1650dc1bdcc"),
    (lambda: gen_cycle_coloring(15, 3),
     "b3d9031e8006b903194461fc3b2abd1ee873a8089cfa5e70dbc9ebe8d64c21dd"),
    (lambda: gen_cycle_coloring(41, 4),
     "ceef685f8c9af7ae6ff3abf38bf169258e0081c2b7824b4043420519e660437f"),
    (lambda: gen_cycle_coloring(20, 4),
     "0b407b762277b3b3d104a3377e326ce3b7e833d236b638beb195a42775a90870"),
    (lambda: two_copy_instance(3),
     "ccb1ef731f749e06ae4715ffcc400ce4d1d607db8c33b2d2c4845e821c33a1ee"),
    (lambda: attached_blocks_instance(4),
     "7b16857407eeffde81b6185190c4a92f1b078aec53d519fa279053e30e30b411"),
], ids=["php3", "php6", "ramsey338", "cliquecolor1032", "c9-3coloring",
        "c15-3coloring", "c41-4coloring", "c20-4coloring", "two-copy-rows",
        "row-blocks"])
def test_attempt_log_is_pinned(make, digest):
    stats = run(make(), PipelineConfig(seed=3)).stats
    log = {"attempts": [{k: v for k, v in a.items() if k != "ms"}
                        for a in stats["attempts"]],
           "structures": stats["structures"]}
    text = json.dumps(log, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("make", [
    lambda: gen_cliquecolor(10, 3, 2),
    lambda: gen_ramsey(3, 3, 8),
    lambda: gen_php(6),
    lambda: attached_blocks_instance(4),
], ids=["cliquecolor1032", "ramsey338", "php6", "row-blocks"])
def test_no_generator_verified_twice(make, monkeypatch):
    """Each candidate generator of a run's detectors is verified once;
    for rows, the swap of rows 0 and 1, verified as soon as row 1 is
    built, is not verified again with the rest of the factor."""
    checked = recorded_verifications(monkeypatch)
    run(make())
    assert checked
    assert len(set(checked)) == len(checked)


def test_two_line_factor_verified_once(monkeypatch):
    """php(3)'s two hole columns form a factor whose cycle is its one
    swap, so one verification decides it.  (The pipeline refuses
    php(3)'s 3 x 2 matrix before verification: a pivot's row and column
    fragments must each hold two literals.)"""
    f = gen_php(3)
    holes = [[pos(2 * i + j + 1) for i in range(3)] for j in range(2)]
    checked = recorded_verifications(monkeypatch)
    swaps = detectors._verified_factor(f, [tuple(holes)])
    assert swaps == [transpose(*holes)] and checked == swaps


@pytest.mark.parametrize("n", range(4, 9))
def test_row_column_structure_verified_by_four_calls(n, monkeypatch):
    """A found row-column structure costs four verifications whatever
    its size: the first swap and the cycle of its columns and rows."""
    checked = recorded_verifications(monkeypatch)
    out = run(gen_php(n))
    assert [(s.kind, s.dims) for s in out.structures] == [
        ("row-column", (n, n - 1))]
    assert len(checked) == 4


@pytest.mark.parametrize("make, n", [
    (lambda: gen_ramsey(3, 3, 8), 8),
    (lambda: gen_cliquecolor(10, 3, 2), 10),
    (lambda: gen_cliquecolor(10, 5, 4), 10),
], ids=["ramsey338", "cliquecolor1032", "cliquecolor1054"])
def test_johnson_structure_verified_by_two_calls(make, n, monkeypatch):
    """A found Johnson structure costs two verifications whatever its
    size and its extension blocks: the first label transposition and
    the label cycle."""
    checked = recorded_verifications(monkeypatch)
    out = run(make())
    assert [(s.kind, s.dims) for s in out.structures] == [("johnson", (n,))]
    assert len(checked) == 2


class TestNegationClassOf:
    def test_pairs_and_singletons(self):
        f = Formula(2, [[pos(1), pos(2)]])
        g = build_model_graph(f)
        pi = refine_stable(g, initial_coloring(g)).coloring
        pos_class = int(pi.color[pos(1)])
        neg_class = int(pi.color[neg_var(1)])
        assert negation_class_of(pi, pos_class) == neg_class
        assert negation_class_of(pi, neg_class) == pos_class

    def test_self_negating_detected(self):
        f = gen_ramsey(3, 3, 6)
        g = build_model_graph(f)
        pi = refine_stable(g, initial_coloring(g)).coloring
        sigma = int(pi.color[pos(1)])
        assert negation_class_of(pi, sigma) == sigma


class TestRun:
    def test_php5(self):
        f = gen_php(5)
        out = run(f)
        assert len(out.structures) == 1
        s = out.structures[0]
        assert s.kind == "row-column" and sorted(s.dims) == [4, 5]
        assert len(out.remainder_generators) == 0
        assert out.stats["remainder"]["binary_clauses"] == 0
        assert not brute_force_sat(f)
        assert dpll_count(augmented(f, out))[0] == "unsat"

    def test_ramsey338(self):
        out = run(gen_ramsey(3, 3, 8))
        assert [s.kind for s in out.structures] == ["johnson"]
        assert out.structures[0].dims == (8,)
        assert len(out.structures[0].generators) == 7
        assert out.remainder_generators == []

    def test_cliquecolor_covers_all_orbits(self):
        out = run(gen_cliquecolor(8, 3, 2))
        assert [s.kind for s in out.structures] == ["johnson"]
        # edges plus both extension orbits, each with its negations
        assert sorted(out.stats["structures"][0]["orbit_sizes"]) == [
            16, 16, 24, 24, 28, 28]
        assert out.remainder_generators == []

    def test_asymmetric_formula_adds_nothing(self):
        f = Formula(3, [[pos(1)], [pos(1), pos(2)],
                        [pos(1), pos(2), pos(3)]])
        out = run(f)
        assert out.structures == []
        assert out.added_clauses == []
        assert out.aux_count == 0

    def test_small_symmetric_formula_equisatisfiable(self):
        f = Formula(4, [[pos(1), pos(2)], [pos(3), pos(4)],
                        [neg_var(1), neg_var(2)]])
        out = run(f)
        assert brute_force_sat(f) == brute_force_sat(augmented(f, out))

    def test_determinism(self):
        f = gen_php(4)
        a, b = run(f), run(f)
        assert a.added_clauses == b.added_clauses
        assert a.aux_count == b.aux_count

    def test_all_toggles_off(self):
        f = gen_php(4)
        out = run(f, PipelineConfig(johnson=False, row_column=False,
                                    row=False, binary=False,
                                    dive_pairs=0))
        assert out.added_clauses == [] and out.structures == []

    def test_remainder_only_config(self):
        f = gen_php(4)
        out = run(f, PipelineConfig(johnson=False, row_column=False,
                                    row=False, seed=3))
        # no structures, but the dives should find something on php
        assert out.structures == []
        assert len(out.remainder_generators) > 0
        assert brute_force_sat(f) == brute_force_sat(augmented(f, out))

    def test_stats_schema(self):
        out = run(gen_php(4))
        stats = out.stats
        assert set(stats) == {"structures", "attempts", "remainder",
                              "clauses_added", "aux_vars", "phase_times_ms"}
        s = stats["structures"][0]
        assert set(s) == {"kind", "dims", "generators", "orbit_sizes"}
        assert set(stats["remainder"]) == {"generators", "binary_clauses"}
        assert stats["clauses_added"] == len(out.added_clauses)
        assert stats["aux_vars"] == out.aux_count

    def test_attempt_log(self):
        f = gen_cycle_coloring(20, 4)
        graph = build_model_graph(f)
        pi = refine_stable(graph, initial_coloring(graph)).coloring
        log = run(f).stats["attempts"]
        # every detector, then the recursion, on both 80-member classes
        assert [(a["detector"], a["size"]) for a in log] == [
            (d, 80) for d in ("johnson", "row-column", "row", "recursion")
            for _ in range(2)]
        for a in log:
            assert a["size"] == int(pi.clen[a["class"]])
            assert a["outcome"] == "failed" and a["reason"]
            assert a["ms"] >= 0
        assert [a["reason"] for a in log if a["detector"] == "row"] == [
            "verification failed at row 1"] * 2

    def test_attempt_log_found(self):
        log = run(gen_php(4)).stats["attempts"]
        assert log[-1]["detector"] == "row-column"
        assert log[-1]["outcome"] == "found" and log[-1]["reason"] is None
        assert all(a["outcome"] == "failed" for a in log[:-1])

    def test_clauses_stay_in_declared_range(self):
        f = gen_php(5)
        out = run(f)
        limit = 2 * (f.num_vars + out.aux_count)
        assert all(0 <= l < limit for c in out.added_clauses for l in c)

    def test_emitted_generators_pass_multiset_oracle(self):
        for f in (gen_php(4), gen_cycle_coloring(9, 3)):
            out = run(f)
            gens = [g for s in out.structures for g in s.generators]
            gens += out.remainder_generators
            assert gens
            assert all(clause_multiset_image_check(f, g) for g in gens)

    def test_empty_formula(self):
        out = run(Formula(0, []))
        assert out.added_clauses == []

    def test_empty_clause_adds_nothing(self):
        for f in (Formula(2, [[]]),
                  Formula(6, gen_php(3).clauses + [[]])):
            out = run(f)
            assert out.added_clauses == [] and out.aux_count == 0
            assert out.structures == [] and out.remainder_generators == []
            assert out.stats == {
                "structures": [],
                "attempts": [],
                "remainder": {"generators": 0, "binary_clauses": 0},
                "clauses_added": 0,
                "aux_vars": 0,
                "phase_times_ms": dict.fromkeys(
                    ("graph_ms", "detect_ms", "remainder_ms", "encode_ms"),
                    0.0),
            }

    def test_max_len_zero_emits_no_chains(self):
        f = gen_php(5)
        assert len(run(f).added_clauses) == 172
        out = run(f, PipelineConfig(max_len=0))
        assert len(out.structures) == 1
        assert out.added_clauses == [] and out.aux_count == 0

    @pytest.mark.parametrize("field", ["max_len", "dive_pairs"])
    def test_negative_option_refused_at_construction(self, field):
        # refused whatever the formula, before any run
        with pytest.raises(ValueError, match=f"{field} must be "
                                             "non-negative, got -1"):
            PipelineConfig(**{field: -1})

    def test_max_len_respected(self):
        f = gen_php(6)
        out = run(f, PipelineConfig(max_len=3))
        # a 3-position chain has at most 2 aux vars and 7 clauses
        assert out.aux_count <= 2 * sum(len(s.generators)
                                        for s in out.structures)
