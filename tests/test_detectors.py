"""Structure detectors: row, row-column, Johnson, and the fallbacks."""

import pytest

from symbreak.cnf import Formula, is_automorphism, neg_var, pos
from symbreak.detectors import (DetectionFailure, detect_johnson,
                                detect_row_blocks, detect_row_column,
                                stabilizer_recursion)
from symbreak.modelgraph import build_model_graph
from symbreak.pipeline import _polarity_split_base, negation_class_of
from symbreak.refine import initial_coloring, refine_stable
from symbreak.testkit import gen_cliquecolor, gen_php, gen_ramsey


def stable_base(formula):
    graph = build_model_graph(formula)
    return graph, refine_stable(graph, initial_coloring(graph)).coloring


def literal_classes(graph, pi):
    return [c for c in pi.classes()
            if pi.clen[c] > 1 and pi.order[c] < graph.num_literal_vertices]


def class_of(pi, lit):
    return int(pi.color[lit])


def row_instance(rows):
    """Rows of vars (a_i, b_i) with clauses (a_i | b_i) plus one long
    clause over all a_i that makes rows, not columns, interchangeable."""
    clauses = [[pos(2 * i + 1), pos(2 * i + 2)] for i in range(rows)]
    clauses.append([pos(2 * i + 1) for i in range(rows)])
    return Formula(2 * rows, clauses)


def attached_blocks_instance(rows=4):
    """Per row i a var r_i and a symmetric pair s_i1, s_i2, with clauses
    (r_i | s_i1 | s_i2) and one long clause over all r_i."""
    clauses = [[pos(i + 1), pos(rows + 2 * i + 1), pos(rows + 2 * i + 2)]
               for i in range(rows)]
    clauses.append([pos(i + 1) for i in range(rows)])
    return Formula(3 * rows, clauses)


def two_copy_instance(rows=3):
    """Two disjoint copies of a row-symmetric instance; refinement
    merges the copies into one class but whole-class row detection
    fails verification, so recursion on a fragment is needed."""
    n = 2 * rows  # a variables per copy pair; b after

    def a(copy, i):
        return copy * rows + i + 1

    def b(copy, i):
        return n + copy * rows + i + 1

    clauses = []
    for copy in (0, 1):
        for i in range(rows):
            clauses.append([pos(a(copy, i)), pos(b(copy, i))])
        clauses.append([pos(a(copy, i)) for i in range(rows)])
    return Formula(2 * n, clauses)


def test_detection_failure_is_falsy():
    assert not DetectionFailure("anything")


class TestDetectRow:
    def test_pure_row_symmetry(self):
        f = row_instance(4)
        graph, base = stable_base(f)
        sigma = class_of(base, pos(1))
        s = detect_row_blocks(f, graph, base, sigma)
        assert not isinstance(s, DetectionFailure)
        assert s.kind == "row"
        assert s.dims == (4, 4)
        assert len(s.generators) == 3
        assert all(is_automorphism(f, g) for g in s.generators)
        flat = [l for row in s.matrix for l in row]
        assert len(set(flat)) == 16

    def test_size_gate(self):
        f = row_instance(2)
        graph, base = stable_base(f)
        sigma = class_of(base, pos(1))
        s = detect_row_blocks(f, graph, base, sigma)
        assert isinstance(s, DetectionFailure)
        assert "size gate" in s.reason

    def test_asymmetric_formula_fails(self):
        f = Formula(3, [[pos(1), pos(2), pos(3)], [pos(1), pos(2)],
                        [neg_var(1)]])
        graph, base = stable_base(f)
        for sigma in literal_classes(graph, base):
            assert isinstance(detect_row_blocks(f, graph, base, sigma),
                              DetectionFailure)


class TestDetectRowBlocks:
    def test_rows_with_attached_blocks(self):
        rows = 4

        def s(i, j):
            return rows + 2 * i + j + 1

        f = attached_blocks_instance(rows)
        graph, base = stable_base(f)
        sigma = class_of(base, pos(2))
        st = detect_row_blocks(f, graph, base, sigma)
        assert not isinstance(st, DetectionFailure)
        assert len(st.matrix) == rows
        assert all(is_automorphism(f, g) for g in st.generators)
        # each row carries its own block of 2 (both polarities)
        for i, row in enumerate(st.matrix):
            vars_in_row = set(l // 2 + 1 for l in row)
            assert any(s(k, 0) in vars_in_row and s(k, 1) in vars_in_row
                       for k in range(rows))


class TestDetectRowColumn:
    def test_php5(self):
        f = gen_php(5)
        graph, base = stable_base(f)
        sigma = class_of(base, pos(1))
        s = detect_row_column(f, graph, base, sigma)
        assert not isinstance(s, DetectionFailure)
        assert sorted(s.dims) == [4, 5]
        assert len(s.generators) == 7
        assert all(is_automorphism(f, g) for g in s.generators)
        flat = [l for row in s.matrix for l in row]
        assert len(set(flat)) == 20

    def test_degenerate_dimensions_fail(self):
        # php(3) is a 3x2 matrix: fewer than three columns
        f = gen_php(3)
        graph, base = stable_base(f)
        sigma = class_of(base, pos(1))
        assert isinstance(detect_row_column(f, graph, base, sigma),
                          DetectionFailure)

    def test_renamed_variables_still_detected(self):
        import random

        rng = random.Random(7)
        f = gen_php(5)
        perm = list(range(1, 21))
        rng.shuffle(perm)
        renamed = Formula(20, [[2 * (perm[l // 2] - 1) + (l % 2)
                                for l in c] for c in f.clauses])
        graph, base = stable_base(renamed)
        sigma = literal_classes(graph, base)[0]
        s = detect_row_column(renamed, graph, base, sigma)
        assert not isinstance(s, DetectionFailure)
        assert sorted(s.dims) == [4, 5]


class TestDetectJohnson:
    def test_ramsey8_after_polarity_split(self):
        f = gen_ramsey(3, 3, 8)
        graph, base = stable_base(f)
        sigma = literal_classes(graph, base)[0]
        assert negation_class_of(base, sigma) == sigma  # self-negating
        split, sig = _polarity_split_base(graph, base, sigma)
        s = detect_johnson(f, graph, split, sig)
        assert not isinstance(s, DetectionFailure)
        assert s.n == 8
        assert len(s.generators) == 7
        assert all(is_automorphism(f, g) for g in s.generators)
        pairs = set(s.label.values())
        assert len(pairs) == 28
        assert all(len(p) == 2 for p in pairs)

    def test_size_gate_below_28(self):
        f = gen_ramsey(3, 3, 7)  # C(7,2) = 21
        graph, base = stable_base(f)
        sigma = literal_classes(graph, base)[0]
        split, sig = _polarity_split_base(graph, base, sigma)
        s = detect_johnson(f, graph, split, sig)
        assert isinstance(s, DetectionFailure)
        assert "size gate" in s.reason

    def test_non_triangular_class_fails(self):
        f = row_instance(29)
        graph, base = stable_base(f)
        sigma = class_of(base, pos(1))
        s = detect_johnson(f, graph, base, sigma)
        assert isinstance(s, DetectionFailure)

    def test_cliquecolor_needs_extension(self):
        f = gen_cliquecolor(8, 3, 2)
        graph, base = stable_base(f)
        classes = literal_classes(graph, base)
        sigma = max(classes, key=lambda c: base.class_size(c))
        others = [c for c in classes if c != sigma]
        s = detect_johnson(f, graph, base, sigma, other_colors=others)
        assert not isinstance(s, DetectionFailure)
        assert s.n == 8
        assert len(s.generators) == 7
        assert all(is_automorphism(f, g) for g in s.generators)
        kinds = sorted(len(next(iter(b.values()))) for _, b in s.extensions)
        assert kinds == [2, 3]  # color blocks and clique-slot blocks
        for _, blocks in s.extensions:
            assert set(blocks) == set(range(1, 9))

    def test_bare_generators_fail_without_extension(self):
        f = gen_cliquecolor(8, 3, 2)
        graph, base = stable_base(f)
        classes = literal_classes(graph, base)
        sigma = max(classes, key=lambda c: base.class_size(c))
        s = detect_johnson(f, graph, base, sigma, other_colors=())
        assert isinstance(s, DetectionFailure)


class TestStabilizerRecursion:
    def test_recursion_recovers_row_symmetry(self):
        f = two_copy_instance()
        graph, base = stable_base(f)
        sigma = class_of(base, pos(1))
        assert base.class_size(sigma) == 6
        direct = detect_row_blocks(f, graph, base, sigma)
        assert isinstance(direct, DetectionFailure)
        s = stabilizer_recursion(f, graph, base, sigma,
                                 [detect_johnson, detect_row_column,
                                  detect_row_blocks])
        assert not isinstance(s, DetectionFailure)
        assert len(s.matrix) == 3
        assert all(is_automorphism(f, g) for g in s.generators)

    def test_singleton_fragment_fails(self):
        f = Formula(2, [[pos(1), pos(2)]])
        graph, base = stable_base(f)
        sigma = class_of(base, pos(1))
        s = stabilizer_recursion(f, graph, base, sigma, [detect_row_blocks])
        assert isinstance(s, DetectionFailure)
