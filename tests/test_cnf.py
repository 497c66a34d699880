"""Literal encoding, DIMACS round-trips, and permutation machinery."""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symbreak import cnf
from symbreak.cnf import (DimacsError, Formula, LiteralPermutation,
                          _canonical_clauses,
                          clause_multiset_image_check, emit_dimacs,
                          is_automorphism, neg_var, negate, parse_dimacs,
                          pos, transpose, var_of)
from test_generator_differential import as_dict, formula_and_generator
from test_refine import python_kernel


def test_literal_codes():
    assert pos(1) == 0 and neg_var(1) == 1
    assert pos(3) == 4 and neg_var(3) == 5
    assert negate(pos(2)) == neg_var(2)
    assert negate(neg_var(2)) == pos(2)
    assert var_of(pos(7)) == 7 and var_of(neg_var(7)) == 7


def test_formula_clauses_sort_and_dedup():
    f = Formula(3, [[5, 1, 5, 3], [], [2, 2]])
    assert f.clauses == [(1, 3, 5), (), (2,)]


def csr(clauses):
    lens = np.array([len(c) for c in clauses], dtype=np.int64)
    lits = np.array([l for c in clauses for l in c], dtype=np.int64)
    return lens, lits


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=19),
                         max_size=6), max_size=8),
       st.booleans(), st.randoms(use_true_random=False))
def test_ascending_clauses_skip_the_sort(clauses, repeat, rnd):
    """Strictly ascending clauses, which the kernel `ascending` lets skip
    the sort, and the same clauses shuffled, with or without repeated
    literals, give the arrays of the sort alone, which runs on the Python
    kernels with their `ascending` patched to find no clause ascending."""
    canon = [sorted(set(c)) for c in clauses]
    messy = []
    for c in canon:
        c = c + (c[:rnd.randint(0, len(c))] if repeat else [])
        rnd.shuffle(c)
        messy.append(c)
    want_lens, want_lits = csr(canon)
    for lens, lits in (csr(canon), csr(messy)):
        with python_kernel(), mock.patch.object(cnf, "_ascending",
                                                lambda *args: 0):
            sorted_lens, sorted_lits = _canonical_clauses(lens, lits, 10)
        got_lens, got_lits = _canonical_clauses(lens, lits, 10)
        for a in (sorted_lens, sorted_lits, got_lens, got_lits):
            assert a.dtype == np.int32
        assert got_lens.tolist() == sorted_lens.tolist() == \
            want_lens.tolist()
        assert got_lits.tolist() == sorted_lits.tolist() == \
            want_lits.tolist()


@pytest.mark.parametrize("lens, lits", [
    ([3, -1], [0, 1, 2]),
    # the int64 sum wraps to the literal count
    ([2 ** 63 - 1, 2 ** 63 - 1, 4], [0, 1])])
def test_clause_length_out_of_range_refused(lens, lits):
    with pytest.raises(ValueError, match="clause length negative or beyond"):
        Formula(2, lens=lens, lits=lits)


class TestFormula:
    def test_unique_clauses_drop_duplicates(self):
        f = Formula(2, [[pos(1), pos(2)], [pos(2), pos(1)], [neg_var(1)]])
        assert len(f.clauses) == 3
        assert len(f.unique_clauses) == 2

    def test_variable_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Formula(1, [[pos(2)]])


class TestParseDimacs:
    def test_basic(self):
        f = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
        assert f.num_vars == 3
        assert f.clauses == [(pos(1), neg_var(2)), (pos(2), pos(3))]

    def test_accepts_bytes_and_file_like(self):
        text = "p cnf 1 1\n1 0\n"
        assert parse_dimacs(text.encode()).num_vars == 1
        assert parse_dimacs(io.StringIO(text)).num_vars == 1

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == [(pos(1), pos(2), pos(3))]

    def test_header_variable_count_grows_to_max_seen(self):
        f = parse_dimacs("p cnf 2 1\n1 4 0\n")
        assert f.num_vars == 4

    @pytest.mark.parametrize("text", [
        "1 0\n",                          # clause before header
        "p cnf 2\n1 0\n",                 # short header
        "p cnf 2 1\np cnf 2 1\n1 0\n",    # duplicate header
        "p cnf 2 1\n1 x 0\n",             # non-integer token
        "p cnf 2 1\n1 2\n",               # missing terminator
        "",                               # no header at all
        "p cnf 2 1\n1073741825 0\n",      # beyond the int32 literal codes
        "p cnf 1073741825 1\n1 0\n",      # header beyond them
        "p cnf 99999999999 1\n1 0\n",
    ])
    def test_malformed_inputs(self, text):
        with pytest.raises(DimacsError):
            parse_dimacs(text)


class TestEmitDimacs:
    def test_roundtrip(self):
        f = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
        again = parse_dimacs(emit_dimacs(f))
        assert again.num_vars == f.num_vars
        assert again.clauses == f.clauses

    def test_added_clauses_and_header_patch(self):
        f = Formula(2, [[pos(1)]])
        text = emit_dimacs(f, added=[(pos(2), pos(3))], aux_vars=1,
                           comments=["hello"])
        assert "c symbreak: hello" in text
        assert "p cnf 3 2" in text

    def test_added_clause_out_of_range_rejected(self):
        f = Formula(2, [[pos(1)]])
        with pytest.raises(ValueError):
            emit_dimacs(f, added=[(pos(5),)], aux_vars=0)


class TestLiteralPermutation:
    def test_drops_fixed_points_and_checks_bijection(self):
        phi = LiteralPermutation([0, 2, 4], [0, 4, 2])
        assert phi.support.tolist() == [2, 3, 4, 5]
        assert phi.images.tolist() == [4, 5, 2, 3]
        assert len(LiteralPermutation([0, 2], [0, 2])) == 0
        with pytest.raises(ValueError):
            LiteralPermutation([0], [2])

    def test_negation_consistency(self):
        # closed when built: every literal's negation goes to the
        # negation of its image
        phi = transpose([pos(1), pos(3)], [neg_var(2), neg_var(4)])
        assert (phi.support[1::2] == phi.support[0::2] + 1).all()
        assert (phi.images[1::2] == phi.images[0::2] ^ 1).all()
        assert as_dict(LiteralPermutation([0, 2], [2, 0])) == \
            {0: 2, 1: 3, 2: 0, 3: 1}

    def test_arrays_are_read_only_int32(self):
        phi = transpose([pos(1)], [pos(2)])
        assert phi.support.dtype == phi.images.dtype == np.int32
        with pytest.raises(ValueError):
            phi.images[0] = 0

    def test_hash_eq(self):
        a = transpose([pos(1)], [pos(2)])
        b = transpose([pos(2)], [pos(1)])
        assert a == b and hash(a) == hash(b)
        assert a != transpose([pos(1)], [neg_var(2)])


class TestTransposeFix:
    """transpose, and the negation closure (the paper's fix) that every
    generator gets when it is built."""

    def test_transpose_length_mismatch(self):
        with pytest.raises(ValueError):
            transpose([0], [2, 4])

    def test_transpose_overlap_rejected(self):
        with pytest.raises(ValueError):
            transpose([0, 2], [2, 4])

    def test_fix_closes_negations(self):
        phi = transpose([pos(1)], [pos(2)])
        assert as_dict(phi)[neg_var(1)] == neg_var(2)

    def test_fix_conflict(self):
        # 1 -> 2 but ¬1 -> 3 contradicts closure
        with pytest.raises(ValueError):
            LiteralPermutation([pos(1), pos(2), neg_var(1), pos(3)],
                               [pos(2), pos(1), pos(3), neg_var(1)])


class TestAutomorphism:
    def test_swap_symmetry(self):
        f = Formula(2, [[pos(1), pos(2)], [neg_var(1)], [neg_var(2)]])
        phi = transpose([pos(1)], [pos(2)])
        assert is_automorphism(f, phi)
        assert clause_multiset_image_check(f, phi)

    def test_non_symmetry_detected(self):
        f = Formula(2, [[pos(1)], [pos(1), pos(2)]])
        phi = transpose([pos(1)], [pos(2)])
        assert not is_automorphism(f, phi)
        assert not clause_multiset_image_check(f, phi)
        # the unit clauses map onto each other, the ternary one does not
        g = Formula(4, [[pos(1)], [pos(2)], [pos(1), pos(3), pos(4)]])
        assert not is_automorphism(g, phi)
        assert not clause_multiset_image_check(g, phi)

    def test_negation_inconsistent_rejected(self):
        # x1 -> x2 with !x1 -> !x3 is no literal permutation the verifier
        # can be given: it is refused when built
        with pytest.raises(ValueError):
            LiteralPermutation([pos(1), neg_var(1), pos(2), neg_var(3)],
                               [pos(2), neg_var(3), pos(1), neg_var(1)])

    def test_fast_path_matches_oracle_on_large_formula(self):
        # a big pile of binary clauses with a clean swap symmetry between
        # variables 1 and 2
        n = 1200
        clauses = [[pos(1), neg_var(k)] for k in range(3, n)]
        clauses += [[pos(2), neg_var(k)] for k in range(3, n)]
        clauses += [[pos(1), pos(2), pos(n)]]
        f = Formula(n, clauses)
        assert len(f.unique_clauses) > 2000
        good = transpose([pos(1)], [pos(2)])
        bad = transpose([pos(1)], [pos(3)])
        assert is_automorphism(f, good) == clause_multiset_image_check(f, good)
        assert is_automorphism(f, bad) == clause_multiset_image_check(f, bad)
        assert is_automorphism(f, good) and not is_automorphism(f, bad)

    def test_unit_clauses_among_many_binary_clauses(self):
        # more than 2000 unique binary clauses plus the unit clauses of
        # the swapped variables
        n = 1100
        binary = [[pos(1), neg_var(k)] for k in range(3, n + 1)]
        binary += [[pos(2), neg_var(k)] for k in range(3, n + 1)]
        swap = transpose([pos(1)], [pos(2)])
        f = Formula(n, binary + [[pos(1)], [pos(2)]])
        assert len(f.unique_clauses) > 2000
        assert is_automorphism(f, swap)
        assert clause_multiset_image_check(f, swap)
        g = Formula(n, binary + [[pos(1)]])
        assert not is_automorphism(g, swap)
        assert not clause_multiset_image_check(g, swap)


@given(formula_and_generator())
def test_verifier_agrees_with_oracle(case):
    f, phi, kind = case
    verdict = is_automorphism(f, phi)
    assert verdict == clause_multiset_image_check(f, phi)
    if kind == "symmetry":
        assert verdict
