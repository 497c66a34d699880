"""Literal encoding, DIMACS round-trips, and permutation machinery."""

import io

import pytest
from hypothesis import given, strategies as st

from symbreak.cnf import (DimacsError, Formula, LiteralPermutation,
                          apply_permutation, automorphism_failure,
                          clause_multiset_image_check,
                          emit_dimacs, fix, from_dimacs_lit, is_automorphism,
                          is_positive, neg_var, negate, parse_dimacs, pos,
                          to_dimacs_lit, transpose, var_of)


def test_literal_codes():
    assert pos(1) == 0 and neg_var(1) == 1
    assert pos(3) == 4 and neg_var(3) == 5
    assert negate(pos(2)) == neg_var(2)
    assert negate(neg_var(2)) == pos(2)
    assert var_of(pos(7)) == 7 and var_of(neg_var(7)) == 7
    assert is_positive(pos(4)) and not is_positive(neg_var(4))


@given(st.integers(min_value=-50, max_value=50).filter(lambda x: x != 0))
def test_dimacs_lit_roundtrip(lit):
    assert to_dimacs_lit(from_dimacs_lit(lit)) == lit


def test_from_dimacs_lit_zero_rejected():
    with pytest.raises(ValueError):
        from_dimacs_lit(0)


def test_formula_clauses_sort_and_dedup():
    f = Formula(3, [[5, 1, 5, 3], [], [2, 2]])
    assert f.clauses == [(1, 3, 5), (), (2,)]


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
        phi = LiteralPermutation({0: 0, 2: 4, 4: 2})
        assert set(phi.support) == {2, 4}
        with pytest.raises(ValueError):
            LiteralPermutation({0: 2})

    def test_inverse_and_compose(self):
        phi = LiteralPermutation({0: 2, 2: 4, 4: 0})
        assert phi.compose(phi.inverse()).is_identity()
        assert phi.inverse().image(2) == 0

    def test_negation_consistency(self):
        swap12 = fix(transpose([pos(1)], [pos(2)]))
        assert swap12.is_negation_consistent()
        assert not LiteralPermutation({0: 2, 2: 0}).is_negation_consistent()

    def test_hash_eq(self):
        a = fix(transpose([pos(1)], [pos(2)]))
        b = fix(transpose([pos(2)], [pos(1)]))
        assert a == b and hash(a) == hash(b)


class TestTransposeFix:
    def test_transpose_length_mismatch(self):
        with pytest.raises(ValueError):
            transpose([0], [2, 4])

    def test_transpose_overlap_rejected(self):
        with pytest.raises(ValueError):
            transpose([0, 2], [2, 4])

    def test_fix_closes_negations(self):
        phi = fix(transpose([pos(1)], [pos(2)]))
        assert phi.image(neg_var(1)) == neg_var(2)

    def test_fix_conflict(self):
        # 1 -> 2 but ¬1 -> 3 contradicts closure
        with pytest.raises(ValueError):
            fix(LiteralPermutation({pos(1): pos(2), pos(2): pos(1),
                                    neg_var(1): pos(3), pos(3): neg_var(1)}))


class TestAutomorphism:
    def test_swap_symmetry(self):
        f = Formula(2, [[pos(1), pos(2)], [neg_var(1)], [neg_var(2)]])
        phi = fix(transpose([pos(1)], [pos(2)]))
        assert is_automorphism(f, phi)
        assert clause_multiset_image_check(f, phi)

    def test_non_symmetry_detected(self):
        f = Formula(2, [[pos(1)], [pos(1), pos(2)]])
        phi = fix(transpose([pos(1)], [pos(2)]))
        assert automorphism_failure(f, phi) == "clause-image-missing"
        assert not clause_multiset_image_check(f, phi)
        # the unit clauses map onto each other, the ternary one does not
        g = Formula(4, [[pos(1)], [pos(2)], [pos(1), pos(3), pos(4)]])
        assert automorphism_failure(g, phi) == "clause-image-missing"
        assert not clause_multiset_image_check(g, phi)

    def test_negation_inconsistent_rejected(self):
        f = Formula(2, [[pos(1), pos(2)]])
        phi = LiteralPermutation({pos(1): pos(2), pos(2): pos(1)})
        assert automorphism_failure(f, phi) == "negation-inconsistent"

    def test_apply_permutation(self):
        phi = fix(transpose([pos(1)], [pos(3)]))
        assert apply_permutation((pos(1), neg_var(2)), phi) == \
            (neg_var(2), pos(3))

    def test_fast_path_matches_oracle_on_large_formula(self):
        # a big pile of binary clauses with a clean swap symmetry between
        # variables 1 and 2
        n = 1200
        clauses = [[pos(1), neg_var(k)] for k in range(3, n)]
        clauses += [[pos(2), neg_var(k)] for k in range(3, n)]
        clauses += [[pos(1), pos(2), pos(n)]]
        f = Formula(n, clauses)
        assert len(f.unique_clauses) > 2000
        good = fix(transpose([pos(1)], [pos(2)]))
        bad = fix(transpose([pos(1)], [pos(3)]))
        assert is_automorphism(f, good) == clause_multiset_image_check(f, good)
        assert is_automorphism(f, bad) == clause_multiset_image_check(f, bad)
        assert is_automorphism(f, good) and not is_automorphism(f, bad)

    def test_unit_clauses_among_many_binary_clauses(self):
        # more than 2000 unique binary clauses plus the unit clauses of
        # the swapped variables
        n = 1100
        binary = [[pos(1), neg_var(k)] for k in range(3, n + 1)]
        binary += [[pos(2), neg_var(k)] for k in range(3, n + 1)]
        swap = fix(transpose([pos(1)], [pos(2)]))
        f = Formula(n, binary + [[pos(1)], [pos(2)]])
        assert len(f.unique_clauses) > 2000
        assert automorphism_failure(f, swap) is None
        assert clause_multiset_image_check(f, swap)
        g = Formula(n, binary + [[pos(1)]])
        assert automorphism_failure(g, swap) == "clause-image-missing"
        assert not clause_multiset_image_check(g, swap)


@st.composite
def formula_and_map(draw):
    """A small formula (clause lengths 0-4, duplicate clauses, unused
    variables) and a literal map: a random transposition, a true symmetry
    or a negation-inconsistent map."""
    num_vars = draw(st.integers(1, 6))
    lit = st.integers(0, 2 * num_vars - 1)
    clauses = draw(st.lists(st.lists(lit, max_size=4), max_size=12))
    clauses += draw(st.lists(st.sampled_from(clauses), max_size=3)
                    if clauses else st.just([]))
    kind = draw(st.sampled_from(["transpose", "symmetry", "inconsistent"]))
    # one variable past num_vars: literals that occur in no clause
    variables = draw(st.permutations(range(1, num_vars + 2)))
    if kind == "inconsistent":
        a, b = variables[:2]
        return (Formula(num_vars, clauses),
                LiteralPermutation({pos(a): pos(b), pos(b): pos(a)}), kind)
    if kind == "transpose":
        k = draw(st.integers(1, len(variables) // 2))
        flips = draw(st.lists(st.integers(0, 1), min_size=2 * k,
                              max_size=2 * k))
        side = [2 * (v - 1) + f for v, f in zip(variables[:2 * k], flips)]
        phi = fix(transpose(side[:k], side[k:]))
        return Formula(num_vars, clauses), phi, kind
    # a signed renaming of the variables, and the clauses closed under it
    image = draw(st.permutations(range(1, num_vars + 1)))
    signs = draw(st.lists(st.integers(0, 1), min_size=num_vars,
                          max_size=num_vars))
    mapping = {}
    for v, w, sgn in zip(range(1, num_vars + 1), image, signs):
        mapping[pos(v)] = 2 * (w - 1) + sgn
        mapping[neg_var(v)] = (2 * (w - 1) + sgn) ^ 1
    phi = LiteralPermutation(mapping)
    closed = {tuple(sorted(set(c))) for c in clauses}
    frontier = list(closed)
    while frontier:
        c = apply_permutation(frontier.pop(), phi)
        if c not in closed:
            closed.add(c)
            frontier.append(c)
    return Formula(num_vars, clauses + sorted(closed)), phi, kind


@given(formula_and_map())
def test_verifier_agrees_with_oracle(case):
    f, phi, kind = case
    failure = automorphism_failure(f, phi)
    assert (failure is None) == clause_multiset_image_check(f, phi)
    if kind == "symmetry":
        assert failure is None
    if kind == "inconsistent":
        assert failure == "negation-inconsistent"
