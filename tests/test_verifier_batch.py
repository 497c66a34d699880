"""Differential tests of the factor verifier's array passes: the batch
transposition builder, the 2-D conjugation check, the clause keys of
`is_automorphism` and the occurrence index, each against the per-item
code it replaced, kept here as references."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import symbreak.cnf as cnf
from symbreak.cnf import (Formula, LiteralPermutation, SwapError,
                          clause_multiset_image_check, is_automorphism, pos,
                          transpose, transpositions)
from symbreak.detectors import _conjugating_product

# a variable far beyond every formula below
FAR = 1 << 20


# ---- references ----------------------------------------------------------

def ref_transpose(a, b):
    """transpose as it was before the batch builder: a set check, then
    the checked constructor."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(set(a) | set(b)) != 2 * len(a):
        raise ValueError("lists must be duplicate-free and pairwise disjoint")
    return LiteralPermutation(np.concatenate((a, b)),
                              np.concatenate((b, a)))


def ref_conjugating_product(swaps):
    """_conjugating_product as it was: one relation checked per swap."""
    size = max(int(t.support[-1]) for t in swaps) + 1
    c = np.arange(size, dtype=np.int32)
    for t in swaps:
        c[t.support] = c[t.images]
    for t, u in zip(swaps, swaps[1:]):
        moved = c[t.support]
        by = np.argsort(moved)
        if not (np.array_equal(moved[by], u.support)
                and np.array_equal(c[t.images][by], u.images)):
            return None
    changed = np.flatnonzero(c != np.arange(size))
    return LiteralPermutation(changed, c[changed])


def ref_occurrences(formula):
    """occ and occ_ptr by a stable argsort of the unique clauses'
    literals, as `_clause_arrays` built them before."""
    lens, flat = formula._clause_arrays()[:2]
    owner = np.repeat(np.arange(len(lens), dtype=np.int32), lens)
    occ = owner[np.argsort(flat, kind="stable")]
    occ_ptr = np.zeros(2 * formula.num_vars + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=2 * formula.num_vars),
              out=occ_ptr[1:])
    return occ, occ_ptr


# ---- strategies ----------------------------------------------------------

@st.composite
def line_pairs(draw):
    """0-5 line pairs over a few variables.  A pair is either drawn
    freely (repeats, overlaps, ragged lengths, x and ¬x on one side or
    across) or well-formed, over distinct variables, and then perhaps
    changed: one literal put on both sides, x exchanged with ¬x, or x
    and ¬x on one side, sent to y and ¬y or to conflicting images."""
    nvars = draw(st.integers(1, 8))
    lit = st.integers(0, 2 * nvars - 1)
    pairs = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            pairs.append((draw(st.lists(lit, max_size=4)),
                          draw(st.lists(lit, max_size=4))))
            continue
        k = draw(st.integers(0, nvars // 2))
        variables = draw(st.permutations(range(nvars)))[:2 * k]
        flips = draw(st.lists(st.integers(0, 1), min_size=2 * k,
                              max_size=2 * k))
        side = [2 * v + f for v, f in zip(variables, flips)]
        a, b = side[:k], side[k:]
        spoil = draw(st.sampled_from(["none", "overlap", "cross",
                                      "negations", "conflict"]))
        if k and spoil == "overlap":
            b[-1] = a[0]
        elif k and spoil == "cross":
            b[0] = a[0] ^ 1
        elif k and spoil == "negations":
            a.append(a[0] ^ 1)
            b.append(b[0] ^ 1)
        elif k and spoil == "conflict":
            a.append(a[0] ^ 1)
            b.append(2 * nvars + draw(st.integers(0, 1)))
        pairs.append((a, b))
    return pairs


def built(build, pairs):
    """The permutations `build` makes of `pairs`, or (index, message) of
    the first pair it refuses."""
    try:
        return build(pairs)
    except SwapError as err:
        return err.index, str(err)


def one_by_one(transpose_pair):
    def build(pairs):
        out = []
        for i, (a, b) in enumerate(pairs):
            try:
                out.append(transpose_pair(a, b))
            except ValueError as err:
                raise SwapError(str(err), i) from None
        return out
    return build


@st.composite
def factor_swaps(draw):
    """The transpositions of m adjacent lines of one width over distinct
    variables, the lines perhaps reordered, reversed, repeated, negated
    or of another width, so that the relations hold or fail; only the pairs
    that can be built."""
    m = draw(st.integers(2, 6))
    width = draw(st.integers(1, 4))
    variables = draw(st.permutations(range(m * width + 2)))
    flips = draw(st.lists(st.integers(0, 1), min_size=len(variables),
                          max_size=len(variables)))
    lits = [2 * v + f for v, f in zip(variables, flips)]
    lines = [lits[i * width:(i + 1) * width] for i in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, m - 1))
        change = draw(st.sampled_from(["reverse", "repeat", "negate",
                                       "swap", "shorten", "extend"]))
        if change == "reverse":
            lines[i] = lines[i][::-1]
        elif change == "repeat":
            lines[i] = list(lines[draw(st.integers(0, m - 1))])
        elif change == "negate":
            lines[i] = [l ^ 1 for l in lines[draw(st.integers(0, m - 1))]]
        elif change == "swap":
            j = draw(st.integers(0, m - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif change == "shorten" and width > 1:
            lines[i] = lines[i][:-1]
        elif change == "extend":
            lines[i] = lines[i] + lits[-1:]
    swaps = []
    for a, b in zip(lines, lines[1:]):
        try:
            swaps.append(ref_transpose(a, b))
        except ValueError:
            pass
    return swaps


@st.composite
def formula_and_far_generator(draw):
    """A formula over up to 12 variables, some unused, with repeated
    clauses of 1-20 literals, and a generator that exchanges formula
    variables (used or not) with variables near 2**20, or with other
    formula variables, perhaps with one 3-cycle.  Clause lengths lie on
    both sides of 63 / bits for both widths."""
    num_vars = draw(st.integers(1, 12))
    lit = st.integers(0, 2 * num_vars - 1)
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=20,
                                     unique=True), max_size=8))
    clauses += draw(st.lists(st.sampled_from(clauses), max_size=2)
                    if clauses else st.just([]))
    own = draw(st.permutations(range(1, num_vars + 1)))
    k = draw(st.integers(1, num_vars))
    if draw(st.booleans()):
        partners = draw(st.lists(st.integers(FAR, FAR + 40), min_size=k,
                                 max_size=k, unique=True))
    else:
        partners = own[k:2 * k]
    image = dict(zip(own, partners))
    image.update(zip(partners, own))
    rest = [v for v in own if v not in image]
    if rest and partners and draw(st.booleans()):
        # the 3-cycle own[0] -> partners[0] -> rest[0] -> own[0] instead
        image[partners[0]], image[rest[0]] = rest[0], own[0]
    src, dst = [], []
    for v, w in image.items():
        sign = draw(st.integers(0, 1))
        src += [pos(v), pos(v) ^ 1]
        dst += [pos(w) ^ sign, pos(w) ^ sign ^ 1]
    return Formula(num_vars, clauses), LiteralPermutation(src, dst)


@st.composite
def formulas(draw):
    """A formula over up to 8 variables, some unused, with repeated and
    empty clauses."""
    num_vars = draw(st.integers(0, 8))
    lit = st.integers(0, max(2 * num_vars - 1, 0))
    clauses = draw(st.lists(st.lists(lit, max_size=5), max_size=10)
                   if num_vars else st.lists(st.just([]), max_size=2))
    clauses += draw(st.lists(st.sampled_from(clauses), max_size=4)
                    if clauses else st.just([]))
    return Formula(num_vars, clauses)


def far_collision():
    """A clause x1 | x513 | x514 whose image under x514 <-> x(2**20 + 514)
    packs, 11 bits to a literal (the width of 2 * num_vars = 1200), to
    the clause's own key: the far literal 2**21 + 1026 ORs onto bit 21,
    which x513 = code 1024 already sets at field 1.  The formula has no
    other clause, so the image is missing and phi is no symmetry."""
    f = Formula(600, [[0, 1024, 1026]])
    return f, transpose([1026], [2 * FAR + 1026])


# ---- tests ---------------------------------------------------------------

@settings(max_examples=400)
@given(line_pairs())
@example([([0], [2]), ([0, 2], [4])])
@example([([0, 1], [2, 4]), ([0, 0], [2, 4])])
@example([([0], [1]), ([2, 3], [4, 5]), ([2], [2])])
def test_builder_matches_transpose_pair_by_pair(pairs):
    got = built(transpositions, pairs)
    assert got == built(one_by_one(transpose), pairs)
    assert got == built(one_by_one(ref_transpose), pairs)
    if isinstance(got, list):
        for phi in got:
            assert phi.support.dtype == phi.images.dtype == np.int32
            assert not phi.support.flags.writeable
            assert not phi.images.flags.writeable


def test_builder_refuses_with_transposes_messages():
    with pytest.raises(SwapError, match="length mismatch: 1 vs 2") as err:
        transpositions([([0], [2]), ([4], [6, 8])])
    assert err.value.index == 1
    with pytest.raises(SwapError, match="duplicate-free") as err:
        transpositions([([0], [2]), ([4, 6], [6, 8]), ([0], [2, 4])])
    assert err.value.index == 1
    with pytest.raises(SwapError, match="conflicting images") as err:
        transpositions([([0, 1], [2, 4])])
    assert err.value.index == 0
    assert transpositions([]) == []


@settings(max_examples=300)
@given(factor_swaps())
# c t_0 c^-1 moves the literals t_1 moves, but pairs them otherwise
@example([ref_transpose([6], [4]), ref_transpose([4], [7])])
def test_conjugation_check_matches_the_loop(swaps):
    if not swaps:
        return
    assert _conjugating_product(swaps) == ref_conjugating_product(swaps)


@settings(max_examples=300)
@given(formula_and_far_generator())
@example(far_collision())
def test_verifier_with_far_images_matches_oracle(case):
    f, phi = case
    assert is_automorphism(f, phi) == clause_multiset_image_check(f, phi)


def test_a_key_width_from_num_vars_alone_accepts_the_far_collision(
        monkeypatch):
    """What the far-image example guards: keys packed at the width of
    2 * num_vars call the missing image present."""
    f, phi = far_collision()
    narrow = (2 * f.num_vars).bit_length()
    keys = cnf._row_keys
    monkeypatch.setattr(cnf, "_row_keys", lambda rows, bits: keys(rows, narrow))
    assert is_automorphism(f, phi)


@settings(max_examples=300)
@given(formulas())
def test_occurrence_index_matches_stable_argsort(f):
    occ, occ_ptr = f._clause_arrays()[3:]
    want_occ, want_ptr = ref_occurrences(f)
    assert occ.dtype == want_occ.dtype
    assert np.array_equal(occ, want_occ)
    assert np.array_equal(occ_ptr, want_ptr)
