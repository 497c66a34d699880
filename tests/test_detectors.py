"""Structure detectors: row, row-column, Johnson, and the fallbacks."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import symbreak.detectors as detectors
from symbreak.cnf import Formula, is_automorphism, neg_var, pos, transpose
from symbreak.detectors import (DetectionFailure, Structure, _triangular_n,
                                _verified_factor, detect_johnson,
                                detect_row_blocks, detect_row_column,
                                stabilizer_recursion)
from symbreak.modelgraph import build_model_graph
from symbreak.pipeline import _polarity_split_base, negation_class_of, run
from symbreak.refine import IRSession, initial_coloring, refine_stable
from symbreak.testkit import (edge_index, gen_cliquecolor,
                              gen_cycle_coloring, gen_php, gen_ramsey)


def stable_base(formula):
    graph = build_model_graph(formula)
    return graph, refine_stable(graph, initial_coloring(graph)).coloring


def literal_classes(graph, pi):
    return [c for c in pi.classes()
            if pi.clen[c] > 1 and pi.order[c] < graph.num_literal_vertices]


def class_of(pi, lit):
    return int(pi.color[lit])


def covered_orbit_sizes(pi, s):
    """Sizes of the classes of `pi` that the literals of `s` and their
    negations cover, ascending."""
    covered = set(s.literals) | {l ^ 1 for l in s.literals}
    return sorted(Counter(int(pi.color[u]) for u in covered).values())


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
        assert len(set(s.literals)) == 16

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
        assert st.dims[0] == rows
        assert all(is_automorphism(f, g) for g in st.generators)
        # each row carries its own block of 2 (both polarities)
        width = st.dims[1]
        for i in range(rows):
            row = st.literals[i * width:(i + 1) * width]
            vars_in_row = set(l // 2 + 1 for l in row)
            assert any(s(k, 0) in vars_in_row and s(k, 1) in vars_in_row
                       for k in range(rows))


def ref_detect_row_blocks(formula, graph, pi, sigma):
    """The row detector as it was before rows were checked one at a
    time: probe every member of sigma, then check overlap and lengths,
    then verify the consecutive-row transpositions.  Kept, comments
    aside, as the reference for the differential tests below."""
    members = pi.class_members(sigma).tolist()
    if len(members) < 3:
        return DetectionFailure("size gate: |sigma| < 3")
    if any(v >= graph.num_literal_vertices for v in members):
        return DetectionFailure("sigma is not a literal class")

    sigma_size = len(members)
    block_classes = [(c, int(pi.clen[c]) // sigma_size)
                     for c in pi.classes()
                     if pi.clen[c] > sigma_size
                     and pi.clen[c] % sigma_size == 0
                     and pi.order[c] < graph.num_literal_vertices]
    session = IRSession(graph, pi)
    rows = []
    for v in members:
        rep = session.individualize(v)
        refined = rep.coloring
        pieces = [(int(refined.color[u]), [u])
                  for u in range(graph.num_literal_vertices)
                  if refined.clen[refined.color[u]] == 1
                  and pi.clen[pi.color[u]] > 1]
        pieces.extend((cprime, frag.tolist())
                      for c, want in block_classes
                      for cprime, frag in rep.fragments(c)
                      if len(frag) == want)
        pieces.sort(key=lambda p: p[0])
        rows.append([u for _, piece in pieces for u in piece])

    flat = [u for row in rows for u in row]
    if len(set(flat)) != len(flat):
        return DetectionFailure("overlapping rows")
    if len(set(len(r) for r in rows)) != 1:
        return DetectionFailure("unequal row lengths")

    generators = []
    for i in range(1, len(rows)):
        try:
            phi = transpose(rows[i - 1], rows[i])
        except ValueError:
            return DetectionFailure("verification failed")
        if not is_automorphism(formula, phi):
            return DetectionFailure("verification failed")
        generators.append(phi)

    return Structure("row", (len(rows), len(rows[0])), flat, generators)


def assert_same_rows(got, want):
    if isinstance(want, DetectionFailure):
        assert isinstance(got, DetectionFailure), got
        return
    assert not isinstance(got, DetectionFailure), got.reason
    assert got.dims == want.dims
    assert got.literals == want.literals
    assert got.generators == want.generators


def assert_rows_match_reference(formula):
    """Both row detectors on every literal class of the stable
    coloring; returns how many attempts found a structure."""
    graph, base = stable_base(formula)
    found = 0
    for sigma in literal_classes(graph, base):
        want = ref_detect_row_blocks(formula, graph, base, sigma)
        assert_same_rows(detect_row_blocks(formula, graph, base, sigma),
                         want)
        found += not isinstance(want, DetectionFailure)
    return found


@st.composite
def row_like_formulas(draw):
    """Copies of one clause template over rows of `width` variables,
    optionally a clause over each row's first variable, and a few stray
    clauses that may break the row symmetry."""
    rows = draw(st.integers(3, 5))
    width = draw(st.integers(1, 3))
    num_vars = rows * width
    local = st.integers(0, 2 * width - 1)
    template = draw(st.lists(st.lists(local, min_size=1, max_size=3),
                             min_size=1, max_size=3))
    clauses = [[2 * r * width + l for l in c]
               for r in range(rows) for c in template]
    if draw(st.booleans()):
        clauses.append([2 * r * width for r in range(rows)])
    lit = st.integers(0, 2 * num_vars - 1)
    clauses += draw(st.lists(st.lists(lit, min_size=1, max_size=3),
                             max_size=2))
    return Formula(num_vars, clauses)


class TestRowBlocksMatchReference:
    @pytest.mark.parametrize("make, found", [
        (lambda: row_instance(4), 4),
        (lambda: row_instance(6), 4),
        (lambda: attached_blocks_instance(4), 2),
        (lambda: gen_php(4), 0),
        (lambda: gen_php(5), 0),
    ] + [(lambda n=n, k=k: gen_cycle_coloring(n, k), 0)
         for n in (9, 20, 41) for k in (3, 4)],
        ids=["row4", "row6", "attached-blocks", "php4", "php5"]
        + [f"c{n}-{k}coloring" for n in (9, 20, 41) for k in (3, 4)])
    def test_structured(self, make, found):
        assert assert_rows_match_reference(make()) == found

    def test_via_stabilizer_recursion(self):
        f = two_copy_instance(3)
        graph, base = stable_base(f)
        for sigma in literal_classes(graph, base):
            want = stabilizer_recursion(f, graph, base, sigma,
                                        [("row", ref_detect_row_blocks)])
            got = stabilizer_recursion(f, graph, base, sigma,
                                       [("row", detect_row_blocks)])
            assert_same_rows(got, want)
        sigma = class_of(base, pos(1))
        assert not isinstance(
            stabilizer_recursion(f, graph, base, sigma,
                                 [("row", detect_row_blocks)]),
            DetectionFailure)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(row_like_formulas())
    def test_drawn_formulas(self, f):
        assert_rows_match_reference(f)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(row_like_formulas())
def test_row_literals_closed_under_negation(f):
    """The pipeline covers a structure's literals and their negations;
    for a row structure that adds nothing, because an individualized
    literal singles out its negation and the negation of a size-matched
    fragment is a size-matched fragment of the negation class."""
    graph, base = stable_base(f)
    for sigma in literal_classes(graph, base):
        for s in (detect_row_blocks(f, graph, base, sigma),
                  stabilizer_recursion(f, graph, base, sigma,
                                       [("row", detect_row_blocks)])):
            if not isinstance(s, DetectionFailure):
                lits = set(s.literals)
                assert {l ^ 1 for l in lits} == lits


def counted_probes(monkeypatch):
    """The vertices passed to `IRSession.individualize`, as it runs."""
    calls = []
    individualize = IRSession.individualize

    def counted(self, v):
        calls.append(v)
        return individualize(self, v)

    monkeypatch.setattr(IRSession, "individualize", counted)
    return calls


def test_refuted_row_attempt_stops_after_two_probes(monkeypatch):
    """C41 4-coloring's 164-member literal classes fit no row shape;
    each attempt is refuted by its second row."""
    calls = counted_probes(monkeypatch)
    f = gen_cycle_coloring(41, 4)
    graph, base = stable_base(f)
    big = [c for c in literal_classes(graph, base) if base.clen[c] == 164]
    assert big
    for sigma in big:
        calls.clear()
        res = detect_row_blocks(f, graph, base, sigma)
        assert isinstance(res, DetectionFailure)
        assert res.reason.endswith("at row 1")
        assert len(calls) <= 2


def recorded_verifications(monkeypatch):
    """The generators passed to the detectors' verifier, as it runs."""
    verify = detectors.is_automorphism
    checked = []

    def recorded(formula, phi):
        checked.append(phi)
        return verify(formula, phi)

    monkeypatch.setattr(detectors, "is_automorphism", recorded)
    return checked


def ref_verified_factor(formula, pairs, t0=None):
    """The transposition of each line pair of a factor built and
    verified in turn, as the detectors did before a factor was verified
    through its first swap and its cycle.  Kept as the reference for
    the differential tests below; `t0` is ignored and verified again."""
    generators = []
    for i, (a, b) in enumerate(pairs):
        try:
            phi = transpose(a, b)
        except ValueError:
            return i
        if not is_automorphism(formula, phi):
            return i
        generators.append(phi)
    return generators


def with_reference_factor(detect):
    """`detect` with each factor verified by ref_verified_factor."""
    def reference(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detectors, "_verified_factor", ref_verified_factor)
            return detect(*args)
    return reference


def assert_same_result(got, want):
    """Same decision, reason, shape and generator arrays."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, DetectionFailure):
        assert got.reason == want.reason
        return
    assert (got.kind, got.dims) == (want.kind, want.dims)
    assert got.literals == want.literals
    assert got.generators == want.generators


def assert_factors_match_reference(formula):
    """The row-column and row detectors, with factors verified through
    their cycle and by the reference, on every literal class of the
    stable coloring, directly and through stabilizer recursion;
    returns how many attempts found a structure."""
    graph, base = stable_base(formula)
    found = 0
    for sigma in literal_classes(graph, base):
        for detect in (detect_row_column, detect_row_blocks):
            want = with_reference_factor(detect)(formula, graph, base, sigma)
            assert_same_result(detect(formula, graph, base, sigma), want)
            found += not isinstance(want, DetectionFailure)
        pairs = [("row-column", detect_row_column), ("row", detect_row_blocks)]
        want = with_reference_factor(stabilizer_recursion)(
            formula, graph, base, sigma, pairs)
        assert_same_result(
            stabilizer_recursion(formula, graph, base, sigma, pairs), want)
        found += not isinstance(want, DetectionFailure)
    return found


@st.composite
def row_column_formulas(draw):
    """php-like formulas over a rows x cols matrix of variables: any of
    a clause per row over its cells, pairwise exclusion within each
    column, and pairwise exclusion within each row."""
    rows = draw(st.integers(3, 6))
    cols = draw(st.integers(3, 6))

    def cell(r, c):
        return 2 * (r * cols + c)

    kinds = draw(st.sets(st.sampled_from(["row-or", "col-amo", "row-amo"]),
                         min_size=1))
    clauses = []
    if "row-or" in kinds:
        clauses += [[cell(r, c) for c in range(cols)] for r in range(rows)]
    if "col-amo" in kinds:
        clauses += [[cell(r, c) ^ 1, cell(s, c) ^ 1] for c in range(cols)
                    for r in range(rows) for s in range(r + 1, rows)]
    if "row-amo" in kinds:
        clauses += [[cell(r, c) ^ 1, cell(r, d) ^ 1] for r in range(rows)
                    for c in range(cols) for d in range(c + 1, cols)]
    return Formula(rows * cols, clauses)


@st.composite
def perturbed(draw, formulas):
    """A drawn formula as it is, with one clause dropped, or with the
    polarity of one literal occurrence flipped."""
    f = draw(formulas)
    clauses = [list(c) for c in f.clauses]
    how = draw(st.sampled_from(["keep", "drop", "flip"]))
    if how != "keep" and clauses:
        i = draw(st.integers(0, len(clauses) - 1))
        if how == "drop":
            del clauses[i]
        else:
            j = draw(st.integers(0, len(clauses[i]) - 1))
            clauses[i][j] ^= 1
    return Formula(f.num_vars, clauses)


class TestFactorsMatchReference:
    """Verifying a symmetric factor through t_0 and its cycle decides as
    verifying each adjacent transposition does, with the same reason
    and the same generator arrays."""

    @pytest.mark.parametrize("make, found", [
        (lambda: gen_php(3), 0),
        (lambda: gen_php(4), 2),
        (lambda: gen_php(5), 2),
        (lambda: gen_php(6), 2),
        (lambda: gen_php(7), 2),
        (lambda: row_instance(4), 8),
        (lambda: row_instance(6), 8),
        (lambda: attached_blocks_instance(4), 4),
        (lambda: two_copy_instance(3), 4),
    ], ids=["php3", "php4", "php5", "php6", "php7", "row4", "row6",
            "attached-blocks", "two-copy"])
    def test_structured(self, make, found):
        assert assert_factors_match_reference(make()) == found

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(perturbed(row_column_formulas()))
    def test_drawn_row_column_formulas(self, f):
        assert_factors_match_reference(f)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(perturbed(row_like_formulas()))
    def test_drawn_row_formulas(self, f):
        assert_factors_match_reference(f)


def rows_of(f, width):
    """The positive literals of `f`'s variables, `width` to a row."""
    return [[2 * (r * width + j) for j in range(width)]
            for r in range(f.num_vars // width)]


def adjacent(lines):
    """The pairs of consecutive lines, as the row detectors pass them."""
    return list(zip(lines, lines[1:]))


class TestVerifiedFactor:
    def spied(self, monkeypatch):
        """The results of _conjugating_product, as they are made."""
        seen = []
        product = detectors._conjugating_product

        def recorded(swaps):
            seen.append(product(swaps))
            return seen[-1]

        monkeypatch.setattr(detectors, "_conjugating_product", recorded)
        return seen

    def test_two_verifications_for_a_symmetric_factor(self, monkeypatch):
        f = row_instance(5)
        checked = recorded_verifications(monkeypatch)
        rows = rows_of(f, 2)
        pairs = adjacent(rows)
        got = _verified_factor(f, pairs)
        assert got == ref_verified_factor(f, pairs) and len(got) == 4
        assert checked[0] == got[0] and len(checked) == 2
        # the second is the row cycle
        cycle = dict(zip(checked[1].support.tolist(),
                         checked[1].images.tolist()))
        assert [cycle[row[0]] for row in rows] == [
            row[0] for row in rows[1:] + rows[:1]]

    def test_refuted_row_is_located(self, monkeypatch):
        """A unit clause on the last row leaves t_0 an automorphism but
        not the cycle; the first refuted swap is found by verifying the
        others in turn."""
        f = row_instance(4)
        f = Formula(f.num_vars, f.clauses + [[pos(7)]])
        seen = self.spied(monkeypatch)
        pairs = adjacent(rows_of(f, 2))
        assert _verified_factor(f, pairs) == ref_verified_factor(f, pairs) == 2
        assert seen[0] is not None

    def test_broken_relations_fall_back(self, monkeypatch):
        """With row 1 repeated after a reversed row 2, t_1 t_2 is the
        identity, so the product is t_0, an automorphism; the relations
        fail, and verifying each swap finds t_1 refuted."""
        f = row_instance(3)
        rows = rows_of(f, 2)
        pairs = adjacent([rows[0], rows[1], rows[2][::-1], rows[1]])
        seen = self.spied(monkeypatch)
        assert _verified_factor(f, pairs) == ref_verified_factor(f, pairs) == 1
        assert seen == [None]

    def test_unbuildable_swap_falls_back(self, monkeypatch):
        """Lines that hold a literal and its negation at positions whose
        partners disagree cannot be exchanged; the index is the first
        swap that fails, whether by verification or by construction."""
        f = row_instance(4)
        rows = rows_of(f, 2)
        pairs = adjacent([rows[0], rows[1], [rows[2][0], rows[2][0] ^ 1],
                          rows[3]])
        seen = self.spied(monkeypatch)
        assert _verified_factor(f, pairs) == ref_verified_factor(f, pairs) == 1
        assert seen == []

    def test_given_first_swap_is_not_verified_again(self, monkeypatch):
        f = row_instance(4)
        pairs = adjacent(rows_of(f, 2))
        t0 = transpose(*pairs[0])
        checked = recorded_verifications(monkeypatch)
        assert _verified_factor(f, pairs, t0) == ref_verified_factor(f, pairs)
        assert t0 not in checked and len(checked) == 1


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
        assert len(set(s.literals)) == 20

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


def ref_detect_row_column(formula, graph, pi, sigma):
    """The row-column detector as it was before its labels were kept in
    slot-indexed arrays: coordinates in per-vertex dicts, cells in a
    dict keyed by label pair.  Kept, comments aside, as the reference
    for the differential tests below."""
    members = pi.class_members(sigma).tolist()
    if any(v >= graph.num_literal_vertices for v in members):
        return DetectionFailure("sigma is not a literal class")
    if int(pi.color[members[0] ^ 1]) == sigma:
        return DetectionFailure("self-negating orbit")

    v = members[0]
    session = IRSession(graph, pi)
    rep_v = session.individualize(v)
    frags = rep_v.fragments(sigma)
    if len(frags) != 4:
        return DetectionFailure(f"fragment count {len(frags)} != 4")
    frags.sort(key=lambda f: (len(f[1]), f[0]))
    if len(frags[0][1]) != 1 or frags[0][1][0] != v:
        return DetectionFailure("pivot is not the singleton fragment")
    sigma1 = frags[1][1].tolist()
    sigma2 = frags[2][1].tolist()
    if len(sigma1) < 2 or len(sigma2) < 2:
        return DetectionFailure("degenerate row or column fragment")

    col_of = {v: v}
    row_of = {v: v}
    for r in sigma1:
        row_of[r] = v
        col_of[r] = r
    for c in sigma2:
        col_of[c] = v
        row_of[c] = c

    def assign(rep, want_size, target, ref):
        skip = (int(rep.coloring.color[v]), int(rep.coloring.color[ref]))
        cand = [frag for c, frag in rep.fragments(sigma)
                if len(frag) == want_size and c not in skip]
        if len(cand) != 1:
            return False
        for t in cand[0].tolist():
            if t in target:
                return False
            target[t] = ref
        return True

    for r in sigma1:
        rep_r = session.individualize(r)
        if not assign(rep_r, len(sigma2), col_of, r):
            return DetectionFailure("missing size-matched fragment")
    for c in sigma2:
        rep_c = session.individualize(c)
        if not assign(rep_c, len(sigma1), row_of, c):
            return DetectionFailure("missing size-matched fragment")

    row_labels = [v] + sigma2
    col_labels = [v] + sigma1
    if set(row_of) != set(members) or set(col_of) != set(members):
        return DetectionFailure("malformed matrix: unassigned cells")
    cells = {}
    for t in members:
        key = (row_of[t], col_of[t])
        if key in cells:
            return DetectionFailure("malformed matrix: duplicate label pair")
        cells[key] = t
    if len(cells) != len(row_labels) * len(col_labels):
        return DetectionFailure("malformed matrix: wrong cell count")
    try:
        matrix = [[cells[(r, c)] for c in col_labels] for r in row_labels]
    except KeyError:
        return DetectionFailure("malformed matrix: missing cell")

    columns = list(zip(*matrix))
    generators = []
    for lines in (columns, matrix):
        swaps = _verified_factor(formula, adjacent(lines))
        if isinstance(swaps, int):
            return DetectionFailure("verification failed")
        generators.extend(swaps)

    return Structure("row-column", (len(row_labels), len(col_labels)),
                     [t for row in matrix for t in row], generators)


def assert_row_column_matches_reference(formula):
    """Both row-column detectors on every literal class of the stable
    coloring, directly and through stabilizer recursion; returns the
    reasons of the reference's attempts, None for a found structure."""
    graph, base = stable_base(formula)
    reasons = []
    for sigma in literal_classes(graph, base):
        want = ref_detect_row_column(formula, graph, base, sigma)
        assert_same_result(detect_row_column(formula, graph, base, sigma),
                           want)
        reasons.append(getattr(want, "reason", None))
        want = stabilizer_recursion(formula, graph, base, sigma,
                                    [("row-column", ref_detect_row_column)])
        assert_same_result(
            stabilizer_recursion(formula, graph, base, sigma,
                                 [("row-column", detect_row_column)]), want)
        reasons.append(getattr(want, "reason", None))
    return reasons


class TestRowColumnMatchesReference:
    """The slot-indexed row-column detector decides as the dict-based
    one does, with the same reason, dims, literals and generators."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_php(self, n):
        reasons = assert_row_column_matches_reference(gen_php(n))
        assert reasons.count(None) == (0 if n == 3 else 2)

    @pytest.mark.parametrize("n, m", [(4, 3), (5, 3), (6, 4), (3, 5),
                                      (4, 6), (7, 5)])
    def test_rectangular_php(self, n, m):
        assert_row_column_matches_reference(gen_php(n, m))

    @pytest.mark.parametrize("n, steps, reason", [
        (7, (1,), "missing size-matched fragment"),
        (14, (2,), "recursion failed: row-column: "
                   "missing size-matched fragment"),
        (6, (1,), "degenerate row or column fragment"),
        (12, (1, 2, 5), None),
    ])
    def test_circulants(self, n, steps, reason):
        """(x_u | x_w) for each edge of the circulant graph on n vertices
        with the given steps.  In the 7-cycle a pivot splits off three
        pairs, and a head finds two pairs of the wanted size away from
        the pivot."""
        f = Formula(n, [[2 * u, 2 * ((u + s) % n)]
                        for u in range(n) for s in steps])
        assert reason in assert_row_column_matches_reference(f)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(perturbed(row_column_formulas()))
    def test_drawn_row_column_formulas(self, f):
        assert_row_column_matches_reference(f)


class TestRowColumnProbes:
    """`detect_row_column` labels the grid with one off-axis probe per
    row or column pair, stopped once the pivot's class holds four
    classes."""

    def test_php_probes_once_per_longer_line(self, monkeypatch):
        calls = []
        individualize = IRSession.individualize

        def tracked(self, v, until=None):
            calls.append(until)
            return individualize(self, v, until)

        monkeypatch.setattr(IRSession, "individualize", tracked)
        f = gen_php(9, 7)
        graph, base = stable_base(f)
        sigma = literal_classes(graph, base)[0]
        s = detect_row_column(f, graph, base, sigma)
        assert sorted(s.dims) == [7, 9]
        # the pivot, then one stopped probe per line of the longer side
        # but the pivot's
        assert calls == [None] + [(sigma, 4)] * 8


def test_triangular_n_inverts_binomial():
    for n in range(2, 20_000):
        k = n * (n - 1) // 2
        assert _triangular_n(k) == n
        assert _triangular_n(k + 1) is None
        if n > 2:
            assert _triangular_n(k - 1) is None


class TestDetectJohnson:
    def test_ramsey8_after_polarity_split(self):
        f = gen_ramsey(3, 3, 8)
        graph, base = stable_base(f)
        sigma = literal_classes(graph, base)[0]
        assert negation_class_of(base, sigma) == sigma  # self-negating
        split, sig = _polarity_split_base(graph, base, sigma)
        s = detect_johnson(f, graph, split, sig)
        assert not isinstance(s, DetectionFailure)
        assert s.dims == (8,)
        assert len(s.generators) == 7
        assert all(is_automorphism(f, g) for g in s.generators)
        # one literal per label pair, every member of the class labeled
        assert sorted(s.literals) == sorted(split.class_members(sig).tolist())

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

    @pytest.mark.parametrize("make, reason", [
        (lambda: gen_php(4), "size gate: |sigma| < 28"),       # 12
        (lambda: gen_php(6), "|sigma| is not a binomial(n, 2)"),  # 30
    ], ids=["php4", "php6"])
    def test_gates_refuse_before_any_session(self, make, reason,
                                             monkeypatch):
        f = make()
        graph, base = stable_base(f)
        sigma = class_of(base, pos(1))
        sessions = []
        monkeypatch.setattr(detectors, "IRSession",
                            lambda *args: sessions.append(args))
        s = detect_johnson(f, graph, base, sigma)
        assert isinstance(s, DetectionFailure) and s.reason == reason
        assert not sessions

    def test_cliquecolor_needs_extension(self):
        f = gen_cliquecolor(8, 3, 2)
        graph, base = stable_base(f)
        classes = literal_classes(graph, base)
        sigma = max(classes, key=lambda c: base.clen[c])
        others = [c for c in classes if c != sigma]
        s = detect_johnson(f, graph, base, sigma, other_colors=others)
        assert not isinstance(s, DetectionFailure)
        assert s.dims == (8,)
        assert len(s.generators) == 7
        assert all(is_automorphism(f, g) for g in s.generators)
        # the 28 edges plus color blocks (8 x 2) and clique-slot blocks
        # (8 x 3), each orbit with its negation orbit
        assert covered_orbit_sizes(base, s) == [16, 16, 24, 24, 28, 28]

    @pytest.mark.parametrize("make", [
        lambda: gen_cliquecolor(8, 3, 2),
        lambda: gen_cliquecolor(10, 3, 2),
        lambda: gen_cliquecolor(12, 4, 3),
    ], ids=["cliquecolor832", "cliquecolor1032", "cliquecolor1243"])
    def test_bare_label_swap_fails_once_blocks_exist(self, make):
        """Each accepted orbit comes back as an n x block-size matrix.
        Individualizing a member of label 1's block splits off label 1's
        literals, and the bare swap of labels 1 and 2 fixes that member
        but maps them onto label 2's, so it is no automorphism."""
        f = make()
        graph, base = stable_base(f)
        classes = literal_classes(graph, base)
        sigma = max(classes, key=lambda c: base.clen[c])
        session = IRSession(graph, base)
        pair_lit = detectors._johnson_labeling(
            session, sigma, _triangular_n(int(base.clen[sigma])))
        n = len(pair_lit) - 1
        extensions = detectors.detect_johnson_row_extension(
            session, pair_lit, [c for c in classes if c != sigma])
        assert extensions
        for blocks in extensions:
            tau = class_of(base, blocks[0, 0])
            assert blocks.shape == (n, base.clen[tau] // n)
            assert sorted(blocks.ravel().tolist()) == sorted(
                base.class_members(tau).tolist())
        label_1 = pair_lit[1][pair_lit[1] >= 0]
        frags = session.individualize(extensions[0][0, 0]).fragments(sigma)
        assert sorted(min((m for _, m in frags), key=len).tolist()) == \
            sorted(label_1.tolist())
        others = list(range(3, n + 1))
        assert not is_automorphism(
            f, transpose(pair_lit[1, others], pair_lit[2, others]))

    def test_wide_blocks_paired_by_pinned_colors(self):
        """cliquecolor(12,6,5) has blocks of 6 clique slots and 5 colors
        per label, too many orderings to search for the pairing of two
        labels' blocks."""
        f = gen_cliquecolor(12, 6, 5)
        graph, base = stable_base(f)
        sigma = class_of(base, pos(1))
        others = [c for c in literal_classes(graph, base) if c != sigma]
        s = detect_johnson(f, graph, base, sigma, other_colors=others)
        assert not isinstance(s, DetectionFailure)
        assert s.dims == (12,)
        assert len(s.generators) == 11
        assert all(is_automorphism(f, g) for g in s.generators)
        assert covered_orbit_sizes(base, s) == [60, 60, 66, 66, 72, 72]

    def test_bare_generators_fail_without_extension(self):
        f = gen_cliquecolor(8, 3, 2)
        graph, base = stable_base(f)
        classes = literal_classes(graph, base)
        sigma = max(classes, key=lambda c: base.clen[c])
        s = detect_johnson(f, graph, base, sigma, other_colors=())
        assert isinstance(s, DetectionFailure)


class TestStabilizerRecursion:
    def test_recursion_recovers_row_symmetry(self):
        f = two_copy_instance()
        graph, base = stable_base(f)
        sigma = class_of(base, pos(1))
        assert base.clen[sigma] == 6
        direct = detect_row_blocks(f, graph, base, sigma)
        assert isinstance(direct, DetectionFailure)
        s = stabilizer_recursion(f, graph, base, sigma,
                                 [("johnson", detect_johnson),
                                  ("row-column", detect_row_column),
                                  ("row", detect_row_blocks)])
        assert not isinstance(s, DetectionFailure)
        assert s.dims[0] == 3
        assert all(is_automorphism(f, g) for g in s.generators)

    def test_singleton_fragment_fails(self):
        f = Formula(2, [[pos(1), pos(2)]])
        graph, base = stable_base(f)
        sigma = class_of(base, pos(1))
        s = stabilizer_recursion(f, graph, base, sigma,
                                 [("row", detect_row_blocks)])
        assert isinstance(s, DetectionFailure)


def scrambled(f, seed):
    """`f` with its variables renamed at random and its clauses and
    their literals shuffled."""
    rng = random.Random(seed)
    perm = list(range(f.num_vars))
    rng.shuffle(perm)
    clauses = [[2 * perm[l // 2] + l % 2 for l in c] for c in f.clauses]
    for c in clauses:
        rng.shuffle(c)
    rng.shuffle(clauses)
    return Formula(f.num_vars, clauses)


def structure_shapes(f):
    return sorted((s.kind, sorted(s.dims)) for s in run(f).structures)


@pytest.mark.parametrize("make", [
    lambda: gen_cliquecolor(10, 3, 2),
    lambda: gen_cliquecolor(12, 4, 3),
    lambda: scrambled(gen_cliquecolor(10, 3, 2), 0),
    lambda: scrambled(gen_cliquecolor(12, 4, 3), 1),
], ids=["cliquecolor1032", "cliquecolor1243", "scrambled-cliquecolor1032",
        "scrambled-cliquecolor1243"])
def test_johnson_factor_matches_reference(make):
    """Verifying the label transpositions through the first and the
    label cycle finds the structure, literals and generators that
    verifying each in turn finds, on every literal class."""
    f = make()
    graph, base = stable_base(f)
    classes = literal_classes(graph, base)
    found = 0
    for sigma in classes:
        others = [c for c in classes if c != sigma]
        want = with_reference_factor(detect_johnson)(f, graph, base, sigma,
                                                     others)
        assert_same_result(detect_johnson(f, graph, base, sigma, others),
                           want)
        found += not isinstance(want, DetectionFailure)
    assert found


@pytest.mark.parametrize("make, shapes", [
    (lambda: gen_php(6), [("row-column", [5, 6])]),
    (lambda: gen_ramsey(3, 3, 8), [("johnson", [8])]),
    (lambda: gen_cliquecolor(10, 3, 2), [("johnson", [10])]),
    (lambda: gen_cliquecolor(10, 4, 3), [("johnson", [10])]),
    (lambda: gen_cliquecolor(10, 5, 4), [("johnson", [10])]),
    (lambda: two_copy_instance(3), [("row", [3, 4])]),
    (lambda: attached_blocks_instance(4), [("row", [4, 6])]),
    (lambda: gen_cycle_coloring(9, 3), []),
], ids=["php6", "ramsey338", "cliquecolor1032", "cliquecolor1043",
        "cliquecolor1054", "two-copy", "attached-blocks", "c9-3coloring"])
def test_renaming_keeps_structure_shapes(make, shapes):
    """Metamorphic: renaming variables and reordering clauses and
    literals keeps the kinds and sorted dims of the found structures.
    Polarity flips are left out: they can make Johnson miss ramsey
    instances, whose self-negating class is split by literal parity."""
    f = make()
    assert structure_shapes(f) == shapes
    for seed in range(8):
        assert structure_shapes(scrambled(f, seed)) == shapes


def ref_detect_johnson_row_extension(session, pair_lit, other_colors):
    """Johnson row extension as it was before block-mates shared a
    probe: every member of a candidate class is individualized and
    labeled by its own probe.  Kept, comments aside, as the reference
    for the differential tests below."""
    n = len(pair_lit) - 1
    pi = session.base
    sigma = int(pi.color[pair_lit[1, 2]])
    label_of = {row.tobytes(): i for i, row in enumerate(
        np.sort(pair_lit[1:], axis=1)[:, 2:].astype(pi.order.dtype), 1)}
    accepted = []
    accepted_colors = set()
    for tau in other_colors:
        members = pi.class_members(tau)
        size = len(members)
        if size < n or size % n:
            continue
        if negation_class_of(pi, tau) in accepted_colors:
            continue
        labels = np.zeros(size, dtype=np.int64)
        for k, t in enumerate(members.tolist()):
            rep = session.individualize(t)
            if k == 0:
                ref_color = rep.coloring.color[members]
            frags = rep.fragments(sigma)
            if len(frags) != 2:
                break
            small = min((mem for _, mem in frags), key=len)
            labels[k] = label_of.get(np.sort(small).tobytes(), 0)
            if not labels[k]:
                break
        if (np.bincount(labels, minlength=n + 1)[1:] == size // n).all():
            by = np.lexsort((members, ref_color, labels))
            accepted.append(members[by].reshape(n, size // n))
            accepted_colors.add(tau)
    return accepted


def cyclic_blocks_instance(n=8, b=3):
    """Edges of K_n under the positive triangle clauses, plus per vertex
    i a block of b variables y_i0 -> y_i1 -> ... -> y_i0 in a cycle of
    implications, each implying every edge at i.  Individualizing y_ia
    splits off the edges at i, so the y literals extend J_n in blocks of
    b, but it tells y_ia's block-mates apart by their distance along the
    cycle, so for b > 2 they never form one fragment."""
    e = n * (n - 1) // 2

    def y(i, a):
        return e + (i - 1) * b + a % b + 1

    clauses = [[pos(edge_index(u, v, n)), pos(edge_index(u, w, n)),
                pos(edge_index(v, w, n))]
               for u, v, w in itertools.combinations(range(1, n + 1), 3)]
    for i in range(1, n + 1):
        for a in range(b):
            clauses.append([neg_var(y(i, a)), pos(y(i, a + 1))])
            clauses.extend([neg_var(y(i, a)),
                            pos(edge_index(min(i, j), max(i, j), n))]
                           for j in range(1, n + 1) if j != i)
    return Formula(e + n * b, clauses)


def johnson_labelings(f):
    """(graph, base, sigma, pair_lit) for each literal class of the
    stable coloring that `_johnson_labeling` labels."""
    graph, base = stable_base(f)
    found = []
    for sigma in literal_classes(graph, base):
        n = _triangular_n(int(base.clen[sigma]))
        if n is None or n < 8:
            continue
        pair_lit = detectors._johnson_labeling(IRSession(graph, base),
                                               sigma, n)
        if not isinstance(pair_lit, DetectionFailure):
            found.append((graph, base, sigma, pair_lit))
    return found


JOHNSON_EXTENSIONS = [(10, 3, 2), (40, 3, 2), (10, 4, 3), (12, 4, 3),
                      (10, 5, 4), (12, 6, 5)]


class TestRowExtensionMatchesReference:
    @pytest.mark.parametrize("make", [
        lambda a=a: gen_cliquecolor(*a) for a in JOHNSON_EXTENSIONS
    ] + [
        lambda a=a, seed=seed: scrambled(gen_cliquecolor(*a), seed)
        for seed, a in enumerate(JOHNSON_EXTENSIONS)
    ] + [cyclic_blocks_instance],
        ids=[f"cliquecolor{''.join(map(str, a))}"
             for a in JOHNSON_EXTENSIONS]
        + [f"scrambled-cliquecolor{''.join(map(str, a))}"
           for a in JOHNSON_EXTENSIONS] + ["cyclic-blocks"])
    def test_same_block_matrices(self, make):
        labelings = johnson_labelings(make())
        assert labelings
        for graph, base, sigma, pair_lit in labelings:
            others = [c for c in literal_classes(graph, base) if c != sigma]
            session = IRSession(graph, base)
            want = ref_detect_johnson_row_extension(session, pair_lit,
                                                    others)
            got = detectors.detect_johnson_row_extension(session, pair_lit,
                                                         others)
            assert want
            assert [g.tolist() for g in got] == [w.tolist() for w in want]

    @staticmethod
    def extension_probes(f, monkeypatch):
        """The block matrices of the extension of the Johnson class of
        `f`'s first positive literal, and the members probed."""
        graph, base = stable_base(f)
        sigma = class_of(base, pos(1))
        session = IRSession(graph, base)
        pair_lit = detectors._johnson_labeling(
            session, sigma, _triangular_n(int(base.clen[sigma])))
        others = [c for c in literal_classes(graph, base) if c != sigma]
        calls = counted_probes(monkeypatch)
        return (detectors.detect_johnson_row_extension(session, pair_lit,
                                                       others), calls)

    def test_one_probe_per_block(self, monkeypatch):
        """cliquecolor(40,3,2) extends J_40 by 3 clique slots and 2
        colors per vertex: 40 blocks each, and 200 members."""
        extensions, calls = self.extension_probes(gen_cliquecolor(40, 3, 2),
                                                  monkeypatch)
        assert [e.shape for e in extensions] == [(40, 3), (40, 2)]
        assert len(calls) == 80

    def test_split_block_mates_are_probed_each(self, monkeypatch):
        """The cyclic blocks' mates fall into singletons under a probe,
        so each of the 24 members is probed and labeled by its own."""
        f = cyclic_blocks_instance()
        extensions, calls = self.extension_probes(f, monkeypatch)
        assert [e.shape for e in extensions] == [(8, 3)]
        assert sorted(calls) == sorted(extensions[0].ravel().tolist())
        graph, base = stable_base(f)
        sigma = class_of(base, pos(1))
        others = [c for c in literal_classes(graph, base) if c != sigma]
        s = detect_johnson(f, graph, base, sigma, others)
        assert not isinstance(s, DetectionFailure)
        assert covered_orbit_sizes(base, s) == [24, 24, 28, 28]


@pytest.mark.parametrize("make", [
    lambda: gen_cliquecolor(10, 3, 2),
    lambda: gen_ramsey(3, 3, 8),
], ids=["cliquecolor1032", "ramsey338"])
def test_labeling_never_reprobes_the_held_vertex(make, monkeypatch):
    """`_johnson_labeling` pushes w onto the session that its adjacency
    probe of v left holding v, instead of individualizing v again."""
    f = make()
    graph, base = stable_base(f)
    sigma = class_of(base, pos(1))
    if negation_class_of(base, sigma) == sigma:
        base, sigma = _polarity_split_base(graph, base, sigma)
    held = []
    reprobed = []
    individualize, push = IRSession.individualize, IRSession.push

    def tracked_individualize(self, v):
        if held == [v]:
            reprobed.append(v)
        # a rollback, then v alone is held, whether or not the probe
        # runs through push
        report = individualize(self, v)
        held[:] = [v]
        return report

    def tracked_push(self, v):
        held.append(v)
        return push(self, v)

    monkeypatch.setattr(IRSession, "individualize", tracked_individualize)
    monkeypatch.setattr(IRSession, "push", tracked_push)
    n = _triangular_n(int(base.clen[sigma]))
    pair_lit = detectors._johnson_labeling(IRSession(graph, base), sigma, n)
    assert not isinstance(pair_lit, DetectionFailure)
    assert held
    assert not reprobed
