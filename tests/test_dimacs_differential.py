"""Differential tests of DIMACS parsing, clause canonicalization and
emission: the array-based implementations in `symbreak.cnf` against the
per-literal Python implementations they replaced, kept here verbatim as
references.  Every generated input must give the same error or the same
formula (variables, clause lists, every `_clause_arrays` array with its
dtype) and the same emitted text.  The parser reads a str or text file
as its UTF-8 bytes, so the reference is given those bytes.

Each case runs on both kernel sets that `native.kernels` chooses
between: the compiled library, which reads plain input and writes every
output in C, and its Python twins `_parse`, `_emit` and `_ascending`.
The twins `_parse` and `_ascending` decline every input, so the C
`parse` is compared directly with `_parse_python`, which then reads the
input, and the C `ascending` with numpy; the twin `_emit` is compared
with the C `emit`."""

import contextlib
import io
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from symbreak import cnf, native
from symbreak.cnf import DimacsError, Formula, emit_dimacs, parse_dimacs
from test_refine import HAVE_C, python_kernel


def io_paths():
    """Context managers for the two kernel sets: the compiled library
    where it is built, then the Python twins."""
    return ([contextlib.nullcontext(), python_kernel()] if HAVE_C
            else [python_kernel()])


# ---- references ----------------------------------------------------------

def ref_from_dimacs_lit(lit: int) -> int:
    if lit > 0:
        return 2 * (lit - 1)
    if lit < 0:
        return 2 * (-lit - 1) + 1
    raise ValueError("literal 0 is the clause terminator, not a literal")


def ref_to_dimacs_lit(code: int) -> int:
    v = code // 2 + 1
    return v if code % 2 == 0 else -v


def ref_canonical_clause(lits) -> tuple:
    return tuple(sorted(set(lits)))


class RefFormula:
    def __init__(self, num_vars, clauses):
        self.clauses = [ref_canonical_clause(c) for c in clauses]
        max_seen = 0
        for c in self.clauses:
            if c:
                max_seen = max(max_seen, c[-1] // 2 + 1)
        if max_seen > num_vars:
            raise ValueError(
                f"clause references variable {max_seen} > num_vars {num_vars}")
        self.num_vars = num_vars
        self.unique_clauses = list(dict.fromkeys(self.clauses))
        self._arrays = None

    def _clause_arrays(self):
        if self._arrays is None:
            unique = self.unique_clauses
            n2 = 2 * self.num_vars
            lens = np.fromiter(map(len, unique), dtype=np.int32,
                               count=len(unique))
            flat = np.fromiter((l for c in unique for l in c),
                               dtype=np.int32, count=int(lens.sum()))
            starts = np.cumsum(lens, dtype=np.int64) - lens
            owner = np.repeat(np.arange(len(unique), dtype=np.int32), lens)
            occ = owner[np.argsort(flat, kind="stable")]
            occ_ptr = np.zeros(n2 + 1, dtype=np.int64)
            np.cumsum(np.bincount(flat, minlength=n2), out=occ_ptr[1:])
            self._arrays = (lens, flat, starts, occ, occ_ptr)
        return self._arrays


def ref_parse_dimacs(data) -> RefFormula:
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, bytes):
        data = data.decode("ascii", errors="replace")

    tokens = []
    header = None
    for line in data.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsError("duplicate header line")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"malformed header: {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise DimacsError(f"non-integer header field: {line!r}")
            if header[0] < 0 or header[1] < 0:
                raise DimacsError(f"malformed header: {line!r}")
            continue
        if header is None:
            raise DimacsError("clause data before 'p cnf' header")
        tokens.extend(line.split())
    if header is None:
        raise DimacsError("missing 'p cnf' header")

    clauses = []
    current = []
    for tok in tokens:
        try:
            lit = int(tok)
        except ValueError:
            raise DimacsError(f"non-integer token {tok!r}")
        if lit == 0:
            clauses.append(current)
            current = []
        else:
            current.append(ref_from_dimacs_lit(lit))
    if current:
        raise DimacsError("end of input inside a clause (missing terminating 0)")

    max_seen = max((max(c) // 2 + 1 for c in clauses if c), default=0)
    num_vars = max(header[0], max_seen)
    return RefFormula(num_vars, clauses)


def ref_emit_dimacs(formula, added=(), aux_vars=0, comments=()) -> str:
    added = list(added)
    num_vars = formula.num_vars + aux_vars
    for c in added:
        for lit in c:
            if lit // 2 + 1 > num_vars:
                raise ValueError("added clause exceeds declared variable range")
    out = []
    for line in comments:
        out.append(f"c symbreak: {line}")
    out.append(f"p cnf {num_vars} {len(formula.clauses) + len(added)}")
    for c in formula.clauses:
        out.append(" ".join(str(ref_to_dimacs_lit(l)) for l in c) + " 0")
    for c in added:
        out.append(" ".join(str(ref_to_dimacs_lit(l)) for l in c) + " 0")
    return "\n".join(out) + "\n"


# ---- generated inputs ----------------------------------------------------

# the non-ASCII separators split a str, but not its UTF-8 bytes, which
# are what the parser reads
SPACES = [" "] * 8 + ["  ", "\t", "\x1f", "\xa0", "\u3000"]
BREAKS = (["\n"] * 10 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85",
                        "\u2028", " "])
# int() accepts these as str, the bulk converter does not; the parser
# reads the non-ASCII digits' bytes, which are no integer
ODD_INTEGERS = ["+1", "+2", "1_0", "-1_1", "-0", "+0", "00", "007",
                "\u0661", "\uff12", "00000000000000000000003"]
NOT_INTEGERS = ["x", "1.5", "--1", "1__0", "_1", "1_", "-", "+", "0x1",
                "1e3", "%", "c", "p", "1-", "\ufffd"]


def _separator(draw):
    return "".join(draw(st.lists(st.sampled_from(SPACES), min_size=1,
                                 max_size=2)))


@st.composite
def header_line(draw, nv, nc):
    return draw(st.sampled_from([f"p cnf {nv} {nc}"] * 24 + [
        f"p  cnf\t{nv} {nc}", f" p cnf {nv} {nc} ", f"p cnf {nv}",
        f"p dnf {nv} {nc}", f"p cnf x {nc}", f"p cnf +{nv} {nc}",
        f"pcnf {nv} {nc}", f"p cnf {nv} {nc} 9", "p", f"p cnf -{nv} {nc}"]))


@st.composite
def dimacs_inputs(draw):
    """DIMACS-like text, mostly valid: comments anywhere, clauses split
    across lines, duplicate literals and clauses, tautologies, empty
    clauses, variables beyond the header, odd and malformed tokens,
    unusual whitespace and line breaks; given as str, bytes or a file."""
    nv = draw(st.integers(0, 6))
    lit = st.integers(1, nv + 3).flatmap(
        lambda v: st.sampled_from([str(v), str(-v)]))
    clauses = draw(st.lists(st.lists(lit, max_size=5), max_size=10))
    if clauses and draw(st.booleans()):
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=3))
    tokens = []
    for c in clauses:
        tokens += c + ["0"]
    if tokens and draw(st.integers(0, 9)) == 0:
        tokens.pop()                        # unterminated last clause
    for _ in range(draw(st.integers(0, 2))):
        odd = draw(st.sampled_from(
            ODD_INTEGERS + NOT_INTEGERS if draw(st.booleans())
            else ODD_INTEGERS))
        tokens.insert(draw(st.integers(0, len(tokens))), odd)

    # the token stream cut into lines
    lines = []
    at = 0
    while at < len(tokens):
        step = draw(st.integers(1, 6))
        lines.append(_separator(draw).join(tokens[at:at + step]))
        at += step
    comment = st.sampled_from(["c", "c comment", "c p cnf 1 1", "cx 1 0",
                               "c\t9 0", "c caf\xe9"])
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.one_of(comment, st.just(""), st.just("  "))))
    nc = draw(st.integers(0, len(clauses) + 2))
    where = draw(st.sampled_from(["top"] * 12 + ["late", "missing", "twice"]))
    if where != "missing":
        head = draw(header_line(nv, nc))
        pos = 0 if where != "late" else draw(st.integers(0, len(lines)))
        lines.insert(pos, head)
        if where == "twice":
            lines.insert(draw(st.integers(pos + 1, len(lines))), head)
    if draw(st.booleans()):
        lines.insert(0, draw(comment))
    text = ""
    for line in lines:
        text += line + draw(st.sampled_from(BREAKS))
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")          # no final line break

    kind = draw(st.sampled_from(["str", "bytes", "text file", "byte file"]))
    if kind == "str":
        return text
    if kind == "text file":
        return io.StringIO(text)
    raw = text.encode("utf-8")
    return raw if kind == "bytes" else io.BytesIO(raw)


def _rewind(data):
    if hasattr(data, "seek"):
        data.seek(0)
    return data


def _outcome(parse, data):
    try:
        return parse(_rewind(data)), None
    except DimacsError as exc:
        return None, str(exc)


def _as_bytes(data):
    """The input with a str or text file replaced by its UTF-8 bytes,
    given the same way."""
    if isinstance(data, str):
        return data.encode("utf-8")
    if isinstance(data, io.StringIO):
        return io.BytesIO(data.getvalue().encode("utf-8"))
    return data


def _as_text(data) -> str:
    if hasattr(data, "getvalue"):
        data = data.getvalue()
    return data if isinstance(data, str) else data.decode("utf-8")


def assert_same_formula(new, ref):
    assert new.num_vars == ref.num_vars
    assert new.clauses == ref.clauses
    assert new.unique_clauses == ref.unique_clauses
    for got, want in zip(new._clause_arrays(), ref._clause_arrays(),
                         strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@st.composite
def added_clauses(draw, num_vars):
    aux = draw(st.integers(0, 3))
    top = 2 * (num_vars + aux)
    if not top:
        return [], aux
    lit = st.integers(0, top - 1)
    return draw(st.lists(st.lists(lit, max_size=4).map(tuple),
                         max_size=6)), aux


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dimacs_inputs(), st.data())
def test_parse_and_emit_match_reference(data, draw):
    ref, ref_err = _outcome(ref_parse_dimacs, _as_bytes(data))
    added, aux = ([], 0) if ref_err else draw.draw(
        added_clauses(ref.num_vars))
    comments = ["static", "structure row 3x2"]
    for path in io_paths():
        with path:
            new, err = _outcome(parse_dimacs, data)
            assert err == ref_err
            if err is not None:
                continue
            assert_same_formula(new, ref)
            assert emit_dimacs(new) == ref_emit_dimacs(ref)
            assert (emit_dimacs(new, added, aux, comments)
                    == ref_emit_dimacs(ref, added, aux, comments))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(dimacs_inputs())
def test_str_parses_as_its_utf8_bytes(data):
    text = _as_text(data)
    for path in io_paths():
        with path:
            new, err = _outcome(parse_dimacs, text)
            want, want_err = _outcome(parse_dimacs, text.encode("utf-8"))
        assert err == want_err
        if err is None:
            assert_same_formula(new, want)
            assert new.declared == want.declared


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda nv: st.tuples(
    st.just(nv),
    st.lists(st.lists(st.integers(0, 2 * nv + 1), max_size=5),
             max_size=12))))
def test_formula_from_clause_lists_matches_reference(case):
    nv, clauses = case
    try:
        ref = RefFormula(nv, clauses)
    except ValueError:
        with pytest.raises(ValueError):
            Formula(nv, clauses)
        return
    assert_same_formula(Formula(nv, clauses), ref)


def test_added_clause_out_of_range_matches_reference():
    f = Formula(2, [[0]])
    for added in ([(4,)], [(0, 2), (5,)]):
        with pytest.raises(ValueError):
            ref_emit_dimacs(f, added)
        for path in io_paths():
            with path, pytest.raises(ValueError):
                emit_dimacs(f, added)


def test_duplicate_header_after_many_comments_matches_reference():
    """The header search visits only the lines that start with p, so a
    second header far down the comments is still found, and before any
    clause data."""
    comments = "".join(f"c comment {i}\n" for i in range(1000))
    for text in ("p cnf 2 1\n" + comments + "p cnf 2 1\n1 2 0\n",
                 comments + "p cnf 2 1\n" + comments + "p cnf 3 1\n1 0\n",
                 comments + "p cnf 2 1\n1 2 0\n" + comments
                 + "p cnf 2 1\n"):
        for data in (text, text.encode()):
            ref, ref_err = _outcome(ref_parse_dimacs, _as_bytes(data))
            for path in io_paths():
                with path:
                    new, err = _outcome(parse_dimacs, data)
                assert err == ref_err == "duplicate header line"


def test_large_formula_matches_reference():
    """Many clauses of mixed lengths, with repeats: the bulk paths (one
    key per clause, one C pass each way) at a size the generated inputs
    do not reach."""
    rng = np.random.default_rng(7)
    nv = 300
    lines = [f"p cnf {nv} 0"]
    for _ in range(3000):
        k = int(rng.integers(0, 7))
        lits = rng.integers(1, nv + 1, size=k) * rng.choice([-1, 1], size=k)
        lines.append(" ".join(map(str, lits)) + " 0")
    lines += lines[1:200]
    text = "\n".join(lines) + "\n"
    ref = ref_parse_dimacs(text)
    added = [tuple(int(x) for x in rng.integers(0, 2 * nv, size=3))
             for _ in range(100)]
    for path in io_paths():
        with path:
            new = parse_dimacs(text)
            assert_same_formula(new, ref)
            assert emit_dimacs(new, added) == ref_emit_dimacs(ref, added)
            assert Counter(new.unique_clauses) == Counter(set(new.clauses))


def test_sparse_wide_variables_match_reference():
    """Few literals over variables far apart, up to the widest literal
    texts; a formula declaring more than 2**30 variables, whose codes
    would not fit int32, is refused on both paths, as the reader refuses
    its header."""
    for path in io_paths():
        with path:
            text = "p cnf 3 3\n1 -1234567 0\n-3 1000000 0\n1 -1234567 0\n"
            new, ref = parse_dimacs(text), ref_parse_dimacs(text)
            assert_same_formula(new, ref)
            assert emit_dimacs(new) == ref_emit_dimacs(ref)
            # the largest variable a literal code holds; its clause index
            # would take gigabytes, so only the text is compared
            text = "p cnf 3 2\n1073741824 -3 0\n-1073741824 2 0\n"
            new, ref = parse_dimacs(text), ref_parse_dimacs(text)
            added = [(2 * 1073741824 - 1, 0)]
            assert emit_dimacs(new, added) == ref_emit_dimacs(ref, added)
            assert emit_dimacs(new) == (
                "p cnf 1073741824 2\n-3 1073741824 0\n2 -1073741824 0\n")
            added = [(2 * cnf.MAX_VAR, 1), (2 * cnf.MAX_VAR + 1,)]
            with pytest.raises(ValueError, match="more than 1073741824"):
                emit_dimacs(new, added, aux_vars=1)


# inputs on the edge of what the C reader takes as plain; the rest go to
# `_parse_python`, which must give them its own result or error
BOUNDARY = {
    "plus-sign": (b"p cnf 5 1\n+5 -1 0\n", False),
    "minus-zero": (b"p cnf 2 2\n1 -0 2 0\n", True),
    "leading-zeros": (b"p cnf 007 1\n0003 -01 0\n", True),
    "ten-digits": (b"p cnf 3 1\n0000000003 0\n", True),
    "eleven-digits": (b"p cnf 3 1\n00000000003 0\n", False),
    "beyond-max-var": (b"p cnf 3 1\n1073741825 0\n", False),
    "beyond-max-var-negative": (b"p cnf 3 1\n-1073741825 0\n", False),
    "cr-only": (b"c x\rp cnf 3 2\r1 -2 0\r3\r0\r", True),
    "crlf": (b"p cnf 3 2\r\n1 -2 0\r\n\r\n3 0", True),
    "tabs": (b"\tp\tcnf\t3 1 \n\t1\t-3\t0\t\n", True),
    "vertical-tab": (b"p cnf 3 1\x0b1 2 0\n", False),
    "form-feed": (b"p cnf 3 1\n1\x0c2 0\n", False),
    "file-separator": (b"p cnf 3 2\n1 2 0\x1c3 0\n", False),
    "vertical-tab-in-comment": (b"p cnf 3 1\nc x\x0b1 2 0\n", False),
    "high-byte-in-comment": (b"c caf\xe9\np cnf 2 1\n1 2 0\n", True),
    "delete-in-comment": (b"c \x7f\x7f\np cnf 2 1\n1 2 0\n", True),
    "delete-in-data": (b"p cnf 2 1\n1 2\x7f 0\n", False),
    "high-byte-in-data": (b"p cnf 2 1\n1 2\xe9 0\n", False),
    "p-line-after-data": (b"c x\n1 0\np cnf 2 1\n", False),
    "duplicate-header": (b"p cnf 2 1\np cnf 2 1\n1 0\n", False),
    "header-after-data": (b"p cnf 2 2\n1 0\np cnf 2 1\n", False),
    "header-beyond-max-var": (b"p cnf 1073741825 1\n1 0\n", False),
    "header-at-max-var": (b"p cnf 1073741824 0\n", True),
    "header-beyond-int64": (b"p cnf 2 99999999999999999999\n1 -2 0\n",
                            False),
    "header-word": (b"px cnf 2 1\n1 0\n", False),
    "header-negative-vars": (b"p cnf -2 1\n1 2 0\n", False),
    "header-negative-clauses": (b"p cnf 2 -1\n1 2 0\n", False),
    "header-signed": (b"p cnf +2 1\n1 0\n", False),
    "header-extra-field": (b"p cnf 2 1 9\n1 0\n", False),
    "header-only": (b"p cnf 2 0", True),
    "missing-header": (b"c x\n", False),
    "missing-final-zero": (b"p cnf 2 1\n1 2\n", False),
    "satlib-percent": (b"p cnf 2 1\n1 2 0\n%\n0\n\n", False),
    "comment-after-data": (b"p cnf 2 1\n1\nc 5 x\n2 0\ncp\n", True),
}


def parse_passes(raw: bytes):
    """What the kernel `parse` that `native.kernels` picks gives raw: the
    count pass's return value and info, then, if it took the input, the
    fill pass's return value and the lens and lits it wrote."""
    kernels, addr = native.kernels()
    info = np.zeros(5, dtype=np.int64)
    took = kernels.parse(raw, len(raw), *addr(info, None, None))
    if not took:
        return took, info.tolist()
    lens = np.empty(info[2], dtype=np.int64)
    lits = np.empty(info[3], dtype=np.int64)
    filled = kernels.parse(raw, len(raw), *addr(info, lens, lits))
    return took, info.tolist(), filled, lens.tolist(), lits.tolist()


def assert_c_parse_matches_reader(raw: bytes):
    """Both passes of the C `parse` take raw and give what
    `_parse_python` reads from it: the header, the clause and literal
    counts and the largest variable in info, then lens and lits.
    Returns the passes."""
    passes = parse_passes(raw)
    assert passes[0] == 1 and passes[2] == 1
    lens, lits, header, top = cnf._parse_python(raw)
    assert passes[1] == [*header, len(lens), len(lits), top]
    assert passes[3] == lens.tolist() and passes[4] == lits.tolist()
    return passes


@pytest.mark.parametrize("raw, plain", BOUNDARY.values(), ids=BOUNDARY)
def test_plain_boundary_matches_numpy(raw, plain):
    """Each input gives the Python path's exact error or the same
    formula, and the C reader takes exactly the plain ones."""
    with io_paths()[-1]:
        want, want_err = _outcome(parse_dimacs, raw)
    if not HAVE_C:
        pytest.skip("no compiled library")
    assert parse_passes(raw)[0] == plain
    new, err = _outcome(parse_dimacs, raw)
    assert err == want_err
    if err is None:
        assert new.num_vars == want.num_vars
        assert new.declared == want.declared
        for got, expect in ((new.lens, want.lens), (new.lits, want.lits)):
            assert got.dtype == expect.dtype
            assert np.array_equal(got, expect)
        assert new.clauses == ref_parse_dimacs(raw).clauses


@pytest.mark.parametrize("name", ["header-word", "header-negative-vars",
                                  "header-negative-clauses"])
def test_malformed_header_is_refused(name):
    """A header whose first word is not ``p``, or whose count is
    negative, is refused on both kernel paths and by the reference."""
    raw = BOUNDARY[name][0]
    error = f"malformed header: {raw.decode().splitlines()[0]!r}"
    assert _outcome(ref_parse_dimacs, raw) == (None, error)
    for path in io_paths():
        with path:
            assert _outcome(parse_dimacs, raw) == (None, error)


# inputs that break two rules at once, with the error raised: the header
# as the lines are scanned, then each token's int(), then the literal
# range, then the final 0; the reference knows no variable limit
PRECEDENCE = {
    "header-beyond-max-var-then-duplicate": (
        b"p cnf 1073741825 1\np cnf 2 1\n",
        "header declares 1073741825 variables, more than 1073741824"),
    "header-beyond-max-var-then-token": (
        b"p cnf 1073741825 1\nx 0\n",
        "header declares 1073741825 variables, more than 1073741824"),
    "token-then-beyond-max-var": (
        b"p cnf 3 1\n1073741825 x 0\n", "non-integer token 'x'"),
    "beyond-max-var-then-missing-zero": (
        b"p cnf 3 1\n1 -1073741825\n",
        "literal '-1073741825' beyond variable 1073741824"),
}


@pytest.mark.parametrize("raw, error", PRECEDENCE.values(), ids=PRECEDENCE)
def test_error_precedence(raw, error):
    for path in io_paths():
        with path:
            assert _outcome(parse_dimacs, raw) == (None, error)


# the two widest literal texts: variable 2**30, positive and negative
WIDEST = [2 * (1 << 30) - 2, 2 * (1 << 30) - 1]


@st.composite
def clause_arrays(draw):
    lens = draw(st.lists(st.integers(0, 4), max_size=12))
    code = st.one_of(st.integers(0, 2 * 120), st.sampled_from(WIDEST))
    lits = draw(st.lists(code, min_size=sum(lens), max_size=sum(lens)))
    return np.array(lens, dtype=np.int32), np.array(lits, dtype=np.int32)


@pytest.mark.skipif(not HAVE_C, reason="no compiled library")
@pytest.mark.parametrize(
    "raw", [raw for raw, plain in BOUNDARY.values() if plain],
    ids=[name for name, (_, plain) in BOUNDARY.items() if plain])
def test_parse_twin_matches_c(raw):
    """On plain input the C `parse` gives, in its count pass and its
    fill pass, what `_parse_python` reads; that reader is what the twin
    `_parse`, declining, leaves every input to."""
    assert_c_parse_matches_reader(raw)


@pytest.mark.parametrize("raw", [raw for raw, _ in BOUNDARY.values()],
                         ids=BOUNDARY)
def test_python_kernels_read_each_input_once(raw):
    """Without the library `parse_dimacs` reads each input, plain or
    not, with one call of `_parse_python`, whose result or error it
    gives."""
    with python_kernel(), mock.patch.object(
            cnf, "_parse_python", wraps=cnf._parse_python) as reader:
        _outcome(parse_dimacs, raw)
    assert reader.call_count == 1


@st.composite
def csr_arrays(draw):
    """int64 CSR clauses of up to 4 literals over few codes: unsorted,
    with repeated literals and empty clauses, or each clause sorted
    without repeats."""
    clauses = draw(st.lists(st.lists(st.integers(0, 9), max_size=4),
                            max_size=8))
    if draw(st.booleans()):
        clauses = [sorted(set(c)) for c in clauses]
    lens = np.array([len(c) for c in clauses], dtype=np.int64)
    lits = np.array([l for c in clauses for l in c], dtype=np.int64)
    return lens, lits


@pytest.mark.skipif(not HAVE_C, reason="no compiled library")
@settings(max_examples=300, deadline=None)
@given(csr_arrays())
def test_c_ascending_matches_numpy(csr):
    """The C `ascending` finds every clause strictly ascending exactly
    when numpy does."""
    lens, lits = csr
    lib = native.native_kernel()
    want = all((np.diff(c) > 0).all()
               for c in np.split(lits, np.cumsum(lens)[:-1]))
    assert lib.ascending(*native._ptrs(lens), len(lens),
                         *native._ptrs(lits)) == want


@st.composite
def emit_arrays(draw):
    """int32 CSR arrays for `emit`: those of `clause_arrays`, or lengths
    and codes drawn apart, which may be negative or not add up."""
    if draw(st.booleans()):
        return draw(clause_arrays())
    lens = draw(st.lists(st.integers(-1, 4), max_size=6))
    lits = draw(st.lists(st.integers(-1, 2 * 120), max_size=12))
    return np.array(lens, dtype=np.int32), np.array(lits, dtype=np.int32)


@pytest.mark.skipif(not HAVE_C, reason="no compiled library")
@settings(max_examples=300, deadline=None)
@given(emit_arrays())
def test_emit_twin_matches_c(csr):
    """The twin `_emit` returns what the C `emit` returns, -1 included,
    and writes the same bytes when it writes."""
    lens, lits = csr
    size = 12 * len(lits) + 3 * len(lens)
    lib = native.native_kernel()
    c_out = np.zeros(size, dtype=np.uint8)
    py_out = np.zeros(size, dtype=np.uint8)
    wrote = lib.emit(*native._ptrs(lens), len(lens), *native._ptrs(lits),
                     len(lits), *native._ptrs(c_out))
    assert cnf._emit(lens, len(lens), lits, len(lits), py_out) == wrote
    if wrote >= 0:
        assert c_out.tobytes() == py_out.tobytes()


@pytest.mark.skipif(not HAVE_C, reason="no compiled library")
@settings(max_examples=300, deadline=None)
@given(st.lists(clause_arrays(), min_size=1, max_size=3))
def test_native_emit_matches_clause_lines(csr):
    """The C writer gives its twin's clause lines for empty, one-literal
    and widest-literal clauses, within its 12-bytes-a-literal and
    3-bytes-a-clause buffer."""
    text = cnf._clause_text(csr)
    with python_kernel():
        assert text == cnf._clause_text(csr)
    assert len(text) <= sum(12 * len(lits) + 3 * len(lens)
                            for lens, lits in csr)


@pytest.mark.skipif(not HAVE_C, reason="no compiled library")
def test_native_emit_fills_its_bound():
    """Empty clauses and the widest literals fill the buffer but for the
    one byte that a non-empty clause's end leaves."""
    lens = np.array([0, 0, 2, 0], dtype=np.int32)
    lits = np.array(WIDEST[1:] * 2, dtype=np.int32)
    text = cnf._clause_text([(lens, lits)])
    assert text == " 0\n 0\n-1073741824 -1073741824 0\n 0\n"
    assert len(text) == 12 * 2 + 3 * 4 - 1


@pytest.mark.parametrize("lens, lits", [
    ([3], [0, 1]), ([1], [0, 1]), ([-1, 2], [0]), ([1], [-2])],
    ids=["short", "long", "negative-length", "negative-code"])
def test_native_emit_refuses_malformed_arrays(lens, lits):
    """Both kernels refuse clause lengths that do not match the
    literals, and a negative length or code, and so does `emit_dimacs`
    for such added clauses."""
    lens = np.array(lens, dtype=np.int32)
    lits = np.array(lits, dtype=np.int32)
    added = SimpleNamespace(lens=lens, lits=lits)
    for path in io_paths():
        with path:
            with pytest.raises(ValueError, match="do not match"):
                cnf._clause_text([(lens, lits)])
            with pytest.raises(ValueError, match="do not match"
                               if lits.min() >= 0 else "exceeds"):
                emit_dimacs(Formula(3, [(0, 2)]), added)


@pytest.mark.skipif(not HAVE_C, reason="no compiled library")
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda nv: st.tuples(
    st.just(nv),
    st.lists(st.lists(st.integers(0, 2 * nv - 1), max_size=5),
             max_size=8))), st.data())
def test_emitted_dimacs_is_plain(case, draw):
    """What `emit_dimacs` writes, with the comments symbreak writes, is
    read back by the C reader as `_parse_python` reads it."""
    nv, clauses = case
    formula = Formula(nv, clauses)
    added, aux = draw.draw(added_clauses(nv))
    text = emit_dimacs(formula, added, aux, ["structure row 3x2"])
    passes = assert_c_parse_matches_reader(text.encode())
    info, lens = passes[1], passes[3]
    assert info[:2] == [nv + aux, len(clauses) + len(added)]
    assert lens == [len(c) for c in formula.clauses] + [
        len(c) for c in added]
