"""CNF formulas, DIMACS I/O, and literal permutations.

Literals are encoded as non-negative integers: variable v (1-based) with
positive polarity is 2*(v-1), negative polarity is 2*(v-1)+1.  Negation is
a single XOR with 1.

A symmetry generator is a :class:`LiteralPermutation`: two int32 arrays,
the moved literals in ascending order and their images.  It is closed
under negation when it is built, phi(l ^ 1) == phi(l) ^ 1, so every
consumer, from the verifier to the lex-leader encoder, reads the arrays
as they are.

There is one automorphism verifier, :func:`automorphisms`: it checks a
table of K candidates' literal images, one row each, in one batched
pass; :func:`is_automorphism` is its one-row case.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Iterable

import numpy as np

from . import native


class DimacsError(ValueError):
    """Raised on malformed DIMACS input."""


def pos(var: int) -> int:
    """Positive literal of a 1-based variable."""
    return 2 * (var - 1)


def neg_var(var: int) -> int:
    """Negative literal of a 1-based variable."""
    return 2 * (var - 1) + 1


def var_of(code: int) -> int:
    return code // 2 + 1


# literal codes are int32, so a variable is at most 2**30
MAX_VAR = 1 << 30


class Formula:
    """An immutable CNF formula over literal codes, stored once as CSR.

    ``lens``, ``lits`` and ``starts`` hold every input clause in input
    order, canonicalized (literals ascending, repeats dropped): clause i
    is ``lits[starts[i]:starts[i] + lens[i]]``.  They are what
    :func:`emit_dimacs` writes back.  Symmetry detection works on the
    unique clauses, first occurrences kept in input order; their numpy
    views (``_clause_arrays``, built on first use) are what the model
    graph and the automorphism check read.  ``clauses`` and
    ``unique_clauses`` are the same two clause lists as tuples, built on
    first use for callers that want Python values.

    The clauses come either as an iterable of literal-code iterables or,
    as :func:`parse_dimacs` passes them, as ``lens`` and ``lits`` arrays
    in any literal order.  ``declared`` is the ``(variables, clauses)``
    pair of a DIMACS header, None for a formula built in code.
    """

    def __init__(self, num_vars: int, clauses: Iterable[Iterable[int]] = (),
                 *, lens=None, lits=None, declared=None):
        if lens is None:
            clauses = list(map(tuple, clauses))
            lens = np.fromiter(map(len, clauses), dtype=np.int64,
                               count=len(clauses))
            lits = np.fromiter(chain.from_iterable(clauses), dtype=np.int64,
                               count=int(lens.sum()))
        self.num_vars = num_vars
        self.declared = declared
        self.lens, self.lits = _canonical_clauses(
            np.ascontiguousarray(lens, dtype=np.int64),
            np.ascontiguousarray(lits, dtype=np.int64), num_vars)
        self.starts = np.cumsum(self.lens, dtype=np.int64) - self.lens
        self._arrays = None

    @property
    def num_clauses(self) -> int:
        return len(self.lens)

    # the package reads the arrays; the demos, the tests and
    # `testkit.dpll_count` read these two lists
    @cached_property
    def clauses(self) -> list:
        return _clause_tuples(self.lens, self.lits)

    @cached_property
    def unique_clauses(self) -> list:
        lens, flat = self._clause_arrays()[:2]
        return _clause_tuples(lens, flat)

    def _clause_arrays(self):
        """Numpy views of the unique clauses, built on first use: their
        lengths, their literals back to back (``flat``), the offset of
        each clause in ``flat``, and the clauses holding each literal:
        literal l occurs in clauses ``occ[occ_ptr[l]:occ_ptr[l + 1]]``,
        in ascending order.  Without repeated clauses the first three
        are the input arrays themselves.

        ``occ`` comes from one sort of the int64 keys ``l * m + i``, one
        for each literal l of clause i among the m unique clauses.  A
        clause holds a literal at most once, so the keys are distinct
        and the sort need not be stable; it orders them by literal, then
        by clause, and ``key % m`` is the clause."""
        if self._arrays is None:
            lens, flat, starts = self.lens, self.lits, self.starts
            first = _first_occurrences(lens, flat, starts)
            if not first.all():
                flat = flat[np.repeat(first, lens)]
                lens = lens[first]
                starts = np.cumsum(lens, dtype=np.int64) - lens
            n2 = 2 * self.num_vars
            m = len(lens)
            key = flat.astype(np.int64)
            key *= m
            key += np.repeat(np.arange(m, dtype=np.int64), lens)
            key.sort()
            occ = (key % m).astype(np.int32)
            occ_ptr = np.zeros(n2 + 1, dtype=np.int64)
            np.cumsum(np.bincount(flat, minlength=n2), out=occ_ptr[1:])
            self._arrays = (lens, flat, starts, occ, occ_ptr)
        return self._arrays

    def __repr__(self):
        return f"Formula(num_vars={self.num_vars}, clauses={self.num_clauses})"


def _canonical_clauses(lens, lits, num_vars: int):
    """int32 (lens, lits) of the clauses with each one's literals sorted
    and repeats dropped, by one sort of (clause, literal) keys.  lens and
    lits are contiguous int64.  Clauses already strictly ascending, as
    all DIMACS that symbreak writes is, need no sort: one pass of the C
    `ascending` finds them.  Its twin `_ascending` finds none, so
    without the library every input is sorted."""
    # bounded lengths cannot wrap the int64 sum, so the `ascending`
    # check below reads only lits
    if len(lens) and not 0 <= lens.min() <= lens.max() <= len(lits):
        raise ValueError("clause length negative or beyond the literal "
                         "count")
    if int(lens.sum()) != len(lits):
        raise ValueError("clause lengths do not add up to the literal count")
    top = 0
    if len(lits):
        low, top = int(lits.min()), int(lits.max())
        if low < 0:
            raise ValueError(f"negative literal code {low}")
        if top // 2 + 1 > num_vars:
            raise ValueError(f"clause references variable {top // 2 + 1} "
                             f"> num_vars {num_vars}")
        if top // 2 + 1 > MAX_VAR:
            raise ValueError(f"variable {top // 2 + 1} beyond {MAX_VAR}")
    kernels, addr = native.kernels()
    lens_p, lits_p = addr(lens, lits)
    if kernels.ascending(lens_p, len(lens), lits_p):
        return lens.astype(np.int32), lits.astype(np.int32)
    clause = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    shift = clause * (top + 1)
    key = shift + lits
    key.sort(kind="stable")
    fresh = np.empty(len(key), dtype=bool)
    fresh[:1] = True
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    key -= shift
    if not fresh.all():
        key = key[fresh]
        lens = np.bincount(clause[fresh], minlength=len(lens))
    return lens.astype(np.int32), key.astype(np.int32)


def _ascending(lens, nlens, lits):
    # native.c's `ascending` declining every input: the sort in
    # `_canonical_clauses` is the one Python canonicalizer
    return 0


def _first_occurrences(lens, lits, starts):
    """Mask of the clauses equal to no earlier clause.  Clauses are
    compared one length at a time, each as a single key, by sorting."""
    first = np.ones(len(lens), dtype=bool)
    bits = int(lits.max()).bit_length() if len(lits) else 0
    by_len = np.argsort(lens, kind="stable")
    cut = np.cumsum(np.bincount(lens)).tolist()
    for L, (lo, hi) in enumerate(zip([0] + cut, cut)):
        if hi - lo < 2:
            continue
        idx = by_len[lo:hi]
        if L == 0:
            first[idx[1:]] = False
            continue
        keys = _row_keys(lits[starts[idx][:, None] + np.arange(L)], bits)
        perm = np.argsort(keys)
        ordered = keys[perm]
        run = np.empty(len(keys), dtype=bool)
        run[0] = True
        run[1:] = ordered[1:] != ordered[:-1]
        # each run of equal keys keeps its lowest clause index
        keep = np.zeros(len(keys), dtype=bool)
        keep[np.minimum.reduceat(perm, np.flatnonzero(run))] = True
        first[idx] = keep
    return first


def _clause_tuples(lens, lits) -> list:
    flat = lits.tolist()
    out = []
    at = 0
    for n in lens.tolist():
        out.append(tuple(flat[at:at + n]))
        at += n
    return out


def parse_dimacs(data) -> Formula:
    """Parse DIMACS CNF from bytes, text, or a file-like object.

    The input is read as bytes: bytes, bytearray and binary files as
    they are, str and text files encoded as UTF-8.  Lines and tokens
    split as ``str.splitlines`` and ``str.split`` split the input's
    ASCII decoding, in which each byte above 127 is a replacement
    character: no whitespace, line break or digit.  Blank lines and
    lines starting with ``c`` are skipped.  The header's clause count is
    not checked against the body; the header is kept as
    ``Formula.declared``.

    The kernel `parse` (see native.c) reads the input in a count pass
    and a fill pass.  The C `parse` takes plain input, which is what
    DIMACS writers write; any other input is read once, line by line, by
    `_parse_python`, which gives plain input the same formula and the
    rest its result or its `DimacsError`.  Where the library cannot be
    built, the twin `_parse` declines every input, so `_parse_python`
    reads them all.
    """
    if hasattr(data, "read"):
        data = data.read()
    # surrogatepass: a text file read with surrogateescape holds lone
    # surrogates, which become bytes above 127 like any non-ASCII text
    raw = (data.encode("utf-8", "surrogatepass") if isinstance(data, str)
           else bytes(data))
    kernels, addr = native.kernels()
    info = np.zeros(5, dtype=np.int64)
    if kernels.parse(raw, len(raw), *addr(info, None, None)):
        lens = np.empty(info[2], dtype=np.int64)
        lits = np.empty(info[3], dtype=np.int64)
        if not kernels.parse(raw, len(raw), *addr(info, lens, lits)):
            raise RuntimeError("the parser counted and read the same "
                               "bytes differently")
        header, max_seen = (int(info[0]), int(info[1])), int(info[4])
    else:
        lens, lits, header, max_seen = _parse_python(raw)
    return Formula(max(header[0], max_seen), lens=lens, lits=lits,
                   declared=header)


def _parse(text, n, info, lens, lits):
    # native.c's `parse` declining every input: `parse_dimacs` reads it
    # once with `_parse_python`
    return 0


def _parse_python(raw: bytes):
    """``(lens, lits, header, largest variable)`` of any input, read line
    by line from its ASCII decoding; raises DimacsError for malformed
    input.  Header errors come as the lines are scanned, then the first
    token that is no integer, then the first literal beyond `MAX_VAR`,
    then a missing final ``0``."""
    header = None
    tokens = []
    for line in raw.decode("ascii", "replace").splitlines():
        line = line.strip()
        if not line or line[0] == "c":
            continue
        if line[0] == "p":
            if header is not None:
                raise DimacsError("duplicate header line")
            parts = line.split()
            if len(parts) != 4 or parts[:2] != ["p", "cnf"]:
                raise DimacsError(f"malformed header: {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise DimacsError(
                    f"non-integer header field: {line!r}") from None
            if min(header) < 0:
                raise DimacsError(f"malformed header: {line!r}")
            if header[0] > MAX_VAR:
                raise DimacsError(f"header declares {header[0]} variables, "
                                  f"more than {MAX_VAR}")
        elif header is None:
            raise DimacsError("clause data before 'p cnf' header")
        else:
            tokens += line.split()
    if header is None:
        raise DimacsError("missing 'p cnf' header")

    try:
        vals = list(map(int, tokens))
    except ValueError:
        for tok in tokens:
            try:
                int(tok)
            except ValueError:
                raise DimacsError(f"non-integer token {tok!r}") from None
    if vals and (max(vals) > MAX_VAR or min(vals) < -MAX_VAR):
        tok = next(t for t, v in zip(tokens, vals) if abs(v) > MAX_VAR)
        raise DimacsError(f"literal {tok!r} beyond variable {MAX_VAR}")
    if vals and vals[-1] != 0:
        raise DimacsError(
            "end of input inside a clause (missing terminating 0)")
    vals = np.array(vals, dtype=np.int64)
    is_end = vals == 0
    lens = np.diff(np.flatnonzero(is_end), prepend=-1) - 1
    lits = vals[~is_end]
    lits = 2 * np.abs(lits) - 2 + (lits < 0)
    max_seen = int(lits.max()) // 2 + 1 if len(lits) else 0
    return lens, lits, header, max_seen


def emit_dimacs(formula: Formula, added: Iterable[tuple] = (),
                aux_vars: int = 0, comments: Iterable[str] = ()) -> str:
    """Serialize a formula plus added clauses.

    Original clauses are emitted in their original order; added clauses
    follow.  ``added`` is either an iterable of literal-code tuples or an
    object holding them as CSR arrays ``lens`` and ``lits``, as
    ``breaking.BreakingClauses`` does, written as they are.
    ``comments`` lines are prefixed with ``c symbreak: ``.  The clause
    lines are written by the kernel `emit` (see native.c), in C or its
    twin `_emit`.  Raises ValueError for more than ``MAX_VAR``
    variables, as `parse_dimacs` refuses such a header, and for added
    clause lengths that do not match the literals.
    """
    if hasattr(added, "lens"):
        add_lens, add_lits = added.lens, added.lits
    else:
        added = list(added)
        add_lens = np.fromiter(map(len, added), dtype=np.int64,
                               count=len(added))
        add_lits = np.fromiter(chain.from_iterable(added), dtype=np.int64,
                               count=int(add_lens.sum()))
    num_vars = formula.num_vars + aux_vars
    if num_vars > MAX_VAR:
        raise ValueError(f"{num_vars} variables, more than {MAX_VAR}")
    top = int(add_lits.max()) // 2 + 1 if len(add_lits) else 0
    if len(add_lits) and (add_lits.min() < 0 or top > num_vars):
        raise ValueError("added clause exceeds declared variable range")
    return "".join([
        *(f"c symbreak: {line}\n" for line in comments),
        f"p cnf {num_vars} {formula.num_clauses + len(add_lens)}\n",
        _clause_text(((formula.lens, formula.lits), (add_lens, add_lits)))])


def _clause_text(csr) -> str:
    """The DIMACS lines of each (lens, lits) pair of `csr`, all pairs back
    to back, written by the kernel `emit` into one buffer sized at 12
    bytes a literal and 3 a clause and decoded once.  Every code is
    below 2**31."""
    csr = [(np.ascontiguousarray(lens, dtype=np.int32),
            np.ascontiguousarray(lits, dtype=np.int32))
           for lens, lits in csr]
    buf = np.empty(sum(12 * len(lits) + 3 * len(lens) for lens, lits in csr),
                   dtype=np.uint8)
    kernels, addr = native.kernels()
    k = 0
    for lens, lits in csr:
        lens_p, lits_p, out_p = addr(lens, lits, buf[k:])
        wrote = kernels.emit(lens_p, len(lens), lits_p, len(lits), out_p)
        if wrote < 0:
            raise ValueError("clause lengths do not match the literals")
        k += wrote
    return str(memoryview(buf)[:k], "ascii")


def _emit(lens, nlens, lits, nlits, out):
    # native.c's `emit`: each literal signed and followed by a space,
    # then "0"; an empty clause is " 0"
    lens, lits = lens[:nlens], lits[:nlits]
    if (lens < 0).any() or (lits < 0).any() or int(lens.sum()) != nlits:
        return -1
    var = lits // 2 + 1
    words = list(map(str, np.where(lits & 1, -var, var).tolist()))
    lines = []
    at = 0
    for n in lens.tolist():
        lines.append(" ".join(words[at:at + n]) + " 0\n")
        at += n
    text = "".join(lines).encode("ascii")
    out[:len(text)] = np.frombuffer(text, dtype=np.uint8)
    return len(text)


class LiteralPermutation:
    """A permutation of literal codes closed under negation:
    phi(l ^ 1) == phi(l) ^ 1 for every literal l.  ``support`` holds the
    moved literals in ascending order and ``images`` their images, both
    read-only int32 arrays.  Closure puts both literals of each moved
    variable in the support, side by side, so ``support[0::2]`` are the
    positive ones and ``images[0::2]`` their images.

    Built from parallel arrays ``src`` -> ``dst`` of distinct literals.
    Fixed points are dropped; the rest must be a bijection on the moved
    literals, and a literal given with its negation must go to the
    negation of the negation's image, else ValueError.  A literal not
    given whose negation is moved goes to the negation of that image.
    Two permutations are equal when their arrays are.
    """

    __slots__ = ("support", "images")

    def __init__(self, src=(), dst=()):
        src = np.asarray(src, dtype=np.int32)
        dst = np.asarray(dst, dtype=np.int32)
        moved = src != dst
        src, dst = src[moved], dst[moved]
        by = np.argsort(src)
        src, dst = src[by], dst[by]
        if not np.array_equal(src, np.sort(dst)):
            raise ValueError("mapping is not a bijection on its support")
        # per moved literal, its variable and the image that closure
        # gives the variable's positive literal; a literal and its
        # negation both given are adjacent in src and must agree
        var = src >> 1
        pos_image = dst ^ (src & 1)
        pair = var[1:] == var[:-1]
        if (pos_image[1:][pair] != pos_image[:-1][pair]).any():
            raise ValueError(
                "conflicting images for a literal and its negation")
        var, first = np.unique(var, return_index=True)
        pos_image = pos_image[first]
        self.support = np.stack((2 * var, 2 * var + 1), axis=1).ravel()
        self.images = np.stack((pos_image, pos_image ^ 1), axis=1).ravel()
        self.support.flags.writeable = False
        self.images.flags.writeable = False

    @classmethod
    def _closed(cls, support, images):
        """The permutation holding `support` and `images` as they are,
        unchecked: int32, the support ascending and closed under negation
        as ``__init__`` leaves it.  Both are made read-only."""
        phi = object.__new__(cls)
        support.flags.writeable = images.flags.writeable = False
        phi.support, phi.images = support, images
        return phi

    def __len__(self):
        return len(self.support)

    def _key(self) -> bytes:
        return self.support.tobytes() + self.images.tobytes()

    def __eq__(self, other):
        return (isinstance(other, LiteralPermutation)
                and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"LiteralPermutation({len(self)} moved)"


class SwapError(ValueError):
    """A line pair that cannot be exchanged; ``index`` is its position
    among the pairs given."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def transpose(a: list, b: list) -> LiteralPermutation:
    """Exchange a[i] with b[i], identity elsewhere, closed under
    negation.  The one-pair case of `transpositions`, kept for the demos
    and the tests only: the package builds its swaps with
    `transpositions`."""
    return transpositions([(a, b)])[0]


def transpositions(pairs) -> list:
    """``transpose(a, b)`` for each line pair (a, b) in the sequence
    `pairs`, all built in one validation pass and one closure pass.
    Raises SwapError at the first pair that cannot be exchanged: its
    lines differ in length, hold a literal twice between them, or give
    a literal and its negation images that are not negations.

    The pairs' literals lie back to back, a_i then b_i, each with its
    image (its partner in the other line).  One sort by (pair, literal)
    puts equal literals, and a literal next to its negation, side by
    side within a pair; the first of each variable there gives the
    closure.  Every permutation holds views of two shared arrays."""
    la = [len(a) for a, _ in pairs]
    lb = [len(b) for _, b in pairs]
    cut = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y),
               len(pairs))
    lens = np.array(la[:cut], dtype=np.int64)
    n = 2 * int(lens.sum())
    src = np.fromiter(chain.from_iterable(chain.from_iterable(pairs[:cut])),
                      dtype=np.int64, count=n)
    # each literal's partner sits L positions after it in a_i, before it
    # in b_i
    shift = np.repeat(np.stack((lens, -lens), axis=1).ravel(),
                      np.repeat(lens, 2))
    dst = src[np.arange(n) + shift]
    owner = np.repeat(np.arange(cut), 2 * lens)
    by = np.argsort(owner * (int(src.max(initial=0)) + 1) + src)
    src, dst, owner = src[by], dst[by], owner[by]
    same = owner[1:] == owner[:-1]
    var = src >> 1
    pair = same & (var[1:] == var[:-1])
    # the image closure gives the variable's positive literal; a literal
    # and its negation in one pair must agree on it
    pos_image = dst ^ (src & 1)
    repeated = owner[1:][same & (src[1:] == src[:-1])]
    conflict = owner[1:][pair & (pos_image[1:] != pos_image[:-1])]
    bad = min(repeated.min(initial=cut), conflict.min(initial=cut))
    if bad < cut:
        raise SwapError(
            "lists must be duplicate-free and pairwise disjoint"
            if bad in repeated else
            "conflicting images for a literal and its negation", int(bad))
    if cut < len(pairs):
        raise SwapError(f"length mismatch: {la[cut]} vs {lb[cut]}", cut)
    first = np.ones(n, dtype=bool)
    first[1:] = ~pair
    var, pos_image = var[first], pos_image[first]
    support = np.stack((2 * var, 2 * var + 1), axis=1).ravel().astype(np.int32)
    images = np.stack((pos_image, pos_image ^ 1), axis=1).ravel().astype(
        np.int32)
    ends = np.cumsum(2 * np.bincount(owner[first], minlength=cut)).tolist()
    return [LiteralPermutation._closed(support[s:e], images[s:e])
            for s, e in zip([0] + ends, ends)]


def _row_keys(rows, bits: int):
    """One fixed-width key per row of a 2-D array of sorted clauses whose
    literals are below ``2**bits``; two rows have equal keys exactly when
    they are equal.  Rows of one or two literals are viewed as int32 or
    int64; longer rows are packed, ``bits`` to a literal, into an int64
    when they fit, else viewed as raw bytes, which sort far slower.  Key
    order is not numeric order."""
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    L = rows.shape[1]
    if L == 1:
        return rows.ravel()
    if L == 2:
        return rows.view(np.int64).ravel()
    if L * bits <= 63:
        keys = rows[:, 0].astype(np.int64)
        for j in range(1, L):
            keys <<= bits
            keys |= rows[:, j]
        return keys
    return rows.view(np.dtype((np.void, 4 * L))).ravel()


# the most clause-image entries one block of rows puts through the
# verifier at once; a larger table is checked block by block
BLOCK_ENTRIES = 1 << 20


def automorphisms(formula: Formula, img) -> np.ndarray:
    """Which rows of the image table `img` are symmetries of the formula,
    as a bool array.  `img` is a K x w int32 array, w at least
    ``2 * num_vars``, whose row k maps literal l to ``img[k, l]``; only
    the formula's literals, the first ``2 * num_vars`` columns, are
    read.  Each row must agree there with a permutation of the literal
    codes, which may move them onto literals beyond the formula's
    variables; it need not be closed under negation.

    Only the clauses touching a literal that some row moves are checked;
    the rest are their own images under every row.  A row maps the
    clauses it touches onto clauses that touch its moved literals too,
    and fixes the other checked clauses, so it is a symmetry exactly
    when it maps the checked clauses of each length onto themselves:
    when the sorted keys of their images equal their own sorted keys.
    The formula's keys are sorted once per length for all rows; the rows
    are checked in blocks whose clause images hold at most
    ``BLOCK_ENTRIES`` entries, or one row when a row holds more.

    The keys pack each literal at the width of the largest value a
    clause or its image can hold, ``img.max()``.  That is not
    ``2 * num_vars``: a row may move a formula literal onto one beyond
    the formula's variables, and a narrower width would let that image
    share a key with a clause it differs from.
    """
    img = np.asarray(img, dtype=np.int32)
    n2 = 2 * formula.num_vars
    if img.ndim != 2 or img.shape[1] < n2:
        raise ValueError(f"image table of shape {img.shape} does not "
                         f"cover the formula's {n2} literals")
    img = img[:, :n2]
    ok = np.ones(len(img), dtype=bool)
    moved = np.flatnonzero((img != np.arange(n2, dtype=np.int32)).any(axis=0))
    if not len(moved):
        return ok
    lens, flat, starts, occ, occ_ptr = formula._clause_arrays()
    # the occ ranges of the moved literals, back to back: entry j of range
    # r sits at position first[r] + j and reads occ[lo[r] + j]
    lo = occ_ptr[moved]
    counts = occ_ptr[moved + 1] - lo
    first = np.cumsum(counts) - counts
    at = np.repeat(lo - first, counts) + np.arange(counts.sum())
    hit = np.zeros(len(lens), dtype=bool)
    hit[occ[at]] = True
    touched = np.flatnonzero(hit)
    touched_lens = lens[touched]
    bits = int(img.max()).bit_length()
    groups = []
    for L in np.flatnonzero(np.bincount(touched_lens)).tolist():
        rows = flat[starts[touched[touched_lens == L]][:, None]
                    + np.arange(L)]
        # the keys of one or two literals are views of the rows, so the
        # sort reorders whole clauses, which leaves their multiset alone
        want = _row_keys(rows, bits)
        want.sort()
        groups.append((rows, want))
    entries = sum(rows.size for rows, _ in groups)
    step = max(1, BLOCK_ENTRIES // max(1, entries))
    for k in range(0, len(img), step):
        live = ok[k:k + step]
        for rows, want in groups:
            live &= (_image_keys(img[k:k + step], rows, bits)
                     == want).all(axis=1)
    return ok


def _image_keys(img, rows, bits: int):
    """K x C array: row k holds the sorted keys of the images under
    ``img[k]`` of the C sorted clauses `rows`, all of one length, keyed
    as ``_row_keys`` keys them.  A binary image is ordered by its min
    and max, not sorted."""
    L = rows.shape[1]
    if L == 2:
        a, b = img[:, rows[:, 0]], img[:, rows[:, 1]]
        pair = np.empty(a.shape + (2,), dtype=np.int32)
        np.minimum(a, b, out=pair[..., 0])
        np.maximum(a, b, out=pair[..., 1])
        keys = pair.view(np.int64)[..., 0]
    else:
        images = img[:, rows]
        images.sort(axis=-1)
        keys = _row_keys(images.reshape(-1, L), bits).reshape(len(img), -1)
    keys.sort(axis=1)
    return keys


def is_automorphism(formula: Formula, phi: LiteralPermutation) -> bool:
    """Whether phi is a symmetry of the formula: `automorphisms` of the
    one-row table of phi on the formula's literals.  Literals beyond the
    formula's variables occur in no clause and need no image; a clause
    moved onto one matches no clause."""
    if not len(phi):
        return True
    n2 = 2 * formula.num_vars
    inside = phi.support < n2
    img = np.arange(n2, dtype=np.int32)
    img[phi.support[inside]] = phi.images[inside]
    return bool(automorphisms(formula, img[None])[0])
