"""CNF formulas, DIMACS I/O, and literal permutations.

Literals are encoded as non-negative integers: variable v (1-based) with
positive polarity is 2*(v-1), negative polarity is 2*(v-1)+1.  Negation is
a single XOR with 1.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

import numpy as np


class DimacsError(ValueError):
    """Raised on malformed DIMACS input."""


def pos(var: int) -> int:
    """Positive literal of a 1-based variable."""
    return 2 * (var - 1)


def neg_var(var: int) -> int:
    """Negative literal of a 1-based variable."""
    return 2 * (var - 1) + 1


def negate(code: int) -> int:
    return code ^ 1

def var_of(code: int) -> int:
    return code // 2 + 1


def is_positive(code: int) -> bool:
    return code % 2 == 0


def from_dimacs_lit(lit: int) -> int:
    """Convert a signed DIMACS literal to its code."""
    if lit > 0:
        return 2 * (lit - 1)
    if lit < 0:
        return 2 * (-lit - 1) + 1
    raise ValueError("literal 0 is the clause terminator, not a literal")


def to_dimacs_lit(code: int) -> int:
    v = code // 2 + 1
    return v if code % 2 == 0 else -v


def canonical_clause(lits: Iterable[int]) -> tuple:
    """Sorted, duplicate-free clause over literal codes."""
    return tuple(sorted(set(lits)))


class Formula:
    """An immutable CNF formula over literal codes.

    ``clauses`` keeps every input clause (canonicalized) in original order
    for verbatim re-emission.  ``unique_clauses`` drops duplicates, keeping
    first occurrences in order, and is what symmetry detection works on.
    Its numpy views (``_clause_arrays``, built on first use) are what the
    model graph and the automorphism check read.
    """

    def __init__(self, num_vars: int, clauses: Iterable[Iterable[int]]):
        self.clauses = [canonical_clause(c) for c in clauses]
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
        """Numpy views of the unique clauses, built on first use: their
        lengths, their literals back to back (``flat``), the offset of
        each clause in ``flat``, and the clauses holding each literal:
        literal l occurs in clauses ``occ[occ_ptr[l]:occ_ptr[l + 1]]``,
        in ascending order."""
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

    def __repr__(self):
        return f"Formula(num_vars={self.num_vars}, clauses={len(self.clauses)})"


def parse_dimacs(data) -> Formula:
    """Parse DIMACS CNF from bytes, text, or a file-like object."""
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, bytes):
        data = data.decode("ascii", errors="replace")

    tokens: list[str] = []
    header = None
    for line in data.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsError("duplicate header line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed header: {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise DimacsError(f"non-integer header field: {line!r}")
            continue
        if header is None:
            raise DimacsError("clause data before 'p cnf' header")
        tokens.extend(line.split())
    if header is None:
        raise DimacsError("missing 'p cnf' header")

    clauses = []
    current: list[int] = []
    for tok in tokens:
        try:
            lit = int(tok)
        except ValueError:
            raise DimacsError(f"non-integer token {tok!r}")
        if lit == 0:
            clauses.append(current)
            current = []
        else:
            current.append(from_dimacs_lit(lit))
    if current:
        raise DimacsError("end of input inside a clause (missing terminating 0)")

    max_seen = max((max(c) // 2 + 1 for c in clauses if c), default=0)
    num_vars = max(header[0], max_seen)
    return Formula(num_vars, clauses)


def emit_dimacs(formula: Formula, added: Iterable[tuple] = (),
                aux_vars: int = 0, comments: Iterable[str] = ()) -> str:
    """Serialize a formula plus added clauses.

    Original clauses are emitted in their original order; added clauses
    follow.  ``comments`` lines are prefixed with ``c symbreak: ``.
    """
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
        out.append(" ".join(str(to_dimacs_lit(l)) for l in c) + " 0")
    for c in added:
        out.append(" ".join(str(to_dimacs_lit(l)) for l in c) + " 0")
    return "\n".join(out) + "\n"


class LiteralPermutation:
    """A sparse bijection on literal codes, storing only moved points."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: dict):
        m = {k: v for k, v in mapping.items() if k != v}
        if set(m.values()) != set(m.keys()):
            raise ValueError("mapping is not a bijection on its support")
        self.mapping = m

    @property
    def support(self):
        return self.mapping.keys()

    def image(self, lit: int) -> int:
        return self.mapping.get(lit, lit)

    def is_identity(self) -> bool:
        return not self.mapping

    def is_negation_consistent(self) -> bool:
        m = self.mapping
        return all(m.get(l ^ 1, l ^ 1) == m[l] ^ 1 for l in m)

    def inverse(self) -> "LiteralPermutation":
        return LiteralPermutation({v: k for k, v in self.mapping.items()})

    def compose(self, other: "LiteralPermutation") -> "LiteralPermutation":
        """Permutation applying self first, then other."""
        keys = set(self.mapping) | set(other.mapping)
        return LiteralPermutation({k: other.image(self.image(k)) for k in keys})

    def __eq__(self, other):
        return isinstance(other, LiteralPermutation) and self.mapping == other.mapping

    def __hash__(self):
        return hash(frozenset(self.mapping.items()))

    def __repr__(self):
        return f"LiteralPermutation({len(self.mapping)} moved)"


def transpose(a: list, b: list) -> LiteralPermutation:
    """Exchange a[i] with b[i]; identity elsewhere.

    The result is not necessarily negation-consistent; apply :func:`fix`
    to close it under negation.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    sa, sb = set(a), set(b)
    if len(sa) != len(a) or len(sb) != len(b) or sa & sb:
        raise ValueError("lists must be duplicate-free and pairwise disjoint")
    mapping = {}
    for x, y in zip(a, b):
        mapping[x] = y
        mapping[y] = x
    return LiteralPermutation(mapping)


def fix(phi: LiteralPermutation) -> LiteralPermutation:
    """Negation-consistent closure of a permutation.

    Literals in the support keep their image; a literal whose negation is
    in the support is mapped to the negation of that image.
    """
    m = dict(phi.mapping)
    for l, img in phi.mapping.items():
        nl = l ^ 1
        if nl in phi.mapping:
            if phi.mapping[nl] != img ^ 1:
                raise ValueError(
                    f"conflicting images for literal {l} and its negation")
        else:
            m[nl] = img ^ 1
    return LiteralPermutation(m)


def apply_permutation(clause: Iterable[int], phi: LiteralPermutation) -> tuple:
    """Canonical image of a clause under a literal permutation."""
    g = phi.mapping.get
    return tuple(sorted(g(l, l) for l in clause))


def _row_keys(rows):
    """One fixed-width key per row of a 2-D array of sorted clauses whose
    literals fit in int32; two rows have equal keys exactly when they are
    equal.  Key order is not numeric order."""
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    L = rows.shape[1]
    if L == 1:
        return rows.ravel()
    if L == 2:
        return rows.view(np.int64).ravel()
    return rows.view(np.dtype((np.void, 4 * L))).ravel()


def automorphism_failure(formula: Formula, phi: LiteralPermutation) -> Optional[str]:
    """None if phi is a symmetry of the formula, else a reason code.

    Only the clauses touching the support are checked; the rest are their
    own images.  phi is a bijection on its support, so the image of a
    touched clause touches the support too, and phi is a symmetry exactly
    when it maps the touched clauses of each length onto themselves.
    """
    if not phi.is_negation_consistent():
        return "negation-inconsistent"
    m = phi.mapping
    if not m:
        return None
    lens, flat, starts, occ, occ_ptr = formula._clause_arrays()
    n2 = 2 * formula.num_vars
    keys = np.fromiter(m.keys(), dtype=np.int64, count=len(m))
    values = np.fromiter(m.values(), dtype=np.int32, count=len(m))
    # literals beyond the formula's variables occur in no clause and need
    # no image; a clause moved onto one matches no clause
    inside = keys < n2
    keys = keys[inside]
    img = np.arange(n2, dtype=np.int32)
    img[keys] = values[inside]
    # the occ ranges of the moved literals, back to back: entry j of range
    # r sits at position first[r] + j and reads occ[lo[r] + j]
    lo = occ_ptr[keys]
    counts = occ_ptr[keys + 1] - lo
    first = np.cumsum(counts) - counts
    at = np.repeat(lo - first, counts) + np.arange(counts.sum())
    hit = np.zeros(len(lens), dtype=bool)
    hit[occ[at]] = True
    touched = np.flatnonzero(hit)
    touched_lens = lens[touched]
    for L in np.flatnonzero(np.bincount(touched_lens)):
        idxs = touched[touched_lens == L]
        rows = flat[starts[idxs][:, None] + np.arange(L)]
        images = np.sort(img[rows], axis=1)
        if not np.array_equal(np.sort(_row_keys(rows)),
                              np.sort(_row_keys(images))):
            return "clause-image-missing"
    return None


def is_automorphism(formula: Formula, phi: LiteralPermutation) -> bool:
    return automorphism_failure(formula, phi) is None


def clause_multiset_image_check(formula: Formula, phi: LiteralPermutation) -> bool:
    """Full oracle: image multiset of the unique clause set equals itself."""
    if not phi.is_negation_consistent():
        return False
    images = Counter(apply_permutation(c, phi) for c in formula.unique_clauses)
    return images == Counter(formula.unique_clauses)
