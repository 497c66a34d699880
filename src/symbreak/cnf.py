"""CNF formulas, DIMACS I/O, and literal permutations.

Literals are encoded as non-negative integers: variable v (1-based) with
positive polarity is 2*(v-1), negative polarity is 2*(v-1)+1.  Negation is
a single XOR with 1.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterable, Optional


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
    for verbatim re-emission.  ``unique_clauses`` drops duplicates and is
    what symmetry detection works on; ``clause_set`` maps each unique
    clause to its index and ``occurrence`` maps a literal code to the
    indices of unique clauses containing it.
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
        self.unique_clauses: list[tuple] = []
        self.clause_set: dict[tuple, int] = {}
        for c in self.clauses:
            if c not in self.clause_set:
                self.clause_set[c] = len(self.unique_clauses)
                self.unique_clauses.append(c)
        self._occurrence = None
        self._arrays = None
        self._flat = None

    @property
    def occurrence(self) -> dict:
        """Literal code -> indices of unique clauses containing it (lazy)."""
        if self._occurrence is None:
            occurrence: dict[int, list[int]] = defaultdict(list)
            for idx, c in enumerate(self.unique_clauses):
                for lit in c:
                    occurrence[lit].append(idx)
            self._occurrence = dict(occurrence)
        return self._occurrence

    def _clause_arrays(self):
        """Flat numpy views of the unique clauses: (lens, flat, owner,
        starts), lazily built and shared by the vectorized code paths."""
        if self._flat is None:
            import numpy as np

            unique = self.unique_clauses
            lens = np.fromiter(map(len, unique), dtype=np.int32,
                               count=len(unique))
            total = int(lens.sum())
            flat = np.fromiter((l for c in unique for l in c),
                               dtype=np.int32, count=total)
            owner = np.repeat(np.arange(len(unique), dtype=np.int32), lens)
            starts = np.concatenate(
                ([0], np.cumsum(lens, dtype=np.int64)[:-1]))
            self._flat = (lens, flat, owner, starts)
        return self._flat

    def _verify_arrays(self):
        """Lazy numpy views used by the vectorized automorphism check on
        large formulas: an occurrence CSR and packed binary-clause codes."""
        if self._arrays is None:
            import numpy as np

            n2 = 2 * self.num_vars
            lens, flat, owner, starts = self._clause_arrays()
            by_lit = np.argsort(flat, kind="stable")
            data = owner[by_lit]
            counts = np.zeros(n2 + 1, dtype=np.int64)
            counts[1:] = np.bincount(flat, minlength=n2)
            indptr = np.cumsum(counts)
            packed_by_idx = np.full(len(self.unique_clauses), -1,
                                    dtype=np.int64)
            binary = np.nonzero(lens == 2)[0]
            packed_by_idx[binary] = (
                flat[starts[binary]].astype(np.int64) * n2
                + flat[starts[binary] + 1])
            bin_a = np.where(packed_by_idx >= 0,
                             packed_by_idx // n2, 0).astype(np.int32)
            bin_b = np.where(packed_by_idx >= 0,
                             packed_by_idx % n2, 0).astype(np.int32)
            sorted_packed = np.sort(packed_by_idx[packed_by_idx >= 0])
            # per-length sorted byte keys of the non-binary clauses; the
            # byte order need not be numeric order, only shared by both
            # sides of the membership test
            long_keys = {}
            for L in (int(l) for l in np.unique(lens) if l > 2):
                idxs = np.nonzero(lens == L)[0]
                rows = np.ascontiguousarray(
                    flat[starts[idxs][:, None] + np.arange(L)])
                view = np.dtype((np.void, rows.dtype.itemsize * L))
                long_keys[L] = np.sort(rows.view(view).ravel())
            self._arrays = (indptr, data, packed_by_idx, bin_a, bin_b,
                            sorted_packed, long_keys)
        return self._arrays

    @classmethod
    def from_dimacs_clauses(cls, num_vars: int,
                            dimacs_clauses: Iterable[Iterable[int]]) -> "Formula":
        """Build from clauses given as signed DIMACS integers."""
        return cls(num_vars,
                   [[from_dimacs_lit(l) for l in c] for c in dimacs_clauses])

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


def automorphism_failure(formula: Formula, phi: LiteralPermutation) -> Optional[str]:
    """None if phi is a symmetry of the formula, else a reason code.

    Only clauses touching the support are checked; the rest are their own
    images.
    """
    if not phi.is_negation_consistent():
        return "negation-inconsistent"
    if len(formula.unique_clauses) > 2000 and phi.mapping:
        return _automorphism_failure_vectorized(formula, phi)
    g = phi.mapping.get
    occurrence = formula.occurrence
    clause_set = formula.clause_set
    unique = formula.unique_clauses
    seen = set()
    for lit in phi.mapping:
        for idx in occurrence.get(lit, ()):
            if idx in seen:
                continue
            seen.add(idx)
            c = unique[idx]
            if len(c) == 2:
                x = g(c[0], c[0])
                y = g(c[1], c[1])
                image = (x, y) if x < y else (y, x)
            else:
                image = tuple(sorted(g(l, l) for l in c))
            if image not in clause_set:
                return "clause-image-missing"
    return None


def _automorphism_failure_vectorized(formula: Formula,
                                     phi: LiteralPermutation) -> Optional[str]:
    """Same check as the pure-Python path, with touched binary clauses
    verified in bulk through a sorted packed-code array."""
    import numpy as np

    indptr, data, packed_by_idx, bin_a, bin_b, sorted_packed, long_keys = \
        formula._verify_arrays()
    n2 = 2 * formula.num_vars
    img = np.arange(n2, dtype=np.int32)
    for k, v in phi.mapping.items():
        img[k] = v

    chunks = [data[indptr[l]:indptr[l + 1]] for l in phi.mapping]
    if not chunks:
        return None
    touch = np.unique(np.concatenate(chunks))
    binary = touch[packed_by_idx[touch] >= 0]
    a = img[bin_a[binary]]
    b = img[bin_b[binary]]
    lo = np.minimum(a, b).astype(np.int64)
    key = lo * n2 + np.maximum(a, b)
    at = np.searchsorted(sorted_packed, key)
    ok = (at < len(sorted_packed)) & (sorted_packed[np.minimum(
        at, len(sorted_packed) - 1)] == key)
    if not ok.all():
        return "clause-image-missing"

    longt = touch[packed_by_idx[touch] < 0]
    if len(longt):
        lens, flat, _, starts = formula._clause_arrays()
        touched_lens = lens[longt]
        for L in (int(l) for l in np.unique(touched_lens)):
            idxs = longt[touched_lens == L]
            rows = np.ascontiguousarray(
                np.sort(img[flat[starts[idxs][:, None] + np.arange(L)]],
                        axis=1))
            view = np.dtype((np.void, rows.dtype.itemsize * L))
            keys = rows.view(view).ravel()
            table = long_keys[L]
            at = np.searchsorted(table, keys)
            ok = (at < len(table)) & (table[np.minimum(
                at, len(table) - 1)] == keys)
            if not ok.all():
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
