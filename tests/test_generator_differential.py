"""Differential tests of the negation-closed array generator: the
`LiteralPermutation` constructor, `is_automorphism` and
`lex_leader_encode` of symbreak against the dict-based implementations
they replaced, kept here verbatim as references (apart from the
encoder's rank, which it now builds from `order.variables`, and its
result, now a plain (clauses, aux count) pair for one generator, and the
verifier's key width, now passed to `_row_keys`)."""

from typing import Optional

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from symbreak.breaking import VariableOrder, lex_leader_encode
from symbreak.cnf import (Formula, LiteralPermutation, _row_keys,
                          is_automorphism, neg_var, pos, transpose, var_of)

from oracles import clause_multiset_image_check


def as_dict(phi: LiteralPermutation) -> dict:
    """The moved literals of a generator and their images."""
    return dict(zip(phi.support.tolist(), phi.images.tolist()))


# ---- references ----------------------------------------------------------

class RefLiteralPermutation:
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

    def is_negation_consistent(self) -> bool:
        m = self.mapping
        return all(m.get(l ^ 1, l ^ 1) == m[l] ^ 1 for l in m)


def ref_fix(phi: RefLiteralPermutation) -> RefLiteralPermutation:
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
    return RefLiteralPermutation(m)


def ref_automorphism_failure(formula: Formula,
                             phi: RefLiteralPermutation) -> Optional[str]:
    if not phi.is_negation_consistent():
        return "negation-inconsistent"
    m = phi.mapping
    if not m:
        return None
    lens, flat, starts, occ, occ_ptr = formula._clause_arrays()
    n2 = 2 * formula.num_vars
    keys = np.fromiter(m.keys(), dtype=np.int64, count=len(m))
    values = np.fromiter(m.values(), dtype=np.int32, count=len(m))
    inside = keys < n2
    keys = keys[inside]
    img = np.arange(n2, dtype=np.int32)
    img[keys] = values[inside]
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
        # every literal code is below 2**31
        if not np.array_equal(np.sort(_row_keys(rows, 31)),
                              np.sort(_row_keys(images, 31))):
            return "clause-image-missing"
    return None


def ref_lex_leader_encode(phi: RefLiteralPermutation, order: VariableOrder,
                          next_aux: int, max_len: int = 64):
    """(clauses, aux count) of one generator's chain."""
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    rank = {v: i for i, v in enumerate(order.variables)}
    support_vars = sorted(
        set(var_of(l) for l in phi.support if var_of(l) in rank),
        key=rank.__getitem__)
    positions = []
    for x in support_vars:
        if len(positions) == max_len:
            break
        p = phi.image(pos(x))
        if p != pos(x):
            positions.append((x, p))

    # a phase flip ends the encodable prefix
    for i, (x, p) in enumerate(positions):
        if p == pos(x) ^ 1:
            positions = positions[:i + 1]
            break

    clauses = []
    aux = 0
    prev_a = None  # literal code of a_{i-1}, None while a_0 is folded away
    for i, (x, p) in enumerate(positions):
        last = i == len(positions) - 1
        prefix = [] if prev_a is None else [prev_a ^ 1]
        if p == pos(x) ^ 1:
            clauses.append(tuple(prefix + [pos(x)]))
            break
        if last:
            clauses.append(tuple(prefix + [p ^ 1, pos(x)]))
            break
        a = pos(next_aux + aux)
        aux += 1
        clauses.append(tuple(prefix + [p ^ 1, pos(x)]))
        clauses.append(tuple(prefix + [pos(x), a]))
        clauses.append(tuple(prefix + [p ^ 1, a]))
        prev_a = a
    return clauses, aux


def built(mapping: dict):
    """(array generator, None) from a literal dict, or (None, the
    ValueError) when the constructor refuses it."""
    try:
        return LiteralPermutation(list(mapping), list(mapping.values())), None
    except ValueError as exc:
        return None, exc


def ref_built(mapping: dict):
    try:
        return ref_fix(RefLiteralPermutation(mapping)), None
    except ValueError as exc:
        return None, exc


# ---- inputs --------------------------------------------------------------

@st.composite
def partial_mappings(draw):
    """A literal dict over a few variables: a bijection on a random set
    of literals (a literal and its negation may disagree), a signed
    variable permutation given in full, on its positive literals only,
    or with one image changed, or arbitrary images.  Fixed points occur
    in all of them."""
    n = draw(st.integers(1, 5))
    lits = list(range(2 * n))
    kind = draw(st.sampled_from(
        ["bijection", "signed", "positive", "perturbed", "arbitrary"]))
    if kind == "bijection":
        keys = draw(st.lists(st.sampled_from(lits), unique=True))
        return dict(zip(keys, draw(st.permutations(keys))))
    if kind == "arbitrary":
        return draw(st.dictionaries(st.sampled_from(lits),
                                    st.sampled_from(lits)))
    image = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if kind == "positive":
        signs = [0] * n
    mapping = {}
    for v, (w, sign) in enumerate(zip(image, signs)):
        mapping[2 * v] = 2 * w + sign
        if kind != "positive":
            mapping[2 * v + 1] = 2 * w + (sign ^ 1)
    if kind == "perturbed":
        mapping[draw(st.sampled_from(lits))] = draw(st.sampled_from(lits))
    return mapping


@st.composite
def formula_and_generator(draw):
    """A small formula (clause lengths 0-4, duplicate clauses, unused
    variables) and a generator: a random transposition, a true symmetry
    or a swap given without its negations, closed when built."""
    num_vars = draw(st.integers(1, 6))
    lit = st.integers(0, 2 * num_vars - 1)
    clauses = draw(st.lists(st.lists(lit, max_size=4), max_size=12))
    clauses += draw(st.lists(st.sampled_from(clauses), max_size=3)
                    if clauses else st.just([]))
    kind = draw(st.sampled_from(["transpose", "symmetry", "partial"]))
    # one variable past num_vars: literals that occur in no clause
    variables = draw(st.permutations(range(1, num_vars + 2)))
    if kind == "partial":
        a, b = variables[:2]
        return (Formula(num_vars, clauses),
                LiteralPermutation([pos(a), pos(b)], [pos(b), pos(a)]), kind)
    if kind == "transpose":
        k = draw(st.integers(1, len(variables) // 2))
        flips = draw(st.lists(st.integers(0, 1), min_size=2 * k,
                              max_size=2 * k))
        side = [2 * (v - 1) + f for v, f in zip(variables[:2 * k], flips)]
        return Formula(num_vars, clauses), transpose(side[:k], side[k:]), kind
    # a signed renaming of the variables, and the clauses closed under it
    image = draw(st.permutations(range(1, num_vars + 1)))
    signs = draw(st.lists(st.integers(0, 1), min_size=num_vars,
                          max_size=num_vars))
    mapping = {}
    for v, w, sgn in zip(range(1, num_vars + 1), image, signs):
        mapping[pos(v)] = 2 * (w - 1) + sgn
        mapping[neg_var(v)] = (2 * (w - 1) + sgn) ^ 1
    closed = {tuple(sorted(set(c))) for c in clauses}
    frontier = list(closed)
    while frontier:
        c = tuple(sorted(mapping[l] for l in frontier.pop()))
        if c not in closed:
            closed.add(c)
            frontier.append(c)
    phi = LiteralPermutation(list(mapping), list(mapping.values()))
    return Formula(num_vars, clauses + sorted(closed)), phi, kind


def signed_cycles(draw, pool: list) -> dict:
    """A literal dict of 1-3 signed cycles over the variables `pool`
    (so phase flips occur)."""
    mapping = {}
    for _ in range(draw(st.integers(1, 3))):
        cycle = draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=len(pool), unique=True))
        cycle = [v for v in cycle if pos(v) not in mapping]
        signs = draw(st.lists(st.integers(0, 1), min_size=len(cycle),
                              max_size=len(cycle)))
        for i, v in enumerate(cycle):
            w = cycle[(i + 1) % len(cycle)]
            mapping[pos(v)] = pos(w) ^ signs[i]
            mapping[neg_var(v)] = pos(w) ^ signs[i] ^ 1
    return mapping


@st.composite
def generators_and_orders(draw):
    """A generator over up to 12 variables (signed cycles, so phase
    flips occur) and an order over some of its variables and others."""
    n = draw(st.integers(1, 12))
    mapping = signed_cycles(draw, list(range(1, n + 1)))
    variables = draw(st.lists(st.integers(1, n + 3), unique=True))
    return mapping, VariableOrder(variables)


@st.composite
def generator_lists_and_orders(draw):
    """0-6 generators and an order over some of up to 15 variables.
    Each generator is signed cycles, empty, moves only variables outside
    the order (some past its largest), flips the order's first variable
    (a flip at position 0), or shifts all of the order's variables but
    its last, which it flips (a flip past a short ``max_len``)."""
    n = draw(st.integers(1, 12))
    variables = draw(st.lists(st.integers(1, n + 3), unique=True))
    outside = [v for v in range(1, n + 6) if v not in variables]
    kinds = ["cycles", "empty", "outside"]
    if variables:
        kinds += ["first flip", "late flip"]
    mappings = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=6)):
        mapping = {}
        if kind == "cycles":
            mapping = signed_cycles(draw, list(range(1, n + 4)))
        elif kind == "outside":
            mapping = signed_cycles(draw, outside)
        elif kind == "first flip":
            first = variables[0]
            mapping = signed_cycles(draw, [v for v in range(1, n + 4)
                                           if v != first])
            mapping[pos(first)], mapping[neg_var(first)] = (neg_var(first),
                                                            pos(first))
        elif kind == "late flip":
            *head, last = variables
            for v, w in zip(head, head[1:] + head[:1]):
                mapping[pos(v)], mapping[neg_var(v)] = pos(w), neg_var(w)
            mapping[pos(last)], mapping[neg_var(last)] = neg_var(last), pos(last)
        mappings.append(mapping)
    return mappings, VariableOrder(variables)


# ---- tests ---------------------------------------------------------------

@settings(max_examples=400)
@given(partial_mappings())
def test_constructor_raises_exactly_where_fix_did(mapping):
    phi, err = built(mapping)
    want, ref_err = ref_built(mapping)
    assert (err is None) == (ref_err is None), (mapping, err, ref_err)
    if phi is None:
        return
    assert as_dict(phi) == want.mapping
    assert list(as_dict(phi)) == phi.support.tolist() == sorted(want.mapping)
    assert (phi.images[1::2] == phi.images[0::2] ^ 1).all()


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(formula_and_generator())
def test_verifier_matches_reference(case):
    f, phi, kind = case
    verdict = is_automorphism(f, phi)
    assert verdict == (ref_automorphism_failure(
        f, RefLiteralPermutation(as_dict(phi))) is None)
    assert verdict == clause_multiset_image_check(f, phi)
    if kind == "symmetry":
        assert verdict


@settings(max_examples=300)
@given(generators_and_orders(), st.sampled_from([0, 1, 3, 64]),
       st.integers(1, 40))
def test_lex_encoder_matches_reference(case, max_len, next_aux):
    mapping, order = case
    phi, _ = built(mapping)
    got = lex_leader_encode([phi], order, next_aux, max_len=max_len)
    clauses, aux = ref_lex_leader_encode(
        ref_fix(RefLiteralPermutation(mapping)), order, next_aux,
        max_len=max_len)
    assert got.clauses == clauses
    assert got.aux_count == aux


@settings(max_examples=300)
@given(generator_lists_and_orders(), st.sampled_from([0, 1, 3, 64]),
       st.integers(1, 40))
def test_lex_encoder_chains_match_reference_in_turn(case, max_len, next_aux):
    """A list of generators encodes as the reference's chains, one
    generator after another, each numbering its auxiliaries on from
    the previous one's."""
    mappings, order = case
    gens = [built(m)[0] for m in mappings]
    got = lex_leader_encode(gens, order, next_aux, max_len=max_len)
    clauses, aux = [], 0
    for mapping in mappings:
        chain, count = ref_lex_leader_encode(
            ref_fix(RefLiteralPermutation(mapping)), order, next_aux + aux,
            max_len=max_len)
        clauses += chain
        aux += count
    assert got.clauses == clauses
    assert got.aux_count == aux
    assert got.lens.dtype == got.lits.dtype == np.int32
