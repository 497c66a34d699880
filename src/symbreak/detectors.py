"""Structure detection on the model graph: row, row-column, and Johnson.

Detection treats the color classes of the stable coloring as purported
orbits.  Each detector builds candidate permutations from the effect of
individualization-refinement and only returns a structure once the
verifier has proved every generator an automorphism of the formula,
directly or, for the transpositions of a symmetric factor, through two
of them and their array relations; so a non-Tinhofer model graph can
only cause a miss, never a wrong answer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cnf import Formula, LiteralPermutation, is_automorphism, transpose
from .modelgraph import ColoredGraph
from .refine import Coloring, IRSession, individualize_refine


@dataclass
class DetectionFailure:
    reason: str

    def __bool__(self):
        return False


@dataclass
class Structure:
    """A detected symmetry.  ``kind`` is "row", "row-column" or "johnson";
    ``dims`` is (rows, cols) for a matrix and (n,) for J_n.  ``literals``
    lists the literals in the order the lex-leader chains rank them:
    matrices row-major, Johnson label-major ({i, j}, i < j) and then each
    extension block by label.  ``generators`` are the verified adjacent
    transpositions.  What a structure covers is its literals and their
    negations."""

    kind: str
    dims: tuple
    literals: list
    generators: list


def _class_members(coloring: Coloring, c: int) -> list:
    return coloring.class_members(c).tolist()


def _verified_swap(formula: Formula, a, b):
    """``transpose(a, b)`` if it is an automorphism of `formula`, else
    None; also None when a and b cannot be exchanged."""
    try:
        phi = transpose(a, b)
    except ValueError:
        return None
    # looked up at call time, so a wrapper put in its place is what runs
    return phi if is_automorphism(formula, phi) else None


def _conjugating_product(swaps):
    """The product c = t_0 t_1 ... t_{m-2} of `swaps` (t_{m-2} applied
    first) if c t_i c^-1 = t_{i+1} for every i < m - 2, else None.
    Checked on the image arrays alone.  When t_i exchanges the disjoint
    lines i and i + 1, c sends line i to line i + 1 mod m."""
    size = max(int(t.support[-1]) for t in swaps) + 1
    c = np.arange(size, dtype=np.int32)
    for t in swaps:
        c[t.support] = c[t.images]
    for t, u in zip(swaps, swaps[1:]):
        # c t c^-1 moves c(x) to c(t(x)) for each x that t moves
        moved = c[t.support]
        by = np.argsort(moved)
        if not (np.array_equal(moved[by], u.support)
                and np.array_equal(c[t.images][by], u.images)):
            return None
    changed = np.flatnonzero(c != np.arange(size))
    return LiteralPermutation(changed, c[changed])


def _verified_factor(formula: Formula, lines, t0=None):
    """The adjacent transpositions t_i = transpose(lines[i], lines[i+1])
    of the m >= 2 equal-length lines of one symmetric factor, if every
    one is an automorphism of `formula`; else the index i of the first
    that is not or cannot be built.  `t0`, if given, is t_0 verified
    already.

    When c = t_0 ... t_{m-2} conjugates each t_i to t_{i+1}, every t_i
    is c^i t_0 c^-i, so all are automorphisms exactly when t_0 and c
    are, and only those two are verified (one when m = 2, where c is
    t_0).  A failed c is located by verifying t_1, t_2, ... in turn,
    which is also the fallback when the relations do not hold or a t_i
    cannot be built; so a failure costs at most one call more than
    verifying each t_i in turn.
    """
    verified = [] if t0 is None else [t0]
    k = len(verified)
    try:
        swaps = verified + [transpose(a, b)
                            for a, b in zip(lines[k:], lines[k + 1:])]
    except ValueError:
        swaps = None
    cycle = None if swaps is None else _conjugating_product(swaps)
    if cycle is not None:
        if not verified:
            # looked up at call time, so a wrapper put in its place is
            # what runs
            if not is_automorphism(formula, swaps[0]):
                return 0
            verified = swaps[:1]
        if len(swaps) == 1 or is_automorphism(formula, cycle):
            return swaps
    for i in range(len(verified), len(lines) - 1):
        phi = _verified_swap(formula, lines[i], lines[i + 1])
        if phi is None:
            return i
        verified.append(phi)
    return verified


def detect_row_blocks(formula: Formula, graph: ColoredGraph, pi: Coloring,
                      sigma: int):
    """Row interchangeability on the class `sigma` of the stable coloring.

    Each member's individualization determines its purported row: the
    literals that become singletons, plus the fragments c' of other
    classes c with |c'| * |sigma| = |c| (symmetric action on blocks),
    ordered by their refined color.
    """
    members = _class_members(pi, sigma)
    if len(members) < 3:
        return DetectionFailure("size gate: |sigma| < 3")
    if any(v >= graph.num_literal_vertices for v in members):
        return DetectionFailure("sigma is not a literal class")

    sigma_size = len(members)
    # (class, wanted fragment size) for the literal classes c that can
    # hold a fragment c' with 1 < |c'| and |c'| * |sigma| = |c|
    block_classes = [(c, int(pi.clen[c]) // sigma_size)
                     for c in pi.classes()
                     if pi.clen[c] > sigma_size
                     and pi.clen[c] % sigma_size == 0
                     and pi.order[c] < graph.num_literal_vertices]
    session = IRSession(graph, pi)
    # each row is checked against the rows before it as soon as it is
    # built, and the swap of rows 0 and 1 verified at once, so a refuted
    # attempt usually stops after two probes; the rest of the row factor
    # is verified after the last row.  A row depends only on its member,
    # so a found structure is the same as if every member were probed
    # first
    rows = []
    seen = set()
    first_swap = None
    for i, v in enumerate(members):
        rep = session.individualize(v)
        # singletons and blocks merged into one row, ordered by the
        # refined color of each piece
        pieces = [(int(rep.coloring.color[u]), [u])
                  for u in rep.new_singletons
                  if u < graph.num_literal_vertices]
        pieces.extend((cprime, frag.tolist())
                      for c, want in block_classes
                      for cprime, frag in rep.fragments(c)
                      if len(frag) == want)
        pieces.sort(key=lambda p: p[0])
        row = [u for _, piece in pieces for u in piece]
        if rows and len(row) != len(rows[0]):
            return DetectionFailure(f"unequal row lengths at row {i}")
        seen.update(row)
        if len(seen) != len(row) * (i + 1):
            return DetectionFailure(f"overlapping rows at row {i}")
        if i == 1:
            first_swap = _verified_swap(formula, rows[0], row)
            if first_swap is None:
                return DetectionFailure("verification failed at row 1")
        rows.append(row)

    generators = _verified_factor(formula, rows, first_swap)
    if isinstance(generators, int):
        return DetectionFailure(
            f"verification failed at row {generators + 1}")
    return Structure("row", (len(rows), len(rows[0])),
                     [u for row in rows for u in row], generators)


def detect_row_column(formula: Formula, graph: ColoredGraph, pi: Coloring,
                      sigma: int):
    """Row-column symmetry Sym(n) x Sym(m) on the class `sigma`.

    A pivot individualization must split sigma into {v}, row remainder,
    column remainder, and the rest; individualizing each row/column
    representative assigns matrix coordinates, and the adjacent row and
    column transpositions (negation-expanded) are verified.
    """
    members = _class_members(pi, sigma)
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
        # excluding the fragments holding v and ref by color id equals
        # excluding fragments containing them
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

    # adjacent transpositions generate the same group as the pivot-star
    # ones and make much stronger lex-leader constraints under the
    # row-major order, so they are what the structure carries
    columns = list(zip(*matrix))
    generators = []
    for lines in (columns, matrix):
        swaps = _verified_factor(formula, lines)
        if isinstance(swaps, int):
            return DetectionFailure("verification failed")
        generators.extend(swaps)

    return Structure("row-column", (len(row_labels), len(col_labels)),
                     [t for row in matrix for t in row], generators)


def _triangular_n(k: int):
    """n with binomial(n, 2) == k, or None."""
    n = (1 + math.isqrt(1 + 8 * k)) // 2
    return n if n * (n - 1) // 2 == k else None


def _johnson_labeling(session: IRSession, sigma: int):
    """Label construction for a purported Johnson action on the class
    sigma of the session's base coloring.

    Returns the (n+1) x (n+1) label matrix ``pair_lit``, whose cells
    [i, j] and [j, i] hold the literal labeled {i, j} and whose diagonal,
    row 0 and column 0 hold -1, or a DetectionFailure.  Labels 1..n are
    assigned in order of first appearance, i.e. determined up to a
    relabeling.
    """
    members = _class_members(session.base, sigma)
    size = len(members)
    if size < 28:
        return DetectionFailure("size gate: |sigma| < 28")
    n = _triangular_n(size)
    if n is None:
        return DetectionFailure("|sigma| is not a binomial(n, 2)")

    label = {u: [] for u in members}
    ad: dict = {}

    def adjacency(u):
        if u in ad:
            return ad[u]
        frags = session.individualize(u).fragments(sigma)
        if len(frags) != 3:
            return None
        nonsingle = sorted((mem for _, mem in frags if len(mem) > 1),
                           key=len)
        if len(nonsingle) != 2 or len(nonsingle[0]) == len(nonsingle[1]):
            return None
        ad[u] = set(nonsingle[0].tolist())
        return ad[u]

    vnr = 1
    max_iters = n + 1
    # labels only grow, so the first member with at most one label never
    # moves back
    first = 0
    for _ in range(max_iters):
        while first < size and len(label[members[first]]) > 1:
            first += 1
        if first == size:
            break
        v = members[first]
        ad_v = adjacency(v)
        if ad_v is None:
            return DetectionFailure("wrong fragment structure")
        w = min(ad_v)
        ad_w = adjacency(w)
        if ad_w is None:
            return DetectionFailure("wrong fragment structure")
        session.individualize(v)
        rep_vw = session.push(w)
        singles = [int(mem[0]) for _, mem in rep_vw.fragments(sigma)
                   if len(mem) == 1 and mem[0] not in (v, w)]
        if len(singles) != 1:
            return DetectionFailure("no unique third singleton")
        y = singles[0]
        ad_y = adjacency(y)
        if ad_y is None:
            return DetectionFailure("wrong fragment structure")

        e_i = {v, y} | ((ad_v & ad_y) - {w})
        e_j = {v, w} | ((ad_v & ad_w) - {y})
        e_k = {w, y} | ((ad_w & ad_y) - {v})
        added = False
        for group in (e_i, e_j, e_k):
            common = None
            for u in group:
                s = set(label[u])
                common = s if common is None else (common & s)
            if common:
                continue
            for u in group:
                label[u].append(vnr)
            vnr += 1
            added = True
        if not added:
            return DetectionFailure("no fresh labels in an iteration")
    else:
        return DetectionFailure("labeling did not terminate")

    if vnr - 1 != n:
        return DetectionFailure("label count mismatch")
    pair_lit = np.full((n + 1, n + 1), -1, dtype=np.int64)
    for u in members:
        if len(label[u]) != 2:
            return DetectionFailure("incomplete labels")
        i, j = label[u]
        pair_lit[i, j] = pair_lit[j, i] = u
    # a pair labeling two members leaves its cells filled only once
    if np.count_nonzero(pair_lit >= 0) != 2 * size:
        return DetectionFailure("labels are not a bijection")
    return pair_lit


def detect_johnson_row_extension(session: IRSession, pair_lit,
                                 other_colors) -> list:
    """Orbits whose stabilization splits the Johnson class along one label.

    For each candidate class of the session's base coloring,
    individualizing any member must split the labeled class into the
    literals carrying one particular label and the rest; the class then
    partitions into equal blocks, one per label.  Returns (color id,
    {label: ordered block}) pairs; unaccepted classes are skipped
    silently.
    """
    n = len(pair_lit) - 1
    # label i's literals are the filled cells of row i
    label_of = {frozenset(row[row >= 0].tolist()): i
                for i, row in enumerate(pair_lit) if i}
    pi = session.base
    sigma = int(pi.color[pair_lit[1, 2]])
    accepted = []
    accepted_colors = set()
    for tau in other_colors:
        members = _class_members(pi, tau)
        if not members:
            continue
        if int(pi.color[members[0] ^ 1]) in accepted_colors:
            # negation class of an accepted orbit: the generators' negation
            # closure already moves it, a second block map would conflict
            continue
        if len(members) % n != 0 or len(members) < n:
            continue
        block_size = len(members) // n
        blocks: dict = {}
        ref_color = None
        ok = True
        for t in members:
            rep = session.individualize(t)
            if ref_color is None:
                ref_color = rep.coloring.color.copy()
            frags = rep.fragments(sigma)
            if len(frags) != 2:
                ok = False
                break
            small = min((mem for _, mem in frags), key=len)
            matched = label_of.get(frozenset(small.tolist()))
            if matched is None:
                ok = False
                break
            blocks.setdefault(matched, []).append(t)
        if not ok or len(blocks) != n:
            continue
        if any(len(b) != block_size for b in blocks.values()):
            continue
        # order every block by the first member's refined coloring so
        # that positions correspond across labels
        for i in blocks:
            blocks[i].sort(key=lambda t: (int(ref_color[t]), t))
        accepted.append((tau, blocks))
        accepted_colors.add(tau)
    return accepted


def detect_johnson(formula: Formula, graph: ColoredGraph, pi: Coloring,
                   sigma: int, other_colors=()):
    """Johnson action J_n on the class `sigma`, optionally extended to
    label-aligned block orbits.

    The action usually has to move label-aligned companion orbits too,
    so the row-extension blocks are folded into the generators first;
    the plain generators are tried only when there are no blocks or the
    extended generators fail verification.  Block pairings that the
    reference coloring leaves ambiguous are resolved by a small search,
    gated by verification.
    """
    members = _class_members(pi, sigma)
    if any(v >= graph.num_literal_vertices for v in members):
        return DetectionFailure("sigma is not a literal class")
    if int(pi.color[members[0] ^ 1]) == sigma:
        return DetectionFailure("self-negating orbit")

    session = IRSession(graph, pi)
    pair_lit = _johnson_labeling(session, sigma)
    if isinstance(pair_lit, DetectionFailure):
        return pair_lit
    n = len(pair_lit) - 1

    def build_generators(extensions):
        """One verified generator per label transposition (i, i+1), or
        None.  Each extension's block i is paired with a permutation of
        its block i+1; the first 64 combinations are tried in turn, the
        first being the reference pairing.  None of them reaches past a
        block's 64th permutation, so no more are generated."""
        gens = []
        for i in range(1, n):
            others = [r for r in range(1, n + 1) if r not in (i, i + 1)]
            xs = pair_lit[i, others].tolist()
            xs.extend(t for _, blocks in extensions for t in blocks[i])
            ys = pair_lit[i + 1, others].tolist()
            targets = [itertools.islice(
                itertools.permutations(blocks[i + 1]), 64)
                for _, blocks in extensions]
            for combo in itertools.islice(itertools.product(*targets), 64):
                phi = _verified_swap(formula, xs,
                                     ys + [t for b in combo for t in b])
                if phi is not None:
                    gens.append(phi)
                    break
            else:
                return None
        return gens

    extensions = detect_johnson_row_extension(session, pair_lit,
                                              other_colors)
    generators = build_generators(extensions)
    if generators is None and extensions:
        extensions = []
        generators = build_generators([])
    if generators is None:
        return DetectionFailure("verification failed")

    literals = [t for i in range(1, n + 1)
                for t in pair_lit[i, i + 1:].tolist()]
    literals.extend(t for _, blocks in extensions
                    for i in range(1, n + 1) for t in blocks[i])
    return Structure("johnson", (n,), literals, generators)


def stabilizer_recursion(formula: Formula, graph: ColoredGraph, pi: Coloring,
                         sigma: int, detectors):
    """After a failed attempt on sigma, retry each of `detectors`, (name,
    detector) pairs, in turn, on the largest fragment of sigma under the
    first individualization.  One recursion level only; the failure
    names each detector's reason."""
    members = _class_members(pi, sigma)
    if len(members) < 2:
        return DetectionFailure("size gate: singleton class")
    rep = individualize_refine(graph, pi, members[0], base=pi)
    frags = rep.fragments(sigma)
    largest_color, largest = max(frags, key=lambda f: (len(f[1]), -f[0]))
    if len(largest) < 2:
        return DetectionFailure("largest fragment is a singleton")
    reasons = []
    for name, det in detectors:
        result = det(formula, graph, rep.coloring, largest_color)
        if not isinstance(result, DetectionFailure):
            return result
        reasons.append(f"{name}: {result.reason}")
    return DetectionFailure("recursion failed: " + "; ".join(reasons))
