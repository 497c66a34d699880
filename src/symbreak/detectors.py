"""Structure detection on the model graph: row, row-column, and Johnson.

Detection treats the color classes of the stable coloring as purported
orbits.  Each detector builds candidate permutations from the effect of
individualization-refinement and only returns a structure once the
verifier has proved every generator an automorphism of the formula,
directly or, for the transpositions of a symmetric factor, through the
first, their product and their array relations; so a non-Tinhofer
model graph can only cause a miss, never a wrong answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cnf import (Formula, LiteralPermutation, SwapError, is_automorphism,
                  transpositions)
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


def negation_class_of(pi: Coloring, sigma: int) -> int:
    """Color id of the class holding the negations of class sigma.

    Well-defined because negation edges force negation to map classes to
    classes; equals sigma itself for a self-negating class.
    """
    members = pi.class_members(sigma)
    if len(members) == 0:
        raise KeyError(f"empty class {sigma}")
    return int(pi.color[int(members[0]) ^ 1])


def _conjugating_product(swaps):
    """The product c = t_0 t_1 ... t_{m-2} of `swaps` (t_{m-2} applied
    first) if c t_i c^-1 = t_{i+1} for every i < m - 2, else None.
    Checked on the image arrays alone, all relations in one 2-D pass.
    When t_i exchanges the disjoint lines i and i + 1, c sends line i to
    line i + 1 mod m."""
    if len({len(t) for t in swaps}) > 1:
        return None              # conjugates move equally many literals
    support = np.stack([t.support for t in swaps])
    images = np.stack([t.images for t in swaps])
    size = int(support[:, -1].max()) + 1
    c = np.arange(size, dtype=np.int32)
    for moved, image in zip(support, images):
        c[moved] = c[image]
    # c t c^-1 moves c(x) to c(t(x)) for each x that t moves
    moved = c[support[:-1]]
    by = np.argsort(moved, axis=1)
    if not (np.array_equal(np.take_along_axis(moved, by, axis=1),
                           support[1:])
            and np.array_equal(np.take_along_axis(c[images[:-1]], by,
                                                  axis=1), images[1:])):
        return None
    changed = np.flatnonzero(c != np.arange(size)).astype(np.int32)
    return LiteralPermutation._closed(changed, c[changed])


def _verified_factor(formula: Formula, pairs, t0=None):
    """The transpositions t_i of the m - 1 line pairs (a_i, b_i) in
    `pairs`, which generate one symmetric factor, if every one is an
    automorphism of `formula`; else the index i of the first that is not
    or cannot be built.  `t0`, if given, is t_0 verified already; the
    others are built in one `transpositions` batch.

    When c = t_0 ... t_{m-2} conjugates each t_i to t_{i+1}, every t_i
    is c^i t_0 c^-i, so all are automorphisms exactly when t_0 and c
    are, and only those two are verified (one for a single pair, where
    c is t_0).  A failed c is located by verifying t_1, t_2, ... in
    turn, which is also the fallback when the relations do not hold or
    a t_i cannot be built, up to that t_i; so a failure costs at most
    one call more than verifying each t_i in turn.
    """
    verified = [] if t0 is None else [t0]
    rest = pairs[len(verified):]
    try:
        swaps = verified + transpositions(rest)
    except SwapError as exc:
        # the swaps before the first pair that cannot be exchanged
        swaps = verified + transpositions(rest[:exc.index])
        cycle = None
    else:
        cycle = _conjugating_product(swaps)
    if cycle is not None:
        if not verified:
            # looked up at call time, so a wrapper put in its place is
            # what runs
            if not is_automorphism(formula, swaps[0]):
                return 0
            verified = swaps[:1]
        if len(swaps) == 1 or is_automorphism(formula, cycle):
            return swaps
    for phi in swaps[len(verified):]:
        if not is_automorphism(formula, phi):
            break
        verified.append(phi)
    return verified if len(verified) == len(pairs) else len(verified)


def detect_row_blocks(formula: Formula, graph: ColoredGraph, pi: Coloring,
                      sigma: int):
    """Row interchangeability on the class `sigma` of the stable coloring.

    Each member's individualization determines its purported row: the
    literals that become singletons, plus the fragments c' of other
    classes c with |c'| * |sigma| = |c| (symmetric action on blocks),
    ordered by their refined color.
    """
    members = pi.class_members(sigma).tolist()
    if len(members) < 3:
        return DetectionFailure("size gate: |sigma| < 3")
    nlit = graph.num_literal_vertices
    if any(v >= nlit for v in members):
        return DetectionFailure("sigma is not a literal class")

    sigma_size = len(members)
    # (class, wanted fragment size) for the literal classes c that can
    # hold a fragment c' with 1 < |c'| and |c'| * |sigma| = |c|
    block_classes = [(c, int(pi.clen[c]) // sigma_size)
                     for c in pi.classes()
                     if pi.clen[c] > sigma_size
                     and pi.clen[c] % sigma_size == 0
                     and pi.order[c] < nlit]
    # literals in non-singleton classes of pi; those a probe makes
    # singletons join its row
    unsettled = pi.clen[pi.color[:nlit]] > 1
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
        color = rep.coloring.color[:nlit]
        # singletons and blocks merged into one row, ordered by the
        # refined color of each piece
        pieces = [(int(color[u]), [int(u)]) for u in np.flatnonzero(
            unsettled & (rep.coloring.clen[color] == 1))]
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
            found = _verified_factor(formula, [(rows[0], row)])
            if isinstance(found, int):
                return DetectionFailure("verification failed at row 1")
            first_swap = found[0]
        rows.append(row)

    generators = _verified_factor(formula, list(zip(rows, rows[1:])),
                                  first_swap)
    if isinstance(generators, int):
        return DetectionFailure(
            f"verification failed at row {generators + 1}")
    return Structure("row", (len(rows), len(rows[0])),
                     [u for row in rows for u in row], generators)


def detect_row_column(formula: Formula, graph: ColoredGraph, pi: Coloring,
                      sigma: int):
    """Row-column symmetry Sym(n) x Sym(m) on the class `sigma`.

    A pivot individualization must split sigma into {v}, row remainder,
    column remainder, and the rest.  Probes of cells off those two lines
    assign matrix coordinates, two lines a probe (`_label_off_axis`),
    and the adjacent row and column transpositions (negation-expanded)
    are verified.
    """
    members = pi.class_members(sigma)
    if (members >= graph.num_literal_vertices).any():
        return DetectionFailure("sigma is not a literal class")
    if negation_class_of(pi, sigma) == sigma:
        return DetectionFailure("self-negating orbit")

    v = int(members[0])
    session = IRSession(graph, pi)
    frags = session.individualize(v).fragments(sigma)
    if len(frags) != 4:
        return DetectionFailure(f"fragment count {len(frags)} != 4")
    frags.sort(key=lambda f: (len(f[1]), f[0]))
    if len(frags[0][1]) != 1 or frags[0][1][0] != v:
        return DetectionFailure("pivot is not the singleton fragment")
    # v's row holds the heads of the other columns, v's column those of
    # the other rows
    col_heads = frags[1][1].tolist()
    row_heads = frags[2][1].tolist()
    if len(col_heads) < 2 or len(row_heads) < 2:
        return DetectionFailure("degenerate row or column fragment")

    # each member's row and column label by its slot in sigma, -1 while
    # unassigned: the line through v is 0, the one through head k is k
    rows, cols = len(row_heads) + 1, len(col_heads) + 1
    row, col = np.full((2, len(members)), -1)
    slot = pi.pos[[v] + col_heads + row_heads] - sigma
    row[slot] = [0] * cols + list(range(1, rows))
    col[slot] = list(range(cols)) + [0] * (rows - 1)
    if not _label_off_axis(session, pi, sigma, row, col, rows, cols):
        return DetectionFailure("missing size-matched fragment")

    cells = row * cols + col
    # counted with bincount: the first call of a plain np.unique raised
    # peak RSS on php instances by about 0.9 MB
    if np.bincount(cells).max() > 1:
        return DetectionFailure("malformed matrix: duplicate label pair")
    # all rows * cols slots are labeled: with no pair twice every cell is
    # filled
    grid = np.empty(rows * cols, dtype=members.dtype)
    grid[cells] = members
    matrix = grid.reshape(rows, cols).tolist()

    # adjacent transpositions generate the same group as the pivot-star
    # ones and make much stronger lex-leader constraints under the
    # row-major order, so they are what the structure carries
    columns = list(zip(*matrix))
    generators = []
    for lines in (columns, matrix):
        swaps = _verified_factor(formula, list(zip(lines, lines[1:])))
        if isinstance(swaps, int):
            return DetectionFailure("verification failed")
        generators.extend(swaps)

    return Structure("row-column", (rows, cols), grid.tolist(), generators)


def _label_off_axis(session: IRSession, pi: Coloring, sigma: int,
                    row, col, rows: int, cols: int) -> bool:
    """Label the cells off row 0 and column 0 with one probe per cell
    whose row and column are both unlabeled, while there is one, and
    then per cell with one of the two unlabeled; False when a probe's
    fragments are not of the shape below, or sigma has other than
    rows * cols members.

    In a grid, a probe of cell x splits off the rest of x's row, whose
    one row-labeled cell is the row's head in column 0, and the rest of
    x's column, whose one column-labeled cell is the column's head in
    row 0, and each line takes its head's label.  So one probe labels
    two lines, and an n x m grid takes max(n, m) - 1 probes.  A probe
    refines only until sigma holds four classes."""
    members = pi.class_members(sigma)
    while True:
        todo = (row < 0) & (col < 0)
        if not todo.any():
            todo = (row < 0) | (col < 0)
            if not todo.any():
                return len(members) == rows * cols
        x = int(np.argmax(todo))
        rep = session.individualize(int(members[x]), until=(sigma, 4))
        lines = _lines_through(rep, pi, sigma, x, row, col, rows, cols)
        if lines is None:
            return False
        for label, (slots, k) in zip((row, col), lines):
            label[slots] = k


def _lines_through(rep, pi: Coloring, sigma: int, x: int, row, col,
                   rows: int, cols: int):
    """((slots, label) of the row, then of the column, of the member at
    slot x of sigma, read off its probe `rep` for `_label_off_axis`; a
    labeled line is given as x alone.  None when a line is missing."""
    skip = rep.coloring.color[pi.order[sigma + x]]
    frags = [pi.pos[frag] - sigma for c, frag in rep.fragments(sigma)
             if c != skip]
    lines = []
    for label, want in ((row, cols - 1), (col, rows - 1)):
        if label[x] >= 0:
            lines.append(([x], label[x]))
            continue
        cand = []
        for slots in frags:
            if len(slots) == want:
                known = label[slots][label[slots] >= 0]
                if len(known) == 1 and known[0] > 0:
                    cand.append((np.append(slots, x), known[0]))
        if len(cand) != 1:
            return None
        lines.append(cand[0])
    return lines


def _triangular_n(k: int):
    """n with binomial(n, 2) == k, or None."""
    n = (1 + math.isqrt(1 + 8 * k)) // 2
    return n if n * (n - 1) // 2 == k else None


def _johnson_labeling(session: IRSession, sigma: int, n: int):
    """Label construction for a purported Johnson action J_n on the class
    sigma of the session's base coloring, which has binomial(n, 2)
    members.

    Returns the (n+1) x (n+1) label matrix ``pair_lit``, whose cells
    [i, j] and [j, i] hold the literal labeled {i, j} and whose diagonal,
    row 0 and column 0 hold -1, or a DetectionFailure.  Labels 1..n are
    assigned in order of first appearance, i.e. determined up to a
    relabeling.
    """
    members = session.base.class_members(sigma).tolist()
    size = len(members)
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
        # a fresh adjacency probe of v leaves the session holding v
        held = v not in ad
        ad_v = adjacency(v)
        if ad_v is None:
            return DetectionFailure("wrong fragment structure")
        w = min(ad_v)
        if not held:
            session.individualize(v)
        # read before the next probe: fragments are views of the
        # session's working coloring
        singles = [int(mem[0]) for _, mem in session.push(w).fragments(sigma)
                   if len(mem) == 1 and mem[0] not in (v, w)]
        ad_w = adjacency(w)
        if ad_w is None:
            return DetectionFailure("wrong fragment structure")
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
    partitions into equal blocks, one per label.  Members are probed in
    slot order, and a probe's block-mates take its label unprobed when
    they form one fragment of the class.  Returns one n x block-size
    matrix per accepted class, whose row i - 1 is label i's block
    ordered by the coloring refined from the class's first member (ties
    by id), the lex-leader order, in which positions need not correspond
    across labels; unaccepted classes are skipped silently.
    """
    n = len(pair_lit) - 1
    pi = session.base
    sigma = int(pi.color[pair_lit[1, 2]])
    # label i's literals, ascending, as bytes: row i's two -1 cells
    # (column 0 and the diagonal) sort before them
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
            # negation class of an accepted orbit: the generators' negation
            # closure already moves it, a second block map would conflict
            continue
        # labels by slot in tau
        labels = np.zeros(size, dtype=np.int64)
        for k, t in enumerate(members.tolist()):
            if labels[k]:
                continue
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
            # t's block-mates, when they form one fragment of tau, share
            # its label; otherwise each is probed in turn
            mates = [mem for _, mem in rep.fragments(tau)
                     if len(mem) == size // n - 1 and mem[0] != t]
            if len(mates) == 1:
                labels[pi.pos[mates[0]] - tau] = labels[k]
        # a member left unlabeled keeps label 0, so the n labels then
        # cannot share all members equally
        if (np.bincount(labels, minlength=n + 1)[1:] == size // n).all():
            by = np.lexsort((members, ref_color, labels))
            accepted.append(members[by].reshape(n, size // n))
            accepted_colors.add(tau)
    return accepted


def _pinned_colors(session: IRSession, extensions, label: int) -> list:
    """Per extension, its members' colors, shaped like its block matrix,
    once all but the last member of each of `label`'s blocks are pushed.
    A label transposition fixing `label` fixes those pins, so it maps
    each member of one block to the member of the other with the same
    color (color ids are isomorphism-invariant)."""
    pins = [v for blocks in extensions for v in blocks[label - 1, :-1]]
    coloring = session.base
    for k, v in enumerate(pins):
        push = session.push if k else session.individualize
        coloring = push(int(v)).coloring
    return [coloring.color[blocks] for blocks in extensions]


def detect_johnson(formula: Formula, graph: ColoredGraph, pi: Coloring,
                   sigma: int, other_colors=()):
    """Johnson action J_n on the class `sigma`, extended to the
    label-aligned block orbits among `other_colors`.

    Each label transposition carries the blocks of its two labels along;
    once an orbit is accepted the bare one can never verify, as it fixes
    a member of label 1's block, whose individualization splits off
    label 1's literals, yet maps those onto label 2's.  The blocks of
    two labels are paired by the colors that pinning a third label's
    blocks gives them (see `_pinned_colors`), and the n - 1 label
    transpositions are verified as one factor.
    """
    members = pi.class_members(sigma)
    if (members >= graph.num_literal_vertices).any():
        return DetectionFailure("sigma is not a literal class")
    if negation_class_of(pi, sigma) == sigma:
        return DetectionFailure("self-negating orbit")
    # gated before the session, whose construction costs O(vertices)
    if len(members) < 28:
        return DetectionFailure("size gate: |sigma| < 28")
    n = _triangular_n(len(members))
    if n is None:
        return DetectionFailure("|sigma| is not a binomial(n, 2)")

    session = IRSession(graph, pi)
    pair_lit = _johnson_labeling(session, sigma, n)
    if isinstance(pair_lit, DetectionFailure):
        return pair_lit
    extensions = detect_johnson_row_extension(session, pair_lit,
                                              other_colors)

    # transposition (i, i+1) pairs each extension's blocks i and i+1 by
    # the colors pinned by label n when i = 1, else by label 1
    pinned = {label: _pinned_colors(session, extensions, label)
              for label in (1, n)}
    pairs = []
    for i in range(1, n):
        others = [r for r in range(1, n + 1) if r not in (i, i + 1)]
        xs = pair_lit[i, others].tolist()
        ys = pair_lit[i + 1, others].tolist()
        for blocks, color in zip(extensions, pinned[n if i == 1 else 1]):
            for line, row in ((xs, i - 1), (ys, i)):
                by = np.lexsort((blocks[row], color[row]))
                line.extend(blocks[row, by].tolist())
        pairs.append((xs, ys))
    generators = _verified_factor(formula, pairs)
    if isinstance(generators, int):
        return DetectionFailure("verification failed")

    literals = [t for i in range(1, n + 1)
                for t in pair_lit[i, i + 1:].tolist()]
    for blocks in extensions:
        literals.extend(blocks.ravel().tolist())
    return Structure("johnson", (n,), literals, generators)


def stabilizer_recursion(formula: Formula, graph: ColoredGraph, pi: Coloring,
                         sigma: int, detectors):
    """After a failed attempt on sigma, retry each of `detectors`, (name,
    detector) pairs, in turn, on the largest fragment of sigma under the
    first individualization.  One recursion level only; the failure
    names each detector's reason."""
    members = pi.class_members(sigma).tolist()
    if len(members) < 2:
        return DetectionFailure("size gate: singleton class")
    rep = individualize_refine(graph, pi, members[0])
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
