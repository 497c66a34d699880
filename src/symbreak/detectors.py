"""Structure detection on the model graph: row, row-column, and Johnson.

Detection treats the color classes of the stable coloring as purported
orbits.  Each detector builds candidate permutations from the effect of
individualization-refinement and only returns a structure once every
generator has been verified against the formula, so a non-Tinhofer model
graph can only cause a miss, never a wrong answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .cnf import Formula, is_automorphism, transpose, var_of
from .modelgraph import ColoredGraph
from .refine import Coloring, IRSession, individualize_refine


@dataclass
class DetectionFailure:
    reason: str

    def __bool__(self):
        return False


@dataclass
class RowStructure:
    matrix: list                      # rows x cols of literal codes
    generators: list                  # consecutive-row transpositions
    covered_vertices: set

    kind = "row"

    @property
    def dims(self):
        return (len(self.matrix), len(self.matrix[0]) if self.matrix else 0)

    def ordered_variables(self):
        """Variables row-major, repeats included."""
        for row in self.matrix:
            for lit in row:
                yield var_of(lit)


class RowColumnStructure(RowStructure):
    """Row-column symmetry: ``matrix`` is n_rows x n_cols of literal codes
    and ``generators`` are the adjacent row and column transpositions."""

    kind = "row-column"


@dataclass
class JohnsonStructure:
    n: int
    label: dict                       # literal -> frozenset({i, j})
    pair_to_lit: dict                 # label inverted
    generators: list                  # adjacent label transpositions
    covered_vertices: set
    extensions: list = field(default_factory=list)  # (color id, {label: block})

    kind = "johnson"

    @property
    def dims(self):
        return (self.n,)

    def ordered_variables(self):
        """Variables label-major, then each extension block by label,
        repeats included."""
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                yield var_of(self.pair_to_lit[frozenset((i, j))])
        for _, blocks in self.extensions:
            for i in range(1, self.n + 1):
                for lit in blocks[i]:
                    yield var_of(lit)


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
    # each row is checked and its transposition with the previous row
    # verified as soon as it is built, so a refuted attempt stops at its
    # first refuting row; a row depends only on its member, so a found
    # structure is the same as if every member were probed first
    rows = []
    seen = set()
    generators = []
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
        if rows:
            phi = _verified_swap(formula, rows[-1], row)
            if phi is None:
                return DetectionFailure(f"verification failed at row {i}")
            generators.append(phi)
        rows.append(row)

    return RowStructure(matrix=rows, generators=generators,
                        covered_vertices=seen)


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

    def column(ci):
        return [matrix[ri][ci] for ri in range(len(row_labels))]

    # adjacent transpositions generate the same group as the pivot-star
    # ones and make much stronger lex-leader constraints under the
    # row-major order, so they are what the structure carries
    generators = []
    swaps = ([(column(ci), column(ci + 1))
              for ci in range(len(col_labels) - 1)]
             + [(matrix[ri], matrix[ri + 1])
                for ri in range(len(row_labels) - 1)])
    for a, b in swaps:
        phi = _verified_swap(formula, a, b)
        if phi is None:
            return DetectionFailure("verification failed")
        generators.append(phi)

    covered = set(members) | set(m ^ 1 for m in members)
    return RowColumnStructure(matrix=matrix, generators=generators,
                              covered_vertices=covered)


def _triangular_n(k: int):
    n = int((1 + (1 + 8 * k) ** 0.5) / 2)
    for cand in (n - 1, n, n + 1):
        if cand * (cand - 1) // 2 == k:
            return cand
    return None


def _johnson_labeling(session: IRSession, sigma: int):
    """Label construction for a purported Johnson action on the class
    sigma of the session's base coloring.

    Returns (n, label dict) or a DetectionFailure.  Labels are assigned in
    order of first appearance, i.e. determined up to a relabeling.
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
    pairs = set()
    for u in members:
        if len(label[u]) != 2:
            return DetectionFailure("incomplete labels")
        pairs.add(frozenset(label[u]))
    if len(pairs) != size:
        return DetectionFailure("labels are not a bijection")
    return n, {u: frozenset(label[u]) for u in members}


def _johnson_generator(n: int, pair_to_lit: dict, i: int,
                       block_pairings) -> tuple:
    """The two literal lists that the label transposition (i, i+1)
    exchanges, plus explicit block pairings.  ``pair_to_lit`` maps each
    label pair to its literal."""
    others = [r for r in range(1, n + 1) if r not in (i, i + 1)]
    xs = [pair_to_lit[frozenset((i, r))] for r in others]
    ys = [pair_to_lit[frozenset((i + 1, r))] for r in others]
    for bx, by in block_pairings:
        xs.extend(bx)
        ys.extend(by)
    return xs, ys


def detect_johnson_row_extension(session: IRSession, n: int, label: dict,
                                 other_colors) -> list:
    """Orbits whose stabilization splits the Johnson class along one label.

    For each candidate class of the session's base coloring,
    individualizing any member must split the labeled class into the
    literals carrying one particular label and the rest; the class then
    partitions into equal blocks, one per label.  Returns (color id,
    {label: ordered block}) pairs; unaccepted classes are skipped
    silently.
    """
    incident = {i: set() for i in range(1, n + 1)}
    for u, p in label.items():
        for i in p:
            incident[i].add(u)
    label_of = {frozenset(us): i for i, us in incident.items()}
    pi = session.base
    sigma = int(pi.color[next(iter(label))])
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
    res = _johnson_labeling(session, sigma)
    if isinstance(res, DetectionFailure):
        return res
    n, label = res
    pair_to_lit = {p: l for l, p in label.items()}

    def build_generators(extensions):
        """One verified generator per label transposition (i, i+1), or
        None.  Each extension's block i is paired with a permutation of
        its block i+1; the first 64 combinations are tried in turn, the
        first being the reference pairing.  None of them reaches past a
        block's 64th permutation, so no more are generated."""
        gens = []
        for i in range(1, n):
            sources = [blocks[i] for _, blocks in extensions]
            targets = [itertools.islice(
                itertools.permutations(blocks[i + 1]), 64)
                for _, blocks in extensions]
            for combo in itertools.islice(itertools.product(*targets), 64):
                phi = _verified_swap(formula, *_johnson_generator(
                    n, pair_to_lit, i, zip(sources, combo)))
                if phi is not None:
                    gens.append(phi)
                    break
            else:
                return None
        return gens

    extensions = detect_johnson_row_extension(session, n, label,
                                              other_colors)
    generators = build_generators(extensions)
    if generators is None and extensions:
        extensions = []
        generators = build_generators([])
    if generators is None:
        return DetectionFailure("verification failed")

    covered = set(members) | set(m ^ 1 for m in members)
    for _, blocks in extensions:
        for block in blocks.values():
            covered.update(block)
            covered.update(t ^ 1 for t in block)
    return JohnsonStructure(n=n, label=label, pair_to_lit=pair_to_lit,
                            generators=generators,
                            covered_vertices=covered, extensions=extensions)


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
