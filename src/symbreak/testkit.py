"""Instance generators and brute-force oracles for the test suite.

The generators use fixed, documented variable numberings so detection
results are comparable across runs.  The oracles are deliberately
independent of the production code paths they check.
"""

from __future__ import annotations

import itertools
import time

from .cnf import Formula, neg_var, pos
from .modelgraph import ColoredGraph


def edge_index(u: int, v: int, n: int) -> int:
    """1-based variable id of edge {u, v} (1-based vertices, u != v),
    pairs in lexicographic order: {1,2},{1,3},...,{n-1,n}."""
    if u > v:
        u, v = v, u
    return (u - 1) * n - u * (u + 1) // 2 + v


def gen_php(n: int, m: int = None) -> Formula:
    """Pigeonhole principle: n pigeons into m holes (default n-1).

    Variable p_{i,j} = (i-1)*m + j says pigeon i sits in hole j.
    """
    if m is None:
        m = n - 1
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 pigeons and m >= 1 holes")

    def p(i, j):
        return (i - 1) * m + j

    clauses = []
    for i in range(1, n + 1):
        clauses.append([pos(p(i, j)) for j in range(1, m + 1)])
    for j in range(1, m + 1):
        for i in range(1, n + 1):
            for k in range(i + 1, n + 1):
                clauses.append([neg_var(p(i, j)), neg_var(p(k, j))])
    return Formula(n * m, clauses)


def gen_ramsey(k: int, s: int, n: int) -> Formula:
    """Ramsey instance on n vertices: no red k-clique, no blue s-set.

    Edge variables in lexicographic pair order; a true edge is red.
    """
    if n < max(k, s) or min(k, s) < 2:
        raise ValueError("need n >= max(k, s) >= 2")
    clauses = []
    for subset in itertools.combinations(range(1, n + 1), k):
        clauses.append([neg_var(edge_index(u, v, n))
                        for u, v in itertools.combinations(subset, 2)])
    for subset in itertools.combinations(range(1, n + 1), s):
        clauses.append([pos(edge_index(u, v, n))
                        for u, v in itertools.combinations(subset, 2)])
    return Formula(n * (n - 1) // 2, clauses)


def gen_cliquecolor(n: int, k: int, c: int) -> Formula:
    """A graph on n vertices with a k-clique that is properly c-colored.

    Variables: edges e_{u,v} (lexicographic), then clique slots q_{i,v}
    (slot-major), then colors x_{v,j} (vertex-major).  Unsatisfiable
    whenever k > c.
    """
    if n < k or k < 2 or c < 1:
        raise ValueError("need n >= k >= 2 and c >= 1")
    num_edges = n * (n - 1) // 2

    def q(i, v):
        return num_edges + (i - 1) * n + v

    def x(v, j):
        return num_edges + k * n + (v - 1) * c + j

    clauses = []
    for i in range(1, k + 1):
        clauses.append([pos(q(i, v)) for v in range(1, n + 1)])
    for i in range(1, k + 1):
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                clauses.append([neg_var(q(i, u)), neg_var(q(i, v))])
    for i in range(1, k + 1):
        for i2 in range(i + 1, k + 1):
            for u in range(1, n + 1):
                for v in range(1, n + 1):
                    if u == v:
                        clauses.append([neg_var(q(i, u)), neg_var(q(i2, u))])
                    else:
                        clauses.append([neg_var(q(i, u)), neg_var(q(i2, v)),
                                        pos(edge_index(u, v, n))])
    for v in range(1, n + 1):
        clauses.append([pos(x(v, j)) for j in range(1, c + 1)])
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            for j in range(1, c + 1):
                clauses.append([neg_var(edge_index(u, v, n)),
                                neg_var(x(u, j)), neg_var(x(v, j))])
    return Formula(num_edges + k * n + n * c, clauses)


def gen_cycle_coloring(n: int, k: int) -> Formula:
    """Proper k-coloring of the cycle C_n: each vertex takes at least one
    and at most one color, and no edge is monochromatic.

    Variable x_{v,j} = (v-1)*k + j says vertex v has color j.
    """
    if n < 3 or k < 1:
        raise ValueError("need n >= 3 vertices and k >= 1 colors")

    def x(v, j):
        return (v - 1) * k + j

    clauses = []
    for v in range(1, n + 1):
        clauses.append([pos(x(v, j)) for j in range(1, k + 1)])
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                clauses.append([neg_var(x(v, i)), neg_var(x(v, j))])
    for v in range(1, n + 1):
        for j in range(1, k + 1):
            clauses.append([neg_var(x(v, j)), neg_var(x(v % n + 1, j))])
    return Formula(n * k, clauses)


def brute_force_sat(formula: Formula, var_cap: int = 20) -> bool:
    """Exact satisfiability: bitmask enumeration up to var_cap variables,
    complete DPLL above."""
    n = formula.num_vars
    if n > var_cap:
        status, _ = dpll_count(formula)
        assert status in ("sat", "unsat")
        return status == "sat"
    clauses = formula.clauses
    if any(len(c) == 0 for c in clauses):
        return False
    # per-clause (positive mask, negative mask) over variable bits
    masks = []
    for cl in clauses:
        pm = nm = 0
        for lit in cl:
            if lit % 2 == 0:
                pm |= 1 << (lit // 2)
            else:
                nm |= 1 << (lit // 2)
        masks.append((pm, nm))
    full = (1 << n) - 1
    if n > 16:
        import numpy as np

        # chunked vectorized sweep; masks fit in uint64 since n <= 20
        for lo in range(0, 1 << n, 1 << 16):
            theta = np.arange(lo, lo + (1 << 16), dtype=np.uint64)
            alive = np.ones(len(theta), dtype=bool)
            for pm, nm in masks:
                alive &= ((theta & np.uint64(pm)) != 0) | \
                         ((~theta & np.uint64(full)) & np.uint64(nm) != 0)
                if not alive.any():
                    break
            if alive.any():
                return True
        return False
    for theta in range(1 << n):
        if all(theta & pm or (~theta & full) & nm for pm, nm in masks):
            return True
    return False


def dpll_count(formula: Formula, decision_limit: int = None,
               time_limit: float = None):
    """Plain DPLL with unit propagation and watched literals.

    Branches on the smallest unassigned variable, positive phase first;
    the decision count is a deterministic proxy for solver effort.
    Returns ("sat" | "unsat" | "unknown", decisions).
    """
    clauses = [list(c) for c in formula.unique_clauses]
    if any(not c for c in clauses):
        return "unsat", 0
    n = formula.num_vars
    nlits = 2 * n
    watches = [[] for _ in range(nlits)]  # lit -> clause indices watching lit
    for idx, cl in enumerate(clauses):
        if len(cl) == 1:
            watches[cl[0]].append(idx)
        else:
            watches[cl[0]].append(idx)
            watches[cl[1]].append(idx)

    value = [0] * nlits          # literal truth: 0 unset, 1 true, -1 false
    trail = []
    decisions = 0
    deadline = time.monotonic() + time_limit if time_limit else None

    def assign(lit):
        value[lit] = 1
        value[lit ^ 1] = -1
        trail.append(lit)

    def propagate(qhead):
        """Watched-literal unit propagation; returns None on success or a
        conflict marker."""
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            wl = watches[false_lit]
            i = 0
            while i < len(wl):
                idx = wl[i]
                cl = clauses[idx]
                # make sure cl[1] is the false watch
                if len(cl) > 1 and cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], cl[0]
                if value[cl[0]] == 1:
                    i += 1
                    continue
                moved = False
                for j in range(2, len(cl)):
                    if value[cl[j]] != -1:
                        cl[1], cl[j] = cl[j], cl[1]
                        wl[i] = wl[-1]
                        wl.pop()
                        watches[cl[1]].append(idx)
                        moved = True
                        break
                if moved:
                    continue
                if value[cl[0]] == -1:
                    return idx
                assign(cl[0])
                i += 1
        return None

    # top-level units
    for cl in clauses:
        if len(cl) == 1:
            if value[cl[0]] == -1:
                return "unsat", 0
            if value[cl[0]] == 0:
                assign(cl[0])
    if propagate(0) is not None:
        return "unsat", 0

    # stack of (trail length before decision, literal tried, tried_other)
    stack = []
    next_var = 0
    while True:
        v = next_var
        while v < n and value[2 * v] != 0:
            v += 1
        if v == n:
            return "sat", decisions
        if decision_limit is not None and decisions >= decision_limit:
            return "unknown", decisions
        if deadline is not None and time.monotonic() > deadline:
            return "unknown", decisions
        decisions += 1
        lit = 2 * v
        stack.append([len(trail), lit, False])
        assign(lit)
        qhead = len(trail) - 1
        while propagate(qhead) is not None:
            # backtrack to the deepest decision with an untried phase
            while stack and stack[-1][2]:
                mark = stack.pop()[0]
                while len(trail) > mark:
                    l = trail.pop()
                    value[l] = value[l ^ 1] = 0
            if not stack:
                return "unsat", decisions
            frame = stack[-1]
            while len(trail) > frame[0]:
                l = trail.pop()
                value[l] = value[l ^ 1] = 0
            frame[1] ^= 1
            frame[2] = True
            assign(frame[1])
            qhead = len(trail) - 1
        next_var = 0


def brute_force_automorphisms(graph: ColoredGraph, cap: int = 8) -> list:
    """All color- and adjacency-preserving vertex permutations, by
    enumeration.  Oracle only; refuses graphs above the cap."""
    n = graph.vertex_count
    if n > cap:
        raise ValueError(f"vertex count {n} exceeds cap {cap}")
    adj = set()
    for v in range(n):
        for u in graph.neighbors_of(v):
            adj.add((v, int(u)))
    classes: dict = {}
    for v in range(n):
        classes.setdefault(int(graph.color_keys[v]), []).append(v)
    groups = [classes[k] for k in sorted(classes)]
    out = []
    for parts in itertools.product(*(itertools.permutations(g) for g in groups)):
        perm = [0] * n
        for g, img in zip(groups, parts):
            for v, w in zip(g, img):
                perm[v] = w
        if all(((perm[v], perm[u]) in adj) == ((v, u) in adj)
               for v in range(n) for u in range(v + 1, n)):
            out.append(tuple(perm))
    return out


def formula_automorphisms(formula: Formula, var_cap: int = 6) -> list:
    """All automorphisms of a small formula, by enumerating signed
    variable permutations.  Oracle only."""
    from .cnf import LiteralPermutation, is_automorphism

    n = formula.num_vars
    if n > var_cap:
        raise ValueError(f"variable count {n} exceeds cap {var_cap}")
    out = []
    lits = range(2 * n)
    for vperm in itertools.permutations(range(n)):
        for signs in itertools.product((0, 1), repeat=n):
            phi = LiteralPermutation(lits, [2 * w + (sign ^ neg)
                                            for w, sign in zip(vperm, signs)
                                            for neg in (0, 1)])
            if is_automorphism(formula, phi):
                out.append(phi)
    return out
