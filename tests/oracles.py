"""Reference oracles for the test suite.

Brute-force satisfiability, automorphism and admitted-model
enumeration, the clause multiset image check, and the partition and
equitability checks of a coloring, together with an edge-list
constructor for hand-built graphs.
They are deliberately independent of the production code paths they
check, and no path of `symbreak break` or `symbreak gen` runs them, so
they live here rather than in the package.  Tests import them as
``from oracles import ...``; a script outside `tests/` can load this
file by path.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from symbreak.cnf import Formula, LiteralPermutation, is_automorphism
from symbreak.modelgraph import ColoredGraph
from symbreak.refine import Coloring
from symbreak.testkit import dpll_count


def from_edges(vertex_count: int, edges, color_keys=None,
               num_literal_vertices: int = 0) -> ColoredGraph:
    """The graph on `vertex_count` vertices with the undirected `edges`,
    each neighbor list in the edges' order; ValueError for a self-loop
    or a repeated edge.  Color keys default to all zero."""
    edges = list(edges)
    for u, v in edges:
        if u == v:
            raise ValueError("self-loops are not allowed")
    if len(set(frozenset(e) for e in edges)) != len(edges):
        raise ValueError("parallel edges are not allowed")
    src = np.empty(2 * len(edges), dtype=np.int32)
    dst = np.empty(2 * len(edges), dtype=np.int32)
    for i, (u, v) in enumerate(edges):
        src[2 * i], dst[2 * i] = u, v
        src[2 * i + 1], dst[2 * i + 1] = v, u
    order = np.argsort(src, kind="stable")
    neighbors = dst[order]
    counts = np.bincount(src, minlength=vertex_count)
    indptr = np.zeros(vertex_count + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    if color_keys is None:
        color_keys = np.zeros(vertex_count, dtype=np.int64)
    else:
        color_keys = np.asarray(color_keys, dtype=np.int64)
    return ColoredGraph(vertex_count, indptr, neighbors, color_keys,
                        num_literal_vertices)


def neighbors_of(graph: ColoredGraph, v: int):
    """v's neighbors: a view of the graph's CSR row."""
    return graph.neighbors[graph.indptr[v]:graph.indptr[v + 1]]


def partition(coloring: Coloring) -> list:
    """Ordered list of frozensets, one per class."""
    return [frozenset(int(v) for v in coloring.class_members(c))
            for c in coloring.classes()]


def is_equitable(coloring: Coloring, graph: ColoredGraph) -> bool:
    """Recount check: every vertex of a class has the same number of
    neighbors in every class."""
    for c in coloring.classes():
        sig = None
        for v in coloring.class_members(c):
            counts = {}
            for u in neighbors_of(graph, int(v)):
                cu = int(coloring.color[u])
                counts[cu] = counts.get(cu, 0) + 1
            fs = frozenset(counts.items())
            if sig is None:
                sig = fs
            elif fs != sig:
                return False
    return True


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


def brute_force_automorphisms(graph: ColoredGraph, cap: int = 8) -> list:
    """All color- and adjacency-preserving vertex permutations, by
    enumeration.  Refuses graphs above the cap."""
    n = graph.vertex_count
    if n > cap:
        raise ValueError(f"vertex count {n} exceeds cap {cap}")
    adj = set()
    for v in range(n):
        for u in neighbors_of(graph, v):
            adj.add((v, int(u)))
    classes: dict = {}
    for v in range(n):
        classes.setdefault(int(graph.color_keys[v]), []).append(v)
    groups = [classes[k] for k in sorted(classes)]
    out = []
    for parts in itertools.product(*map(itertools.permutations, groups)):
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
    variable permutations."""
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


def clause_multiset_image_check(formula: Formula,
                                phi: LiteralPermutation) -> bool:
    """Full oracle: image multiset of the unique clause set equals itself."""
    image = dict(zip(phi.support.tolist(), phi.images.tolist()))
    images = Counter(tuple(sorted(image.get(l, l) for l in c))
                     for c in formula.unique_clauses)
    return images == Counter(formula.unique_clauses)


def admitted_models(formula: Formula, out) -> tuple:
    """(models of `formula`, those that the clauses `out` adds admit), by
    enumerating every assignment of the input's variables; only
    input-variable models are counted.  Every breaking clause holds at
    most one positive aux literal, so a model is admitted exactly when,
    after unit propagation of the added clauses from it, the assignment
    with every aux variable it does not force set false satisfies every
    added clause."""
    n = formula.num_vars
    if n > 20:
        raise ValueError(f"variable count {n} exceeds cap 20")
    value = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    alive = np.ones(1 << n, dtype=bool)
    for clause in formula.clauses:
        lits = np.array(clause, dtype=np.int64)
        alive &= (value[:, lits >> 1] != (lits & 1)).any(axis=1)
    added = out.added_clauses
    admitted = 0
    for row in value[alive].tolist():
        assign = dict(enumerate(row))
        changed = True
        while changed:
            changed = False
            for clause in added:
                free = [l for l in clause if l >> 1 not in assign]
                if len(free) == 1 and not any(
                        assign.get(l >> 1) == 1 - (l & 1) for l in clause):
                    assign[free[0] >> 1] = 1 - (free[0] & 1)
                    changed = True
        admitted += all(any(assign.get(l >> 1, 0) == 1 - (l & 1)
                            for l in clause) for clause in added)
    return int(alive.sum()), admitted
