"""Seeded CNF instances for the benchmark workloads, each with the answer
known from how it was built.

Every workload draws its sizes from the seed, renames the variables,
shuffles the clause order and shuffles the literals inside each clause.
Polarity is never flipped.  Sizes come in mirrored pairs around fixed
centres (centre + d, centre - d), so the total work of a pass stays
nearly constant across seeds while every instance size still varies.

Instances are plain lists of clauses over signed DIMACS integers; the
known answers never come from running symbreak.  The generators follow
the numbering of `symbreak.testkit` but build no `Formula`, so a change
to symbreak's formula representation cannot change the inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field


@dataclass
class Instance:
    name: str
    num_vars: int
    clauses: list            # lists of signed DIMACS literals, file order
    answer: dict             # what the output must show; see oracle.py
    model: list = field(default=None, repr=False)   # known model, if any


def _php(n):
    """Pigeonhole, n pigeons into n - 1 holes (no symbreak code)."""
    m = n - 1
    p = lambda i, j: i * m + j + 1
    clauses = [[p(i, j) for j in range(m)] for i in range(n)]
    for j in range(m):
        for i, k in itertools.combinations(range(n), 2):
            clauses.append([-p(i, j), -p(k, j)])
    return n * m, clauses


def _edge_var(n):
    index = {}
    for u, v in itertools.combinations(range(n), 2):
        index[(u, v)] = index[(v, u)] = len(index) // 2 + 1
    return index


def _ramsey(k, s, n):
    """No red k-clique and no blue s-independent set on n vertices."""
    e = _edge_var(n)
    clauses = [[-e[p] for p in itertools.combinations(sub, 2)]
               for sub in itertools.combinations(range(n), k)]
    clauses += [[e[p] for p in itertools.combinations(sub, 2)]
                for sub in itertools.combinations(range(n), s)]
    return n * (n - 1) // 2, clauses


def _cliquecolor(n, k, c):
    """A graph on n vertices with a k-clique that is properly c-colored;
    the same numbering as symbreak.testkit.gen_cliquecolor."""
    e = _edge_var(n)
    ne = n * (n - 1) // 2
    q = lambda i, v: ne + i * n + v + 1
    x = lambda v, j: ne + k * n + v * c + j + 1
    clauses = [[q(i, v) for v in range(n)] for i in range(k)]
    for i in range(k):
        for u, v in itertools.combinations(range(n), 2):
            clauses.append([-q(i, u), -q(i, v)])
    for i, i2 in itertools.combinations(range(k), 2):
        for u in range(n):
            for v in range(n):
                if u == v:
                    clauses.append([-q(i, u), -q(i2, u)])
                else:
                    clauses.append([-q(i, u), -q(i2, v), e[(u, v)]])
    clauses += [[x(v, j) for j in range(c)] for v in range(n)]
    for u, v in itertools.combinations(range(n), 2):
        for j in range(c):
            clauses.append([-e[(u, v)], -x(u, j), -x(v, j)])
    return ne + k * n + n * c, clauses


def _cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def _torus(a, b):
    idx = lambda i, j: i * b + j
    edges = []
    for i in range(a):
        for j in range(b):
            edges.append((idx(i, j), idx((i + 1) % a, j)))
            edges.append((idx(i, j), idx(i, (j + 1) % b)))
    return a * b, edges


def _hypercube(d):
    return 1 << d, [(v, v ^ (1 << i)) for v in range(1 << d)
                    for i in range(d) if v < v ^ (1 << i)]


def _cycle_3coloring(n):
    """Proper 3-coloring of the n-cycle, n >= 3."""
    col = [i % 2 for i in range(n)]
    if n % 2:
        col[-1] = 2
    return col


def _graph_coloring(kind, size):
    """(vertex count, edges, a proper coloring with colors < 3)."""
    if kind == "cycle":
        n, edges = _cycle(size)
        return n, edges, _cycle_3coloring(n)
    if kind == "torus":
        n, edges = _torus(size, size)
        ca = _cycle_3coloring(size)
        # sum of two proper Z3-colorings of the factors is proper
        return n, edges, [(ca[i] + ca[j]) % 3
                          for i in range(size) for j in range(size)]
    n, edges = _hypercube(size)
    return n, edges, [bin(v).count("1") % 2 for v in range(n)]


def _coloring_cnf(n, edges, k):
    """k-coloring: at least one and at most one color per vertex, no
    monochromatic edge.  Variable x(v, j) = v * k + j + 1."""
    x = lambda v, j: v * k + j + 1
    clauses = [[x(v, j) for j in range(k)] for v in range(n)]
    for v in range(n):
        for i, j in itertools.combinations(range(k), 2):
            clauses.append([-x(v, i), -x(v, j)])
    for u, v in edges:
        for j in range(k):
            clauses.append([-x(u, j), -x(v, j)])
    return n * k, clauses


def _random_3sat(n, rng):
    """Uniform random 3-SAT at 4.26 clauses per variable, with unused
    variables dropped so that no variable is trivially symmetric."""
    m = round(4.26 * n)
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    used = sorted({abs(l) for c in clauses for l in c})
    compact = {v: i + 1 for i, v in enumerate(used)}
    return len(used), [[compact[abs(l)] * (1 if l > 0 else -1) for l in c]
                       for c in clauses]


def scramble(num_vars, clauses, rng):
    """Rename variables, shuffle clause order and literal order; polarity
    is kept.  Returns the new clauses and the renaming (old -> new)."""
    perm = list(range(1, num_vars + 1))
    rng.shuffle(perm)
    rename = dict(zip(range(1, num_vars + 1), perm))
    out = [[rename[abs(l)] * (1 if l > 0 else -1) for l in c]
           for c in clauses]
    rng.shuffle(out)
    for c in out:
        rng.shuffle(c)
    return out, rename


def _mirrored(rng, centres, spread):
    """Sizes centre + d and centre - d for each centre, d drawn from
    0..spread by the seed."""
    sizes = []
    for c in centres:
        d = rng.randint(0, spread)
        sizes += [c + d, c - d]
    return sizes


def _rowcol(rng):
    out = []
    # four instances, so that the renaming's effect on each call's time
    # (about 6% per instance) averages out across seeds
    for n in _mirrored(rng, (21, 25), 1):
        nv, cl = _php(n)
        cl, _ = scramble(nv, cl, rng)
        out.append(Instance(f"php({n})", nv, cl,
                            {"structures": [("row-column", sorted((n, n - 1)))]}))
    return out


def _johnson(rng):
    out = []
    fams = [("cliquecolor", n, lambda n: _cliquecolor(n, 3, 2))
            for n in _mirrored(rng, (22,), 1)]
    fams += [("ramsey33", n, lambda n: _ramsey(3, 3, n))
             for n in _mirrored(rng, (12,), 2)]
    fams += [("ramsey44", n, lambda n: _ramsey(4, 4, n))
             for n in _mirrored(rng, (11,), 2)]
    for fam, n, gen in fams:
        nv, cl = gen(n)
        cl, _ = scramble(nv, cl, rng)
        out.append(Instance(f"{fam}({n})", nv, cl,
                            {"structures": [("johnson", [n])]}))
    return out


def _coloring(rng):
    # odd cycles, the 8x8 torus and Q5 keep their outcome under every
    # renaming at the seed commit; even cycles and 7x7 or 9x9 tori crash
    # or succeed depending on the renaming, which would make the charge
    # for failed calls, and so break_ref_s, depend on the seed
    d = 2 * rng.randint(0, 5)
    k = rng.choice((3, 4))
    specs = [("cycle", 41 + d, k), ("cycle", 41 - d, k),
             ("torus", 8, rng.choice((3, 4))), ("hypercube", 5, 3)]
    out = []
    for kind, size, k in specs:
        n, edges, col = _graph_coloring(kind, size)
        nv, cl = _coloring_cnf(n, edges, k)
        cl, rename = scramble(nv, cl, rng)
        model = [0] * (nv + 1)
        for v in range(n):
            for j in range(k):
                var = rename[v * k + j + 1]
                model[var] = var if col[v] == j else -var
        out.append(Instance(f"{kind}{size}-k{k}", nv, cl,
                            {"satisfiable": True}, model=model[1:]))
    return out


def _nosym(rng):
    out = []
    for n in _mirrored(rng, (2000, 2000), 100):
        nv, cl = _random_3sat(n, rng)
        cl, _ = scramble(nv, cl, rng)
        out.append(Instance(f"3sat({nv})", nv, cl,
                            {"structures": [], "clauses_added": 0}))
    return out


WORKLOADS = {
    "rowcol": _rowcol,
    "johnson": _johnson,
    "coloring": _coloring,
    "nosym": _nosym,
}


def warmup_instance() -> Instance:
    """php(6) as generated; succeeds at every commit measured so far."""
    nv, cl = _php(6)
    return Instance("php(6)", nv, cl,
                    {"structures": [("row-column", [5, 6])]})


def make_instances(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def to_dimacs(inst: Instance) -> str:
    lines = [f"p cnf {inst.num_vars} {len(inst.clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in inst.clauses]
    return "\n".join(lines) + "\n"
