"""Vertex-colored model graph of a CNF formula.

Vertices 0..2n-1 are the literal codes of the n variables; vertex 2n+i is
the i-th unique clause.  Edges join each literal to its negation and each
clause to the literals it contains.  The restriction of the graph's
automorphisms to the literal vertices is exactly the symmetry group of
the formula.
"""

from __future__ import annotations

import numpy as np

from .cnf import Formula


class ColoredGraph:
    """Undirected graph in CSR form plus an initial color key per vertex."""

    def __init__(self, vertex_count: int, indptr, neighbors, color_keys,
                 num_literal_vertices: int):
        self.vertex_count = vertex_count
        self.indptr = indptr
        self.neighbors = neighbors
        self.color_keys = color_keys
        self.num_literal_vertices = num_literal_vertices
        self.max_degree = int((indptr[1:] - indptr[:-1]).max()) if vertex_count else 0

    # unused by the package; the graph hook of perfbench/tracing.py
    # counts edges with it
    def edge_count(self) -> int:
        return len(self.neighbors) // 2


def build_model_graph(formula: Formula) -> ColoredGraph:
    """Model graph over 2*num_vars literal vertices plus unique clauses.

    Clause vertices start uniformly colored but are pre-split by clause
    length; lengths are invariant under any formula symmetry so this only
    refines the coloring the detectors would compute anyway.
    """
    nlit = 2 * formula.num_vars
    lens, flat, _, occ, occ_ptr = formula._clause_arrays()
    vertex_count = nlit + len(lens)
    # literal l's row: its negation, then the clauses holding it in
    # ascending order; a clause's row: its literals
    lits = np.arange(nlit, dtype=np.int32)
    neighbors = np.concatenate(
        (np.insert(nlit + occ, occ_ptr[:-1], lits ^ 1), flat))
    indptr = np.zeros(vertex_count + 1, dtype=np.int32)
    np.cumsum(np.concatenate((np.diff(occ_ptr) + 1, lens)), out=indptr[1:])

    color_keys = np.zeros(vertex_count, dtype=np.int64)
    lengths, rank = np.unique(lens, return_inverse=True)
    color_keys[nlit:] = 1 + rank

    return ColoredGraph(vertex_count, indptr, neighbors, color_keys, nlit)
