"""Model graph construction invariants."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from symbreak.cnf import Formula, neg_var, pos, transpose
from symbreak.modelgraph import build_model_graph
from oracles import from_edges, neighbors_of
from test_generator_differential import as_dict
from symbreak.testkit import gen_php


def test_single_clause_counts():
    f = Formula(2, [[pos(1), neg_var(2)]])
    g = build_model_graph(f)
    assert g.vertex_count == 5
    assert g.edge_count() == 4


def test_no_clause_formula():
    f = Formula(1, [])
    g = build_model_graph(f)
    assert g.vertex_count == 2
    assert g.edge_count() == 1


def test_php5_counts():
    g = build_model_graph(gen_php(5))
    assert g.vertex_count == 85
    assert g.edge_count() == 120


def test_duplicate_clauses_become_one_vertex():
    f = Formula(2, [[pos(1), pos(2)], [pos(2), pos(1)]])
    g = build_model_graph(f)
    assert g.vertex_count == 2 * 2 + 1


def test_degrees():
    f = Formula(2, [[pos(1), pos(2)], [pos(1)]])
    g = build_model_graph(f)
    degree = np.diff(g.indptr)
    # literal degree = 1 negation edge + occurrences
    assert degree[pos(1)] == 3
    assert degree[pos(2)] == 2
    assert degree[neg_var(1)] == 1
    # clause degree = clause length
    assert degree[4] == 2
    assert degree[5] == 1


def test_clause_color_split_by_length():
    f = Formula(3, [[pos(1), pos(2)], [pos(1), pos(2), pos(3)]])
    g = build_model_graph(f)
    keys = g.color_keys
    assert keys[6] != keys[7]
    assert all(keys[v] == 0 for v in range(6))


def test_automorphism_extends_to_graph():
    """A formula symmetry permutes literal vertices and maps each clause
    vertex onto the vertex of the image clause."""
    f = Formula(2, [[pos(1), pos(2)], [neg_var(1)], [neg_var(2)]])
    g = build_model_graph(f)
    phi = as_dict(transpose([pos(1)], [pos(2)]))
    clause_of = {c: 4 + i for i, c in enumerate(f.unique_clauses)}
    vperm = {l: phi.get(l, l) for l in range(4)}
    for c, v in clause_of.items():
        image = tuple(sorted(phi.get(l, l) for l in c))
        vperm[v] = clause_of[image]
    adj = set()
    for v in range(g.vertex_count):
        for u in neighbors_of(g, v):
            adj.add((v, int(u)))
    assert all((vperm[a], vperm[b]) in adj for a, b in adj)


@st.composite
def small_formulas(draw):
    """Clause lengths 0-4, duplicate clauses, unused variables."""
    num_vars = draw(st.integers(0, 5))
    lit = st.integers(0, max(2 * num_vars - 1, 0))
    size = st.integers(0, 4 if num_vars else 0)
    clauses = draw(st.lists(size.flatmap(
        lambda k: st.lists(lit, min_size=k, max_size=k)), max_size=10))
    return Formula(num_vars, clauses + clauses[:draw(st.integers(0, 2))])


@given(small_formulas())
def test_neighbor_order(f):
    """A literal's row lists its negation, then the clauses holding it by
    clause index; a clause's row lists its literals in order."""
    nlit = 2 * f.num_vars
    rows = [[l ^ 1] for l in range(nlit)]
    rows += [list(c) for c in f.unique_clauses]
    for i, c in enumerate(f.unique_clauses):
        for l in c:
            rows[l].append(nlit + i)
    g = build_model_graph(f)
    assert [neighbors_of(g, v).tolist()
            for v in range(g.vertex_count)] == rows


class TestColoredGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            from_edges(2, [(0, 0)])

    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            from_edges(2, [(0, 1), (1, 0)])

    def test_neighbors_sorted_by_construction(self):
        g = from_edges(4, [(2, 0), (0, 1), (0, 3)])
        assert sorted(neighbors_of(g, 0).tolist()) == [1, 2, 3]
        assert g.indptr[1] - g.indptr[0] == 3

