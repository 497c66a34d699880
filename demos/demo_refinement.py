"""Walkthrough: the model graph and color refinement, the engine under
every detector.

A CNF formula becomes a vertex-colored graph: one vertex per literal,
one per unique clause, edges literal<->negation and clause<->member.
Equitable refinement then partitions the vertices so that any two
vertices in a class have the same number of neighbors in every class —
a cheap over-approximation of the automorphism orbits.  Individualizing
a vertex (forcing it into its own class) and re-refining shows how the
rest of its orbit decomposes relative to it, which is the detectors'
main probe.

Run:  python3 demos/demo_refinement.py
"""

from symbreak.cnf import pos
from symbreak.modelgraph import build_model_graph
from symbreak.refine import IRSession, initial_coloring, refine_stable
from symbreak.testkit import gen_php


def describe(coloring, graph, label):
    lits = [c for c in coloring.classes()
            if coloring.order[c] < graph.num_literal_vertices]
    sizes = sorted((int(coloring.clen[c]) for c in lits), reverse=True)
    print(f"{label}: {len(lits)} literal classes, sizes {sizes}")


def main():
    pigeons, holes = 4, 3
    formula = gen_php(pigeons)   # 4 pigeons, 3 holes, variables p(i,j)
    graph = build_model_graph(formula)
    print(f"model graph: {graph.vertex_count} vertices "
          f"({graph.num_literal_vertices} literals, "
          f"{graph.vertex_count - graph.num_literal_vertices} clauses)")

    base = refine_stable(graph, initial_coloring(graph))
    describe(base.coloring, graph, "stable coloring")
    # All 20 positive literals are equivalent under refinement alone:
    # the symmetry group is transitive on the variable matrix.

    # Individualize p(1,1): the positive class splits into the pivot,
    # its row (same pigeon), its column (same hole), and the rest.
    session = IRSession(graph, base.coloring)
    v = pos(1)
    rep = session.individualize(v)
    sigma = int(base.coloring.color[v])
    # fragments: (refined color, members) of each piece of the class
    frags = rep.fragments(sigma)
    print(f"after individualizing variable 1 (class {sigma}):")
    for _, members in frags:
        variables = sorted(int(u) // 2 + 1 for u in members)
        print(f"  fragment size {len(variables)}: variables {variables}")
    sizes = sorted(len(members) for _, members in frags)
    assert sizes == sorted([1, holes - 1, pigeons - 1,
                            (holes - 1) * (pigeons - 1)])
    # Pivot, its row mates (same pigeon), its column mates (same hole),
    # and the rest: exactly the signature the row-column detector
    # looks for.


if __name__ == "__main__":
    main()
