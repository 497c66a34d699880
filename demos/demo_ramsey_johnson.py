"""Walkthrough: Johnson symmetry on graph-edge variables.

ramsey(3,3,n) asks for a 2-coloring of the complete graph K_n with no
monochromatic triangle; its variables are the C(n,2) edges of K_n, and
relabeling the n graph vertices permutes those edge variables — the
Johnson group J(n,2).  Detecting it on the C(n,2)-sized orbit takes only
n-1 adjacent vertex transpositions, exponentially fewer generators than
the group's n! elements.

Run:  python3 demos/demo_ramsey_johnson.py
"""

import json

from symbreak.cnf import is_automorphism
from symbreak.pipeline import run
from symbreak.testkit import gen_cliquecolor, gen_ramsey


def main():
    n = 10
    formula = gen_ramsey(3, 3, n)
    print(f"ramsey(3,3,{n}): {formula.num_vars} edge variables, "
          f"{len(formula.clauses)} clauses")

    out = run(formula)
    s = out.structures[0]
    print(f"detected: {s.kind} structure on {s.dims[0]} points, "
          f"{len(s.generators)} generators")
    assert all(is_automorphism(formula, g) for g in s.generators)
    print("all generators verified as formula automorphisms")

    # The structured group accounts for everything: the remainder search
    # finds nothing left to break.
    print(f"remainder generators: {len(out.remainder_generators)}")

    # cliquecolor couples edge variables to clique-slot and color
    # variables; the Johnson generators must be extended to move those
    # rows too, which the detector does before verification.
    formula = gen_cliquecolor(9, 3, 2)
    out = run(formula)
    print(f"\ncliquecolor(9,3,2): {formula.num_vars} variables")
    print(json.dumps(out.stats["structures"], indent=2))


if __name__ == "__main__":
    main()
