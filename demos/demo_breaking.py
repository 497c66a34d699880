"""Walkthrough: lex-leader clauses for a single verified symmetry.

A symmetry of a formula maps every satisfying assignment to another one,
so it suffices to search the lexicographically smallest assignment in
each symmetry class.  The lex-leader chain encodes exactly that
constraint for one permutation; this demo builds it by hand for a tiny
formula, prints the clauses, and checks model counts to show which
assignments survive.

Run:  python3 demos/demo_breaking.py
"""

from itertools import product

from symbreak.breaking import build_order, lex_leader_encode
from symbreak.cnf import Formula, is_automorphism, pos, transpose


def models(formula, num_original):
    """Assignments over the original variables extendable to models."""
    found = set()
    n = formula.num_vars
    for bits in product((False, True), repeat=n):
        sat = all(any(bits[l // 2] ^ (l % 2) for l in cl)
                  for cl in formula.clauses)
        if sat:
            found.add(bits[:num_original])
    return sorted(found)


def main():
    # (x1 | x2 | x3) & (!x1 | !x2): swapping x1 and x2 maps the clause
    # set to itself.
    formula = Formula(3, [[pos(1), pos(2), pos(3)],
                          [pos(1) ^ 1, pos(2) ^ 1]])
    phi = transpose([pos(1)], [pos(2)])   # closed over negations
    assert is_automorphism(formula, phi)
    print("phi = (x1 x2) verified as a symmetry")

    order = build_order([], formula)           # plain ascending order
    chain = lex_leader_encode([phi], order, next_aux=formula.num_vars + 1)
    print(f"lex-leader chain: {len(chain.clauses)} clauses, "
          f"{chain.aux_count} auxiliaries")
    for cl in chain.clauses:
        # literal code 2(v-1) is DIMACS v, code 2(v-1)+1 is -v
        print("  (" + " | ".join(f"{'-' if l & 1 else ''}{l // 2 + 1}"
                                 for l in cl) + ")")

    before = models(formula, 3)
    augmented = Formula(formula.num_vars + chain.aux_count,
                        formula.clauses + [list(c) for c in chain.clauses])
    after = models(augmented, 3)
    print(f"models before: {len(before)}, after: {len(after)}")
    for m in before:
        tag = "kept" if m in after else f"pruned (mirror {tuple(reversed(m[:2])) + m[2:]} kept)"
        print(f"  {tuple(int(b) for b in m)}: {tag}")
    # Every pruned model's image under phi survives: the augmented
    # formula is satisfiable exactly when the original is.


if __name__ == "__main__":
    main()
