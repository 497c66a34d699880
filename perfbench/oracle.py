"""Checks of one `symbreak break` output against the answer its instance
was built with.  Nothing here calls symbreak's own parser, formula or
verifier; the satisfiability check uses the DPLL oracle from
`symbreak.testkit`, which reads only a clause list.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

# decision cap for the satisfiability oracle; the DPLL is deterministic,
# so an output either always or never needs more
SAT_DECISIONS = 200_000


def parse_output(text: str):
    """Strict DIMACS reader: (declared vars, declared clauses, clauses)."""
    header = None
    clauses, current = [], []
    for line in text.splitlines():
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if header is not None or len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad header {line!r}")
            header = (int(parts[2]), int(parts[3]))
            continue
        if header is None:
            raise ValueError("clause before the header")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if header is None or current:
        raise ValueError("missing header or unterminated clause")
    return header[0], header[1], clauses


def _sat(num_vars, clauses) -> str:
    from symbreak.testkit import dpll_count

    codes = [tuple(sorted({2 * (abs(l) - 1) + (l < 0) for l in c}))
             for c in clauses]
    unique = list(dict.fromkeys(codes))
    status, _ = dpll_count(SimpleNamespace(num_vars=num_vars,
                                           unique_clauses=unique),
                           decision_limit=SAT_DECISIONS)
    return status


def check(inst, out_text: str, stats_text: str):
    """None when the output matches the instance's answer, else the first
    mismatch found."""
    try:
        nv, nc, clauses = parse_output(out_text)
    except ValueError as exc:
        return f"malformed DIMACS: {exc}"
    if nc != len(clauses):
        return f"header declares {nc} clauses, body has {len(clauses)}"
    if nv < inst.num_vars:
        return f"header declares {nv} < {inst.num_vars} variables"
    if any(abs(l) > nv for c in clauses for l in c):
        return "literal beyond the declared variable count"
    m = len(inst.clauses)
    if len(clauses) < m:
        return "output drops input clauses"
    for a, b in zip(inst.clauses, clauses):
        if sorted(set(a)) != sorted(b):
            return "input clauses not first, verbatim and in order"

    ans = inst.answer
    if "structures" in ans:
        try:
            got = [(s["kind"], sorted(s["dims"]))
                   for s in json.loads(stats_text)["structures"]]
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed --stats report: {exc!r}"
        want = [(k, sorted(d)) for k, d in ans["structures"]]
        if got != want:
            return f"structures {got} != {want}"
    if "clauses_added" in ans and len(clauses) - m != ans["clauses_added"]:
        return f"{len(clauses) - m} clauses added, want {ans['clauses_added']}"
    if ans.get("satisfiable"):
        status = _sat(nv, clauses)
        if status != "sat":
            return f"satisfiable input, output oracle says {status}"
    return None


def model_satisfies(inst) -> bool:
    """The generator's own model satisfies the generated input."""
    true = set(inst.model)
    return all(any(l in true for l in c) for c in inst.clauses)
