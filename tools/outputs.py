"""Output digests over a fixed matrix of instances and configs: one line
per run, with the instance, the config, the SHA-256 of the emitted
DIMACS and the SHA-256 of the pipeline stats without their times.

    python3 tools/outputs.py [SRC] > outputs.txt

symbreak is imported from SRC, by default the `src/` beside this
directory.  Running the script once against each of two checkouts'
`src/` and diffing the two outputs compares their emitted CNF,
structures and attempt log (detector, class, size, outcome and reason)
on every run.  The instances are taken from this checkout: the
`rowcol`, `johnson` and `coloring` workloads of `perfbench` on seeds
1-3, `symbreak.testkit` families, and the row instances of
`tests/test_detectors.py`, one of them renamed by its `scrambled`; 69
instances under 3 configs.

The run above takes the C kernels wherever `cc` builds them.  To diff
the Python kernels too, run the script with no `cc` on PATH; resolve
the interpreter first, since a pyenv `python3` shim itself needs bash
on PATH:

    env PATH=/nonexistent "$(python3 -c 'import sys; print(sys.executable)')" tools/outputs.py

Put a `timeout` before `env`, not after it: `env` looks its command up
on the PATH it sets, finds no `timeout` there and runs nothing.  The
script names the kernels it runs on stderr, `kernels: c` or `kernels:
python`, so a diff shows which path it compared; stdout holds only the
digest lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CONFIGS = (("default", {}),
           ("no-johnson", {"johnson": False}),
           ("no-row-column-max8", {"row_column": False, "max_len": 8}))


def instances():
    """(name, thunk building the Formula) for every instance, in a fixed
    order."""
    from symbreak.cnf import parse_dimacs
    from symbreak.testkit import (gen_cliquecolor, gen_cycle_coloring,
                                  gen_php, gen_ramsey)

    sys.path[:0] = [os.path.join(ROOT, "perfbench"),
                    os.path.join(ROOT, "tests")]
    import test_detectors as td
    import workloads

    out = []
    for workload in ("rowcol", "johnson", "coloring"):
        for seed in (1, 2, 3):
            for inst in workloads.make_instances(workload, seed):
                out.append((f"{workload}:{seed}:{inst.name}",
                            lambda inst=inst: parse_dimacs(
                                workloads.to_dimacs(inst).encode())))
    out += [(f"php({n})", lambda n=n: gen_php(n)) for n in range(3, 9)]
    out += [(f"ramsey({k},{k},{n})", lambda k=k, n=n: gen_ramsey(k, k, n))
            for k, n in ((3, 8), (4, 9))]
    out += [(f"cliquecolor({n},{k},{c})",
             lambda n=n, k=k, c=c: gen_cliquecolor(n, k, c))
            for n, k, c in ((8, 3, 2), (10, 3, 2), (40, 3, 2), (12, 4, 3),
                            (10, 4, 3), (10, 5, 4))]
    out += [("scrambled(cliquecolor(10,4,3),1)",
             lambda: td.scrambled(gen_cliquecolor(10, 4, 3), 1))]
    out += [(f"c{n}-{k}coloring", lambda n=n, k=k: gen_cycle_coloring(n, k))
            for n in (9, 15, 20, 41) for k in (3, 4)]
    out += [("row_instance(4)", lambda: td.row_instance(4)),
            ("row_instance(6)", lambda: td.row_instance(6)),
            ("attached_blocks_instance(4)",
             lambda: td.attached_blocks_instance(4)),
            ("two_copy_instance(3)", lambda: td.two_copy_instance(3))]
    return out


def digest_lines(named):
    """One line per (instance, config) of the (name, thunk) pairs
    `named`: name, config, DIMACS digest, stats digest."""
    from symbreak.cnf import emit_dimacs
    from symbreak.pipeline import PipelineConfig, run

    for name, make in named:
        formula = make()
        for config, fields in CONFIGS:
            out = run(formula, PipelineConfig(**fields))
            text = emit_dimacs(formula, added=out.added_clauses,
                               aux_vars=out.aux_count)
            stats = {k: v for k, v in out.stats.items()
                     if k != "phase_times_ms"}
            stats["attempts"] = [{k: v for k, v in a.items() if k != "ms"}
                                 for a in stats["attempts"]]
            yield " ".join((
                name, config, hashlib.sha256(text.encode()).hexdigest(),
                hashlib.sha256(json.dumps(stats, sort_keys=True).encode())
                .hexdigest()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="?", default=os.path.join(ROOT, "src"),
                    help="directory holding the symbreak package")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from symbreak.native import native_kernel
    print(f"kernels: {'c' if native_kernel() else 'python'}",
          file=sys.stderr)
    for line in digest_lines(instances()):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
