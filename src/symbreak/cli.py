"""Command-line front end: `break` preprocesses a DIMACS file, `gen`
writes benchmark instances."""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .cnf import DimacsError, emit_dimacs, parse_dimacs
from .pipeline import PipelineConfig, run
from .testkit import (gen_cliquecolor, gen_cycle_coloring, gen_php,
                      gen_ramsey)


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_output(path: str, text: str) -> int:
    """Exit code: 0, or 1 after reporting a `path` that cannot be
    written."""
    if path == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# built once per process: parse_args reads the parser and leaves it as
# it was, each call filling a fresh namespace
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbreak",
        description="Static symmetry breaking preprocessor for CNF-SAT.")
    sub = parser.add_subparsers(dest="command", required=True)

    br = sub.add_parser("break", help="add symmetry breaking clauses")
    br.add_argument("input", help="input DIMACS file, or - for stdin")
    br.add_argument("-o", "--output", default="-",
                    help="output DIMACS file, or - for stdout (default)")
    br.add_argument("--no-johnson", action="store_true")
    br.add_argument("--no-row-column", action="store_true")
    br.add_argument("--no-row", action="store_true")
    br.add_argument("--no-binary", action="store_true")
    br.add_argument("--max-len", type=int, default=64,
                    help="max positions per lex chain; 0 emits no chains "
                         "(default 64)")
    br.add_argument("--dive-pairs", type=int, default=32,
                    help="remainder search budget; 0 skips the search "
                         "(default 32)")
    br.add_argument("--seed", type=int, default=0)
    br.add_argument("--stats", metavar="PATH",
                    help="write a stats JSON report")

    gen = sub.add_parser("gen", help="generate a benchmark instance")
    gen.add_argument("family",
                     choices=["php", "ramsey", "cliquecolor", "coloring"])
    gen.add_argument("params", type=int, nargs="+",
                     help="php: n [m] | ramsey: k s n | cliquecolor: n k c "
                          "| coloring: n k (k-coloring of the cycle C_n)")
    gen.add_argument("-o", "--output", default="-")
    return parser


def _cmd_break(args) -> int:
    try:
        config = PipelineConfig(
            johnson=not args.no_johnson,
            row_column=not args.no_row_column,
            row=not args.no_row,
            binary=not args.no_binary,
            max_len=args.max_len,
            dive_pairs=args.dive_pairs,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output == "-" and args.stats == "-":
        print("error: the output and the stats cannot both go to stdout; "
              "give -o or --stats a file", file=sys.stderr)
        return 1
    try:
        text = _read_input(args.input)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    try:
        formula = parse_dimacs(text)
    except DimacsError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    del text
    parse_ms = (time.perf_counter() - t0) * 1000.0
    out = run(formula, config)
    comments = ["static symmetry breaking preprocessor"]
    for s in out.stats["structures"]:
        dims = "x".join(str(d) for d in s["dims"])
        comments.append(
            f"structure {s['kind']} dims {dims} generators {s['generators']}")
    comments.append(
        "remainder generators {generators} binary clauses {binary_clauses}"
        .format(**out.stats["remainder"]))
    comments.append(f"added {out.stats['clauses_added']} clauses, "
                    f"{out.aux_count} auxiliary variables, seed {args.seed}")
    t0 = time.perf_counter()
    text = emit_dimacs(formula, added=out.added,
                       aux_vars=out.aux_count, comments=comments)
    emit_ms = (time.perf_counter() - t0) * 1000.0
    if _write_output(args.output, text):
        return 1
    if args.stats:
        from .native import native_kernel  # loaded by cnf already
        declared_vars, declared_clauses = formula.declared
        stats = dict(out.stats, phase_times_ms={
            "parse_ms": parse_ms, **out.stats["phase_times_ms"],
            "emit_ms": emit_ms})
        # the header's counts are not checked against the body
        stats["input"] = {"declared_clauses": declared_clauses,
                          "clauses": formula.num_clauses,
                          "declared_vars": declared_vars,
                          "num_vars": formula.num_vars}
        stats["kernels"] = "python" if native_kernel() is None else "c"
        return _write_output(args.stats, json.dumps(stats, indent=2) + "\n")
    return 0


def _cmd_gen(args) -> int:
    family, params = args.family, args.params
    try:
        if family == "php":
            if len(params) not in (1, 2):
                raise ValueError("php takes n [m]")
            formula = gen_php(*params)
        elif family == "ramsey":
            if len(params) != 3:
                raise ValueError("ramsey takes k s n")
            formula = gen_ramsey(*params)
        elif family == "cliquecolor":
            if len(params) != 3:
                raise ValueError("cliquecolor takes n k c")
            formula = gen_cliquecolor(*params)
        else:
            if len(params) != 2:
                raise ValueError("coloring takes n k")
            formula = gen_cycle_coloring(*params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _write_output(args.output, emit_dimacs(formula))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; --help exits 0
        return 0 if exc.code == 0 else 1
    if args.command == "break":
        return _cmd_break(args)
    return _cmd_gen(args)


if __name__ == "__main__":
    sys.exit(main())
