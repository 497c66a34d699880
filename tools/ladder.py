"""The instance ladder: one `symbreak break` per instance, each in a fresh
interpreter, timed end to end, with the run's per-phase times and peak
resident memory.

    python3 tools/ladder.py -o BENCH.json

symbreak is imported from the `src/` beside this directory, and only by
child interpreters.  Each instance is written once by `symbreak gen`;
then every run starts a new interpreter that imports symbreak and calls
`symbreak.cli.main(["break", in, "-o", out, "--stats", stats])`.  A
run's wall time covers interpreter start, import, parse, the pipeline
and emit; its peak RSS is the child's own (`wait4`).  Each instance runs
REPEAT times; its entry reports the run with the median wall time, plus
every run's wall time.

    python3 tools/ladder.py -o BENCH.json --baseline ../parent/src

compares this checkout with the symbreak package under another `src/`.
Each instance's runs then alternate between the two sides run by run,
in the order A B B A A B ..., so a slow phase of a shared host falls on
both sides alike; the report holds both sides' entries.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# coloring(1001, 3), the 3-coloring of the cycle C_1001, is the one rung
# that no detector fits, so the only one that runs the remainder search
LADDER = (("php", (20,)), ("php", (50,)), ("php", (100,)),
          ("ramsey", (3, 3, 8)), ("cliquecolor", (40, 3, 2)),
          ("cliquecolor", (150, 3, 2)), ("coloring", (1001, 3)))
REPEAT = 3

# the benchmark process never imports symbreak: a child's peak RSS
# counts the parent's memory at the fork
CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from symbreak.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _child(args: list, src: str = SRC):
    """Start `symbreak.cli.main(args)` in a fresh interpreter that imports
    symbreak from the directory `src`."""
    return subprocess.Popen([sys.executable, "-c", CHILD, src, *args],
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE)


def _break_once(cnf: str, workdir: str, src: str) -> dict:
    stats = os.path.join(workdir, "stats.json")
    t0 = time.perf_counter()
    proc = _child(["break", cnf, "-o", os.path.join(workdir, "out.cnf"),
                   "--stats", stats], src)
    # stderr stays small: symbreak writes only error messages there
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    err = proc.stderr.read().decode(errors="replace")
    proc.stderr.close()
    if proc.returncode != 0:
        raise RuntimeError(f"symbreak break exited {proc.returncode}: "
                           f"{err[-400:]}")
    with open(stats) as fh:
        report = json.load(fh)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
            "stats": report}


def run_instance(family: str, params: tuple, workdir: str,
                 repeat: int = 1, sources: tuple = (SRC,)) -> list:
    """The ladder entries of one instance, one per symbreak `src/`
    directory of `sources`: `repeat` fresh-process runs of `symbreak
    break` on each side, the sides alternating run by run, each side
    reported by its run with the median wall time."""
    cnf = os.path.join(workdir, "in.cnf")
    gen = _child(["gen", family, *map(str, params), "-o", cnf])
    _, err = gen.communicate()
    if gen.returncode != 0:
        raise RuntimeError(f"symbreak gen exited {gen.returncode}: "
                           f"{err.decode(errors='replace')[-400:]}")
    runs = [[] for _ in sources]
    turn = list(enumerate(sources))
    for i in range(repeat):
        for side, src in turn[::-1] if i % 2 else turn:
            runs[side].append(_break_once(cnf, workdir, src))
    return [_entry(family, params, side_runs) for side_runs in runs]


def _entry(family: str, params: tuple, runs: list) -> dict:
    walls = [r["wall_s"] for r in runs]
    mid = runs[walls.index(statistics.median_low(walls))]
    stats = mid["stats"]
    return {
        "instance": f"{family}({','.join(map(str, params))})",
        "vars": stats["input"]["num_vars"],
        "clauses": stats["input"]["clauses"],
        "wall_s": mid["wall_s"],
        "wall_s_runs": walls,
        "peak_rss_mb": mid["peak_rss_mb"],
        "phase_times_ms": stats["phase_times_ms"],
        "structures": [[s["kind"], s["dims"]] for s in stats["structures"]],
        "remainder_generators": stats["remainder"]["generators"],
        "clauses_added": stats["clauses_added"],
        "aux_vars": stats["aux_vars"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-o", "--output", required=True,
                    help="JSON file to write")
    ap.add_argument("--baseline", metavar="SRC",
                    help="a directory holding another symbreak package, "
                         "run alternately with this checkout's")
    args = ap.parse_args(argv)
    sources = (SRC,)
    if args.baseline:
        sources += (os.path.abspath(args.baseline),)
    sides = [[] for _ in sources]
    with tempfile.TemporaryDirectory() as workdir:
        for family, params in LADDER:
            entries = run_instance(family, params, workdir, REPEAT, sources)
            for side, tag, entry in zip(sides, ("", " (baseline)"), entries):
                side.append(entry)
                times = entry["phase_times_ms"]
                print(f"{entry['instance']:22s} {entry['wall_s']:7.3f} s  "
                      f"parse {times['parse_ms']:7.1f} ms  "
                      f"emit {times['emit_ms']:7.1f} ms  "
                      f"rss {entry['peak_rss_mb']:6.1f} MB{tag}", flush=True)
    report = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "repeat": REPEAT,
        "instances": sides[0],
    }
    if args.baseline:
        report["baseline_src"] = sources[1]
        report["baseline_instances"] = sides[1]
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
