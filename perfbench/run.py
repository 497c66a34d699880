"""The symbreak benchmark: `symbreak break` from DIMACS file to DIMACS
file on seeded instances, every output checked against a known answer.

    python3 perfbench/run.py --workload rowcol --seed 1 --seconds 35 --trace 0

Run from the repository root; symbreak is imported from `src/`.  The
instances of a workload are generated from the seed and written once;
a pass calls `symbreak.cli.main(["break", in, "-o", out, "--stats", st])`
on each of them in turn, in this process.  Passes repeat until the
measured time would pass --seconds; the first pass checks every output
against its answer and later passes must reproduce it byte for byte.

A call fails when it raises, returns non-zero, runs past the workload's
per-call limit, or its output does not match.  A failed call is charged
its time plus the per-call limit, so removing a crash never reads as a
slowdown.

The host's speed drifts by a third within seconds and for minutes at a
time, so a fixed reference loop, which shares no code with symbreak, is
timed before the first call of each pass and after every call.
`break_ref_s` divides each call's wall time by the mean of the reference
times on either side of it, in units of the loop's nominal REF_S, and
sums over the instances each one's median across the passes.  The raw
wall-clock `break_s`, the same medians unscaled, is printed beside it.

With --trace 0 the end-to-end metrics are reported; with --trace 1 the
per-layer metrics from perfbench/tracing.py, from passes that alternate
untraced and traced so the tracing overhead is measured too.  The last
line of standard output is one JSON object; human-readable lines, the
failures, `failed_frac` and a digest of the outputs come before it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

from oracle import check, model_satisfies
from workloads import make_instances, to_dimacs, warmup_instance

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# per-call limit in seconds: at least four times the workload's slowest
# call at the seed commit on a shared 2-core x86 host; coloring's also
# covers its crashing instances once they run (4-16 s each there)
LIMITS = {"rowcol": 10.0, "johnson": 10.0, "coloring": 20.0,
          "nosym": 10.0}
SETUP_REPEATS = 7
# nominal wall time of one reference loop, about its fastest on the shared
# 2-core 2.1 GHz x86 host the seed numbers come from; it only sets the
# scale of the *_ref_s metrics
REF_S = 0.05
REF_STEPS = 80_000

SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from symbreak.cli import main
sys.exit(main(["break", sys.argv[2], "-o", sys.argv[3],
               "--stats", sys.argv[4]]))
"""


class CallTimeout(BaseException):
    """Raised by the interval timer inside a call past its limit; a
    BaseException so that no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise CallTimeout()


class Reference:
    """A fixed pure-Python loop that reads and writes numpy arrays one
    element at a time at scattered places in 2 MiB, as the pure-Python
    refinement kernel does, so that host slowdowns reach it much as they
    reach symbreak.  It shares no code with symbreak, and its result is
    checked so that every run does the same work."""

    def __init__(self):
        n = 1 << 17
        self.mask = n - 1
        self.nbr = np.random.default_rng(0).integers(0, n, size=n,
                                                     dtype=np.int64)
        self.cnt = np.zeros(n, dtype=np.int64)
        self.expect = None

    def run(self) -> float:
        """Wall seconds of one loop."""
        nbr, cnt, mask = self.nbr, self.cnt, self.mask
        t0 = time.perf_counter()
        cnt[:] = 0
        first = {}
        v = 0
        for i in range(REF_STEPS):
            v = int(nbr[(v + i) & mask])
            c = cnt[v] + 1
            cnt[v] = c
            if c == 1:
                first[v] = i
        elapsed = time.perf_counter() - t0
        if self.expect is None:
            self.expect = len(first)
        elif len(first) != self.expect:
            raise RuntimeError("reference loop is not deterministic")
        return elapsed


class Call:
    """One instance on disk and what its calls produced so far."""

    def __init__(self, inst, index):
        self.inst = inst
        self.src = os.path.join(WORK, f"in{index}.cnf")
        self.out = os.path.join(WORK, f"out{index}.cnf")
        self.stats = os.path.join(WORK, f"stats{index}.json")
        self.label = f"#{index} {inst.name}"
        self.digest = None       # sha256 of the first checked output
        with open(self.src, "w") as fh:
            fh.write(to_dimacs(inst))


def run_call(call, limit, cli_main, tracer=None):
    """(seconds, failure or None, output digest or None)."""
    for path in (call.out, call.stats):
        if os.path.exists(path):
            os.remove(path)
    argv = ["break", call.src, "-o", call.out, "--stats", call.stats]
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            if tracer is None:
                rc = cli_main(argv)
            else:
                rc = tracer.call("cli.main", cli_main, argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CallTimeout:
        return time.perf_counter() - t0, f"over the {limit:g} s limit", None
    except Exception as exc:  # any crash of the program is a failed call
        return time.perf_counter() - t0, f"raised {exc!r:.120}", None
    elapsed = time.perf_counter() - t0
    if rc != 0:
        return elapsed, f"exit code {rc}", None
    with open(call.out, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    if call.digest is None:
        try:
            with open(call.stats) as fh:
                stats_text = fh.read()
        except OSError:
            return elapsed, "wrong output: no --stats file", digest
        bad = check(call.inst, data.decode("ascii", errors="replace"),
                    stats_text)
        if bad:
            return elapsed, f"wrong output: {bad}", digest
        call.digest = digest
    elif digest != call.digest:
        return elapsed, "output differs from the first pass", digest
    return elapsed, None, digest


class Pass:
    def __init__(self, calls, limit, cli_main, ref, tracer=None):
        self.limit = limit
        self.times = []          # per call: wall seconds
        self.slowdown = []       # per call: reference time around it / REF_S
        self.failed = []         # per call: bool
        self.failures = []       # (instance label, reason)
        self.wrong = 0           # failures that produced a wrong output
        self.digests = []
        t0 = time.perf_counter()
        before = ref.run()
        for call in calls:
            dt, why, digest = run_call(call, limit, cli_main, tracer)
            after = ref.run()
            self.times.append(dt)
            self.slowdown.append((before + after) / (2 * REF_S))
            self.failed.append(bool(why))
            self.digests.append(digest or "-")
            if why:
                self.failures.append((call.label, why))
                self.wrong += digest is not None
            before = after
        self.wall = time.perf_counter() - t0

    def charged(self, scaled: bool) -> list:
        """Per call: its time, divided by its slowdown if `scaled`, plus
        the per-call limit if it failed."""
        return [t / (s if scaled else 1.0) + self.limit * f
                for t, s, f in zip(self.times, self.slowdown, self.failed)]


def pass_s(passes, scaled: bool) -> float:
    """Sum over instances of each one's median charged call across the
    passes.  Scaled by the reference, the medians stay put when the host
    slows down for a whole run; the raw ones do not."""
    return sum(statistics.median(times) for times in
               zip(*(p.charged(scaled) for p in passes)))


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing symbreak and
    finishing one checked `break` on a tiny instance."""
    warm = Call(warmup_instance(), "_warm")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, SRC, warm.src, warm.out,
             warm.stats],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"warm-up break failed: {proc.stderr.decode()[-400:]}")
    with open(warm.out) as out, open(warm.stats) as stats:
        bad = check(warm.inst, out.read(), stats.read())
    if bad:
        sys.exit(f"warm-up break gave a wrong output: {bad}")
    return statistics.median(times)


def run_passes(calls, limit, cli_main, seconds, ref, tracer=None):
    """Passes until the measured time would pass `seconds`, at least one
    of each kind; the first one checks every output against its answer.
    With a tracer, passes alternate untraced and traced.  Returns
    (untraced passes, traced passes, per-layer metrics of each traced
    pass)."""
    plain, traced, layer = [], [], []
    spent = 0.0
    while True:
        p = Pass(calls, limit, cli_main, ref)
        plain.append(p)
        spent += p.wall
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                p = Pass(calls, limit, cli_main, ref, tracer)
            finally:
                tracer.uninstall()
            traced.append(p)
            layer.append(tracer.metrics())
            spent += p.wall
        per_round = spent / len(plain)
        if spent + per_round > seconds:
            return plain, traced, layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(LIMITS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "symbreak", "cli.py")):
        print(f"error: no symbreak sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import symbreak
    if os.path.dirname(os.path.dirname(os.path.abspath(
            symbreak.__file__))) != SRC:
        print(f"error: symbreak imported from {symbreak.__file__}",
              file=sys.stderr)
        return 2
    from symbreak.cli import main as cli_main

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        return _run(args, cli_main)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def _run(args, cli_main) -> int:
    limit = LIMITS[args.workload]
    instances = make_instances(args.workload, args.seed)
    for inst in instances:
        if inst.model is not None and not model_satisfies(inst):
            sys.exit(f"generator bug: {inst.name} misses its own model")
    calls = [Call(inst, i) for i, inst in enumerate(instances)]
    # keep the benchmark's own objects out of the program's collections
    gc.collect()
    gc.freeze()

    ref = Reference()
    for _ in range(3):           # warm-up
        ref.run()

    metrics = {}
    if args.trace:
        from tracing import Tracer
        plain, traced, layer = run_passes(calls, limit, cli_main,
                                          args.seconds, ref, Tracer())
        for name, (_, unit) in layer[0].items():
            metrics[name] = (statistics.median(m[name][0] for m in layer),
                             unit)
        untraced = pass_s(plain, scaled=True)
        with_trace = pass_s(traced, scaled=True)
        metrics["trace.untraced_break_ref_s"] = (untraced, "s")
        metrics["trace.break_ref_s"] = (with_trace, "s")
        metrics["trace.overhead_ratio"] = (with_trace / untraced, "ratio")
    else:
        metrics["setup_s"] = (measure_setup(), "s")
        plain, traced, _ = run_passes(calls, limit, cli_main,
                                      args.seconds, ref)
        metrics["break_ref_s"] = (pass_s(plain, scaled=True), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    passes = plain + traced
    failures = [f for p in passes for f in p.failures]
    attempted = len(calls) * len(passes)
    print(f"workload {args.workload} seed {args.seed}: {len(calls)} "
          f"instances, {len(plain)} untraced and {len(traced)} traced "
          f"passes, per-call limit {limit:g} s")
    print("instances " + " ".join(c.inst.name for c in calls))
    # not a metric: equal digests across commits mean byte-identical output
    print("output digest " + hashlib.sha256(
        " ".join(plain[0].digests).encode()).hexdigest()[:16])
    for label, why in dict.fromkeys(failures):
        print(f"failed {label}: {why}")
    print(f"failed_frac {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} calls)")
    # not metrics: the raw wall clock, and the host's speed against REF_S
    print(f"break_s {pass_s(plain, scaled=False):.6g} s (wall clock)")
    slow = [s for p in plain for s in p.slowdown]
    print(f"reference slowdown median {statistics.median(slow):.4g}, "
          f"range {min(slow):.4g}-{max(slow):.4g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": all(p.wrong == 0 for p in passes),
        "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
