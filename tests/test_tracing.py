"""The benchmark's tracer (perfbench/tracing.py) still finds every call
site it wraps, so moving one fails here and not only in a traced
benchmark run.  The module is loaded from its file and left unchanged."""

import importlib.util
import sys
from pathlib import Path

from symbreak.cli import main
from symbreak.cnf import emit_dimacs
from symbreak.testkit import gen_php
from test_detectors import two_copy_instance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_call_site(tmp_path, monkeypatch):
    tracing = load_tracing(monkeypatch)

    def current():
        return [tracing._resolve(path)[2] for path, _ in tracing.TARGETS]

    before = current()
    src = tmp_path / "php5.cnf"
    src.write_text(emit_dimacs(gen_php(5)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(w is not b for w, b in zip(current(), before))
        assert main(["break", str(src), "-o", str(tmp_path / "out.cnf")]) == 0
        metrics = tracer.metrics()    # raises when a required span is gone
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(current(), before))
    assert metrics["refine.stable_calls"][0] >= 1
    assert metrics["refine.session_calls"][0] >= 1


def test_tracer_sees_detectors_under_recursion(tmp_path, monkeypatch):
    # two_copy_instance's row structure is found only by stabilizer
    # recursion, so the recursion span and the detector attempts both
    # have to pass through the wrapped pipeline names
    tracing = load_tracing(monkeypatch)
    src = tmp_path / "two_copy.cnf"
    src.write_text(emit_dimacs(two_copy_instance(3)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["break", str(src), "-o", str(tmp_path / "out.cnf")]) == 0
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["detectors.attempts"][0] >= 1
    assert metrics["detectors.found_ratio"][0] > 0
    assert metrics["detectors.recursion_s"][0] > 0
