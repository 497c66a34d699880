"""The benchmark's tracer (perfbench/tracing.py) still finds every call
site it wraps, so moving one fails here and not only in a traced
benchmark run.  The module is loaded from its file and left unchanged."""

import importlib.util
import sys
from pathlib import Path

from symbreak.cli import main
from symbreak.cnf import emit_dimacs
from symbreak.testkit import gen_php

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
