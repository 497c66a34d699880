"""Smoke test of the instance ladder's per-instance run."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_ladder():
    spec = importlib.util.spec_from_file_location(
        "ladder", os.path.join(ROOT, "tools", "ladder.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_instance_php6(tmp_path):
    entry = load_ladder().run_instance("php", (6,), str(tmp_path))
    assert entry["instance"] == "php(6)"
    assert (entry["vars"], entry["clauses"]) == (30, 81)
    assert entry["wall_s"] > 0 and entry["wall_s_runs"] == [entry["wall_s"]]
    assert entry["peak_rss_mb"] > 0
    times = entry["phase_times_ms"]
    assert list(times)[0] == "parse_ms" and list(times)[-1] == "emit_ms"
    assert entry["structures"] == [["row-column", [6, 5]]]
    assert entry["clauses_added"] > 0
