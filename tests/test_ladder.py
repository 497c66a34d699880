"""Smoke test of the instance ladder's per-instance run."""

import importlib.util
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_ladder():
    spec = importlib.util.spec_from_file_location(
        "ladder", os.path.join(ROOT, "tools", "ladder.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_instance_php6(tmp_path):
    ladder = load_ladder()
    (entry,) = ladder.run_instance("php", (6,), str(tmp_path))
    check_php6_entry(entry)
    assert entry["wall_s_runs"] == [entry["wall_s"]]
    assert entry["peak_rss_mb_runs"] == [entry["peak_rss_mb"]]


def test_run_instance_php6_against_a_baseline(tmp_path):
    # this checkout's src/ on both sides: each gets its own entry, from
    # runs that alternate between the sides
    ladder = load_ladder()
    entries = ladder.run_instance("php", (6,), str(tmp_path), repeat=2,
                                  sources=(ladder.SRC, ladder.SRC))
    assert len(entries) == 2
    for entry in entries:
        check_php6_entry(entry)
        assert len(entry["wall_s_runs"]) == 2
        assert entry["wall_s"] in entry["wall_s_runs"]
        assert len(entry["peak_rss_mb_runs"]) == 2
        assert entry["peak_rss_mb"] == \
            statistics.median(entry["peak_rss_mb_runs"])
    assert entries[0]["clauses_added"] == entries[1]["clauses_added"]


def check_php6_entry(entry):
    assert entry["instance"] == "php(6)"
    assert (entry["vars"], entry["clauses"]) == (30, 81)
    assert entry["wall_s"] > 0
    assert entry["peak_rss_mb"] > 0
    times = entry["phase_times_ms"]
    assert list(times)[0] == "parse_ms" and list(times)[-1] == "emit_ms"
    assert entry["structures"] == [["row-column", [6, 5]]]
    assert entry["clauses_added"] > 0
