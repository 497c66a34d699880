"""Smoke test of the output-digest matrix's per-run lines."""

import importlib.util
import os
import re

from symbreak.testkit import gen_php

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_outputs():
    spec = importlib.util.spec_from_file_location(
        "outputs", os.path.join(ROOT, "tools", "outputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_lines_php4():
    outputs = load_outputs()
    lines = list(outputs.digest_lines([("php(4)", lambda: gen_php(4))]))
    assert [line.split()[:2] for line in lines] == [
        ["php(4)", config] for config, _ in outputs.CONFIGS]
    for line in lines:
        assert re.fullmatch(r"\S+ \S+ [0-9a-f]{64} [0-9a-f]{64}", line)
    # the two configs that keep row-column emit the same CNF; only the
    # attempt log tells them apart
    (_, _, dimacs_a, stats_a), (_, _, dimacs_b, stats_b) = (
        line.split() for line in lines[:2])
    assert dimacs_a == dimacs_b and stats_a != stats_b
    assert lines[2].split()[2] != dimacs_a
    assert lines == list(
        outputs.digest_lines([("php(4)", lambda: gen_php(4))]))
