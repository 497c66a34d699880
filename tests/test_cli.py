"""Command-line interface: subcommands, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import symbreak
from symbreak import native
from symbreak.cli import main
from symbreak.cnf import emit_dimacs, parse_dimacs
from symbreak.testkit import (brute_force_sat, dpll_count, gen_cycle_coloring,
                              gen_php, gen_ramsey)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_gen_php(self, capsys):
        code, out, _ = run_cli(["gen", "php", "5"], capsys)
        assert code == 0
        f = parse_dimacs(out)
        assert f.num_vars == 20 and len(f.clauses) == 45

    def test_gen_ramsey_to_file(self, tmp_path, capsys):
        target = tmp_path / "r.cnf"
        code, _, _ = run_cli(["gen", "ramsey", "3", "3", "6",
                              "-o", str(target)], capsys)
        assert code == 0
        assert parse_dimacs(target.read_text()).num_vars == 15

    def test_gen_wrong_arity(self, capsys):
        code, _, err = run_cli(["gen", "ramsey", "3"], capsys)
        assert code == 1 and "error" in err
        code, _, err = run_cli(["gen", "coloring", "7"], capsys)
        assert code == 1 and "coloring takes n k" in err

    def test_gen_coloring(self, capsys):
        code, out, _ = run_cli(["gen", "coloring", "7", "3"], capsys)
        assert code == 0
        f = parse_dimacs(out)
        want = gen_cycle_coloring(7, 3)
        assert f.num_vars == 21 and f.clauses == want.clauses
        code, _, err = run_cli(["gen", "coloring", "2", "3"], capsys)
        assert code == 1 and "error" in err

    def test_gen_bad_parameters(self, capsys):
        code, _, err = run_cli(["gen", "php", "1"], capsys)
        assert code == 1 and "error" in err


class TestBreak:
    def test_break_php(self, tmp_path, capsys):
        src = tmp_path / "php5.cnf"
        dst = tmp_path / "out.cnf"
        run_cli(["gen", "php", "5", "-o", str(src)], capsys)
        code, _, _ = run_cli(["break", str(src), "-o", str(dst)], capsys)
        assert code == 0
        out = parse_dimacs(dst.read_text())
        assert out.num_vars > 20 and len(out.clauses) > 45
        assert not brute_force_sat(gen_php(5))
        assert dpll_count(out)[0] == "unsat"

    def test_stdout_has_stats_header(self, tmp_path, capsys):
        src = tmp_path / "php4.cnf"
        run_cli(["gen", "php", "4", "-o", str(src)], capsys)
        code, out, _ = run_cli(["break", str(src)], capsys)
        assert code == 0
        assert out.startswith("c symbreak:")
        assert "structure row-column" in out

    def test_all_disabled_extends_with_header_only(self, tmp_path, capsys):
        src = tmp_path / "php4.cnf"
        run_cli(["gen", "php", "4", "-o", str(src)], capsys)
        code, out, _ = run_cli(
            ["break", str(src), "--no-johnson", "--no-row-column",
             "--no-row", "--no-binary", "--dive-pairs", "0"], capsys)
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("c")]
        assert body == src.read_text().strip().splitlines()

    def test_stats_json(self, tmp_path, capsys):
        src = tmp_path / "php4.cnf"
        stats = tmp_path / "stats.json"
        run_cli(["gen", "php", "4", "-o", str(src)], capsys)
        code, _, _ = run_cli(["break", str(src), "-o", "-",
                              "--stats", str(stats)], capsys)
        assert code == 0
        data = json.loads(stats.read_text())
        assert data["structures"][0]["kind"] == "row-column"
        assert "phase_times_ms" in data

    def test_stats_schema(self, tmp_path, capsys):
        src = tmp_path / "php4.cnf"
        stats = tmp_path / "stats.json"
        run_cli(["gen", "php", "4", "-o", str(src)], capsys)
        code, _, _ = run_cli(["break", str(src), "--stats", str(stats)],
                             capsys)
        assert code == 0
        data = json.loads(stats.read_text())
        assert list(data) == ["structures", "attempts", "remainder",
                              "clauses_added", "aux_vars", "phase_times_ms",
                              "input", "kernels"]
        assert data["kernels"] == (
            "python" if native.native_kernel() is None else "c")
        assert list(data["phase_times_ms"]) == [
            "parse_ms", "graph_ms", "detect_ms", "remainder_ms",
            "encode_ms", "emit_ms"]
        assert all(isinstance(v, float) and v >= 0
                   for v in data["phase_times_ms"].values())
        assert list(data["remainder"]) == ["generators", "binary_clauses"]
        assert list(data["structures"][0]) == ["kind", "dims", "generators",
                                               "orbit_sizes"]
        assert data["attempts"]
        for a in data["attempts"]:
            assert list(a) == ["detector", "class", "size", "outcome",
                               "reason", "ms"]
            assert a["detector"] in ("johnson", "row-column", "row",
                                     "recursion")
            assert isinstance(a["class"], int) and a["size"] >= 2
            assert (a["outcome"], a["reason"] is None) in (
                ("found", True), ("failed", False))
            assert isinstance(a["ms"], float) and a["ms"] >= 0
        assert data["attempts"][-1]["outcome"] == "found"
        assert data["input"] == {"declared_clauses": 22, "clauses": 22,
                                 "declared_vars": 12, "num_vars": 12}

    def test_recursion_reasons_in_stats(self, tmp_path, capsys):
        # no detector fits a cycle coloring, and the stabilizer retry
        # names why each detector failed on the fragment
        src = tmp_path / "c20.cnf"
        stats = tmp_path / "stats.json"
        src.write_text(emit_dimacs(gen_cycle_coloring(20, 4)))
        code, _, _ = run_cli(["break", str(src), "-o", str(tmp_path / "o"),
                              "--stats", str(stats)], capsys)
        assert code == 0
        recursion = [a for a in json.loads(stats.read_text())["attempts"]
                     if a["detector"] == "recursion"]
        assert len(recursion) == 2
        for a in recursion:
            head, _, inner = a["reason"].partition(": ")
            assert head == "recursion failed"
            parts = inner.split("; ")
            assert [p.split(": ")[0] for p in parts] == [
                "johnson", "row-column", "row"]
            assert all(p.split(": ", 1)[1] for p in parts)
        assert recursion[0]["reason"].endswith(
            "; row: overlapping rows at row 1")

    @pytest.mark.parametrize("text, header, report", [
        # the header's clause count disagrees with the body: accepted, and
        # the output header counts the clauses actually there
        ("p cnf 3 5\n1 0\n", "p cnf 3 1",
         {"declared_clauses": 5, "clauses": 1, "declared_vars": 3,
          "num_vars": 3}),
        ("p cnf 3 2\n1 -2 0\n2 3 0\n", "p cnf 3 2",
         {"declared_clauses": 2, "clauses": 2, "declared_vars": 3,
          "num_vars": 3}),
        # a variable beyond the header widens the variable range
        ("p cnf 2 1\n1 4 0\n", "p cnf 4 1",
         {"declared_clauses": 1, "clauses": 1, "declared_vars": 2,
          "num_vars": 4}),
    ], ids=["count-mismatch", "count-match", "vars-beyond-header"])
    def test_header_counts_reported(self, tmp_path, capsys, text, header,
                                    report):
        src = tmp_path / "in.cnf"
        stats = tmp_path / "stats.json"
        src.write_text(text)
        code, out, _ = run_cli(
            ["break", str(src), "--stats", str(stats), "--no-johnson",
             "--no-row-column", "--no-row", "--dive-pairs", "0"], capsys)
        assert code == 0
        assert [l for l in out.splitlines() if l.startswith("p ")] == [header]
        assert json.loads(stats.read_text())["input"] == report

    def test_byte_determinism(self, tmp_path, capsys):
        src = tmp_path / "php5.cnf"
        run_cli(["gen", "php", "5", "-o", str(src)], capsys)
        _, out1, _ = run_cli(["break", str(src), "--seed", "7"], capsys)
        _, out2, _ = run_cli(["break", str(src), "--seed", "7"], capsys)
        assert out1 == out2

    def test_flags_do_not_leak_between_calls(self, tmp_path):
        """The parser is built once per process, so a call with flags
        must leave the next call's defaults as a fresh process has
        them."""
        src = tmp_path / "ramsey336.cnf"
        src.write_text(emit_dimacs(gen_ramsey(3, 3, 6)))
        dst = tmp_path / "out.cnf"

        def digest():
            return hashlib.sha256(dst.read_bytes()).hexdigest()

        child = ("import sys; sys.path.insert(0, sys.argv[1]); "
                 "from symbreak.cli import main; sys.exit(main(sys.argv[2:]))")
        package_root = os.path.dirname(os.path.dirname(symbreak.__file__))
        subprocess.run([sys.executable, "-c", child, package_root, "break",
                        str(src), "-o", str(dst)], check=True)
        fresh = digest()
        assert main(["break", str(src), "-o", str(dst), "--no-johnson",
                     "--max-len", "8"]) == 0
        assert digest() != fresh
        assert main(["break", str(src), "-o", str(dst)]) == 0
        assert digest() == fresh

    def test_utf8_comment_changes_nothing(self, tmp_path, capsys):
        """A leading UTF-8 comment line leaves the output bytes and the
        stats, apart from their times, as they are without it."""
        plain = tmp_path / "php5.cnf"
        run_cli(["gen", "php", "5", "-o", str(plain)], capsys)
        commented = tmp_path / "php5-utf8.cnf"
        commented.write_bytes("c généré ©\n".encode("utf-8")
                              + plain.read_bytes())
        outs, stats = [], []
        for src in (plain, commented):
            dst = tmp_path / f"{src.stem}.out.cnf"
            report = tmp_path / f"{src.stem}.json"
            code, _, _ = run_cli(["break", str(src), "-o", str(dst),
                                  "--stats", str(report)], capsys)
            assert code == 0
            outs.append(dst.read_bytes())
            data = json.loads(report.read_text())
            del data["phase_times_ms"]
            for a in data["attempts"]:
                del a["ms"]
            stats.append(data)
        assert outs[0] == outs[1]
        assert stats[0] == stats[1]

    def test_stdin_stdout(self, monkeypatch, capsys):
        text = b"p cnf 2 1\n1 2 0\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text)))
        code, out, _ = run_cli(["break", "-"], capsys)
        assert code == 0
        assert parse_dimacs(out).num_vars >= 2

    def test_output_reparses(self, tmp_path, capsys):
        src = tmp_path / "r.cnf"
        run_cli(["gen", "ramsey", "3", "3", "8", "-o", str(src)], capsys)
        _, out, _ = run_cli(["break", str(src)], capsys)
        parsed = parse_dimacs(out)
        header = next(l for l in out.splitlines() if l.startswith("p cnf"))
        assert int(header.split()[3]) == len(parsed.clauses)


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run_cli(["break", "x.cnf", "--bogus"], capsys)[0] == 1

    def test_missing_subcommand(self, capsys):
        assert run_cli([], capsys)[0] == 1

    def test_unreadable_input(self, capsys, tmp_path):
        code, _, err = run_cli(["break", str(tmp_path / "nope.cnf")], capsys)
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("target", ["-o", "--stats", "gen -o"])
    def test_unwritable_output(self, target, tmp_path, capsys):
        src = tmp_path / "a.cnf"
        src.write_text("p cnf 1 1\n1 0\n")
        bad = str(tmp_path / "missing" / "out")
        argv = {"-o": ["break", str(src), "-o", bad],
                "--stats": ["break", str(src), "-o", str(tmp_path / "b.cnf"),
                            "--stats", bad],
                "gen -o": ["gen", "php", "3", "-o", bad]}[target]
        code, _, err = run_cli(argv, capsys)
        assert code == 1 and err.startswith("error: ")

    def test_malformed_dimacs(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 2 1\n1 x 0\n")
        code, _, err = run_cli(["break", str(bad)], capsys)
        assert code == 2 and "parse error" in err

    def test_undecodable_stdin(self, monkeypatch, capsys):
        # stdin takes the same bytes path as a file: a parse error, not a
        # decoding traceback
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(b"p cnf 1 1\n1 \xff 0\n"), encoding="utf-8"))
        code, _, err = run_cli(["break", "-"], capsys)
        assert code == 2 and "parse error" in err

    def test_non_ascii_byte_in_clause(self, tmp_path, capsys):
        # a byte above 127 reads as a replacement character, never as a
        # separator or digit
        bad = tmp_path / "bad.cnf"
        bad.write_bytes(b"p cnf 2 1\n1 -2\xa00\n")
        code, _, err = run_cli(["break", str(bad)], capsys)
        assert code == 2
        assert err == "parse error: non-integer token '-2\ufffd0'\n"

    def test_header_variable_count_beyond_bound(self, tmp_path, capsys):
        # rejected before anything is sized for the declared count
        bad = tmp_path / "huge.cnf"
        bad.write_text("p cnf 99999999999 1\n1 0\n")
        code, _, err = run_cli(["break", str(bad)], capsys)
        assert code == 2 and "parse error" in err

    def test_negative_parameter(self, tmp_path, capsys):
        # refused with the config, before the input is read: a missing
        # file gives the same error
        src = tmp_path / "a.cnf"
        src.write_text("p cnf 1 1\n1 0\n")
        for flag in ("--max-len", "--dive-pairs"):
            for path in (src, tmp_path / "missing.cnf"):
                code, out, err = run_cli(["break", str(path), flag, "-1"],
                                         capsys)
                assert code == 1 and out == ""
                assert err == (f"error: {flag[2:].replace('-', '_')} must "
                               "be non-negative, got -1\n")

    def test_output_and_stats_both_to_stdout(self, tmp_path, capsys):
        # refused before the input is read, with nothing on stdout; a
        # missing file gives the same error
        src = tmp_path / "a.cnf"
        src.write_text("p cnf 1 1\n1 0\n")
        for path in (src, tmp_path / "missing.cnf"):
            for argv in (["--stats", "-"], ["-o", "-", "--stats", "-"]):
                code, out, err = run_cli(["break", str(path), *argv],
                                         capsys)
                assert code == 1 and out == ""
                assert err.startswith("error: ") and "stdout" in err
        # a file for the DIMACS leaves stdout to the stats alone
        code, out, _ = run_cli(["break", str(src), "-o",
                                str(tmp_path / "b.cnf"), "--stats", "-"],
                               capsys)
        assert code == 0 and "clauses_added" in json.loads(out)

    def test_removed_flags_rejected(self, tmp_path, capsys):
        src = tmp_path / "a.cnf"
        src.write_text("p cnf 1 1\n1 0\n")
        for flag in (["--no-remainder"], ["--verify-level", "all-emitted"]):
            assert run_cli(["break", str(src)] + flag, capsys)[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"], capsys)[0] == 0
