import csv
import io
import os
import tracemalloc

import pytest

from monopath import cli
from monopath.cli import MAX_SWEEP_ROWS, SWEEP_COLUMNS, SweepPlan, _build_parser, main
from monopath.cli import run_sweep
from monopath.codec import decode, encode
from monopath.core import BLUE, RED, Colouring, FailureKind, Path, PathCover
from monopath.core import validate_cover
from monopath.gen import MAX_N, adversarial_search, extremal, random_colouring
from monopath.oracle import OracleResult
from monopath.solver import Guarantee, SolveResult


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "x.k2c"
        code, out, err = run(capsys, "gen", "--extremal", "-n", "9", "-o", str(target))
        assert code == 0
        assert decode(target.read_text()) == extremal(9)

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "gen", "--extremal", "-n", "4")
        assert code == 0
        assert decode(out) == extremal(4)

    def test_enumerate_range_error(self, capsys):
        code, _, err = run(capsys, "gen", "--enumerate", "-n", "3", "--seed", "99")
        assert code == 1
        assert "index" in err

    def test_n_above_the_ceiling_is_input_error(self, tmp_path, capsys):
        target = tmp_path / "big.k2c"
        n = str(MAX_N + 1)
        code, _, err = run(capsys, "gen", "--extremal", "-n", n, "-o", str(target))
        assert code == 1 and not target.exists()
        assert f"need 1 <= n <= {MAX_N}, got {MAX_N + 1}" in err

    def test_random_matches_the_generator(self, capsys):
        argv = ["gen", "--random", "-n", "12", "--p", "0.3", "--seed", "5"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == encode(random_colouring(12, 0.3, 5)) + "\n"

    def test_adversarial_matches_the_generator(self, capsys):
        argv = ["gen", "--adversarial", "-n", "7", "--seed", "2", "--iters", "6"]
        code, out, _ = run(capsys, *argv, "--restarts", "2")
        assert code == 0
        best = adversarial_search(7, 6, 2, restarts=2)[0]
        assert out == encode(best) + "\n"

    def test_flags_of_other_kinds_are_ignored(self, capsys):
        # --p is read by --random only, so an out-of-range value is harmless
        code, out, _ = run(capsys, "gen", "--extremal", "-n", "5", "--p", "2")
        assert code == 0
        assert decode(out) == extremal(5)

    def test_requires_kind(self, capsys):
        code, _, err = run(capsys, "gen", "-n", "5")
        assert code == 1


class TestSolveCommand:
    def test_all_red_single_line(self, tmp_path, capsys):
        f = tmp_path / "red.k2c"
        f.write_text(encode(Colouring.monochromatic(5, RED)) + "\n")
        code, out, _ = run(capsys, "solve", str(f))
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].split() == ["R", "1", "2", "3", "4", "5"]

    def test_gen_source(self, capsys):
        code, out, _ = run(capsys, "solve", "--gen", "random:p=0.5", "-n", "24", "--seed", "3")
        assert code == 0
        from monopath.gen import random_colouring
        g = random_colouring(24, 0.5, 3)
        covered = set()
        for line in out.strip().split("\n"):
            tokens = line.split()
            assert tokens[0] in "RB"
            covered |= {int(t) for t in tokens[1:]}
        assert covered == set(range(1, 25))

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "solve")
        assert code == 1
        code, _, err = run(capsys, "solve", "no_such_file.k2c")
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--gen", "extremal"], "--gen requires -n"),
            (["--gen", "random:p", "-n", "5"], "bad generator parameter 'p' in 'random:p'"),
        ],
        ids=["gen-without-n", "bad-generator-parameter"],
    )
    def test_bad_generator_source_is_input_error(self, capsys, argv, message):
        code, out, err = run(capsys, "solve", *argv)
        assert code == 1
        assert out == ""
        assert err == f"monopath: error: {message}\n"

    def test_invalid_solver_cover_is_internal_error(self, monkeypatch, capsys):
        # every edge of an all-red colouring is red, and 3..5 are uncovered
        cover = PathCover(RED, (Path((1, 2), RED),), 5)
        monkeypatch.setattr(
            cli, "solve", lambda g: SolveResult(cover, Guarantee.NONE, ())
        )
        code, out, err = run(capsys, "solve", "--gen", "random:p=1", "-n", "5")
        assert code == 2
        assert out == ""
        assert "internal error: solver cover failed validation" in err
        assert FailureKind.MISSING_VERTEX.value in err


class TestOracleCommand:
    def test_spec_example(self, tmp_path, capsys):
        f = tmp_path / "x.k2c"
        run(capsys, "gen", "--extremal", "-n", "9", "-o", str(f))
        code, out, _ = run(capsys, "oracle", str(f))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "3"
        assert len(lines) == 4  # value plus a witness path per cover element

    def test_too_large_is_input_error(self, capsys):
        code, _, err = run(capsys, "oracle", "--gen", "extremal", "-n", "40")
        assert code == 1
        assert "threshold" in err

    def test_threshold_above_ceiling_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "big.k2c"
        run(capsys, "gen", "--extremal", "-n", "40", "-o", str(f))
        code, _, err = run(capsys, "oracle", str(f), "--threshold", "40")
        assert code == 1
        assert "ceiling" in err

    def test_invalid_oracle_witness_is_internal_error(self, monkeypatch, capsys):
        # every edge of an all-red colouring is red, so a blue path is wrong
        witness = PathCover(BLUE, (Path((1, 2, 3, 4), BLUE),), 4)
        monkeypatch.setattr(
            cli, "exact_f", lambda g, threshold: OracleResult(1, BLUE, witness)
        )
        code, out, err = run(capsys, "oracle", "--gen", "random:p=1", "-n", "4")
        assert code == 2
        assert out == ""
        assert "internal error: oracle witness failed validation" in err
        assert FailureKind.WRONG_COLOUR_EDGE.value in err


class TestVerifyCommand:
    def write(self, tmp_path, name, text):
        f = tmp_path / name
        f.write_text(text)
        return str(f)

    def test_valid_roundtrip(self, tmp_path, capsys):
        g = self.write(tmp_path, "g.k2c", encode(extremal(6)) + "\n")
        code, out, _ = run(capsys, "solve", g)
        cover = self.write(tmp_path, "c.txt", out)
        code, out, _ = run(capsys, "verify", g, cover)
        assert code == 0
        assert out.startswith("VALID")

    def test_missing_vertex_exits_two(self, tmp_path, capsys):
        g = self.write(tmp_path, "g.k2c", "4\nRRRRRR\n")
        cover = self.write(tmp_path, "c.txt", "R 1 2 3\n")
        code, out, _ = run(capsys, "verify", g, cover)
        assert code == 2
        assert "MissingVertex" in out

    def test_wrong_colour_edge(self, tmp_path, capsys):
        g = self.write(tmp_path, "g.k2c", "3\nRRB\n")
        cover = self.write(tmp_path, "c.txt", "B 2 3 1\n")
        code, out, _ = run(capsys, "verify", g, cover)
        assert code == 2
        assert "WrongColourEdge" in out

    def test_garbled_cover_is_input_error(self, tmp_path, capsys):
        g = self.write(tmp_path, "g.k2c", "3\nRRB\n")
        cover = self.write(tmp_path, "c.txt", "R one two\n")
        code, out, err = run(capsys, "verify", g, cover)
        assert code == 1
        assert out == ""
        assert err == "monopath: error: cover line 1: bad vertex id\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("R 1 2\nX 3\n", "cover line 2: expected 'R v1 v2 ...'"),
            ("B\n", "cover line 1: expected 'R v1 v2 ...'"),
            ("\n  \n", "cover file has no paths"),
        ],
        ids=["bad-line", "no-vertex", "no-paths"],
    )
    def test_malformed_cover_file_is_input_error(self, tmp_path, capsys, text, message):
        g = self.write(tmp_path, "g.k2c", "3\nRRB\n")
        cover = self.write(tmp_path, "c.txt", text)
        code, out, err = run(capsys, "verify", g, cover)
        assert code == 1
        assert out == ""
        assert err == f"monopath: error: {message}\n"


class TestSweepCommand:
    def test_header_only_for_empty_plan(self, capsys):
        code, out, _ = run(capsys, "sweep", "--ns", "", "--generators", "extremal")
        assert code == 0
        assert out.strip() == ",".join(SWEEP_COLUMNS)

    def test_extremal_oracle_column(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--ns", "4,9,16", "--generators", "extremal",
            "--oracle", "--threshold", "16",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["oracle_value"] for r in rows] == ["2", "3", "4"]
        assert all(int(r["solver_size"]) >= int(r["oracle_value"]) for r in rows)

    def test_rows_sorted_and_seeds_collapse(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--ns", "9,4", "--generators", "random:p=0.5,extremal",
            "--seeds", "1,0",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        keys = [(int(r["n"]), r["generator"], int(r["seed"])) for r in rows]
        assert keys == sorted(keys)
        assert sum(1 for r in rows if r["generator"] == "extremal") == 2  # one per n

    def test_error_rows_do_not_abort(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--ns", "3", "--generators", "enumerate",
            "--seeds", "0..8",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        assert rows[-1]["error"].startswith("ValueError")
        assert all(not r["error"] for r in rows[:-1])

    @pytest.mark.parametrize("ns", [str(MAX_N + 1), "0", f"{MAX_N + 1}..{MAX_N + 6}"])
    def test_n_outside_the_range_is_input_error(self, capsys, ns):
        # checked before a range is expanded or any row is run
        code, out, err = run(capsys, "sweep", "--ns", ns, "--generators", "extremal")
        assert code == 1 and not out
        assert f"need 1 <= n <= {MAX_N}, got " in err

    @pytest.mark.parametrize(
        "ns, generators, seeds, rows",
        [
            ("20", "random:p=0.5", "0..1000000000", 1000000001),
            ("1..1000", "random:p=0.5,extremal", "0..99", 200000),
            ("5,7..9", "random:p=0.5", f"1..{MAX_SWEEP_ROWS // 4 + 1}", MAX_SWEEP_ROWS + 4),
        ],
    )
    def test_too_many_rows_is_input_error(self, capsys, ns, generators, seeds, rows):
        # n x generators x seeds, counted from the range ends
        code, out, err = run(
            capsys, "sweep", "--ns", ns, "--generators", generators, "--seeds", seeds
        )
        assert code == 1 and not out
        assert f"{rows} sweep rows" in err and str(MAX_SWEEP_ROWS) in err

    def test_seed_range_is_not_expanded_before_the_cap(self):
        # expanded, a range of 10**9 seeds would need over 100 GB; 0..299999
        # peaked at 45.8 MB
        argv = ["sweep", "--ns", "20", "--generators", "random:p=0.5"]
        args = _build_parser().parse_args([*argv, "--seeds", "0..1000000000"])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^1000000001 sweep rows"):
                args.func(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_bad_generator_tag(self, capsys):
        code, _, err = run(capsys, "sweep", "--ns", "4", "--generators", "warp")
        assert code == 1

    def test_bad_tags_give_one_error_row_per_seed(self):
        plan = SweepPlan((5,), ("bogus", "random:seed=3", "random:p=x"), (0, 1))
        rows = list(csv.DictReader(io.StringIO(run_sweep(plan))))
        errors = {
            "bogus": "ValueError: unknown generator kind 'bogus'",
            "random:p=x": "ValueError: could not convert string to float: 'x'",
            "random:seed=3": (
                "ValueError: unknown parameters ['seed'] for generator 'random'"
            ),
        }
        assert [(r["generator"], r["seed"], r["error"]) for r in rows] == [
            (tag, seed, error) for tag, error in errors.items() for seed in "01"
        ]

    def test_output_file_holds_the_csv(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        argv = ["sweep", "--ns", "4", "--generators", "extremal", "-o", str(target)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == ""
        rows = list(csv.DictReader(io.StringIO(target.read_text())))
        assert [(r["n"], r["generator"], r["solver_size"]) for r in rows] == [
            ("4", "extremal", "2")
        ]

    def test_workers_below_one_is_input_error(self, capsys):
        argv = ["sweep", "--ns", "4", "--generators", "extremal", "--workers", "0"]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "monopath: error: need workers >= 1, got 0\n"

    def test_workers_parity(self):
        plan1 = SweepPlan((8, 12), ("extremal", "random:p=0.3"), (0, 1), True, 14, 1)
        plan4 = SweepPlan((8, 12), ("extremal", "random:p=0.3"), (0, 1), True, 14, 4)
        strip = lambda text: [
            tuple(c for i, c in enumerate(row.split(",")) if i != 8)
            for row in text.strip().split("\n")
        ]
        assert strip(run_sweep(plan1)) == strip(run_sweep(plan4))

    def test_branch_trace_has_no_commas(self, capsys):
        code, out, _ = run(capsys, "sweep", "--ns", "20", "--generators", "extremal")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert "|" in rows[0]["branch_trace"]
        assert "," not in rows[0]["branch_trace"]
