import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import CIRCULANT_4_6_TEXT
import tropdet
from tropdet import (
    construct_max_tropdet,
    construct_min_tdet,
    lower_bound_L,
    serialize,
    upper_bound_U,
)
from tropdet.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestBounds:
    def test_plain(self, capsys):
        code, out, err = run(capsys, "bounds", "--m", "7", "--n", "6")
        assert code == 0 and err == ""
        assert "m = 7, n = 6  (q = 1, r = 1)" in out
        assert "L(7,6) = 10  [case HARD_CASE2, l = 2]" in out
        assert "U(7,6) = 6  [case LOW_R]" in out

    def test_plain_easy_case_has_no_l(self, capsys):
        _, out, _ = run(capsys, "bounds", "--m", "10", "--n", "5")
        assert "L(10,5) = 10  [case R_ZERO]" in out

    def test_structured_matches_library(self, capsys):
        code, out, err = run(
            capsys, "bounds", "--m", "7", "--n", "6", "--format", "structured"
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["m"], doc["n"], doc["q"], doc["r"]) == (7, 6, 1, 1)
        assert doc["L"]["value"] == lower_bound_L(7, 6).value
        assert doc["L"]["case"] == "HARD_CASE2"
        assert doc["L"]["l"] == 2
        assert doc["U"]["value"] == upper_bound_U(7, 6).value
        assert doc["U"]["case"] == "LOW_R"

    def test_zero_m_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--m", "0", "--n", "5"])
        assert err.value.code == 2

    def test_non_integer_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--m", "two", "--n", "5"])
        assert err.value.code == 2


class TestConstruct:
    def test_plain_min(self, capsys):
        code, out, err = run(
            capsys, "construct", "--m", "7", "--n", "5",
            "--objective", "min-tdet",
        )
        assert code == 0 and err == ""
        assert "tdet = 9" in out
        assert "bound = 9  [case SHARP2]" in out

    def test_structured_achieves_bound(self, capsys):
        for objective in ("min-tdet", "max-tropdet"):
            _, out, _ = run(
                capsys, "construct", "--m", "9", "--n", "6",
                "--objective", objective, "--format", "structured",
            )
            doc = json.loads(out)
            assert doc["achieved"] == doc["bound"]
            assert doc["matrix"]["m"] == 9
            assert sum(doc["matrix"]["entries"]) == 9 * 6

    @pytest.mark.parametrize(
        "m,objective",
        [
            ("10000000000000000001", "min-tdet"),
            ("10000000000000000001", "max-tropdet"),
            ("100000000000000000000", "min-tdet"),
            ("100000000000000000000", "max-tropdet"),
        ],
    )
    def test_entries_past_int64_fail_cleanly(self, capsys, m, objective):
        code, out, err = run(
            capsys, "construct", "--m", m, "--n", "5", "--objective", objective
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_objective_required(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["construct", "--m", "7", "--n", "5"])
        assert err.value.code == 2


class TestEval:
    M5_TEXT = (
        "1 0 2 2 2\n0 1 2 2 2\n2 2 1 1 1\n2 2 1 1 1\n2 2 1 1 1\n"
    )

    def test_tdet_from_file(self, capsys, tmp_path):
        path = write(tmp_path, "a.txt", self.M5_TEXT)
        code, out, err = run(capsys, "tdet", path)
        assert code == 0 and err == ""
        assert "tdet = 9" in out
        perm_line = next(
            line for line in out.splitlines() if line.startswith("permutation")
        )
        indices = [int(x) for x in perm_line.split(":")[1].split()]
        assert sorted(indices) == [1, 2, 3, 4, 5]

    def test_structured_permutation_zero_indexed(self, capsys, tmp_path):
        path = write(tmp_path, "a.txt", self.M5_TEXT)
        _, out, _ = run(capsys, "tdet", path, "--format", "structured")
        doc = json.loads(out)
        assert doc["value"] == 9
        assert sorted(doc["permutation"]) == [0, 1, 2, 3, 4]

    def test_tropdet_identity(self, capsys, tmp_path):
        path = write(tmp_path, "id.txt", "1 0\n0 1\n")
        code, out, _ = run(capsys, "tropdet", path)
        assert code == 0
        assert "tropdet = 0" in out

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 0\n0 2\n"))
        code, out, _ = run(capsys, "tdet", "-")
        assert code == 0
        assert "tdet = 4" in out

    def test_non_square_fails_cleanly(self, capsys, tmp_path):
        path = write(tmp_path, "bad.txt", "1 2 3\n4 5 6\n")
        code, out, err = run(capsys, "tdet", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_sum_past_int64_fails_cleanly(self, capsys, tmp_path):
        big = 5 * 10**18
        path = write(tmp_path, "big.txt", f"{big} 0\n0 {big}\n")
        code, out, err = run(capsys, "tdet", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "tdet", str(tmp_path / "absent.txt"))
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("command", ["tdet", "verify", "zero-block"])
    def test_file_not_utf8_fails_cleanly(self, capsys, tmp_path, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1 2\n\xff 1\n")
        code, out, err = run(capsys, command, str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read {path}: ")
        assert err.count("\n") == 1

    def test_stdin_not_utf8_fails_cleanly(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"1 2\n\xff 1\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, "tdet", "-")
        assert code == 1 and out == ""
        assert err.startswith("error: cannot read -: ")
        assert err.count("\n") == 1


class TestVerify:
    def test_member(self, capsys, tmp_path):
        path = write(tmp_path, "circ.txt", CIRCULANT_4_6_TEXT)
        code, out, err = run(capsys, "verify", path)
        assert code == 0 and err == ""
        assert "doubly stochastic: yes (m = 4, n = 6)" in out

    def test_violation_is_one_indexed(self, capsys, tmp_path):
        path = write(tmp_path, "bad.txt", "1 0\n1 0\n")
        code, out, _ = run(capsys, "verify", path)
        assert code == 1
        assert "doubly stochastic: no" in out
        assert "column 2 sums to 0, expected 2" in out

    def test_expect_m_mismatch(self, capsys, tmp_path):
        path = write(tmp_path, "circ.txt", CIRCULANT_4_6_TEXT)
        code, out, _ = run(capsys, "verify", path, "--expect-m", "5")
        assert code == 1
        assert "wrong line sum" in out
        assert "m = 4, expected 5" in out

    def test_expect_m_match(self, capsys, tmp_path):
        path = write(tmp_path, "circ.txt", CIRCULANT_4_6_TEXT)
        code, _, _ = run(capsys, "verify", path, "--expect-m", "4")
        assert code == 0

    def test_structured_violation(self, capsys, tmp_path):
        path = write(tmp_path, "bad.txt", "1 0\n1 0\n")
        code, out, _ = run(capsys, "verify", path, "--format", "structured")
        assert code == 1
        doc = json.loads(out)
        assert doc["member"] is False
        assert doc["violation"] == {
            "axis": "column",
            "index": 1,
            "sum": 0,
            "expected": 2,
        }

    def test_structured_member(self, capsys, tmp_path):
        path = write(tmp_path, "circ.txt", CIRCULANT_4_6_TEXT)
        _, out, _ = run(capsys, "verify", path, "--format", "structured")
        doc = json.loads(out)
        assert doc["member"] is True and doc["m"] == 4


class TestEnumerate:
    def test_count(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--m", "2", "--n", "3", "--stat", "count"
        )
        assert code == 0
        assert "|D(2,3)| = 21" in out

    def test_min_tdet(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--m", "2", "--n", "3", "--stat", "min-tdet"
        )
        assert code == 0
        assert "min tdet over D(2,3) = 3" in out
        assert "|D(2,3)| = 21" in out
        assert "witness:" in out

    def test_structured_max_tropdet(self, capsys):
        _, out, _ = run(
            capsys, "enumerate", "--m", "5", "--n", "3",
            "--stat", "max-tropdet", "--format", "structured",
        )
        doc = json.loads(out)
        assert doc["extremum"] == 4
        assert sum(doc["witness"]["entries"]) == 15

    def test_budget_env_stops_run(self, capsys, monkeypatch):
        monkeypatch.setenv("TROPDET_MAX_VISITS", "5")
        code, out, err = run(
            capsys, "enumerate", "--m", "2", "--n", "3", "--stat", "count"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "budget" in err

    def test_count_past_budget_refuses_at_n_three(self, capsys):
        # |D(200, 3)| = 206,075,451 passes the default budget of 5 * 10^7
        code, out, err = run(
            capsys, "enumerate", "--m", "200", "--n", "3", "--stat", "count"
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "budget 50000000" in err

    def test_budget_env_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("TROPDET_MAX_VISITS", "soon")
        code, _, err = run(
            capsys, "enumerate", "--m", "2", "--n", "2", "--stat", "count"
        )
        assert code == 1
        assert "TROPDET_MAX_VISITS" in err

    @pytest.mark.parametrize("raw", ["0", "-3", "1.5", ""])
    def test_budget_env_out_of_range(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("TROPDET_MAX_VISITS", raw)
        code, out, err = run(
            capsys, "enumerate", "--m", "2", "--n", "2", "--stat", "count"
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "TROPDET_MAX_VISITS" in err


    def test_pool_past_cell_limit_refuses_unbuilt(self, capsys, monkeypatch):
        # Within the budget's checks, but about 6 GB of row tuples if built.
        monkeypatch.setattr("tropdet.enumerate_ds._compositions", _forbidden)
        code, out, err = run(
            capsys, "enumerate", "--m", "21", "--n", "11", "--stat", "count"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: the row pool of D(21,11) needs rows * n <= 25000000, "
            "got 487873815\n"
        )

    @pytest.mark.parametrize(
        "m,n",
        [(10000, 10000), (10**6, 10**6), (1, 1000), (10**18, 10**18)],
    )
    @pytest.mark.parametrize("stat", ["count", "min-tdet"])
    def test_huge_sizes_refuse_on_one_line(self, capsys, m, n, stat):
        code, out, err = run(
            capsys, "enumerate", "--m", str(m), "--n", str(n), "--stat", stat
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: enumeration budget exceeded: at least ")


class TestDigitBound:
    # A value derived from these 4300 digits passes the interpreter's
    # int-string limit when printed: m + 1 in the budget message, L, m * n.
    NINES = "9" * 4300

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--m", NINES, "--n", "3", "--stat", "count"],
            ["bounds", "--m", NINES, "--n", "7"],
            ["random", "--m", NINES, "--n", "2", "--seed", "1"],
            # Past the int-string limit, where int() itself fails.
            ["bounds", "--m", "9" * 5000, "--n", "7"],
        ],
        ids=["enumerate", "bounds", "random", "past_int_limit"],
    )
    def test_past_the_bound_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.endswith(": error: argument --m: must have at most 1000 digits\n")

    def test_budget_past_the_bound_refuses_on_one_line(self, capsys, monkeypatch):
        monkeypatch.setenv("TROPDET_MAX_VISITS", "1" + "0" * 4295)
        code, out, err = run(
            capsys, "enumerate", "--m", "2", "--n", "3", "--stat", "count"
        )
        assert (code, out) == (1, "")
        assert err == "error: TROPDET_MAX_VISITS must have at most 1000 digits\n"

    def test_largest_accepted_values_print(self, capsys, monkeypatch):
        big = str(10**1000 - 1)
        monkeypatch.setenv("TROPDET_MAX_VISITS", big)
        code, out, err = run(
            capsys, "enumerate", "--m", big, "--n", "3", "--stat", "count"
        )
        assert (code, out) == (1, "")
        members = 10**1000  # m + 1 first rows
        assert err == (
            f"error: enumeration budget exceeded: at least {members} members "
            f"(budget {big})\n"
        )
        code, out, err = run(capsys, "bounds", "--m", big, "--n", "7")
        assert (code, err) == (0, "")
        assert f"L({big},7) = " in out


class TestRubik:
    def test_classic(self, capsys):
        code, out, _ = run(
            capsys, "rubik", "--colors", "6", "--stickers-per-face", "9"
        )
        assert code == 0
        assert "worst-case stickers to replace: 42" in out

    def test_pocket_structured(self, capsys):
        _, out, _ = run(
            capsys, "rubik", "--colors", "6", "--stickers-per-face", "4",
            "--format", "structured",
        )
        doc = json.loads(out)
        assert doc["answer"] == 18
        assert sum(doc["witness"]["entries"]) == 24


class TestProvedBeforePrinting:
    """construct and rubik print their member only once its certificate
    checks: a broken witness exits 1 with one line and prints nothing."""

    @pytest.mark.parametrize(
        "argv",
        [
            "construct --m 7 --n 6 --objective min-tdet",
            "rubik --colors 6 --stickers-per-face 7",
        ],
    )
    def test_broken_witness_is_refused(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(
            "tropdet.construct._band_witness",
            lambda size, r: np.zeros(size, np.int64),
        )
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert err == "error: witness is not a permutation\n"


class TestZeroBlock:
    def test_identity(self, capsys, tmp_path):
        path = write(tmp_path, "id.txt", "1 0 0\n0 1 0\n0 0 1\n")
        code, out, _ = run(capsys, "zero-block", path)
        assert code == 0
        assert "|R| = 0, |S| = 3, sum = 3" in out
        assert "rows (1-indexed): none" in out
        assert "columns (1-indexed): 1 2 3" in out
        assert "Hall condition (|R| + |S| <= n): holds" in out

    def test_zero_row_fails_hall(self, capsys, tmp_path):
        path = write(tmp_path, "z.txt", "1 1 1\n0 0 0\n1 1 1\n")
        code, out, _ = run(capsys, "zero-block", path)
        assert code == 0
        assert "sum = 4" in out
        assert "rows (1-indexed): 2" in out
        assert "Hall condition (|R| + |S| <= n): fails" in out

    def test_threshold_flag(self, capsys, tmp_path):
        path = write(tmp_path, "t.txt", "2 1\n1 2\n")
        _, out, _ = run(capsys, "zero-block", path, "--threshold", "2")
        assert "sum = 4" in out
        assert "fails" in out

    def test_large_member(self, capsys, tmp_path):
        text = serialize(construct_min_tdet(1001, 1000))
        path = write(tmp_path, "large.txt", text)
        code, out, err = run(capsys, "zero-block", path)
        assert code == 0 and err == ""
        assert "Hall condition (|R| + |S| <= n): holds" in out

    def test_structured(self, capsys, tmp_path):
        path = write(tmp_path, "z.txt", "1 1 1\n0 0 0\n1 1 1\n")
        _, out, _ = run(
            capsys, "zero-block", path, "--format", "structured"
        )
        doc = json.loads(out)
        assert doc["row_set"] == [1]
        assert doc["col_set"] == [0, 1, 2]
        assert doc["sum"] == 4
        assert doc["hall_holds"] is False


class TestRandom:
    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "random", "--m", "6", "--n", "5", "--seed", "3")
        _, second, _ = run(capsys, "random", "--m", "6", "--n", "5", "--seed", "3")
        assert first == second

    def test_round_trip_through_verify(self, capsys, tmp_path):
        _, out, _ = run(capsys, "random", "--m", "6", "--n", "5", "--seed", "3")
        path = write(tmp_path, "sample.txt", out)
        code, report, _ = run(capsys, "verify", path, "--expect-m", "6")
        assert code == 0
        assert "doubly stochastic: yes (m = 6, n = 5)" in report

    def test_structured_reports_seed(self, capsys):
        _, out, _ = run(
            capsys, "random", "--m", "4", "--n", "3", "--seed", "11",
            "--format", "structured",
        )
        doc = json.loads(out)
        assert doc["seed"] == 11
        assert doc["m"] == 4
        assert len(doc["entries"]) == 9


    def test_draws_past_visit_budget_refuse(self, capsys):
        code, out, err = run(capsys, "random", "--m", "10000000000", "--n", "2")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "m * n <= 50000000" in err

    def test_cap_ignores_a_raised_budget(self, capsys, monkeypatch):
        # The cap is fixed: TROPDET_MAX_VISITS moves only enumerate's budget.
        monkeypatch.setenv("TROPDET_MAX_VISITS", "1000000000000")
        code, out, err = run(capsys, "random", "--m", "50000001", "--n", "1")
        assert (code, out) == (1, "")
        assert err == "error: random needs m * n <= 50000000, got 50000001\n"


class TestCellLimit:
    """n x n results past 25 * 10^6 cells are refused before any array of
    that size exists."""

    @pytest.mark.parametrize(
        "argv,limit",
        [
            (
                "construct --m 1 --n 1000000000000000000 --objective min-tdet",
                "25000000",
            ),
            ("construct --m 1 --n 5001 --objective max-tropdet", "25000000"),
            ("construct --m 5002 --n 5001 --objective min-tdet", "25000000"),
            ("rubik --colors 1000000000000000000 --stickers-per-face 1", "25000000"),
            ("rubik --colors 5001 --stickers-per-face 7", "25000000"),
            ("random --m 1 --n 1000000000000000000", "m * n <= 50000000"),
            ("random --m 1 --n 5001", "25000000"),
        ],
    )
    def test_refused_before_allocating(self, capsys, monkeypatch, argv, limit):
        def allocate(*args, **kwargs):
            raise AssertionError("allocated past the cell limit")

        monkeypatch.setattr(np, "full", allocate)
        monkeypatch.setattr(np, "zeros", allocate)
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert limit in err

    def test_the_limit_itself_is_allowed(self, monkeypatch):
        class Allocating(Exception):
            pass

        def allocate(shape, *args, **kwargs):
            raise Allocating(shape)

        monkeypatch.setattr(np, "full", allocate)
        with pytest.raises(Allocating, match=r"\(5000, 5000\)"):
            construct_max_tropdet(1, 5000)


class TestExitCodes:
    @pytest.mark.parametrize(
        "exc,line",
        [
            (MemoryError(), "error: MemoryError\n"),
            (
                RecursionError("maximum recursion depth exceeded"),
                "error: RecursionError: maximum recursion depth exceeded\n",
            ),
            (
                OverflowError("Python int too large to convert to C long"),
                "error: OverflowError: Python int too large to convert to C long\n",
            ),
        ],
        ids=["memory", "recursion", "overflow"],
    )
    def test_resource_errors_exit_1_with_one_line(
        self, capsys, monkeypatch, exc, line
    ):
        def fail(args):
            raise exc

        text, _, arguments = tropdet.cli._COMMANDS["bounds"]
        monkeypatch.setitem(tropdet.cli._COMMANDS, "bounds", (text, fail, arguments))
        code, out, err = run(capsys, "bounds", "--m", "7", "--n", "6")
        assert (code, out, err) == (1, "", line)

    @pytest.mark.parametrize(
        "argv,keep",
        [
            # 400 x 400 one-digit entries are 320 KB, past a 64 KB pipe
            # buffer, so the command is still writing when the reader goes.
            (["construct", "--m", "40", "--n", "400", "--objective", "min-tdet"], 10),
            # Three short lines sit in stdout's buffer until it is flushed.
            (["bounds", "--m", "7", "--n", "5"], 0),
        ],
        ids=["mid_write", "at_flush"],
    )
    def test_closed_reader_exits_1_without_traceback(self, argv, keep):
        # Block-buffered stdout, the default for a pipe, so that output can
        # still be pending when the interpreter exits.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(tropdet.__file__).resolve().parents[1])
        with subprocess.Popen(
            [sys.executable, "-c", "import sys; from tropdet.cli import main; sys.exit(main())"]
            + argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            assert len(proc.stdout.read(keep)) == keep
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in err.decode()
        assert "Exception ignored" not in err.decode()


def _forbidden(*args, **kwargs):
    raise AssertionError("this format must not call me")


class TestEachFormatPaysOnlyForItself:
    MATRIX_COMMANDS = [
        "construct --m 7 --n 5 --objective min-tdet",
        "random --m 6 --n 5 --seed 3",
        "rubik --colors 6 --stickers-per-face 4",
        "enumerate --m 2 --n 3 --stat min-tdet",
    ]

    @pytest.mark.parametrize("cmd", MATRIX_COMMANDS)
    def test_plain_builds_no_structured_doc(self, capsys, monkeypatch, cmd):
        monkeypatch.setattr("tropdet.cli.structured_doc", _forbidden)
        monkeypatch.setattr("tropdet.matrices.structured_doc", _forbidden)
        code, out, err = run(capsys, *cmd.split())
        assert code == 0 and err == "" and out

    @pytest.mark.parametrize("cmd", MATRIX_COMMANDS)
    def test_json_renders_no_plain_text(self, capsys, monkeypatch, cmd):
        monkeypatch.setattr("tropdet.cli.serialize", _forbidden)
        monkeypatch.setattr("tropdet.matrices._render", _forbidden)
        code, out, err = run(capsys, *cmd.split(), "--format", "structured")
        assert code == 0 and err == ""
        assert json.loads(out)


GOLDEN_FILES = {
    "m5.txt": TestEval.M5_TEXT,
    "circ.txt": CIRCULANT_4_6_TEXT,
    "crlf.txt": "2 0 1\r\n0 2 1\r\n1 1 1\r\n",
    "tabs.txt": "1\t2  0\n 2 0\t1\n0 1 2 \n\n",
    "token.txt": "1 x\n0 1\n",
    "ragged.txt": "1 2\n3\n",
    "wide.txt": "1 2 3\n4 5 6\n",
    "colsum.txt": "1 0\n1 0\n",
    "big.txt": f"{5 * 10**18} 0\n0 {5 * 10**18}\n",
    "id3.txt": "1 0 0\n0 1 0\n0 0 1\n",
    "zrow.txt": "1 1 1\n0 0 0\n1 1 1\n",
    "thr.txt": "2 1\n1 2\n",
    "range53.txt": f"0 {2**53}\n{2**53} 0\n",
}

# (command, exit code, stdout, stderr), recorded byte for byte from the CLI
# as it was before its commands shared one renderer.  Stdout longer than 200
# characters is pinned by its sha256.  Leading NAME=value words set
# environment variables; files are read from GOLDEN_FILES.
GOLDEN = [
    (
        "bounds --m 7 --n 6",
        0,
        "m = 7, n = 6  (q = 1, r = 1)\n"
        "L(7,6) = 10  [case HARD_CASE2, l = 2]\n"
        "U(7,6) = 6  [case LOW_R]\n",
        "",
    ),
    (
        "bounds --m 7 --n 6 --format structured",
        0,
        "sha256:b702a90bdc35cb038996d53da2f6be69e39166b91a65835fb198f90c1c0da875",
        "",
    ),
    (
        "bounds --m 10 --n 5",
        0,
        "m = 10, n = 5  (q = 2, r = 0)\n"
        "L(10,5) = 10  [case R_ZERO]\n"
        "U(10,5) = 10  [case LOW_R]\n",
        "",
    ),
    (
        "bounds --m 10 --n 5 --format structured",
        0,
        "sha256:d76de395a8b78a4e3bb4ead224ddf440b31eec5769e37b8fd6497c3c84f81331",
        "",
    ),
    (
        "bounds --m 1000000000000 --n 9999999967",
        0,
        "m = 1000000000000, n = 9999999967  (q = 100, r = 3300)\n"
        "L(1000000000000,9999999967) = 1000001145547  [case HARD_CASE1, l = 574423]\n"
        "U(1000000000000,9999999967) = 999999996700  [case LOW_R]\n",
        "",
    ),
    (
        "bounds --m 1000000000000 --n 9999999967 --format structured",
        0,
        "sha256:067d27c57c2ff35e592778e75c6bedde19d6d2917d5abeeced9e7191241c3711",
        "",
    ),
    (
        "construct --m 7 --n 5 --objective min-tdet",
        0,
        "m = 7, n = 5, objective = min-tdet\n"
        "0 1 2 2 2\n"
        "1 0 2 2 2\n"
        "2 2 1 1 1\n"
        "2 2 1 1 1\n"
        "2 2 1 1 1\n"
        "tdet = 9\n"
        "bound = 9  [case SHARP2]\n",
        "",
    ),
    (
        "construct --m 7 --n 5 --objective min-tdet --format structured",
        0,
        "sha256:362fd827aa5f3b0c23cc9a09d02f99f40e0107aa1522695382b1dad78065770f",
        "",
    ),
    (
        "construct --m 9 --n 6 --objective max-tropdet",
        0,
        "m = 9, n = 6, objective = max-tropdet\n"
        "2 2 2 1 1 1\n"
        "2 2 2 1 1 1\n"
        "2 2 2 1 1 1\n"
        "1 1 1 2 2 2\n"
        "1 1 1 2 2 2\n"
        "1 1 1 2 2 2\n"
        "tropdet = 6\n"
        "bound = 6  [case HIGH_R]\n",
        "",
    ),
    (
        "construct --m 9 --n 6 --objective max-tropdet --format structured",
        0,
        "sha256:38b513e5a45057c948587cb55f00e366a8358ab3bd31f7015ddcbeca27ae67e8",
        "",
    ),
    (
        "construct --m 13 --n 9 --objective min-tdet",
        0,
        "sha256:5b11985b4d32b6762613fc5b0887569e04e8b1b5a013a357a36fa94618f003a6",
        "",
    ),
    (
        "construct --m 13 --n 9 --objective min-tdet --format structured",
        0,
        "sha256:ecb4e54e4e4c5e6a3ca5b45d67f009308b3fc192f4448298967e6b060acf845f",
        "",
    ),
    (
        "construct --m 300 --n 40 --objective min-tdet",
        0,
        "sha256:119bf8bff986a87d88115f871c4f8f9cbc930c0a29c7a79cfb5db34c3b71740b",
        "",
    ),
    (
        "construct --m 300 --n 40 --objective min-tdet --format structured",
        0,
        "sha256:3513c1f53694579d0ea554abecbe1a2011da7caf6c3e6249696cf647b0edfb51",
        "",
    ),
    (
        "tdet m5.txt",
        0,
        "tdet = 9\n"
        "permutation (1-indexed): 3 4 1 2 5\n",
        "",
    ),
    (
        "tdet m5.txt --format structured",
        0,
        "{\n"
        "  \"which\": \"tdet\",\n"
        "  \"n\": 5,\n"
        "  \"value\": 9,\n"
        "  \"permutation\": [\n"
        "    2,\n"
        "    3,\n"
        "    0,\n"
        "    1,\n"
        "    4\n"
        "  ]\n"
        "}\n",
        "",
    ),
    (
        "tropdet m5.txt",
        0,
        "tropdet = 3\n"
        "permutation (1-indexed): 2 1 3 4 5\n",
        "",
    ),
    (
        "tropdet m5.txt --format structured",
        0,
        "{\n"
        "  \"which\": \"tropdet\",\n"
        "  \"n\": 5,\n"
        "  \"value\": 3,\n"
        "  \"permutation\": [\n"
        "    1,\n"
        "    0,\n"
        "    2,\n"
        "    3,\n"
        "    4\n"
        "  ]\n"
        "}\n",
        "",
    ),
    (
        "tdet crlf.txt",
        0,
        "tdet = 5\n"
        "permutation (1-indexed): 1 2 3\n",
        "",
    ),
    (
        "tdet crlf.txt --format structured",
        0,
        "{\n"
        "  \"which\": \"tdet\",\n"
        "  \"n\": 3,\n"
        "  \"value\": 5,\n"
        "  \"permutation\": [\n"
        "    0,\n"
        "    1,\n"
        "    2\n"
        "  ]\n"
        "}\n",
        "",
    ),
    (
        "tropdet tabs.txt",
        0,
        "tropdet = 0\n"
        "permutation (1-indexed): 3 2 1\n",
        "",
    ),
    (
        "tropdet tabs.txt --format structured",
        0,
        "{\n"
        "  \"which\": \"tropdet\",\n"
        "  \"n\": 3,\n"
        "  \"value\": 0,\n"
        "  \"permutation\": [\n"
        "    2,\n"
        "    1,\n"
        "    0\n"
        "  ]\n"
        "}\n",
        "",
    ),
    (
        "verify circ.txt",
        0,
        "doubly stochastic: yes (m = 4, n = 6)\n",
        "",
    ),
    (
        "verify circ.txt --format structured",
        0,
        "{\n"
        "  \"rows\": 6,\n"
        "  \"cols\": 6,\n"
        "  \"member\": true,\n"
        "  \"m\": 4,\n"
        "  \"expected_m\": null,\n"
        "  \"violation\": null\n"
        "}\n",
        "",
    ),
    (
        "verify colsum.txt",
        1,
        "doubly stochastic: no\n"
        "column 2 sums to 0, expected 2\n",
        "",
    ),
    (
        "verify colsum.txt --format structured",
        1,
        "{\n"
        "  \"rows\": 2,\n"
        "  \"cols\": 2,\n"
        "  \"member\": false,\n"
        "  \"m\": null,\n"
        "  \"expected_m\": null,\n"
        "  \"violation\": {\n"
        "    \"axis\": \"column\",\n"
        "    \"index\": 1,\n"
        "    \"sum\": 0,\n"
        "    \"expected\": 2\n"
        "  }\n"
        "}\n",
        "",
    ),
    (
        "verify circ.txt --expect-m 5",
        1,
        "doubly stochastic: yes, but wrong line sum\n"
        "m = 4, expected 5\n",
        "",
    ),
    (
        "verify circ.txt --expect-m 5 --format structured",
        1,
        "{\n"
        "  \"rows\": 6,\n"
        "  \"cols\": 6,\n"
        "  \"member\": false,\n"
        "  \"m\": 4,\n"
        "  \"expected_m\": 5,\n"
        "  \"violation\": null\n"
        "}\n",
        "",
    ),
    (
        "verify wide.txt",
        1,
        "doubly stochastic: no\n"
        "not square: 2x3\n",
        "",
    ),
    (
        "verify wide.txt --format structured",
        1,
        "{\n"
        "  \"rows\": 2,\n"
        "  \"cols\": 3,\n"
        "  \"member\": false,\n"
        "  \"m\": null,\n"
        "  \"expected_m\": null,\n"
        "  \"violation\": {\n"
        "    \"shape\": \"not square: 2x3\"\n"
        "  }\n"
        "}\n",
        "",
    ),
    (
        "enumerate --m 2 --n 3 --stat count",
        0,
        "|D(2,3)| = 21\n",
        "",
    ),
    (
        "enumerate --m 2 --n 3 --stat count --format structured",
        0,
        "{\n"
        "  \"m\": 2,\n"
        "  \"n\": 3,\n"
        "  \"stat\": \"count\",\n"
        "  \"count\": 21\n"
        "}\n",
        "",
    ),
    (
        "enumerate --m 2 --n 3 --stat min-tdet",
        0,
        "min tdet over D(2,3) = 3\n"
        "|D(2,3)| = 21\n"
        "witness:\n"
        "0 1 1\n"
        "1 0 1\n"
        "1 1 0\n",
        "",
    ),
    (
        "enumerate --m 2 --n 3 --stat min-tdet --format structured",
        0,
        "sha256:fdd508c5b96b87838da62462dc1ed27547147efc5310e2f7f886199e04946e1e",
        "",
    ),
    (
        "enumerate --m 5 --n 3 --stat max-tropdet",
        0,
        "max tropdet over D(5,3) = 4\n"
        "|D(5,3)| = 231\n"
        "witness:\n"
        "1 1 3\n"
        "2 2 1\n"
        "2 2 1\n",
        "",
    ),
    (
        "enumerate --m 5 --n 3 --stat max-tropdet --format structured",
        0,
        "sha256:5db9bd9d09d67356f186f5493cc3f6cb0ef45e94b7b79f04624270dd71ef6e4e",
        "",
    ),
    (
        "rubik --colors 6 --stickers-per-face 9",
        0,
        "sha256:b08773b763ef75ed081f72691085aeebe997f6daa83744101d4f128514480fc8",
        "",
    ),
    (
        "rubik --colors 6 --stickers-per-face 9 --format structured",
        0,
        "sha256:d49c873712ddbee2035561f45877f8f2b54799f423e1cb734d1d2aec8b80912b",
        "",
    ),
    (
        "rubik --colors 6 --stickers-per-face 4",
        0,
        "sha256:f1b959abc59f1261db5406f6577b20e2f19a3186fa01a2c93bed1f0ff797de99",
        "",
    ),
    (
        "rubik --colors 6 --stickers-per-face 4 --format structured",
        0,
        "sha256:56e76fc1f269d28b70a29631bfee55ed380eee194404c25e211ed4cac3ba2bb1",
        "",
    ),
    (
        "zero-block id3.txt",
        0,
        "n = 3, threshold = 0\n"
        "largest low block: |R| = 0, |S| = 3, sum = 3\n"
        "rows (1-indexed): none\n"
        "columns (1-indexed): 1 2 3\n"
        "Hall condition (|R| + |S| <= n): holds\n",
        "",
    ),
    (
        "zero-block id3.txt --format structured",
        0,
        "{\n"
        "  \"n\": 3,\n"
        "  \"threshold\": 0,\n"
        "  \"row_set\": [],\n"
        "  \"col_set\": [\n"
        "    0,\n"
        "    1,\n"
        "    2\n"
        "  ],\n"
        "  \"sum\": 3,\n"
        "  \"hall_holds\": true\n"
        "}\n",
        "",
    ),
    (
        "zero-block zrow.txt",
        0,
        "n = 3, threshold = 0\n"
        "largest low block: |R| = 1, |S| = 3, sum = 4\n"
        "rows (1-indexed): 2\n"
        "columns (1-indexed): 1 2 3\n"
        "Hall condition (|R| + |S| <= n): fails\n",
        "",
    ),
    (
        "zero-block zrow.txt --format structured",
        0,
        "{\n"
        "  \"n\": 3,\n"
        "  \"threshold\": 0,\n"
        "  \"row_set\": [\n"
        "    1\n"
        "  ],\n"
        "  \"col_set\": [\n"
        "    0,\n"
        "    1,\n"
        "    2\n"
        "  ],\n"
        "  \"sum\": 4,\n"
        "  \"hall_holds\": false\n"
        "}\n",
        "",
    ),
    (
        "zero-block thr.txt --threshold 2",
        0,
        "n = 2, threshold = 2\n"
        "largest low block: |R| = 2, |S| = 2, sum = 4\n"
        "rows (1-indexed): 1 2\n"
        "columns (1-indexed): 1 2\n"
        "Hall condition (|R| + |S| <= n): fails\n",
        "",
    ),
    (
        "zero-block thr.txt --threshold 2 --format structured",
        0,
        "{\n"
        "  \"n\": 2,\n"
        "  \"threshold\": 2,\n"
        "  \"row_set\": [\n"
        "    0,\n"
        "    1\n"
        "  ],\n"
        "  \"col_set\": [\n"
        "    0,\n"
        "    1\n"
        "  ],\n"
        "  \"sum\": 4,\n"
        "  \"hall_holds\": false\n"
        "}\n",
        "",
    ),
    (
        "random --m 6 --n 5 --seed 3",
        0,
        "1 0 1 1 3\n"
        "1 1 2 1 1\n"
        "2 2 1 0 1\n"
        "0 3 1 2 0\n"
        "2 0 1 2 1\n",
        "",
    ),
    (
        "random --m 6 --n 5 --seed 3 --format structured",
        0,
        "sha256:fee2206237589ce191c7ae5f6bc1a8ea020b43993dedd9f1002c38ece41cec2f",
        "",
    ),
    (
        "random --m 50 --n 40 --seed 7",
        0,
        "sha256:2a5ff24a5c85d3454454fc2eb1d1d4641e8bce5295c398e85161e81e4141a8c8",
        "",
    ),
    (
        "random --m 50 --n 40 --seed 7 --format structured",
        0,
        "sha256:8192d9e8297ffba3d9d7f8c2865ea6b9b729f0382778b294c095f5e72593537e",
        "",
    ),
    (
        "verify circ.txt --expect-m 4",
        0,
        "doubly stochastic: yes (m = 4, n = 6)\n",
        "",
    ),
    (
        "construct --m 10000000000000000001 --n 5 --objective min-tdet",
        1,
        "",
        "error: entries up to 2000000000000000001 with 5 per line can sum past the "
        "int64 limit: need max entry * max(rows, cols) <= 2**63 - 1\n",
    ),
    (
        "construct --m 100000000000000000000 --n 5 --objective max-tropdet --format structured",
        1,
        "",
        "error: entries up to 20000000000000000000 with 5 per line can sum past the "
        "int64 limit: need max entry * max(rows, cols) <= 2**63 - 1\n",
    ),
    # Matrix lines as printed before construct certified its value (the
    # matrices did not change); value lines from the closed forms of L and
    # U, which the float64 solve missed at these entries.
    (
        "construct --m 100000000000000003 --n 5 --objective min-tdet",
        0,
        "m = 100000000000000003, n = 5, objective = min-tdet\n"
        "20000000000000001 20000000000000000 20000000000000000 20000000000000001 20000000000000001\n"
        "20000000000000000 20000000000000001 20000000000000000 20000000000000001 20000000000000001\n"
        "20000000000000000 20000000000000000 20000000000000001 20000000000000001 20000000000000001\n"
        "20000000000000001 20000000000000001 20000000000000001 20000000000000000 20000000000000000\n"
        "20000000000000001 20000000000000001 20000000000000001 20000000000000000 20000000000000000\n"
        "tdet = 100000000000000005\n"
        "bound = 100000000000000005  [case HALF_UP]\n",
        "",
    ),
    (
        "construct --m 100000000000000003 --n 5 --objective max-tropdet",
        0,
        "m = 100000000000000003, n = 5, objective = max-tropdet\n"
        "20000000000000002 20000000000000001 20000000000000000 20000000000000000 20000000000000000\n"
        "20000000000000001 20000000000000002 20000000000000000 20000000000000000 20000000000000000\n"
        "20000000000000000 20000000000000000 20000000000000001 20000000000000001 20000000000000001\n"
        "20000000000000000 20000000000000000 20000000000000001 20000000000000001 20000000000000001\n"
        "20000000000000000 20000000000000000 20000000000000001 20000000000000001 20000000000000001\n"
        "tropdet = 100000000000000001\n"
        "bound = 100000000000000001  [case HIGH_R]\n",
        "",
    ),
    (
        "tdet range53.txt",
        1,
        "",
        "error: entry range 9007199254740992 with n = 2 is past the exact "
        "float64 solve: need n * (max - min) < 2**53\n",
    ),
    (
        "tdet token.txt",
        1,
        "",
        "error: line 1: bad token 'x' (decimal non-negative integers only)\n",
    ),
    (
        "tdet ragged.txt --format structured",
        1,
        "",
        "error: row 2 has 1 entries, expected 2\n",
    ),
    (
        "tdet wide.txt",
        1,
        "",
        "error: not square: 2x3\n",
    ),
    (
        "tdet big.txt",
        1,
        "",
        "error: entries up to 5000000000000000000 with 2 per line can sum past the "
        "int64 limit: need max entry * max(rows, cols) <= 2**63 - 1\n",
    ),
    (
        "tdet absent.txt",
        1,
        "",
        "error: cannot read absent.txt: [Errno 2] No such file or directory: "
        "'absent.txt'\n",
    ),
    (
        "verify token.txt --format structured",
        1,
        "",
        "error: line 1: bad token 'x' (decimal non-negative integers only)\n",
    ),
    (
        "TROPDET_MAX_VISITS=5 enumerate --m 2 --n 3 --stat count",
        1,
        "",
        "error: enumeration budget exceeded: at least 6 members (budget 5)\n",
    ),
    (
        "TROPDET_MAX_VISITS=5 enumerate --m 2 --n 3 --stat min-tdet --format structured",
        1,
        "",
        "error: enumeration budget exceeded: at least 6 members (budget 5)\n",
    ),
    (
        "TROPDET_MAX_VISITS=soon enumerate --m 2 --n 2 --stat count",
        1,
        "",
        "error: TROPDET_MAX_VISITS must be an integer, got 'soon'\n",
    ),
    (
        "bounds --m 0 --n 5",
        2,
        "",
        "usage: tropdet bounds [-h] --m M --n N [--format {plain,structured}]\n"
        "tropdet bounds: error: argument --m: must be at least 1, got 0\n",
    ),
    (
        "bounds --m 1_0 --n 3",
        2,
        "",
        "usage: tropdet bounds [-h] --m M --n N [--format {plain,structured}]\n"
        "tropdet bounds: error: argument --m: must be an integer, got '1_0'\n",
    ),
    (
        "bounds --m 10 --n \u0663",
        2,
        "",
        "usage: tropdet bounds [-h] --m M --n N [--format {plain,structured}]\n"
        "tropdet bounds: error: argument --n: must be an integer, got '\u0663'\n",
    ),
    (
        "TROPDET_MAX_VISITS=+7 enumerate --m 2 --n 2 --stat count",
        1,
        "",
        "error: TROPDET_MAX_VISITS must be an integer, got '+7'\n",
    ),
]


# Each command's usage at 80 columns, as argparse prints it above a usage
# error.
USAGE = {
    "bounds": "usage: tropdet bounds [-h] --m M --n N [--format {plain,structured}]\n",
    "construct": (
        "usage: tropdet construct [-h] --m M --n N --objective {min-tdet,max-tropdet}\n"
        "                         [--format {plain,structured}]\n"
    ),
    "tdet": "usage: tropdet tdet [-h] [--format {plain,structured}] file\n",
    "tropdet": "usage: tropdet tropdet [-h] [--format {plain,structured}] file\n",
    "verify": (
        "usage: tropdet verify [-h] [--expect-m EXPECT_M] [--format {plain,structured}]\n"
        "                      file\n"
    ),
    "enumerate": (
        "usage: tropdet enumerate [-h] --m M --n N --stat {count,min-tdet,max-tropdet}\n"
        "                         [--format {plain,structured}]\n"
    ),
    "rubik": (
        "usage: tropdet rubik [-h] --colors COLORS --stickers-per-face\n"
        "                     STICKERS_PER_FACE [--format {plain,structured}]\n"
    ),
    "zero-block": (
        "usage: tropdet zero-block [-h] [--threshold THRESHOLD]\n"
        "                          [--format {plain,structured}]\n"
        "                          file\n"
    ),
    "random": (
        "usage: tropdet random [-h] --m M --n N [--seed SEED]\n"
        "                      [--format {plain,structured}]\n"
    ),
}


@pytest.mark.parametrize("command", USAGE)
def test_usage_line(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    usage, error = err.split(f"tropdet {command}: error: ")
    assert usage == USAGE[command]
    assert error.startswith("the following arguments are required: ")


@pytest.mark.parametrize(
    "cmd,code,out,err", GOLDEN, ids=[row[0] for row in GOLDEN]
)
def test_golden_bytes(capsys, monkeypatch, tmp_path, cmd, code, out, err):
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_bytes(text.encode())
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to this width
    monkeypatch.delenv("TROPDET_MAX_VISITS", raising=False)
    argv = cmd.split()
    while "=" in argv[0]:
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    try:
        got_code = main(argv)
    except SystemExit as exc:
        got_code = exc.code
    got = capsys.readouterr()
    got_out = got.out
    if out.startswith("sha256:"):
        got_out = "sha256:" + hashlib.sha256(got_out.encode()).hexdigest()
    assert (got_code, got_out, got.err) == (code, out, err)
