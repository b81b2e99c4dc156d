import io
import json

import pytest

from conftest import CIRCULANT_4_6_TEXT
from tropdet import construct_min_tdet, lower_bound_L, serialize, upper_bound_U
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
        assert "matrices visited: 21" in out
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

    def test_budget_env_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("TROPDET_MAX_VISITS", "soon")
        code, _, err = run(
            capsys, "enumerate", "--m", "2", "--n", "2", "--stat", "count"
        )
        assert code == 1
        assert "TROPDET_MAX_VISITS" in err


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

        monkeypatch.setattr("tropdet.cli._cmd_bounds", fail)
        code, out, err = run(capsys, "bounds", "--m", "7", "--n", "6")
        assert (code, out, err) == (1, "", line)
