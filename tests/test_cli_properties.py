"""Generated input for the CLI: argv drawn from its command table, matrix
files drawn from members of D(m, n) and from the malformed texts a user may
hand over.

Every command, argument and choice comes from ``tropdet.cli._COMMANDS``, so
the parser and this harness cannot drift apart.  ``main`` runs in-process,
as the benchmark calls it.  The invariants:

- the exit code is 0, 1 or 2, and no exception escapes ``main``;
- exit 0 writes nothing to stderr;
- exit 1 writes nothing to stdout and one ``error:`` line to stderr, except
  ``verify`` on a non-member, which reports on stdout with stderr empty;
- exit 2 is argparse's usage error on stderr;
- structured output parses as JSON;
- on files up to 6 x 6, tdet, tropdet, zero-block and verify agree with
  ``tests/reference.py`` and plain line-sum arithmetic.

Values stay cheap: in-range draws keep --n at 64 or less, and `enumerate`
at m, n <= 6 with the budget at its default or small, so that no example
lands where the row pool is built close to the budget.  The edge values
(10^4, the 2^53 and 2^63 neighbours, 10^18, the integers on either side of
the CLI's digit bound and one of 4300 digits, the longest the interpreter
prints) stay cheap as well: as an n they meet the refusals that the size
limits make cheap.
"""

import argparse
import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import tropdet.cli as cli
from reference import low_blocks, transversal_sums

DIGITS = cli._MAX_DIGITS
EDGES = [10**4, 2**53 - 1, 2**53 + 1, 2**63 - 1, 2**63 + 1, 10**18, -1, -(2**63)]
# Around the digit bound, and the longest integer the interpreter prints.
EDGES += [10 ** (DIGITS - 1), 10**DIGITS - 1, 10**DIGITS, 10**4300 - 1]
NOT_INTEGERS = ["1.5", "two", "", "1e3", "0x10", "--m", "1_0", "\u0663", " +7"]
# The largest in-range value drawn per flag; enumerate has its own.
CHEAP = {"--m": 64, "--n": 64, "--colors": 64, "--stickers-per-face": 64}
CHEAP_ENUMERATE = {"--m": 6, "--n": 6}
BUDGETS = [None, None, None, "5", "1000", "0", "-3", "1.5", "", "soon"]
BUDGETS += [str(10**DIGITS), "9" * 4300]
FILE_KINDS = [
    "member",
    "off_by_one",
    "crlf",
    "tabs",
    "ragged",
    "not_utf8",
    "empty",
    "limit",
    "not_square",
]


@st.composite
def int_texts(draw, low: int, cheap: int):
    """Mostly an in-range value, else an edge value or a non-integer."""
    pick = draw(st.integers(0, 5))
    if pick < 4:
        return str(draw(st.integers(low, cheap)))
    if pick == 4:
        return str(draw(st.sampled_from([0, 1, low - 1, low + 1] + EDGES)))
    return draw(st.sampled_from(NOT_INTEGERS))


def render(rows, sep=" ", eol="\n"):
    return "".join(sep.join(str(x) for x in row) + eol for row in rows)


@st.composite
def members(draw):
    """A member of D(m, n), n <= 6: the sum of m permutation matrices."""
    n = draw(st.integers(1, 6))
    a = np.zeros((n, n), dtype=np.int64)
    for _ in range(draw(st.integers(1, 4))):
        a[np.arange(n), draw(st.permutations(range(n)))] += 1
    return a


@st.composite
def matrix_files(draw):
    """(file bytes, the matrix they hold or None when they hold none)."""
    a = draw(members())
    n = a.shape[0]
    kind = draw(st.sampled_from(FILE_KINDS))
    if kind == "off_by_one":
        a = a.copy()
        a[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] += 1
    elif kind == "limit":
        # A diagonal of one value near the 2^53 or int64 limit.
        value = draw(
            st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, 2**63])
        )
        n = draw(st.integers(1, 3))
        a = np.diag([value] * n).astype(object)
    elif kind == "not_square":
        a = a[:, : max(n - 1, 1)] if n > 1 else np.zeros((1, 2), dtype=np.int64)
    rows = a.tolist()
    if kind == "crlf":
        return render(rows, eol="\r\n").encode(), a
    if kind == "tabs":
        return render(rows, sep="\t ", eol=" \n").encode() + b"\n\n", a
    if kind == "ragged":
        return render(rows + [rows[-1] + [0]]).encode(), None
    if kind == "not_utf8":
        return b"\xff\xfe" + render(rows).encode(), None
    if kind == "empty":
        return draw(st.sampled_from([b"", b"\n\n", b" \t\n"])), None
    return render(rows).encode(), a


@st.composite
def invocations(draw):
    """(argv, TROPDET_MAX_VISITS or None, matrix file or None), drawn from
    the command table; a required argument is sometimes left out."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    _, _, arguments = cli._COMMANDS[name]
    cheap = CHEAP_ENUMERATE if name == "enumerate" else CHEAP
    argv, file = [name], None
    for flag, kind, default, *_ in arguments + [cli._FORMAT]:
        keep = st.sampled_from([True] * 19 + [False])
        if not draw(keep if default == "required" else st.booleans()):
            continue
        if kind is None:
            file = draw(matrix_files())
            argv.append(draw(st.sampled_from(["{path}", "{path}", "-"])))
            continue
        if isinstance(kind, int):
            value = draw(int_texts(kind, cheap.get(flag, 2**31)))
        else:
            value = draw(st.sampled_from(kind * 4 + ("bogus",)))
        argv += [flag, value] if flag.startswith("--") else [value]
    budget = draw(st.sampled_from(BUDGETS)) if name == "enumerate" else None
    return argv, budget, file


def run(argv, budget, data):
    """main's exit code, stdout and stderr, with a file behind {path} or on
    stdin for "-"."""
    env = {} if budget is None else {"TROPDET_MAX_VISITS": budget}
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(data or b""), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix.txt"
        path.write_bytes(data or b"")
        argv = [arg.replace("{path}", str(path)) for arg in argv]
        with contextlib.ExitStack() as stack:
            stack.enter_context(mock.patch.dict(os.environ, env))
            if budget is None:
                os.environ.pop("TROPDET_MAX_VISITS", None)
            stack.enter_context(mock.patch("sys.stdin", stdin))
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_file_command(name, argv, a, code, out):
    """A file command's outcome for the matrix a, None when the file holds
    none: a refusal without a matrix or past IntMatrix's entry limit, else
    the values of the plain references."""
    if a is not None and int(a.max()) * max(a.shape) > 2**63 - 1:
        a = None
    if a is None:
        assert (code, out) == (1, "")
        return
    square = a.shape[0] == a.shape[1]
    structured = "structured" in argv
    if name == "verify":
        sums = set(a.sum(axis=0).tolist()) | set(a.sum(axis=1).tolist())
        member = square and len(sums) == 1
        if member and "--expect-m" in argv:
            member = sums == {int(argv[argv.index("--expect-m") + 1])}
        assert code == (0 if member else 1) and out
        if structured:
            assert json.loads(out)["member"] is member
        return
    n, hi, lo = a.shape[0], int(a.max()), int(a.min())
    if not square or (name != "zero-block" and n * (hi - lo) >= 2**53 and code == 1):
        assert (code, out) == (1, "")  # no transversal, or past the exact solve
        return
    assert code == 0, out
    doc = json.loads(out) if structured else None
    ints = np.asarray(a, dtype=np.int64)
    if name in ("tdet", "tropdet"):
        sums = transversal_sums(ints)
        want = int(sums.max() if name == "tdet" else sums.min())
        if doc is not None:
            value, perm = doc["value"], doc["permutation"]
        else:
            value = int(re.search(rf"^{name} = (\d+)$", out, re.M).group(1))
            found = re.search(r"permutation \(1-indexed\): ([\d ]+)", out).group(1)
            perm = [int(j) - 1 for j in found.split()]
        assert value == want
        assert sorted(perm) == list(range(n))
        assert sum(int(ints[i, j]) for i, j in enumerate(perm)) == value
    else:
        t = int(argv[argv.index("--threshold") + 1]) if "--threshold" in argv else 0
        best, _ = low_blocks(ints, t)
        if doc is not None:
            total, rows, cols = doc["sum"], doc["row_set"], doc["col_set"]
            assert (ints[np.ix_(rows, cols)] <= t).all()
        else:
            total = int(re.search(r"sum = (\d+)", out).group(1))
        assert total == best


@settings(max_examples=600)
@given(invocations())
def test_every_command_on_generated_input(call):
    argv, budget, file = call
    data, a = file if file is not None else (None, None)
    code, out, err = run(argv, budget, data)
    name = argv[0]
    event(f"{name} exit {code}")
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("usage: tropdet")
        assert f"tropdet {name}: error: " in err
        return
    if code == 0:
        assert err == ""
    elif name == "verify" and out:
        assert err == ""  # a non-member is reported on stdout
    else:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if out and "structured" in argv:
        json.loads(out)
    if file is not None:
        check_file_command(name, argv, a, code, out)


def test_table_is_the_parser():
    parser = cli._build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subs.choices) == list(cli._COMMANDS)
    for name, (_, _, arguments) in cli._COMMANDS.items():
        declared = [flag for flag, *_ in arguments + [cli._FORMAT]]
        built = [
            a.option_strings[0] if a.option_strings else a.dest
            for a in subs.choices[name]._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert built == declared


def test_parser_is_built_once(capsys):
    cli._build_parser.cache_clear()
    assert cli.main(["bounds", "--m", "7", "--n", "6"]) == 0
    assert cli.main(["bounds", "--m", "7", "--n", "5"]) == 0
    assert cli._build_parser.cache_info().misses == 1
