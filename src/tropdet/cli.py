"""Command line interface.

Each command, declared once in ``_COMMANDS``, computes one result, which
``main`` prints to stdout either as plain text (the default) or, with
--format structured, as one JSON document; diagnostics go to stderr.  Exit
codes: 0 success, 1 domain or input failure (also a MemoryError,
RecursionError or OverflowError, reported on one line, or a reader that
closed stdout early), 2 usage error.

Human-readable output prints permutations and index sets 1-indexed;
structured output is 0-indexed.  The enumeration visit budget can be
overridden with the TROPDET_MAX_VISITS environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .assignment import tdet, tropdet
from .blocks import largest_low_block
from .bounds import BoundsResult, lower_bound_L, rubik_answer, upper_bound_U
from .construct import _proved
from .enumerate_ds import (
    DEFAULT_VISIT_BUDGET,
    brute_L,
    brute_U,
    count_D,
    random_ds,
)
from .errors import LineSumError, MatrixParseError, MatrixShapeError, TropdetError
from .matrices import (
    DSMatrix,
    IntMatrix,
    parse_matrix,
    serialize,
    split,
    structured_doc,
    validate_ds,
)

BUDGET_ENV_VAR = "TROPDET_MAX_VISITS"

# The product of two accepted integers has at most twice as many digits, so
# it still prints under the interpreter's 4300-digit int-string limit.
_MAX_DIGITS = 1000


def _int_at_least(low: int, text: str) -> int:
    """text, ASCII decimal with an optional "-", as an integer of at most
    _MAX_DIGITS digits, no smaller than low; the one check on every integer
    the CLI reads, from argv and from the environment."""
    if sum(c.isdigit() for c in text) > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"must have at most {_MAX_DIGITS} digits")
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _read_matrix(path: str) -> IntMatrix:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}")
    return parse_matrix(text)


def _budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_VISIT_BUDGET
    try:
        return _int_at_least(1, raw)
    except argparse.ArgumentTypeError as exc:
        raise TropdetError(f"{BUDGET_ENV_VAR} {exc}")


def _bound_doc(res: BoundsResult) -> dict:
    return {
        "value": res.value,
        "case": res.case_tag.value,
        "l": res.l,
        "eqn1_holds": res.eqn1_holds,
        "eqn2_holds": res.eqn2_holds,
    }


# What every _cmd_* returns: its exit code, its JSON document and its plain
# lines, computed once.  Matrices stay DSMatrix (or entry array) objects in
# both; _print_result turns them into text or JSON lists only for the
# format it prints.
_Result = tuple[int, dict, list]


def _cmd_bounds(args) -> _Result:
    p = split(args.m, args.n)
    low = lower_bound_L(args.m, args.n)
    high = upper_bound_U(args.m, args.n)
    doc = {
        "m": p.m,
        "n": p.n,
        "q": p.q,
        "r": p.r,
        "L": _bound_doc(low),
        "U": _bound_doc(high),
    }
    suffix = f", l = {low.l}" if low.l is not None else ""
    lines = [
        f"m = {p.m}, n = {p.n}  (q = {p.q}, r = {p.r})",
        f"L({p.m},{p.n}) = {low.value}  [case {low.case_tag.value}{suffix}]",
        f"U({p.m},{p.n}) = {high.value}  [case {high.case_tag.value}]",
    ]
    return 0, doc, lines


def _cmd_construct(args) -> _Result:
    # The value is proved, not solved: exact duals and a tight witness.
    ds, res, achieved = _proved(args.m, args.n, args.objective)
    doc = {
        "m": args.m,
        "n": args.n,
        "objective": args.objective,
        "case": res.case_tag.value,
        "bound": res.value,
        "achieved": achieved,
        "matrix": ds,
    }
    lines = [
        f"m = {args.m}, n = {args.n}, objective = {args.objective}",
        ds,
        f"{args.objective.partition('-')[2]} = {achieved}",  # tdet or tropdet
        f"bound = {res.value}  [case {res.case_tag.value}]",
    ]
    return 0, doc, lines


def _cmd_eval(args) -> _Result:
    a = _read_matrix(args.file)
    t = tdet(a) if args.command == "tdet" else tropdet(a)
    doc = {"which": args.command, "n": a.rows, "value": t.value, "permutation": t.perm}
    lines = [
        f"{args.command} = {t.value}",
        "permutation (1-indexed): " + " ".join(str(j + 1) for j in t.perm),
    ]
    return 0, doc, lines


def _cmd_verify(args) -> _Result:
    a = _read_matrix(args.file)
    violation: dict | None = None
    ds: DSMatrix | None = None
    try:
        ds = validate_ds(a)
    except LineSumError as exc:
        violation = {
            "axis": exc.axis,
            "index": exc.index,
            "sum": exc.total,
            "expected": exc.expected,
        }
        detail = (
            f"{exc.axis} {exc.index + 1} sums to {exc.total}, "
            f"expected {exc.expected}"
        )
    except MatrixShapeError as exc:
        violation = {"shape": str(exc)}
        detail = str(exc)

    expected = args.expect_m
    member = ds is not None and (expected is None or ds.m == expected)
    doc = {
        "rows": a.rows,
        "cols": a.cols,
        "member": member,
        "m": ds.m if ds is not None else None,
        "expected_m": expected,
        "violation": violation,
    }
    if member:
        lines = [f"doubly stochastic: yes (m = {ds.m}, n = {ds.n})"]
    elif ds is not None:
        lines = [
            "doubly stochastic: yes, but wrong line sum",
            f"m = {ds.m}, expected {expected}",
        ]
    else:
        lines = ["doubly stochastic: no", detail]
    return (0 if member else 1), doc, lines


def _cmd_enumerate(args) -> _Result:
    budget = _budget()
    if args.stat == "count":
        total = count_D(args.m, args.n, budget)
        doc = {"m": args.m, "n": args.n, "stat": "count", "count": total}
        return 0, doc, [f"|D({args.m},{args.n})| = {total}"]
    if args.stat == "min-tdet":
        label, search = "min tdet", brute_L
    else:
        label, search = "max tropdet", brute_U
    stats = search(args.m, args.n, budget)
    doc = {
        "m": args.m,
        "n": args.n,
        "stat": args.stat,
        "extremum": stats.extremum,
        "count": stats.count,
        "witness": stats.witness,
    }
    lines = [
        f"{label} over D({args.m},{args.n}) = {stats.extremum}",
        f"|D({args.m},{args.n})| = {stats.count}",
        "witness:",
        stats.witness,
    ]
    return 0, doc, lines


def _cmd_rubik(args) -> _Result:
    answer = rubik_answer(args.colors, args.stickers_per_face)
    witness = _proved(args.stickers_per_face, args.colors, "min-tdet")[0]
    doc = {
        "colors": args.colors,
        "stickers_per_face": args.stickers_per_face,
        "answer": answer,
        "witness": witness,
    }
    lines = [
        f"colors = {args.colors}, stickers per face = {args.stickers_per_face}",
        f"worst-case stickers to replace: {answer}",
        "worst-case sticker counts (rows = colors, columns = faces):",
        witness,
    ]
    return 0, doc, lines


def _cmd_zero_block(args) -> _Result:
    a = _read_matrix(args.file)
    block = largest_low_block(a, args.threshold)
    n = a.rows
    hall = block.dimension_sum <= n
    doc = {
        "n": n,
        "threshold": args.threshold,
        "row_set": block.row_set,
        "col_set": block.col_set,
        "sum": block.dimension_sum,
        "hall_holds": hall,
    }
    rows_text = " ".join(str(i + 1) for i in block.row_set) or "none"
    cols_text = " ".join(str(j + 1) for j in block.col_set) or "none"
    lines = [
        f"n = {n}, threshold = {args.threshold}",
        f"largest low block: |R| = {len(block.row_set)}, "
        f"|S| = {len(block.col_set)}, sum = {block.dimension_sum}",
        f"rows (1-indexed): {rows_text}",
        f"columns (1-indexed): {cols_text}",
        "Hall condition (|R| + |S| <= n): " + ("holds" if hall else "fails"),
    ]
    return 0, doc, lines


def _cmd_random(args) -> _Result:
    ds = random_ds(args.m, args.n, args.seed)
    a = ds.matrix.array
    # structured_doc's keys, flat, plus the seed; the entries stay an array.
    doc = {"rows": ds.n, "cols": ds.n, "entries": a, "m": ds.m, "seed": args.seed}
    return 0, doc, [ds]


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.ravel().tolist()
    return structured_doc(obj)


def _print_result(result: _Result, fmt: str) -> int:
    """Print a command's result as one JSON document or as plain lines,
    rendering only what that format shows; return its exit code."""
    code, doc, lines = result
    if fmt == "structured":
        print(json.dumps(doc, indent=2, default=_json_default))
    else:
        for line in lines:
            print(line if isinstance(line, str) else serialize(line))
    # A reader that has gone fails the write here, inside main's handlers,
    # and not in the interpreter's flush at exit.
    sys.stdout.flush()
    return code


# The CLI's one declaration: each command's help, handler and arguments.  An
# argument is its flag (a positional file path when it has no "--"), then an
# integer lower bound, a tuple of choices or None, then its default or
# "required", then an optional help string.
_M, _N = ("--m", 1, "required"), ("--n", 1, "required")
_FILE = ("file", None, "required")
_COMMANDS = {
    "bounds": ("evaluate L(m,n) and U(m,n)", _cmd_bounds, [_M, _N]),
    "construct": (
        "build an extremal member of D(m,n)",
        _cmd_construct,
        [_M, _N, ("--objective", ("min-tdet", "max-tropdet"), "required")],
    ),
    "tdet": ("evaluate tdet of a matrix file ('-' for stdin)", _cmd_eval, [_FILE]),
    "tropdet": (
        "evaluate tropdet of a matrix file ('-' for stdin)",
        _cmd_eval,
        [_FILE],
    ),
    "verify": (
        "check membership in D(m,n)",
        _cmd_verify,
        [
            _FILE,
            (
                "--expect-m",
                1,
                None,
                "also require the detected line sum to equal this value",
            ),
        ],
    ),
    "enumerate": (
        "sweep all of D(m,n)",
        _cmd_enumerate,
        [_M, _N, ("--stat", ("count", "min-tdet", "max-tropdet"), "required")],
    ),
    "rubik": (
        "worst-case sticker replacement count for a color puzzle",
        _cmd_rubik,
        [("--colors", 1, "required"), ("--stickers-per-face", 1, "required")],
    ),
    "zero-block": (
        "largest low block and Hall condition of a matrix file",
        _cmd_zero_block,
        [_FILE, ("--threshold", 0, 0)],
    ),
    "random": (
        "sample a random member of D(m,n)",
        _cmd_random,
        [_M, _N, ("--seed", 0, None)],
    ),
}

# Every command takes this one last.
_FORMAT = (
    "--format",
    ("plain", "structured"),
    "plain",
    "plain text (default) or a single JSON document",
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropdet",
        description=(
            "Sharp bounds, extremal constructions and exact solvers for "
            "tropical determinants of integer doubly-stochastic matrices."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, arguments) in _COMMANDS.items():
        p = subs.add_parser(name, help=text)
        for flag, kind, default, *doc in arguments + [_FORMAT]:
            opts = {"help": doc[0] if doc else None}
            if isinstance(kind, int):
                opts["type"] = functools.partial(_int_at_least, kind)
            elif kind:
                opts["choices"] = kind
            if default != "required":
                opts["default"] = default
            elif flag.startswith("--"):
                opts["required"] = True
            p.add_argument(flag, **opts)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # The table, read at each call, names the handler; the parser is shared.
        return _print_result(_COMMANDS[args.command][1](args), args.format)
    except TropdetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError, OverflowError) as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader left early.  What stdout still buffers goes to
        # /dev/null, so the interpreter's final flush cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
