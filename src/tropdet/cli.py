"""Command line interface.

Subcommands: bounds, construct, tdet, tropdet, verify, enumerate, rubik,
zero-block, random.  Each command computes one result, which ``main``
prints to stdout either as plain text (the default) or, with --format
structured, as one JSON document; diagnostics go to stderr.  Exit codes:
0 success, 1 domain or input failure (also a MemoryError, RecursionError
or OverflowError, reported on one line), 2 usage error.

Human-readable output prints permutations and index sets 1-indexed;
structured output is 0-indexed.  The enumeration visit budget can be
overridden with the TROPDET_MAX_VISITS environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .assignment import tdet, tropdet
from .blocks import largest_low_block
from .bounds import BoundsResult, lower_bound_L, rubik_answer, upper_bound_U
from .construct import construct_max_tropdet, construct_min_tdet
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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _read_matrix(path: str) -> IntMatrix:
    if path == "-":
        return parse_matrix(sys.stdin.read())
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}")
    return parse_matrix(text)


def _budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_VISIT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise TropdetError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}")
    if value < 1:
        raise TropdetError(f"{BUDGET_ENV_VAR} must be >= 1, got {value}")
    return value


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
    if args.objective == "min-tdet":
        ds = construct_min_tdet(args.m, args.n)
        res = lower_bound_L(args.m, args.n)
        achieved = tdet(ds.matrix).value
        label = "tdet"
    else:
        ds = construct_max_tropdet(args.m, args.n)
        res = upper_bound_U(args.m, args.n)
        achieved = tropdet(ds.matrix).value
        label = "tropdet"
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
        f"{label} = {achieved}",
        f"bound = {res.value}  [case {res.case_tag.value}]",
    ]
    return 0, doc, lines


def _cmd_eval(args) -> _Result:
    a = _read_matrix(args.file)
    t = tdet(a) if args.which == "tdet" else tropdet(a)
    doc = {"which": args.which, "n": a.rows, "value": t.value, "permutation": t.perm}
    lines = [
        f"{args.which} = {t.value}",
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
    stats = (
        brute_L(args.m, args.n, budget)
        if args.stat == "min-tdet"
        else brute_U(args.m, args.n, budget)
    )
    doc = {
        "m": args.m,
        "n": args.n,
        "stat": args.stat,
        "extremum": stats.extremum,
        "count": stats.count,
        "witness": stats.witness,
    }
    label = "min tdet" if args.stat == "min-tdet" else "max tropdet"
    lines = [
        f"{label} over D({args.m},{args.n}) = {stats.extremum}",
        f"matrices visited: {stats.count}",
        "witness:",
        stats.witness,
    ]
    return 0, doc, lines


def _cmd_rubik(args) -> _Result:
    answer = rubik_answer(args.colors, args.stickers_per_face)
    witness = construct_min_tdet(args.stickers_per_face, args.colors)
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
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropdet",
        description=(
            "Sharp bounds, extremal constructions and exact solvers for "
            "tropical determinants of integer doubly-stochastic matrices."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bounds", help="evaluate L(m,n) and U(m,n)")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = subs.add_parser("construct", help="build an extremal member of D(m,n)")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument(
        "--objective", choices=("min-tdet", "max-tropdet"), required=True
    )
    p.set_defaults(func=_cmd_construct)

    for which in ("tdet", "tropdet"):
        p = subs.add_parser(
            which, help=f"evaluate {which} of a matrix file ('-' for stdin)"
        )
        p.add_argument("file")
        p.set_defaults(func=_cmd_eval, which=which)

    p = subs.add_parser("verify", help="check membership in D(m,n)")
    p.add_argument("file")
    p.add_argument(
        "--expect-m",
        type=_positive_int,
        default=None,
        help="also require the detected line sum to equal this value",
    )
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("enumerate", help="sweep all of D(m,n)")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument(
        "--stat", choices=("count", "min-tdet", "max-tropdet"), required=True
    )
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser(
        "rubik", help="worst-case sticker replacement count for a color puzzle"
    )
    p.add_argument("--colors", type=_positive_int, required=True)
    p.add_argument("--stickers-per-face", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_rubik)

    p = subs.add_parser(
        "zero-block", help="largest low block and Hall condition of a matrix file"
    )
    p.add_argument("file")
    p.add_argument("--threshold", type=_nonneg_int, default=0)
    p.set_defaults(func=_cmd_zero_block)

    p = subs.add_parser("random", help="sample a random member of D(m,n)")
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--seed", type=_nonneg_int, default=None)
    p.set_defaults(func=_cmd_random)

    for p in subs.choices.values():
        p.add_argument(
            "--format",
            choices=("plain", "structured"),
            default="plain",
            help="plain text (default) or a single JSON document",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _print_result(args.func(args), args.format)
    except TropdetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, RecursionError, OverflowError) as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
