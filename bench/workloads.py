"""Seeded op lists, op execution and output checks for the tropdet benchmark.

A workload is an endless sequence of rounds; a round is a list of ops whose
mix of kinds and sizes is the same for every seed, so that runs with
different seeds measure the same amount of work.  The seed only draws the
parameters inside each slot, and the order of the sweep.  An op is a small descriptor: ``kind`` names
the check, ``label`` groups ops in reports, and ``params`` is everything
the call and the check need.

Every check here is independent of the package: closed forms are
re-derived with ``math.isqrt`` instead of the package's scan, counts come
from published sequences and identities, and matchings and assignments
are certified with scipy routines and exact integer arithmetic on the
benchmark's own numpy copy of the input.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

import tropdet
import tropdet.cli

class Mismatch(Exception):
    """An output disagreed with its reference."""


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    params: tuple


# ---------------------------------------------------------------- references


def _least_root(a: int, b: int, c: int) -> int:
    """Smallest integer x >= 0 with a*x*x + b*x + c >= 0, for a, b > 0."""
    disc = b * b - 4 * a * c
    x = max(0, (math.isqrt(max(disc, 0)) - b) // (2 * a))
    while a * x * x + b * x + c < 0:
        x += 1
    while x > 0 and a * (x - 1) ** 2 + b * (x - 1) + c >= 0:
        x -= 1
    return x


def ref_L(m: int, n: int) -> tuple[int, str, int | None]:
    """L(m, n), its case tag and the hard-case l, from the closed form."""
    q, r = divmod(m, n)
    if r == 0:
        return m, "R_ZERO", None
    if q == 0:
        return n, "Q_ZERO", None
    if 2 * r >= n:
        return n * (q + 1), "HALF_UP", None
    if n <= 2 * r + r * q:
        return q * n + 2 * r, "SHARP2", None
    # The first quadratic implies the second, so the smallest l satisfying
    # either is the smallest root of the second.
    l = _least_root(q, 2 * r + q, r - r * n)
    if q * l * l + 2 * l * r - r * n >= 0:
        return q * n + 2 * l, "HARD_CASE2", l
    return q * n + 2 * l + 1, "HARD_CASE1", l


def ref_U(m: int, n: int) -> tuple[int, str]:
    q, r = divmod(m, n)
    if 2 * r < n:
        return q * n, "LOW_R"
    return q * n + 2 * r - n, "HIGH_R"


# |D(m, n)| from sources that share nothing with the enumerator: OEIS
# A000681 (line sums 2), A001501 (line sums 3) and A001496 (4 x 4).
PUBLISHED_COUNTS = {
    (2, 4): 282,
    (2, 5): 6210,
    (2, 6): 202410,
    (3, 4): 2008,
    (3, 5): 153040,
    (4, 4): 10147,
    (5, 4): 40176,
    (6, 4): 132724,
    (7, 4): 381424,
    (8, 4): 981541,
}


def ref_count(m: int, n: int) -> int:
    if n == 1:
        return 1
    if m == 1:
        return math.factorial(n)
    if n == 2:
        return m + 1
    if n == 3:  # MacMahon
        return math.comb(m + 2, 2) + 3 * math.comb(m + 3, 4)
    return PUBLISHED_COUNTS[(m, n)]


# ------------------------------------------------------------- check helpers


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _array(matrix) -> np.ndarray:
    """Benchmark-side int64 copy of an IntMatrix or DSMatrix."""
    matrix = getattr(matrix, "matrix", matrix)
    return np.array(matrix.entries, dtype=np.int64).reshape(matrix.rows, matrix.cols)


def _check_membership(a: np.ndarray, m: int, n: int) -> None:
    _expect(a.shape == (n, n), f"shape {a.shape}, expected {n}x{n}")
    _expect(bool((a >= 0).all()), "negative entry")
    _expect(bool((a.sum(axis=1) == m).all()), f"a row sum differs from {m}")
    _expect(bool((a.sum(axis=0) == m).all()), f"a column sum differs from {m}")


def _check_transversal(a: np.ndarray, perm, value: int) -> None:
    perm = np.asarray(perm, dtype=np.intp)
    n = a.shape[0]
    _expect(sorted(perm.tolist()) == list(range(n)), "witness is not a permutation")
    _expect(int(a[np.arange(n), perm].sum()) == value, "witness sum differs from value")


def _lsa_value(a: np.ndarray, maximize: bool) -> int:
    rows, cols = linear_sum_assignment(a, maximize=maximize)
    return int(a[rows, cols].sum())


def _brute_value(a: np.ndarray, maximize: bool) -> int:
    n = a.shape[0]
    sums = [int(a[np.arange(n), list(p)].sum()) for p in permutations(range(n))]
    return max(sums) if maximize else min(sums)


def _matching_size(a: np.ndarray, t: int) -> int:
    """Size of a maximum matching on entries above t (Hopcroft-Karp),
    after checking that the matching scipy returns is one."""
    match = maximum_bipartite_matching(csr_matrix(a > t), perm_type="column")
    rows = np.flatnonzero(match >= 0)
    cols = match[rows]
    _expect(len(set(cols.tolist())) == len(cols), "reference matching reuses a column")
    _expect(bool((a[rows, cols] > t).all()), "reference matching uses a low entry")
    return len(rows)


def _check_low_block(a: np.ndarray, t: int, rows, cols, total: int) -> None:
    """König certificate: the block is all low, and its dimension sum meets
    2n - (size of a matching above t), which no low block can exceed."""
    rows, cols = list(rows), list(cols)
    n = a.shape[0]
    _expect(total == len(rows) + len(cols), "block sum differs from |R| + |S|")
    if rows and cols:
        _expect(bool((a[np.ix_(rows, cols)] <= t).all()), "block holds an entry above t")
    _expect(total == 2 * n - _matching_size(a, t), "block is not the largest")


# ------------------------------------------------------------------- large_n

# Every matrix op draws n from this narrow band, so that rounds on different
# seeds cost the same.  At this size the recursive matcher behind zero-block
# exceeds Python's recursion limit on most random members; those ops stay
# in and are counted as failed.
LARGE_N = (1100, 1141)


def _draw_m(rng, n: int, tag: str) -> int:
    """An m whose L or U case at this n is ``tag``."""
    while True:
        q = int(rng.integers(1, 9))
        if tag == "R_ZERO":
            return q * n
        if tag == "Q_ZERO":
            return int(rng.integers(n // 4, n))
        if tag in ("HALF_UP", "HIGH_R"):
            return q * n + int(rng.integers((n + 1) // 2, n))
        if tag == "LOW_R":
            return q * n + int(rng.integers(1, (n + 1) // 2))
        if tag == "SHARP2":
            return q * n + int(rng.integers(-(-n // (q + 2)), (n + 1) // 2))
        m = q * n + int(rng.integers(1, -(-n // (q + 2))))
        if ref_L(m, n)[1] == tag:  # HARD_CASE1 or HARD_CASE2
            return m


def _bounds_params(rng, log10_n: tuple[float, float], l_range: tuple[int, int]):
    """A hard-case (m, n) whose smallest l lies near a drawn target; l is
    about sqrt(r * n / q), so the target fixes the ratio r / q."""
    n = int(10 ** rng.uniform(*log10_n))
    ratio = int(rng.integers(*l_range)) ** 2 / n
    if ratio >= 1:
        q = int(rng.integers(1, 6))
        r = round(q * ratio)
    else:
        r = int(rng.integers(1, 6))
        q = round(r / ratio)
    return q * n + r, n


def large_n_round(seed: int, index: int) -> list[Op]:
    rng = np.random.default_rng([seed, index])

    def size() -> int:
        return int(rng.integers(*LARGE_N))

    ops = []
    for objective, tags in (
        ("min-tdet", ("R_ZERO", "Q_ZERO", "HALF_UP", "SHARP2", "HARD_CASE1", "HARD_CASE2")),
        ("max-tropdet", ("LOW_R", "HIGH_R")),
    ):
        for tag in tags:
            n = size()
            ops.append(Op("construct", f"construct {tag}", (_draw_m(rng, n, tag), n, objective)))
    n = size()
    ops.append(Op("random", "random", (int(rng.integers(10, 41)), n, int(rng.integers(2**31)))))
    n = size()
    member = (int(rng.integers(10, 41)), n, int(rng.integers(2**31)))
    ops.append(Op("verify", "verify", member))
    ops.append(Op("eval", "tdet", member + ("tdet",)))
    ops.append(Op("eval", "tropdet", member + ("tropdet",)))
    ops.append(Op("zero_block", "zero-block", member + (member[0] // n,)))
    ops.append(Op("bounds", "bounds l~1e5", _bounds_params(rng, (10, 11), (100_000, 120_000))))
    ops.append(Op("bounds", "bounds l~1e6", _bounds_params(rng, (11, 12), (800_000, 1_000_000))))
    return ops


def member_matrix(m: int, n: int, seed: int) -> np.ndarray:
    """A member of D(m, n) drawn by the benchmark itself: the sum of m
    random permutation matrices."""
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n), dtype=np.int64)
    rows = np.arange(n)
    for _ in range(m):
        a[rows, rng.permutation(n)] += 1
    return a


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tropdet.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _printed_matrix(lines: list[str]) -> np.ndarray:
    n = len(lines)
    flat = np.array(" ".join(lines).split(), dtype=np.int64)
    _expect(flat.size == n * n, f"printed matrix is not {n}x{n}")
    return flat.reshape(n, n)


def _grab(pattern: str, text: str) -> tuple[str, ...]:
    found = re.search(pattern, text)
    _expect(found is not None, f"output lacks /{pattern}/")
    return found.groups()


# --------------------------------------------------------------------- sweep

SWEEP_N, SWEEP_M = (2, 31), (1, 201)  # criterion 04's grid
MEMBER_N, MEMBER_M = (2, 13), (1, 21)  # criteria 07 and 08


def sweep_round(seed: int, index: int) -> list[Op]:
    """Every (m, n) of the grid once, in seeded order, with a random member
    after every third instance."""
    rng = np.random.default_rng([seed, index])
    grid = [(m, n) for n in range(*SWEEP_N) for m in range(*SWEEP_M)]
    ops = []
    for k, i in enumerate(rng.permutation(len(grid))):
        ops.append(Op("sharp", "sharp", grid[i]))
        if k % 3 == 2:
            m, n = int(rng.integers(*MEMBER_M)), int(rng.integers(*MEMBER_N))
            t = int(rng.integers(0, m // n + 2))
            ops.append(Op("random_member", "random member", (m, n, int(rng.integers(2**31)), t)))
    return ops


# -------------------------------------------------------------------- oracle

# Cells of the acceptance tests' ORACLE_GRID, plus (2, 6).  The biggest,
# (8, 4), (2, 6) and (3, 5), take about 0.6-5 s per op; (5, 4), (6, 4) and
# (2, 5) fill in below them.  Left out: (4, 5), whose brute_L alone takes
# about 18 s; (7, 4), to keep a run within its time; and the cells of a few
# milliseconds and less, where the time is call overhead, not the walk.
# The oracle has no random input and a fixed order: a seeded order made
# the peak resident set depend on which large batch ran first.  Every op
# runs twice per round, because one op's CPU time moves by up to 40 %
# between runs on a shared machine, and the median and tail of a single
# pass spread by 0.3 over seeds.
ORACLE_CELLS = [(5, 4), (6, 4), (8, 4), (2, 5), (3, 5), (2, 6)]
ORACLE_FUNCS = ("count_D", "brute_L", "brute_U")
ORACLE_PASSES = 2


def oracle_round(seed: int, index: int) -> list[Op]:
    one_pass = [Op("oracle", f"{fn} {cell}", (fn,) + cell) for cell in ORACLE_CELLS for fn in ORACLE_FUNCS]
    return one_pass * ORACLE_PASSES


ROUNDS = {"large_n": large_n_round, "sweep": sweep_round, "oracle": oracle_round}
WORKLOADS = tuple(ROUNDS)

# CPU seconds one round took at the commit that defined the benchmark.  A
# run does the fewest whole rounds whose time here reaches --seconds, so
# the work is fixed: a faster program finishes the same ops sooner, and the
# op count behind each percentile stays the same.
ROUND_SECONDS = {"large_n": 13.1, "sweep": 5.0, "oracle": 50.0}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / ROUND_SECONDS[workload]))


# ---------------------------------------------------------------- execution


class Runner:
    """Runs ops one at a time.  ``prepare`` writes the input file an op
    reads and is not timed; ``call`` is the timed part; ``check`` compares
    the output with its reference and raises Mismatch."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self._member_key = None
        self._member = None
        self.path = work_dir / "member.txt"

    def prepare(self, op: Op) -> None:
        if op.kind not in ("verify", "eval", "zero_block"):
            return
        key = op.params[:3]
        if key != self._member_key:
            self._member = member_matrix(*key)
            self.work_dir.mkdir(parents=True, exist_ok=True)
            text = "\n".join(" ".join(map(str, row)) for row in self._member.tolist())
            self.path.write_text(text + "\n", encoding="utf-8")
            self._member_key = key

    def close(self) -> None:
        self.path.unlink(missing_ok=True)

    def call(self, op: Op):
        p = op.params
        if op.kind == "construct":
            m, n, objective = p
            return _cli(["construct", "--m", str(m), "--n", str(n), "--objective", objective])
        if op.kind == "random":
            m, n, seed = p
            return _cli(["random", "--m", str(m), "--n", str(n), "--seed", str(seed)])
        if op.kind == "verify":
            return _cli(["verify", str(self.path), "--expect-m", str(p[0])])
        if op.kind == "eval":
            return _cli([p[3], str(self.path)])
        if op.kind == "zero_block":
            return _cli(["zero-block", str(self.path), "--threshold", str(p[3])])
        if op.kind == "bounds":
            m, n = p
            return _cli(["bounds", "--m", str(m), "--n", str(n)])
        if op.kind == "sharp":
            return _sharp(*p)
        if op.kind == "random_member":
            return _random_member(*p)
        if op.kind == "oracle":
            fn, m, n = p
            return getattr(tropdet, fn)(m, n)
        raise ValueError(f"unknown op kind {op.kind!r}")

    def check(self, op: Op, out) -> None:
        getattr(self, "_check_" + op.kind)(op.params, out)

    def _check_construct(self, p, text: str) -> None:
        m, n, objective = p
        lines = text.splitlines()
        _check_membership(_printed_matrix(lines[1:-2]), m, n)
        achieved = int(_grab(r"^t\w*det = (\d+)$", lines[-2])[0])
        bound, tag = _grab(r"^bound = (\d+)  \[case (\w+)\]$", lines[-1])
        value, ref_tag = (ref_L(m, n) if objective == "min-tdet" else ref_U(m, n))[:2]
        _expect((int(bound), tag) == (value, ref_tag), f"bound {bound} [{tag}], closed form {value} [{ref_tag}]")
        _expect(achieved == value, f"achieved {achieved}, closed form {value}")

    def _check_random(self, p, text: str) -> None:
        m, n, _ = p
        _check_membership(_printed_matrix(text.splitlines()), m, n)

    def _check_verify(self, p, text: str) -> None:
        m, n, _ = p
        _expect(text.startswith(f"doubly stochastic: yes (m = {m}, n = {n})"), "member not recognised")

    def _check_eval(self, p, text: str) -> None:
        m, n, _, which = p
        value = int(_grab(rf"^{which} = (\d+)$", text.splitlines()[0])[0])
        perm = [int(x) - 1 for x in _grab(r"permutation \(1-indexed\): ([\d ]+)", text)[0].split()]
        a = self._member
        _check_transversal(a, perm, value)
        if which == "tdet":
            _expect(value >= ref_L(m, n)[0], "tdet below L(m, n)")
        else:
            _expect(value <= ref_U(m, n)[0], "tropdet above U(m, n)")
        reference = _lsa_value(a, maximize=which == "tdet")
        _expect(value == reference, f"{which} {value}, reference {reference}")

    def _check_zero_block(self, p, text: str) -> None:
        _, n, _, t = p
        nr, ns, total = map(int, _grab(r"\|R\| = (\d+), \|S\| = (\d+), sum = (\d+)", text))

        def indices(pattern):
            field = _grab(pattern, text)[0].strip()
            return [] if field == "none" else [int(x) - 1 for x in field.split()]

        rows = indices(r"rows \(1-indexed\): (.*)")
        cols = indices(r"columns \(1-indexed\): (.*)")
        _expect((len(rows), len(cols)) == (nr, ns), "index lists disagree with |R|, |S|")
        _check_low_block(self._member, t, rows, cols, total)
        hall = _grab(r"Hall condition .*: (holds|fails)", text)[0]
        _expect((hall == "holds") == (total <= n), "Hall verdict disagrees with the sum")

    def _check_bounds(self, p, text: str) -> None:
        m, n = p
        low, tag, l = ref_L(m, n)
        high, high_tag = ref_U(m, n)
        got = _grab(r"L\((\d+),(\d+)\) = (\d+)  \[case (\w+)(?:, l = (\d+))?\]", text)
        _expect(got == (str(m), str(n), str(low), tag, None if l is None else str(l)), f"L line {got}")
        got = _grab(r"U\((\d+),(\d+)\) = (\d+)  \[case (\w+)\]", text)
        _expect(got == (str(m), str(n), str(high), high_tag), f"U line {got}")

    def _check_sharp(self, p, out) -> None:
        m, n = p
        low, high, dmin, dmax, tmin, tmax, above, block = out
        q = m // n
        ref_low, ref_high = ref_L(m, n), ref_U(m, n)
        _expect((low.value, low.case_tag.value, low.l) == ref_low, f"L {low}")
        _expect((high.value, high.case_tag.value) == ref_high, f"U {high}")
        a_min, a_max = _array(dmin), _array(dmax)
        _check_membership(a_min, m, n)
        _check_membership(a_max, m, n)
        _check_transversal(a_min, tmin.perm, tmin.value)
        _check_transversal(a_max, tmax.perm, tmax.value)
        _expect(tmin.value == ref_low[0], f"tdet {tmin.value}, L {ref_low[0]}")
        _expect(tmax.value == ref_high[0], f"tropdet {tmax.value}, U {ref_high[0]}")
        _check_above(a_min, q, above)
        _check_low_block(a_min, q, block.row_set, block.col_set, block.dimension_sum)

    def _check_random_member(self, p, out) -> None:
        m, n, _, t = p
        ds, above, block = out
        a = _array(ds)
        _check_membership(a, m, n)
        # Birkhoff: every member has a transversal of positive entries.
        _expect(above[0], "no positive transversal reported for a member")
        _check_above(a, 0, above)
        _check_low_block(a, t, block.row_set, block.col_set, block.dimension_sum)

    def _check_oracle(self, p, out) -> None:
        fn, m, n = p
        count = ref_count(m, n)
        if fn == "count_D":
            _expect(out == count, f"|D({m},{n})| = {out}, published {count}")
            return
        _expect(out.count == count, f"visited {out.count}, published {count}")
        a = _array(out.witness)
        _check_membership(a, m, n)
        if fn == "brute_L":
            expected = ref_L(m, n)[0]
            witness_value = _brute_value(a, maximize=True)
        else:
            expected = ref_U(m, n)[0]
            witness_value = _brute_value(a, maximize=False)
        _expect(out.extremum == expected, f"{fn}({m},{n}) = {out.extremum}, closed form {expected}")
        _expect(witness_value == expected, f"witness of {fn}({m},{n}) has value {witness_value}")


def _check_above(a: np.ndarray, t: int, answer) -> None:
    found, pairs = answer
    n = a.shape[0]
    _expect(found == (_matching_size(a, t) == n), "has_transversal_above disagrees with the reference")
    if found:
        rows, cols = zip(*pairs)
        _expect(sorted(rows) == list(range(n)) and sorted(cols) == list(range(n)), "witness is not a transversal")
        _expect(bool((a[list(rows), list(cols)] > t).all()), "witness uses a low entry")


def _sharp(m: int, n: int):
    q = m // n
    low = tropdet.lower_bound_L(m, n)
    high = tropdet.upper_bound_U(m, n)
    dmin = tropdet.construct_min_tdet(m, n)
    dmax = tropdet.construct_max_tropdet(m, n)
    tmin = tropdet.tdet(dmin.matrix)
    tmax = tropdet.tropdet(dmax.matrix)
    above = tropdet.has_transversal_above(dmin.matrix, q)
    block = tropdet.largest_low_block(dmin.matrix, q)
    return low, high, dmin, dmax, tmin, tmax, above, block


def _random_member(m: int, n: int, seed: int, t: int):
    ds = tropdet.random_ds(m, n, seed)
    above = tropdet.has_transversal_above(ds.matrix, 0)
    block = tropdet.largest_low_block(ds.matrix, t)
    return ds, above, block


WARM_UP = {
    "large_n": [
        Op("construct", "", (7, 5, "min-tdet")),
        Op("construct", "", (7, 5, "max-tropdet")),
        Op("random", "", (3, 5, 1)),
        Op("verify", "", (3, 5, 1)),
        Op("eval", "", (3, 5, 1, "tdet")),
        Op("eval", "", (3, 5, 1, "tropdet")),
        Op("zero_block", "", (3, 5, 1, 0)),
        Op("bounds", "", (10**6 + 3, 10**6)),
    ],
    "sweep": [Op("sharp", "", (7, 5)), Op("random_member", "", (3, 5, 1, 0))],
    "oracle": [Op("oracle", "", (fn, 2, 2)) for fn in ORACLE_FUNCS],
}


def warm_up(workload: str, work_dir: Path) -> None:
    """Fill first-call caches (lazy imports, argparse, scipy, the
    enumerator's tables) with one tiny op of each kind the workload runs."""
    runner = Runner(work_dir)
    for op in WARM_UP[workload]:
        runner.prepare(op)
        runner.check(op, runner.call(op))
