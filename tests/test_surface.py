"""The public surface, what the frozen benchmark reads of it, and the
independence of the tests' references from the package.

Adding or removing a public name takes an edit here, so each change to
the surface is a deliberate one.  The benchmark under bench/ calls the
package by name and reads fields of its results; the checks below catch a
deletion that would break it without running it.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import tropdet
from tropdet import (
    brute_L,
    construct_min_tdet,
    largest_low_block,
    lower_bound_L,
    tdet,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"

PUBLIC = [
    "BlockDecomposition",
    "BlockPlan",
    "BoundsResult",
    "BudgetExceededError",
    "CaseTag",
    "Certificate",
    "CertificateError",
    "DEFAULT_VISIT_BUDGET",
    "DSMatrix",
    "DomainError",
    "EnumStats",
    "IntMatrix",
    "LineSumError",
    "MatrixParseError",
    "MatrixShapeError",
    "SplitParams",
    "Transversal",
    "TropdetError",
    "brute_L",
    "brute_U",
    "check_certificate",
    "construct_max_tropdet",
    "construct_min_tdet",
    "count_D",
    "extremal_certificate",
    "has_transversal_above",
    "largest_low_block",
    "lower_bound_L",
    "max_matching_above",
    "parse_matrix",
    "plan_hard_case",
    "random_ds",
    "rubik_answer",
    "serialize",
    "smallest_l",
    "split",
    "tdet",
    "tropdet",
    "upper_bound_U",
    "validate_ds",
]

MODULES = [
    "assignment", "blocks", "bounds", "construct", "enumerate_ds", "errors", "matrices"
]


def test_public_names():
    assert sorted(tropdet.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(tropdet, name), name


def test_package_names_are_the_modules_names():
    # Each module declares its names once; the package lists them in module
    # order, and no name comes from two modules.
    declared = []
    for name in MODULES:
        declared += importlib.import_module(f"tropdet.{name}").__all__
    assert list(tropdet.__all__) == declared
    assert len(set(declared)) == len(declared)


def test_references_import_no_tropdet():
    # A reference that shares code with the package shares its faults: numpy
    # and the standard library only (not conftest, which imports tropdet).
    tree = ast.parse(Path(__file__).with_name("reference.py").read_text("utf-8"))
    tops = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            tops.add("." * node.level + (node.module or "").split(".")[0])
    assert tops - sys.stdlib_module_names == {"numpy"}, tops


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_its_own(name):
    module = importlib.import_module(f"tropdet.{name}")
    for export in module.__all__:
        obj = getattr(module, export)
        owner = getattr(obj, "__module__", module.__name__)
        assert owner == module.__name__, (export, owner)


def bench_names():
    """Every tropdet.<name> in the benchmark's workloads and self-tests,
    and the functions its oracle ops look up by name."""
    names = set()
    for file in ("workloads.py", "test_bench.py"):
        tree = ast.parse((BENCH / file).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "tropdet"
            ):
                names.add(node.attr)
            elif (
                isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "ORACLE_FUNCS" for t in node.targets)
            ):
                names.update(ast.literal_eval(node.value))
    return names


def test_bench_names_resolve():
    import tropdet.cli  # noqa: F401  (workloads.py imports it too)

    names = bench_names()
    assert {"has_transversal_above", "largest_low_block", "count_D"} <= names
    for name in names:
        assert hasattr(tropdet, name), name
    assert callable(tropdet.cli.main)


def test_bench_fields_exist():
    a = construct_min_tdet(7, 5).matrix
    assert len(a.entries) == a.rows * a.cols == 25
    t = tdet(a)
    assert t.value == sum(a.entries[i * 5 + j] for i, j in enumerate(t.perm))
    stats = brute_L(2, 3)
    assert (stats.count, stats.extremum) == (21, 3)
    assert stats.witness.matrix.rows == 3
    block = largest_low_block(a, 1)
    assert block.dimension_sum == len(block.row_set) + len(block.col_set)
    low = lower_bound_L(7, 6)
    assert (low.value, low.case_tag.value, low.l) == (10, "HARD_CASE2", 2)
