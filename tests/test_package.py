"""Whole-package checks that read the source rather than run it."""

import ast
from pathlib import Path

import pytest

import nonassoc

MODULES = sorted(Path(nonassoc.__file__).parent.glob("*.py"))

# Row blocks are built on the calling thread, one at a time: a second
# execution path comes back only with a workload that shows it is needed.
CONCURRENCY = {"threading", "concurrent", "multiprocessing"}
# The retired thread-count variable, split so that a search of the tree for
# its name finds no reader of it.
THREADS_VARIABLE = "NONASSOC_" + "THREADS"


def _imported_packages(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def _names(path):
    """Every name a module reads, binds, imports, defines or spells out."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    names |= {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    return names | {n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_the_package_has_modules():
    assert {"identities.py", "cohomology.py", "fastrank.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_runs_work_off_the_calling_thread(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert CONCURRENCY.isdisjoint(_imported_packages(tree))
    strings = {n.value for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    assert THREADS_VARIABLE not in strings


# linalg's row-at-a-time Fraction elimination is the tests' independent
# oracle. Inside the package only identities.spaces_equal and
# cohomology.coborder_space still run it, the benchmark's route to its
# linalg.RankSink.feed entry point; every membership question
# (combination_in_span, Subspace.contains and the algebras' span tests)
# goes through fastrank's one check and must not take it back.
RANKSINK_MODULES = {"linalg.py", "__init__.py", "identities.py", "cohomology.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_linalg_the_package_identities_and_cohomology_name_ranksink(path):
    assert ("RankSink" in _names(path)) == (path.name in RANKSINK_MODULES)


# algebras.py computes on the cleared integer table. The nested Fraction
# tuple .c is for callers who read entries one by one and for the pointwise
# reference evaluator BilinearMap.apply; Algebra.c only forwards it.
def _definitions(tree):
    """(qualified name, node) for each top-level definition and method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield "%s.%s" % (node.name, getattr(item, "name", "")), item
        else:
            yield getattr(node, "name", ""), node


def test_in_algebras_only_bilinear_map_reads_the_fraction_table():
    path = Path(nonassoc.__file__).parent / "algebras.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    readers = {name for name, node in _definitions(tree) for n in ast.walk(node)
               if isinstance(n, ast.Attribute) and n.attr == "c" and isinstance(n.ctx, ast.Load)}
    assert "BilinearMap.apply" in readers
    assert {r for r in readers if not r.startswith("BilinearMap.")} == {"Algebra.c"}


# fastrank picks every arithmetic path (_exact_dtypes) and makes every
# Fraction of an answer (Subspace.basis; _cleared_rows reads its inputs);
# an in-memory system is proved by rref_int's own check, so the streamed
# RREF entry point stays gone.
LIMITS = {"_INT64_LIMIT", "_FLOAT64_LIMIT"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_fastrank_names_the_limits_and_nothing_names_certified_rref(path):
    names = _names(path)
    assert names & LIMITS == (LIMITS if path.name == "fastrank.py" else set())
    assert "certified_rref" not in names


def test_in_fastrank_only_subspace_basis_makes_fractions():
    path = Path(nonassoc.__file__).parent / "fastrank.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    makers = {name for name, node in _definitions(tree) for n in ast.walk(node)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "Fraction"}
    assert makers == {"Subspace.basis", "_cleared_rows"}


# Identity bases are the exact core's cleared integers (index, nums, den):
# identities builds them without a Fraction, and a reader of .coeffs or
# .terms() makes its own.
def test_identities_names_no_fraction():
    assert "Fraction" not in _names(Path(nonassoc.__file__).parent / "identities.py")
