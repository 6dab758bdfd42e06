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


def test_the_package_has_modules():
    assert {"identities.py", "cohomology.py", "fastrank.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_runs_work_off_the_calling_thread(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert CONCURRENCY.isdisjoint(_imported_packages(tree))
    strings = {n.value for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    assert THREADS_VARIABLE not in strings
