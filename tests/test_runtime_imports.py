"""The runtime is numpy only: every import in the package is from the
standard library, from numpy, or from inside the package (scipy and the
other test tools are test dependencies)."""
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "seqlink"


def imported_roots(tree):
    """(line, top-level module) of each absolute import; a relative import
    is inside the package and yields nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library_and_numpy(path):
    allowed = sys.stdlib_module_names | {"numpy", "seqlink"}
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [(line, root) for line, root in imported_roots(tree)
               if root not in allowed]
    assert not foreign, f"{path.name} imports {foreign}"


def test_the_guard_sees_a_foreign_import():
    tree = ast.parse("import os\nfrom scipy.linalg import solve_triangular\n"
                     "from . import linalg\nimport numpy.linalg\n")
    assert list(imported_roots(tree)) == [(1, "os"), (2, "scipy"),
                                          (4, "numpy")]
