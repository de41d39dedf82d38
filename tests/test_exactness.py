"""Lints over the package.

No floats in the engine: every value fanocalc computes is exact.  Each
module of the package is parsed and checked for a float literal, any use of
the name ``float``, and true division ``/``, which turns two ints into a
float.  Exact division is written ``Fraction(a, b)``.

The package binds only its modules and ``parse_family_id``.
"""

import ast
import types
from pathlib import Path

import pytest

import fanocalc

MODULES = sorted(Path(fanocalc.__file__).parent.glob("*.py"))


def inexact(source):
    """(line, what) for each construct in ``source`` that can make a float."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "name float"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"


def test_lint_sees_each_construct():
    source = "g = (t + 2) / 2\ng /= 2\nx = 0.5\ny = float(g)\nz = Fraction(t + 2, 2) // 1\n"
    assert sorted(line for line, _ in inexact(source)) == [1, 2, 3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_float(path):
    assert list(inexact(path.read_text())) == []


def test_package_binds_only_its_modules():
    for name, value in vars(fanocalc).items():
        if name.startswith("_") or name == "parse_family_id":
            continue
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"fanocalc.{name}", name
