"""The library stays in exact arithmetic: no float literal, no float() and no
math function that returns or rounds a float, in any module of the package."""
from __future__ import annotations

import ast
from pathlib import Path

import reflector

FLOAT_MATH = {"sqrt", "log", "exp", "floor", "ceil"}
SOURCES = sorted(Path(reflector.__file__).parent.glob("*.py"))


def float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each float literal, float() call and float math call."""
    math_modules, math_funcs = set(), {"float"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_modules |= {a.asname or a.name for a in node.names if a.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            math_funcs |= {a.asname or a.name for a in node.names if a.name in FLOAT_MATH}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in math_funcs:
                found.append((node.lineno, f"call to {f.id}"))
            elif (isinstance(f, ast.Attribute) and f.attr in FLOAT_MATH
                  and isinstance(f.value, ast.Name) and f.value.id in math_modules):
                found.append((node.lineno, f"call to {f.value.id}.{f.attr}"))
    return found


def test_guard_catches_every_form():
    src = "import math as m\nfrom math import sqrt as r\nx = 0.5 + float(2) + m.log(3) + r(4)\n"
    found = sorted(what for _, what in float_uses(ast.parse(src)))
    assert found == ["call to float", "call to m.log", "call to r", "literal 0.5"]


def test_library_has_no_floating_point():
    assert len(SOURCES) > 10
    bad = [(path.name, line, what) for path in SOURCES
           for line, what in float_uses(ast.parse(path.read_text()))]
    assert bad == []
