"""No floating point in the package: an AST scan of every module.

Rejected: float and complex literals, calls to ``float`` and ``complex``,
``math.sqrt``, ``math.exp`` and every ``math.log*``, and any use of ``cmath``.
"""
import ast
from pathlib import Path

import pytest

import rigidmono

MODULES = sorted(Path(rigidmono.__file__).parent.glob("*.py"))


def _inexact_math(name: str) -> bool:
    return name in ("sqrt", "exp") or name.startswith("log")


def violations(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            found.append(f"{where}: call to {node.func.id}()")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and _inexact_math(node.attr):
                found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.Name) and node.id == "cmath":
            found.append(f"{where}: cmath")
        elif isinstance(node, ast.Import):
            found += [f"{where}: import cmath" for a in node.names if a.name == "cmath"]
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
            found += [f"{where}: from {node.module} import {a.name}" for a in node.names
                      if node.module == "cmath" or _inexact_math(a.name)]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_exact(path):
    assert violations(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet", [
    "r = m ** (1.0 / k)", "z = 2j", "x = float(a)", "x = complex(a, b)", "y = math.sqrt(a)",
    "y = math.exp(a)", "y = math.log2(a)", "import cmath", "y = cmath.phase(z)",
    "from math import log", "from cmath import sqrt"])
def test_scan_catches(snippet):
    assert violations(snippet)


def test_scan_allows_exact_integer_math():
    assert violations("r = math.isqrt(a) + math.gcd(a, b) + Fraction(1, 2) ** 2") == []
