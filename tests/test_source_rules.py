"""The package computes exactly and needs nothing outside the standard library.

Every module of ``src/logdgen`` is read as a syntax tree, so that no fast
path can bring in a float or a runtime dependency unseen: a float or complex
constant, the name ``float``, a ``math`` function other than the integer ones,
and an import that is neither of the standard library nor of the package
itself each fail the test, with the module and the line.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "logdgen"
MODULES = sorted(SRC.glob("*.py"))

# The math functions that take and return integers.
INTEGER_MATH = {"gcd", "lcm", "isqrt", "prod", "comb", "factorial"}


def violations(source: str) -> list[str]:
    """What ``source`` does against the rules, one ``line: what`` each."""
    tree = ast.parse(source)
    found = []
    math_names = set()  # the names ``import math`` binds
    for node in ast.walk(tree):
        where = f"{getattr(node, 'lineno', '?')}: "
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(where + f"{type(node.value).__name__} constant {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(where + "the name float")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                if top not in sys.stdlib_module_names and top != "logdgen":
                    found.append(where + f"import of {alias.name}")
                if alias.name == "math":
                    math_names.add(alias.asname or "math")
        elif isinstance(node, ast.ImportFrom):
            top = (node.module or "").partition(".")[0]
            if node.level == 0 and top not in sys.stdlib_module_names and top != "logdgen":
                found.append(where + f"import from {node.module}")
            if node.level == 0 and node.module == "math":
                found += [where + f"math.{alias.name}" for alias in node.names
                          if alias.name not in INTEGER_MATH]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in math_names and node.attr not in INTEGER_MATH):
            found.append(f"{node.lineno}: math.{node.attr}")
    return found


def test_the_package_has_modules_to_check():
    assert {path.name for path in MODULES} >= {"__init__.py", "core.py", "graph.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_uses_no_float_and_only_the_standard_library(path):
    assert violations(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,what", [
    ("x = 0.5", "1: float constant 0.5"),
    ("x = 2j", "1: complex constant 2j"),
    ("y = float(3)", "1: the name float"),
    ("import math\ny = math.sqrt(2)", "2: math.sqrt"),
    ("import math as m\ny = m.log(2)", "2: math.log"),
    ("from math import gcd, floor", "1: math.floor"),
    ("import numpy", "1: import of numpy"),
    ("def f():\n    from sympy.core import S", "2: import from sympy.core"),
])
def test_each_rule_names_what_breaks_it(source, what):
    assert violations(source) == [what]


def test_the_integer_math_the_stdlib_and_the_package_pass():
    source = ("import math\nfrom math import gcd, lcm, isqrt, prod, comb, factorial\n"
              "from fractions import Fraction\nfrom .core import Record\nimport logdgen.graph\n"
              "x = math.gcd(4, 6) + math.comb(5, 2) + 10**3 // 7\n")
    assert violations(source) == []
