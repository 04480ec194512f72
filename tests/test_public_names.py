"""Every public name of the package earns its place.

A public top-level name of ``src/logdgen`` (a function, class or constant
whose name has no leading underscore) must be used by another top-level
statement of the package, such as a command, a table, another module or a
function of its own module, or be named in a ``perfbench`` module.  A public
method or property of a package class follows the same rule: another
statement of the package, another method of its own class included, reads
it, or a ``perfbench`` module names it.  A formula of the
paper that nothing else computes may stay only beside a test that checks it
against other package machinery: ``KEPT`` names that test.  Anything else
belongs in the tests, as an oracle, or nowhere.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# module.name -> the test (file::[class::]function) that checks it against other machinery
KEPT = {
    "dualgraph.configuration_euler": "test_dualgraph.py::TestKodaira::test_round_trip_and_euler",
    "eulerform.noether_e_top":
        "test_eulerform.py::TestNoether::test_table_rows_reproduce_catalog_euler_part",
    "fibration.boundary_budget":
        "test_fibration.py::test_check_typ_agrees_with_the_hand_profiles_on_the_benchmark_records",
    "fibration.m_p":
        "test_core.py::test_m_p_is_the_pullback_coefficient_of_the_first_exceptional_curve",
}


def _names(node) -> set[str]:
    """Every name the code under ``node`` reads, as a variable, an attribute or an import."""
    return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def _defined(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _sources():
    """The package's modules, parsed, and every word of the perfbench modules."""
    modules = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "logdgen").glob("*.py")}
    bench = set(re.findall(r"\w+", "".join(p.read_text() for p in (ROOT / "perfbench").glob("*.py"))))
    return modules, bench


def unreached_names() -> set[str]:
    """module.name of every public top-level name that no other top-level
    statement of the package reads and no perfbench module names."""
    modules, bench = _sources()
    read = {id(stmt): _names(stmt) for tree in modules.values() for stmt in tree.body}
    readers = Counter(name for names in read.values() for name in names)
    return {f"{module}.{name}" for module, tree in modules.items() for stmt in tree.body
            for name in _defined(stmt)
            if not name.startswith("_") and name not in bench
            and readers[name] <= (name in read[id(stmt)])}


def unreached_methods() -> set[str]:
    """module.Class.name of every public method or property that no other
    statement of the package (a class counts statement by statement) reads
    and no perfbench module names."""
    modules, bench = _sources()
    units = [unit for tree in modules.values() for stmt in tree.body
             for unit in (stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])]
    read = {id(unit): _names(unit) for unit in units}
    readers = Counter(name for names in read.values() for name in names)
    return {f"{module}.{cls.name}.{method.name}" for module, tree in modules.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for method in cls.body if isinstance(method, ast.FunctionDef)
            if not method.name.startswith("_") and method.name not in bench
            and readers[method.name] <= (method.name in read[id(method)])}


def _reads(code) -> set[str]:
    """The global and attribute names a code object and the code nested in it read."""
    return set(code.co_names).union(*(_reads(c) for c in code.co_consts if hasattr(c, "co_names")))


def test_every_public_name_is_used_or_kept_with_a_test_against_other_machinery():
    assert unreached_names() == set(KEPT)
    for qualified, spec in KEPT.items():
        file, *path = spec.split("::")
        test = importlib.import_module(file.removesuffix(".py"))
        for part in path:
            test = getattr(test, part)
        assert qualified.split(".")[1] in _reads(test.__code__), (qualified, spec)


def test_every_public_method_is_used():
    assert unreached_methods() == set()
