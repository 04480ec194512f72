"""Every size limit of the package is documented with its value.

A module-level ``MAX_*`` constant of ``src/logdgen`` is a limit the package
refuses or shortens past.  README's limit table must list each one as
``module.NAME`` with the same value, and list nothing else.
"""

import ast
import re

from test_public_names import ROOT

_ROW = re.compile(r"^\| `(\w+\.MAX_\w+)` \| (\d+) \|", re.M)


def package_limits() -> dict[str, int]:
    """module.NAME -> value of every module-level MAX_* constant."""
    return {f"{p.stem}.{target.id}": ast.literal_eval(stmt.value)
            for p in (ROOT / "src" / "logdgen").glob("*.py") for stmt in ast.parse(p.read_text()).body
            if isinstance(stmt, ast.Assign)
            for target in stmt.targets if isinstance(target, ast.Name) and target.id.startswith("MAX_")}


def test_every_limit_appears_with_its_value_in_the_readme_table():
    table = {name: int(value) for name, value in _ROW.findall((ROOT / "README.md").read_text())}
    limits = package_limits()
    assert limits and table == limits
