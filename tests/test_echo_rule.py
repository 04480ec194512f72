"""The CLI alone shortens what it echoes.

``cli.brief`` bounds each status and each line argparse prints, where the CLI
writes them: in ``_run`` and in ``_parse_args``.  Library messages state what
they refused in full.  A module that shortened an echo itself, through
``brief`` or a slice of the value, would bring back the per-site rule this
replaced.
"""

import ast
from pathlib import Path

from test_public_names import ROOT, _names

MODULES = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "logdgen").glob("*.py")}


def _named(tree) -> set[str]:
    """Every name ``tree`` reads, imports or defines."""
    return _names(tree) | {node.name for node in ast.walk(tree)
                           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_only_cli_names_brief():
    assert {module for module, tree in MODULES.items() if "brief" in _named(tree)} == {"cli"}


def test_brief_is_used_only_where_the_cli_writes():
    users = {stmt.name for stmt in MODULES["cli"].body
             if isinstance(stmt, ast.FunctionDef) and stmt.name != "brief" and "brief" in _named(stmt)}
    assert users == {"_run", "_parse_args"}


def test_no_message_slices_what_it_echoes():
    # a slice inside an f-string, such as {text[:20]!r}, anywhere but in brief itself
    slicing = [(module, node.lineno) for module, tree in MODULES.items() for stmt in tree.body
               if getattr(stmt, "name", None) != "brief" for node in ast.walk(stmt)
               if isinstance(node, ast.FormattedValue)
               and any(isinstance(n, ast.Slice) for n in ast.walk(node.value))]
    assert slicing == []
