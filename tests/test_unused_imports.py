"""Every import is used: an AST scan of each module under ``src``,
``tests``, ``benchmarks`` and ``examples`` fails on a name the module
imports and never reads.

Exempt are package ``__init__`` modules (their imports are the
package's re-exports), ``from __future__`` imports and import statements
with ``# noqa`` on one of their lines. A name read inside a string
annotation (``-> "IncrementalTimer"``) or listed in ``__all__`` counts
as used.
"""

import ast
import pathlib
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")


def _annotation_strings(node, names):
    """Add the names read by string constants inside an annotation."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(parsed)
                         if isinstance(n, ast.Name))
            _annotation_strings(parsed, names)


def _used_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(e.value for e in ast.walk(node.value)
                         if isinstance(e, ast.Constant))
        for annotation in annotations:
            if annotation is not None:
                _annotation_strings(annotation, names)
    return names


def unused_imports(source):
    """``(line, name)`` of every imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in used:
                found.append((node.lineno, bound))
    return sorted(found)


def test_the_scan_finds_what_it_should():
    source = textwrap.dedent('''
        from __future__ import annotations

        import os
        import os.path
        import sys  # noqa: F401 - imported for its side effect
        from typing import (
            Dict,
            List,
        )
        from json import dumps as to_json, loads

        def first(xs: "List[Timer]") -> "Dict":
            return os.path.join(*xs)
    ''')
    assert unused_imports(source) == [(11, "loads"), (11, "to_json")]


def test_every_import_is_used():
    unused = []
    for root in SCANNED:
        for path in sorted((ROOT / root).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text()):
                unused.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert unused == []
