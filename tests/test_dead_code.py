"""Dead definitions: every function, method and class defined under
``src/``, and every name a module assigns at its top level, is named
somewhere besides its own definition, in the package,
its tests, benchmarks, examples, ``perfbench/``, ``README.md`` or the CI
workflows.  A name that occurs exactly once in all of them is a
definition nothing calls, subclasses or documents, so it goes."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Where a use of a definition may live.
SEARCHED = ("src", "tests", "benchmarks", "examples", "perfbench", ".github",
            "README.md")

_WORD = re.compile(r"[A-Za-z_]\w*")


def _word_counts() -> Counter:
    counts: Counter = Counter()
    for name in SEARCHED:
        root = ROOT / name
        files = [root] if root.is_file() else sorted(root.rglob("*"))
        for path in files:
            if path.is_file() and "__pycache__" not in path.parts:
                text = path.read_text(encoding="utf-8", errors="ignore")
                counts.update(_WORD.findall(text))
    return counts


def _module_targets(node):
    """Names a module-level assignment statement binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                yield sub.id


def _definitions():
    """(qualified name, bare name) of every def and class under src/, and of
    every name assigned at a module's top level."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for name in _module_targets(node):
                yield f"{module}.{name}", name
        todo = [(module, node) for node in tree.body]
        while todo:
            scope, node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{scope}.{node.name}", node.name
                todo += [(f"{scope}.{node.name}", child) for child in node.body]


def test_every_definition_is_used():
    counts = _word_counts()
    dead = sorted(
        qualified for qualified, name in _definitions()
        if not (name.startswith("__") and name.endswith("__")) and counts[name] <= 1
    )
    assert dead == [], "defined but named nowhere else:\n  " + "\n  ".join(dead)
