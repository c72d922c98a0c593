"""Packaging: every third-party module the package imports is declared
in ``pyproject.toml``, so ``pip install`` into a fresh interpreter
yields an importable ``repro``."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports():
    """Top-level names of every absolute import under ``src/repro`` that
    is neither the standard library nor ``repro`` itself."""
    found = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.add(top)
    return found


def test_third_party_imports_are_declared():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    )["project"]
    declared = {
        re.split(r"[^A-Za-z0-9_.-]", dep, maxsplit=1)[0].lower().replace("-", "_")
        for dep in project.get("dependencies", [])
    }
    imported = _third_party_imports()
    assert "numpy" in imported  # the collector sees utils/rng.py
    assert sorted(imported - declared) == []
