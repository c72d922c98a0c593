"""Packaging: every third-party module the package imports is declared
in ``pyproject.toml``, so ``pip install`` into a fresh interpreter
yields an importable ``repro``; and every one the tests and benchmarks
import is installed by ``pip install -e ".[test]"``."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports(first_party, *roots: Path):
    """Top-level names of every absolute import under ``roots`` that is
    neither the standard library nor in ``first_party``."""
    found = set()
    for root in roots:
        for path in root.rglob("*.py"):
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
                    if top not in first_party and top not in sys.stdlib_module_names:
                        found.add(top)
    return found


def _project():
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    )["project"]


def _names(requirements):
    return {
        re.split(r"[^A-Za-z0-9_.-]", dep, maxsplit=1)[0].lower().replace("-", "_")
        for dep in requirements
    }


def test_third_party_imports_are_declared():
    declared = _names(_project().get("dependencies", []))
    imported = _third_party_imports({"repro"}, ROOT / "src" / "repro")
    assert "numpy" in imported  # the collector sees utils/rng.py
    assert sorted(imported - declared) == []


def test_test_imports_are_installed_by_the_test_extra():
    project = _project()
    declared = _names(project.get("dependencies", [])) | _names(
        project["optional-dependencies"]["test"]
    )
    imported = _third_party_imports(
        {"repro", "tests", "benchmarks"}, ROOT / "tests", ROOT / "benchmarks"
    )
    assert "pytest" in imported
    assert sorted(imported - declared) == []
