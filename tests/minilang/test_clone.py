"""Tests for the typed AST clone (:func:`repro.minilang.ast.clone`)."""

from __future__ import annotations

import pytest

from repro.hecbench import all_apps
from repro.minilang import ast
from repro.minilang.parser import parse
from repro.minilang.source import Dialect

_RECORDS = (ast.Node, ast.MapClause, ast.ReductionClause)


def _mutables(value, out):
    """Every node, clause record, list and dict reachable from ``value``."""
    if isinstance(value, _RECORDS):
        out.append(value)
        for field_value in vars(value).values():
            _mutables(field_value, out)
    elif isinstance(value, list):
        out.append(value)
        for item in value:
            _mutables(item, out)
    elif isinstance(value, dict):
        out.append(value)
        for item in value.values():
            _mutables(item, out)
    return out


@pytest.mark.parametrize("dialect", [Dialect.CUDA, Dialect.OMP])
@pytest.mark.parametrize("app", all_apps(), ids=lambda app: app.name)
def test_clone_equals_its_source_and_shares_no_mutable_object(app, dialect):
    program, diags = parse(app.source_file(dialect))
    assert not diags.has_errors
    copy = ast.clone(program)
    assert copy == program
    source = {id(obj) for obj in _mutables(program, [])}
    cloned = _mutables(copy, [])
    assert len(cloned) == len(source)
    assert not [obj for obj in cloned if id(obj) in source]
    # Frozen leaves are shared, not copied.
    assert copy.functions[0].span is program.functions[0].span
    assert copy.functions[0].return_type is program.functions[0].return_type


@pytest.mark.parametrize("stray", [(1, 2), {1, 2}, bytearray(b"x"), object()])
def test_an_unknown_field_type_fails_loudly(stray):
    node = ast.Call(callee="f", args=[ast.Ident(name="x"), ast.IntLit(value=1)])
    node.args[1].value = stray
    with pytest.raises(TypeError, match="cannot clone"):
        ast.clone(node)
