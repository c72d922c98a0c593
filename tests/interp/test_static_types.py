"""The code generator takes every expression's type from semantic analysis."""

from __future__ import annotations

import pytest

from repro.interp import codegen
from repro.interp.codegen import ProgramCode
from repro.minilang import analyze, ast, parse
from repro.minilang.source import Dialect, SourceFile
from tests.interp.helpers import run_source

SOURCE = "int main() { int x = 1; double y = x / 2.0; return x + 2; }"


def _parsed(dialect: Dialect = Dialect.C) -> ast.Program:
    program, diags = parse(SourceFile("t", SOURCE, dialect))
    assert not diags.has_errors
    return program


def test_analysis_leaves_each_expression_its_type():
    program = _parsed()
    assert program.analyzed_for is None
    assert analyze(program, Dialect.C).ok
    assert program.analyzed_for is Dialect.C
    ret = program.function("main").body.stmts[-1].value
    assert str(ret.static_type) == "int"
    assert str(program.function("main").body.stmts[1].init.static_type) == "double"


def test_types_are_not_part_of_a_node_identity():
    typed, plain = _parsed(), _parsed()
    analyze(typed, Dialect.C)
    assert typed == plain
    assert "static_type" not in repr(typed)
    assert ast.clone(typed).function("main").body.stmts[-1].value.static_type is (
        typed.function("main").body.stmts[-1].value.static_type
    )


def test_building_code_fails_loudly_on_an_expression_analysis_never_saw():
    program = _parsed()
    assert analyze(program, Dialect.C).ok
    ret = program.function("main").body.stmts[-1]
    ret.value = ast.Binary(op="+", left=ast.Ident(name="x"), right=ast.IntLit(2, "2"))
    with pytest.raises(LookupError, match="Ident at 0:0 has no static type"):
        ProgramCode.of(program, Dialect.C)


def test_an_unanalysed_program_is_analysed_once_for_the_dialect_it_runs_in(monkeypatch):
    calls = []

    def counting(program, dialect):
        calls.append(dialect)
        return analyze(program, dialect)

    monkeypatch.setattr(codegen, "analyze", counting)
    program = _parsed()
    ProgramCode.of(program, Dialect.C)
    ProgramCode.of(program, Dialect.C)
    assert calls == [Dialect.C]
    # An analysis for another dialect counts as none.
    ProgramCode.of(program, Dialect.CUDA)
    assert calls == [Dialect.C, Dialect.CUDA]
    assert program.analyzed_for is Dialect.CUDA
    analyzed = _parsed(Dialect.OMP)
    analyze(analyzed, Dialect.OMP)
    ProgramCode.of(analyzed, Dialect.OMP)
    assert calls == [Dialect.C, Dialect.CUDA]


def test_a_global_array_size_is_typed_for_the_code_generator():
    out = run_source(
        "int n = 4;\nfloat a[n + 1];\n"
        'int main() { a[n] = 2.5f; printf("%.1f\\n", a[4] + n); return 0; }'
    )
    assert (out.stdout, out.exit_code) == ("6.5\n", 0)


def test_an_ignored_pragma_needs_no_types_in_cuda():
    # nvcc ignores '#pragma omp', so analysis never types its clauses and
    # the loop runs serially.
    out = run_source(
        "int main() {\n"
        "  int n = 8;\n"
        "  int* a = (int*)malloc(n * sizeof(int));\n"
        "#pragma omp parallel for num_threads((int)n) schedule(static, n / 2)\n"
        "  for (int i = 0; i < n; i++) { a[i] = i; }\n"
        '  printf("%d\\n", a[7]);\n'
        "  return 0;\n"
        "}",
        Dialect.CUDA,
    )
    assert (out.stdout, out.profile.kernel_events) == ("7\n", [])
