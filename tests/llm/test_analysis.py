"""Tests for the transpiler's static-analysis helpers."""

from __future__ import annotations

from repro.llm.analysis import (
    assigned_scalars,
    collect_identifiers,
    declared_names,
    pointer_access_kinds,
    substitute,
)
from repro.minilang import parse
from repro.minilang.source import Dialect, SourceFile


def body_of(text: str, dialect: Dialect = Dialect.C):
    program, diags = parse(SourceFile("t", text, dialect))
    assert not diags.has_errors, diags.render()
    return program.function("f").body


class TestCollectIdentifiers:
    def test_collects_reads_writes_and_calls(self):
        body = body_of(
            "void f(float* a, int n) { int i = n + g(a[0]); a[i] = 0.0f; }"
        )
        names = collect_identifiers(body)
        assert {"a", "n", "i", "g"} <= names

    def test_collects_pragma_clause_names(self):
        body = body_of(
            "void f(float* a, int n) { float s = 0.0f;\n"
            "#pragma omp target teams distribute parallel for "
            "map(to: a[0:n]) reduction(+: s)\n"
            "for (int i = 0; i < n; i++) { s += a[i]; }\n"
            "}",
            Dialect.OMP,
        )
        names = collect_identifiers(body)
        assert {"a", "s", "n"} <= names


class TestPointerAccessKinds:
    def test_read_only(self):
        body = body_of("void f(float* a, float* b, int n) { b[0] = a[0] + a[1]; }")
        acc = pointer_access_kinds(body)
        assert acc["a"].map_kind == "to"
        assert acc["b"].map_kind == "from"

    def test_read_write(self):
        body = body_of("void f(float* a) { a[0] = a[0] * 2.0f; }")
        assert pointer_access_kinds(body)["a"].map_kind == "tofrom"

    def test_compound_assignment_is_read_write(self):
        body = body_of("void f(int* a) { a[3] += 1; }")
        assert pointer_access_kinds(body)["a"].map_kind == "tofrom"

    def test_address_of_element_is_read_write(self):
        body = body_of(
            "__global__ void f(int* a) { atomicAdd(&a[0], 1); }", Dialect.CUDA
        )
        assert pointer_access_kinds(body)["a"].map_kind == "tofrom"

    def test_nested_index_reads_inner(self):
        body = body_of("void f(float* a, int* idx, int i) { float x = a[idx[i]]; }")
        acc = pointer_access_kinds(body)
        assert acc["a"].read
        assert acc["idx"].read and not acc["idx"].written


class TestSubstitute:
    def test_renames_everywhere(self):
        body = body_of("void f(float* a, int n) { a[n] = a[n - 1]; g(a, n); }")
        substitute(body, {"a": "d_a", "n": "size"})
        names = collect_identifiers(body)
        assert "a" not in names and "n" not in names
        assert {"d_a", "size"} <= names

    def test_renames_pragma_clauses(self):
        body = body_of(
            "void f(float* a, int n) {\n"
            "#pragma omp target teams distribute parallel for map(tofrom: a[0:n])\n"
            "for (int i = 0; i < n; i++) { a[i] = 0.0f; }\n"
            "}",
            Dialect.OMP,
        )
        substitute(body, {"a": "arr"})
        from repro.minilang import ast

        pragma = next(
            s for s in ast.walk_stmts(body) if isinstance(s, ast.Pragma)
        )
        assert pragma.pragma.maps[0].name == "arr"

    def test_loop_variable_is_renamed_once(self):
        # A value of the mapping that is also a key must not be renamed again.
        body = body_of("void f() { int s = 0; for (int i = 0; i < 4; i++) { s += i; } }")
        substitute(body, {"i": "j", "j": "k"})
        from repro.minilang import ast

        loop = next(s for s in ast.walk_stmts(body) if isinstance(s, ast.For))
        assert loop.init.name == "j"
        assert collect_identifiers(loop) == {"j", "s"}

    def test_pragma_clauses_are_renamed_once(self):
        body = body_of(
            "void f(float* a, int n, int m) {\n"
            "#pragma omp target teams distribute parallel for map(tofrom: a[0:n]) "
            "num_threads(n)\n"
            "for (int i = 0; i < m; i++) { a[i] = 0.0f; }\n"
            "}",
            Dialect.OMP,
        )
        substitute(body, {"n": "m", "m": "k"})
        from repro.minilang import ast

        pragma = next(s for s in ast.walk_stmts(body) if isinstance(s, ast.Pragma))
        assert pragma.pragma.maps[0].length.name == "m"
        assert pragma.pragma.num_threads.name == "m"

    def test_empty_mapping_noop(self):
        body = body_of("void f(int x) { x = x + 1; }")
        substitute(body, {})
        assert "x" in collect_identifiers(body)


class TestScalarHelpers:
    def test_assigned_scalars(self):
        body = body_of("void f(int a, int b, int c) { a = 1; b += 2; c++; }")
        assert assigned_scalars(body) == {"a", "b", "c"}

    def test_declared_names(self):
        body = body_of("void f() { int x = 1; { float y = 2.0f; } }")
        assert declared_names(body) == {"x", "y"}
