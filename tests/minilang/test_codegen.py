"""Tests for the AST -> source code generator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.minilang import generate, parse
from repro.minilang.codegen import CodegenStyle
from repro.minilang.source import Dialect, SourceFile


def roundtrip(text: str, dialect: Dialect = Dialect.C,
              style: CodegenStyle = CodegenStyle()) -> str:
    program, diags = parse(SourceFile("t", text, dialect))
    assert not diags.has_errors, diags.render()
    return generate(program, style)


class TestFixpoint:
    @pytest.mark.parametrize("app_name", [
        "matrix-rotate", "jacobi", "atomicCost", "entropy", "randomAccess",
    ])
    def test_generate_parse_generate_is_identity(self, app_name):
        from repro.hecbench import get_app

        app = get_app(app_name)
        for dialect in (Dialect.CUDA, Dialect.OMP):
            once = roundtrip(app.source(dialect), dialect)
            twice = roundtrip(once, dialect)
            assert once == twice

    def test_semantics_preserved_through_roundtrip(self):
        from repro.hecbench import get_app
        from repro.toolchain import Executor, compiler_for

        app = get_app("layout")
        regenerated = roundtrip(app.omp_source, Dialect.OMP)
        cr = compiler_for(Dialect.OMP).compile(regenerated)
        assert cr.ok, cr.stderr
        ex = Executor()
        out1 = ex.run(cr.program, Dialect.OMP, app.args).stdout
        ref = compiler_for(Dialect.OMP).compile(app.omp_source)
        out2 = ex.run(ref.program, Dialect.OMP, app.args).stdout
        assert out1 == out2


class TestStyles:
    SRC = "int main() { float* p = (float*)malloc(8); if (p != NULL) { p[0] = 1.5f; } return 0; }"

    def test_indent_width(self):
        four = roundtrip(self.SRC, style=CodegenStyle(indent="    "))
        assert "\n    float*" in four

    def test_brace_next_line(self):
        allman = roundtrip(self.SRC, style=CodegenStyle(brace_same_line=False))
        assert "int main(int argc, char** argv)\n{" in allman or "int main()\n{" in allman

    def test_pointer_right(self):
        right = roundtrip(self.SRC, style=CodegenStyle(pointer_left=False))
        assert "float *p" in right

    def test_rename_map(self):
        renamed = roundtrip(self.SRC, style=CodegenStyle(rename={"p": "buffer"}))
        assert "buffer" in renamed
        assert " p[" not in renamed


class TestExpressions:
    def test_precedence_parens_only_when_needed(self):
        out = roundtrip("int f(int a, int b) { return (a + b) * 2 + a * b; }")
        assert "(a + b) * 2 + a * b" in out

    def test_nested_ternary_and_unary(self):
        out = roundtrip("int f(int x) { return x > 0 ? -x : ~x; }")
        assert "x > 0 ? -x : ~x" in out

    def test_string_escapes_roundtrip(self):
        out = roundtrip(r'int main() { printf("a\tb\n\"q\""); return 0; }')
        assert r'"a\tb\n\"q\""' in out

    def test_launch_syntax(self):
        out = roundtrip(
            "__global__ void k(int n) {}\n"
            "int main() { k<<<(10 + 1) / 2, 32>>>(5); return 0; }",
            Dialect.CUDA,
        )
        assert "k<<<(10 + 1) / 2, 32>>>(5);" in out

    def test_pragma_clauses_roundtrip(self):
        src = (
            "int main() { int n = 4; float s = 0.0f;\n"
            "float* a = (float*)malloc(n * sizeof(float));\n"
            "#pragma omp target teams distribute parallel for "
            "map(to: a[0:n]) reduction(+: s) collapse(1) num_threads(64) "
            "schedule(static)\n"
            "for (int i = 0; i < n; i++) { s += a[i]; }\n"
            "return 0; }"
        )
        out = roundtrip(src, Dialect.OMP)
        assert "map(to: a[0:n])" in out
        assert "reduction(+: s)" in out
        assert "num_threads(64)" in out
        assert "schedule(static)" in out

    @given(st.integers(-10**9, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_integer_literals_roundtrip(self, v):
        out = roundtrip(f"int main() {{ int x = {v}; return 0; }}")
        # negative literals render as unary minus on the magnitude
        assert str(abs(v)) in out


class TestLiteralFidelity:
    def test_double_spaces_in_string_literals_survive(self):
        # Regression: a whole-expression `.replace("  ", " ")` post-pass used
        # to collapse runs of spaces *inside* emitted string literals.
        src = 'int main() { printf("a  b    c" ); return 0; }'
        out = roundtrip(src)
        assert '"a  b    c"' in out

    def test_string_literal_in_binary_expression(self):
        src = 'int main() { int n = printf("x  y") + 1; return 0; }'
        out = roundtrip(src)
        assert '"x  y"' in out
        assert 'printf("x  y") + 1' in out
