"""Tests for semantic analysis and dialect legality rules."""

from __future__ import annotations

import pytest

from repro.minilang import analyze, ast, parse
from repro.minilang.source import Dialect, SourceFile


def sema(text: str, dialect: Dialect):
    program, diags = parse(SourceFile("t", text, dialect))
    assert not diags.has_errors, diags.render()
    return analyze(program, dialect)


def error_codes(text: str, dialect: Dialect = Dialect.C):
    res = sema(text, dialect)
    return [d.code for d in res.diagnostics.errors]


MAIN = "int main() { return 0; }\n"


class TestBasicChecks:
    def test_clean_program(self):
        res = sema(MAIN, Dialect.C)
        assert res.ok

    def test_missing_main(self):
        assert "no-main" in error_codes("void f() {}")

    def test_undeclared_identifier(self):
        assert "undeclared-ident" in error_codes(
            "int main() { x = 1; return 0; }"
        )

    def test_redefinition_same_scope(self):
        assert "redefinition" in error_codes(
            "int main() { int a = 1; int a = 2; return 0; }"
        )

    def test_shadowing_in_nested_scope_is_allowed(self):
        res = sema("int main() { int a = 1; { int a = 2; } return a; }", Dialect.C)
        assert res.ok

    def test_parameters_share_the_scope_of_the_body_outermost_block(self):
        assert "redefinition" in error_codes(
            "int f(int a) { int a = 1; return a; }\n" + MAIN
        )
        assert "redefinition" in error_codes(
            "__global__ void k(float* a) { float* a = NULL; }\n" + MAIN, Dialect.CUDA
        )
        # An inner block may hide a parameter.
        assert sema("int f(int a) { { int a = 1; } return a; }\n" + MAIN, Dialect.C).ok

    def test_unknown_function(self):
        assert "undeclared-function" in error_codes(
            "int main() { frob(1); return 0; }"
        )

    def test_wrong_arg_count_user_function(self):
        assert "arg-count" in error_codes(
            "int f(int a, int b) { return a + b; }\n"
            "int main() { return f(1); }"
        )

    def test_wrong_arg_type_pointer_vs_int(self):
        assert "arg-type" in error_codes(
            "int f(int* p) { return p[0]; }\n"
            "int main() { return f(3); }"
        )

    def test_assign_pointer_from_int_is_error(self):
        assert "type-mismatch" in error_codes(
            "int main() { float* p = 3; return 0; }"
        )

    def test_void_pointer_interconverts(self):
        res = sema(
            "int main() { float* p = (float*)malloc(16); free(p); return 0; }",
            Dialect.C,
        )
        assert res.ok

    def test_break_outside_loop(self):
        assert "break-outside-loop" in error_codes("int main() { break; return 0; }")

    def test_subscript_non_pointer(self):
        assert "subscript-nonpointer" in error_codes(
            "int main() { int a = 1; return a[0]; }"
        )

    def test_deref_non_pointer(self):
        assert "deref-nonpointer" in error_codes(
            "int main() { int a = 1; return *a; }"
        )

    def test_not_assignable(self):
        assert "not-assignable" in error_codes("int main() { 3 = 4; return 0; }")

    @pytest.mark.parametrize("text, dialect, line, col", [
        ('int main() { RAND_MAX = 3; printf("%d\\n", RAND_MAX); return 0; }',
         Dialect.C, 1, 14),
        ("__global__ void k() { threadIdx.x = 3; }\n" + MAIN, Dialect.CUDA, 1, 32),
        ("__global__ void k() { int* p = &threadIdx.x; }\n" + MAIN, Dialect.CUDA, 1, 42),
    ], ids=["constant", "geometry-member", "address-of-geometry-member"])
    def test_builtins_are_not_assignable(self, text, dialect, line, col):
        (err,) = sema(text, dialect).diagnostics.errors
        assert (err.code, err.span) == ("not-assignable", (line, col))

    def test_undeclared_names_and_bad_members_are_reported_once(self):
        assert error_codes("int main() { x = 1; int* p = &y; return 0; }") == [
            "undeclared-ident", "undeclared-ident"]
        assert error_codes(
            "__global__ void k() { threadIdx.w = 3; }\n" + MAIN, Dialect.CUDA
        ) == ["bad-member"]

    def test_void_function_returning_value(self):
        assert "void-return-value" in error_codes(
            "void f() { return 3; }\n" + MAIN
        )

    def test_nonvoid_return_without_value(self):
        assert "missing-return-value" in error_codes(
            "int f() { return; }\n" + MAIN
        )

    def test_arith_on_pointers_rejected(self):
        assert "arith-mismatch" in error_codes(
            "int main() { float* p = (float*)malloc(4); float* q = (float*)malloc(4);"
            " float x = p * q; return 0; }"
        )

    def test_global_array_size_is_checked(self):
        assert "undeclared-ident" in error_codes(
            "float a[m];\n" + MAIN
        )
        assert sema("int n = 4;\nfloat a[n + 1];\n" + MAIN, Dialect.C).ok

    def test_array_size_must_be_an_integer_at_file_and_function_scope(self):
        for text in ("float a[2.5];\n" + MAIN,
                     "int main() { float a[2.5]; return 0; }\n"):
            errors = sema(text, Dialect.C).diagnostics.errors
            assert [(d.code, d.message) for d in errors] == [(
                "array-size-type",
                "size of array 'a' has non-integer type 'double'",
            )], text

    def test_pointer_plus_int_allowed(self):
        res = sema(
            "int main() { float* p = (float*)malloc(16); float* q = p + 2; return 0; }",
            Dialect.C,
        )
        assert res.ok


class TestCudaRules:
    KERNEL = "__global__ void k(int* p, int n) { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) p[i] = i; }\n"

    def test_clean_kernel_and_launch(self):
        res = sema(
            self.KERNEL
            + "int main() { int* d; cudaMalloc(&d, 64); k<<<1, 16>>>(d, 16);"
            " cudaDeviceSynchronize(); cudaFree(d); return 0; }",
            Dialect.CUDA,
        )
        assert res.ok, res.diagnostics.render()

    def test_kernel_called_without_launch_syntax(self):
        codes = error_codes(
            self.KERNEL + "int main() { int* d; cudaMalloc(&d, 64); k(d, 16); return 0; }",
            Dialect.CUDA,
        )
        assert "kernel-call-unconfigured" in codes

    def test_launch_of_non_kernel(self):
        codes = error_codes(
            "void f(int x) {}\nint main() { f<<<1, 1>>>(3); return 0; }",
            Dialect.CUDA,
        )
        assert "launch-non-kernel" in codes

    def test_kernel_with_nonvoid_return(self):
        codes = error_codes(
            "__global__ int k() { return 1; }\n" + MAIN, Dialect.CUDA
        )
        assert "kernel-return-type" in codes

    def test_geometry_builtin_in_host_code(self):
        codes = error_codes(
            "int main() { int i = threadIdx.x; return 0; }", Dialect.CUDA
        )
        assert "geometry-in-host" in codes

    def test_malloc_in_kernel_rejected(self):
        codes = error_codes(
            "__global__ void k() { int* p = (int*)malloc(4); }\n" + MAIN,
            Dialect.CUDA,
        )
        assert "host-call-from-device" in codes

    def test_printf_in_kernel_allowed(self):
        res = sema(
            '__global__ void k() { printf("hi\\n"); }\n' + MAIN, Dialect.CUDA
        )
        assert res.ok

    def test_atomic_add_on_host_rejected(self):
        codes = error_codes(
            "int main() { int x = 0; atomicAdd(&x, 1); return 0; }", Dialect.CUDA
        )
        assert "device-call-from-host" in codes

    def test_atomic_add_non_pointer_first_arg(self):
        codes = error_codes(
            "__global__ void k(int x) { atomicAdd(x, 1); }\n" + MAIN,
            Dialect.CUDA,
        )
        assert "arg-type" in codes

    def test_launch_arg_count_mismatch(self):
        codes = error_codes(
            self.KERNEL + "int main() { int* d; cudaMalloc(&d, 4); k<<<1, 1>>>(d); return 0; }",
            Dialect.CUDA,
        )
        assert "arg-count" in codes

    def test_device_function_callable_from_kernel(self):
        res = sema(
            "__device__ int sq(int x) { return x * x; }\n"
            "__global__ void k(int* p) { p[0] = sq(3); }\n" + MAIN,
            Dialect.CUDA,
        )
        assert res.ok

    def test_device_function_not_callable_from_host(self):
        codes = error_codes(
            "__device__ int sq(int x) { return x * x; }\n"
            "int main() { return sq(2); }",
            Dialect.CUDA,
        )
        assert "device-call-from-host" in codes

    def test_omp_pragma_in_cuda_is_warning_only(self):
        res = sema(
            "int main() { int n = 4; float* a = (float*)malloc(16);\n"
            "#pragma omp parallel for\n"
            "for (int i = 0; i < n; i++) { a[i] = 0.0f; }\n"
            "free(a); return 0; }",
            Dialect.CUDA,
        )
        assert res.ok
        assert any(d.code == "unknown-pragma" for d in res.diagnostics)


class TestOmpRules:
    def test_cuda_qualifier_in_omp_is_error(self):
        codes = error_codes(
            "__global__ void k(int* p) { p[0] = 1; }\n" + MAIN, Dialect.OMP
        )
        assert "undeclared-ident" in codes

    def test_cuda_api_in_omp_is_undeclared(self):
        codes = error_codes(
            "int main() { int* d; cudaMalloc(&d, 4); return 0; }", Dialect.OMP
        )
        assert "undeclared-ident" in codes

    def test_geometry_builtin_in_omp_is_undeclared(self):
        codes = error_codes(
            "int main() { int i = threadIdx.x; return 0; }", Dialect.OMP
        )
        assert "undeclared-ident" in codes

    def test_atomic_add_in_omp_is_undeclared(self):
        codes = error_codes(
            "int main() { int x; atomicAdd(&x, 1); return 0; }", Dialect.OMP
        )
        assert "undeclared-ident" in codes

    def test_map_of_undeclared_array(self):
        codes = error_codes(
            "int main() { int n = 4;\n"
            "#pragma omp target teams distribute parallel for map(to: ghost[0:n])\n"
            "for (int i = 0; i < n; i++) { }\n"
            "return 0; }",
            Dialect.OMP,
        )
        assert "undeclared-ident" in codes

    def test_reduction_on_pointer_rejected(self):
        codes = error_codes(
            "int main() { int n = 4; float* s = (float*)malloc(4);\n"
            "#pragma omp target teams distribute parallel for reduction(+: s)\n"
            "for (int i = 0; i < n; i++) { }\n"
            "return 0; }",
            Dialect.OMP,
        )
        assert "reduction-pointer" in codes

    def test_non_canonical_loop_rejected(self):
        codes = error_codes(
            "int main() { int n = 4; int i = 0;\n"
            "#pragma omp target teams distribute parallel for\n"
            "for (; i < n;) { i++; }\n"
            "return 0; }",
            Dialect.OMP,
        )
        assert "non-canonical-loop" in codes

    def test_bad_collapse_nest(self):
        codes = error_codes(
            "int main() { int n = 4; int acc = 0;\n"
            "#pragma omp target teams distribute parallel for collapse(2)\n"
            "for (int i = 0; i < n; i++) { acc += i;\n"
            "for (int j = 0; j < n; j++) { acc += j; } }\n"
            "return 0; }",
            Dialect.OMP,
        )
        assert "bad-collapse" in codes

    def test_atomic_requires_update_statement(self):
        codes = error_codes(
            "int main() { int x = 0;\n"
            "#pragma omp atomic\n"
            "{ x = x + 1; }\n"
            "return 0; }",
            Dialect.OMP,
        )
        assert "invalid-atomic" in codes

    def test_clean_omp_program(self, omp_vecadd_source):
        program, diags = parse(omp_vecadd_source)
        assert not diags.has_errors
        res = analyze(program, Dialect.OMP)
        assert res.ok, res.diagnostics.render()

    def test_launch_syntax_in_omp_rejected(self):
        # '<<<' lexes as shifts in OMP mode, so this is a parse error.
        program, diags = parse(
            SourceFile(
                "t",
                "void k(int x) {}\nint main() { k<<<1, 1>>>(2); return 0; }",
                Dialect.OMP,
            )
        )
        assert diags.has_errors


def analysed(text: str, dialect: Dialect = Dialect.C) -> ast.Program:
    program, diags = parse(SourceFile("t", text, dialect))
    assert not diags.has_errors, diags.render()
    assert analyze(program, dialect).ok
    return program


def idents(program: ast.Program, name: str):
    """Every use of ``name``, in source order."""
    return [
        e for fn in program.functions for e in ast.walk_exprs(fn.body)
        if isinstance(e, ast.Ident) and e.name == name
    ]


def decls(program: ast.Program, name: str):
    """Every declaration of ``name``: globals, parameters, then locals."""
    out = [gv.decl for gv in program.globals if gv.decl.name == name]
    for fn in program.functions:
        out += [p for p in fn.params if p.name == name]
        out += [s for s in ast.walk_stmts(fn.body)
                if isinstance(s, ast.VarDecl) and s.name == name]
    return out


#: An OpenMP program with map and reduction clauses, shadowing and a global.
CLAUSES = """
int g = 2;
int main() {
  int n = 8;
  float* a = (float*)malloc(n * sizeof(float));
  float s = 0.0f;
  #pragma omp target teams distribute parallel for map(tofrom: a[0:n]) reduction(+: s)
  for (int i = 0; i < n; i++) { float s2 = a[i] * g; { float a = s2; s += a; } }
  printf("%f\\n", s);
  return 0;
}
"""


class TestBindings:
    def test_an_ident_binds_the_innermost_visible_declaration(self):
        program = analysed(
            "int main() { int a = 1; { float a = 2.0f; a = a + 1; } return a; }"
        )
        outer, inner = decls(program, "a")
        uses = idents(program, "a")
        assert [u.symbol for u in uses] == [inner.symbol, inner.symbol, outer.symbol]
        assert str(inner.symbol.type) == "float" and str(outer.symbol.type) == "int"

    def test_siblings_have_depth_0_and_a_hiding_declaration_depth_1(self):
        program = analysed(
            "int f(int n) { { int n = 1; } { int n = 2; { int n = 3; } } return n; }\n"
            + MAIN
        )
        param, first, second, hiding = decls(program, "n")
        assert [d.symbol.depth for d in (param, first, second, hiding)] == [0, 1, 1, 2]
        assert first.symbol is not second.symbol
        program = analysed("int main() { { int y = 0; } { float y = 1.0f; } return 0; }")
        assert [d.symbol.depth for d in decls(program, "y")] == [0, 0]

    def test_a_local_hiding_a_global_has_depth_0_and_earlier_uses_bind_the_global(self):
        program = analysed("int g = 4;\nint main() { int x = g; int g = 9; return g + x; }")
        glob, local = decls(program, "g")
        assert glob.symbol.is_global and not local.symbol.is_global
        assert local.symbol.depth == 0
        assert [u.symbol for u in idents(program, "g")] == [glob.symbol, local.symbol]

    def test_map_and_reduction_clause_names_are_bound(self):
        program = analysed(CLAUSES, Dialect.OMP)
        pragma = next(
            s for s in ast.walk_stmts(program.function("main").body)
            if isinstance(s, ast.Pragma)
        ).pragma
        assert pragma.maps[0].symbol is decls(program, "a")[0].symbol
        assert pragma.reduction.symbols == [decls(program, "s")[0].symbol]

    def test_a_clone_shares_the_symbols(self):
        program = analysed(CLAUSES, Dialect.OMP)
        copy = ast.clone(program)
        assert [u.symbol for u in idents(copy, "a")] == [u.symbol for u in idents(program, "a")]
        assert all(
            c.symbol is d.symbol for c, d in zip(decls(copy, "s"), decls(program, "s"))
        )

    def test_analysing_again_in_either_dialect_keeps_every_binding(self):
        program = analysed(CLAUSES, Dialect.OMP)
        bound = [d.symbol for name in ("g", "n", "a", "s", "i", "s2")
                 for d in decls(program, name)]
        uses = [(e, e.symbol) for fn in program.functions for e in ast.walk_exprs(fn.body)
                if isinstance(e, ast.Ident)]
        for dialect in (Dialect.OMP, Dialect.CUDA):
            analyze(program, dialect)
            assert [d.symbol for name in ("g", "n", "a", "s", "i", "s2")
                    for d in decls(program, name)] == bound
            assert all(e.symbol is sym for e, sym in uses)
        assert all(any(u.symbol is sym for sym in bound) for u, _ in uses)


class TestDiagnosticRendering:
    def test_render_contains_location_and_caret(self):
        program, _ = parse(SourceFile("foo.cpp", "int main() { x = 1; return 0; }", Dialect.OMP))
        res = analyze(program, Dialect.OMP)
        text = res.diagnostics.render(SourceFile("foo.cpp", "int main() { x = 1; return 0; }"))
        assert "foo.cpp:1:14: error: use of undeclared identifier 'x'" in text
        assert "^" in text
        assert "error generated" in text or "errors generated" in text
