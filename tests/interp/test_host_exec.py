"""Tests for host-side execution: expressions, control flow, memory, printf."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.minilang.source import Dialect
from tests.interp.helpers import run_source


class TestArithmetic:
    def test_integer_arithmetic(self):
        out = run_source(
            'int main() { printf("%d\\n", (7 + 3) * 2 - 5 / 2); return 0; }'
        )
        assert out.stdout == "18\n"

    def test_c_division_truncates_toward_zero(self):
        out = run_source(
            'int main() { printf("%d %d\\n", -7 / 2, 7 / -2); return 0; }'
        )
        assert out.stdout == "-3 -3\n"

    def test_c_modulo_sign_of_dividend(self):
        out = run_source(
            'int main() { printf("%d %d\\n", -7 % 3, 7 % -3); return 0; }'
        )
        assert out.stdout == "-1 1\n"

    def test_float_arithmetic(self):
        out = run_source(
            'int main() { printf("%.3f\\n", 1.5f * 2.0f + 0.25f); return 0; }'
        )
        assert out.stdout == "3.250\n"

    def test_mixed_int_float_promotes(self):
        out = run_source('int main() { printf("%.2f\\n", 3 / 2.0); return 0; }')
        assert out.stdout == "1.50\n"

    def test_integer_division_by_zero_faults(self):
        out = run_source(
            "int main() { int z = 0; int y = 5 / z; return y; }"
        )
        assert out.error is not None
        assert "Floating point exception" in out.error

    def test_float_division_by_zero_gives_inf(self):
        out = run_source(
            'int main() { float z = 0.0f; printf("%f\\n", 1.0f / z); return 0; }'
        )
        assert out.error is None
        assert "inf" in out.stdout

    def test_bitwise_and_shifts(self):
        out = run_source(
            'int main() { printf("%d %d %d\\n", 12 & 10, 12 | 3, 1 << 10); return 0; }'
        )
        assert out.stdout == "8 15 1024\n"

    def test_int_var_assignment_truncates_floats(self):
        out = run_source('int main() { int x = 0; x = 7.9; printf("%d\\n", x); return 0; }')
        assert out.stdout == "7\n"

    def test_ternary(self):
        out = run_source(
            'int main() { int x = 5; printf("%d\\n", x > 3 ? 10 : 20); return 0; }'
        )
        assert out.stdout == "10\n"

    def test_logical_short_circuit(self):
        # Division by zero on the right of && must not execute.
        out = run_source(
            "int main() { int z = 0; if (0 && (5 / z)) { return 1; } return 0; }"
        )
        assert out.error is None

    def test_increment_decrement(self):
        out = run_source(
            'int main() { int i = 5; int a = i++; int b = ++i; int c = i--;\n'
            'printf("%d %d %d %d\\n", a, b, c, i); return 0; }'
        )
        assert out.stdout == "5 7 7 6\n"

    def test_compound_assignment(self):
        out = run_source(
            'int main() { int x = 10; x += 5; x *= 2; x -= 4; x /= 2; x %= 7;\n'
            'printf("%d\\n", x); return 0; }'
        )
        assert out.stdout == "6\n"

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    @settings(max_examples=25, deadline=None)
    def test_addition_matches_python(self, a, b):
        out = run_source(
            f'int main() {{ printf("%d\\n", {a} + ({b})); return 0; }}'
        )
        assert out.stdout == f"{a + b}\n"


class TestControlFlow:
    def test_for_loop_sum(self):
        out = run_source(
            'int main() { int s = 0; for (int i = 1; i <= 100; i++) { s += i; }\n'
            'printf("%d\\n", s); return 0; }'
        )
        assert out.stdout == "5050\n"

    def test_nested_loops_with_break_continue(self):
        out = run_source(
            "int main() { int s = 0;\n"
            "for (int i = 0; i < 10; i++) {\n"
            "  if (i % 2 == 0) continue;\n"
            "  if (i > 6) break;\n"
            "  s += i;\n"
            "}\n"
            'printf("%d\\n", s); return 0; }'
        )
        assert out.stdout == "9\n"  # 1 + 3 + 5

    def test_while_and_do_while(self):
        out = run_source(
            "int main() { int n = 0; while (n < 5) n++; int m = 0;\n"
            "do { m++; } while (m < 3);\n"
            'printf("%d %d\\n", n, m); return 0; }'
        )
        assert out.stdout == "5 3\n"

    def test_do_while_executes_at_least_once(self):
        out = run_source(
            'int main() { int n = 99; do { n = 1; } while (0); printf("%d\\n", n); return 0; }'
        )
        assert out.stdout == "1\n"

    def test_recursion(self):
        out = run_source(
            "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n"
            'int main() { printf("%d\\n", fib(15)); return 0; }'
        )
        assert out.stdout == "610\n"

    def test_unbounded_recursion_is_a_stack_overflow_segfault(self):
        # How deep the guest gets before the fault depends on the host's
        # frames per guest call, so only the fault itself is pinned.
        out = run_source(
            "int down(int n) { return down(n + 1) + 1; }\n"
            'int main() { printf("start\\n"); return down(0); }'
        )
        assert out.exit_code == 139
        assert out.error == "Segmentation fault (core dumped)"
        assert out.error_detail == "stack overflow (unbounded recursion)"
        assert out.stdout == "start\n"

    def test_early_return_value(self):
        out = run_source(
            "int f(int x) { if (x > 0) { return 1; } return -1; }\n"
            'int main() { printf("%d %d\\n", f(5), f(-5)); return 0; }'
        )
        assert out.stdout == "1 -1\n"

    def test_infinite_loop_hits_step_limit(self):
        from repro.interp import Limits

        out = run_source(
            "int main() { while (1) { } return 0; }",
            limits=Limits(max_steps=5000),
        )
        assert out.error is not None
        assert "timed out" in out.error


class TestScopes:
    """A declaration in an inner or sibling block is its own variable."""

    def test_inner_declaration_hides_a_parameter_only_in_its_block(self):
        out = run_source(
            "int f(int n) { if (n > 0) { int n = 5; } return n; }\n"
            'int main() { printf("%d\\n", f(9)); return 0; }'
        )
        assert out.stdout == "9\n"

    def test_for_header_declaration_leaves_the_outer_variable(self):
        out = run_source(
            "int main() { int i = 7; for (int i = 0; i < 3; i++) {}\n"
            'printf("%d\\n", i); return 0; }'
        )
        assert out.stdout == "7\n"

    def test_inner_int_leaves_an_outer_float_of_the_same_name(self):
        out = run_source(
            "int main() { float x = 1.5f; { int x = 2; x = x + 1; }\n"
            'printf("%f\\n", x); return 0; }'
        )
        assert out.stdout == "1.500000\n"

    def test_local_hiding_a_global_leaves_the_global(self):
        out = run_source(
            "int g = 4;\n"
            "int main() { { int g = 9; g = g + 1; }\n"
            'printf("%d\\n", g); return 0; }'
        )
        assert out.stdout == "4\n"

    def test_sibling_declarations_keep_their_own_types(self):
        out = run_source(
            "int main() {\n"
            '  { int y = 0; y = 7.9f; y = y * 2; printf("%d\\n", y); }\n'
            "  { float y = 1.0f; }\n"
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "14\n"


class TestMemory:
    def test_malloc_write_read(self):
        out = run_source(
            "int main() { int* p = (int*)malloc(10 * sizeof(int));\n"
            "for (int i = 0; i < 10; i++) p[i] = i * i;\n"
            'printf("%d\\n", p[7]); free(p); return 0; }'
        )
        assert out.stdout == "49\n"

    def test_out_of_bounds_read_segfaults(self):
        out = run_source(
            "int main() { int* p = (int*)malloc(4 * sizeof(int));\n"
            "int x = p[10]; return x; }"
        )
        assert out.error is not None
        assert "Segmentation fault" in out.error

    def test_negative_index_segfaults(self):
        out = run_source(
            "int main() { int* p = (int*)malloc(4 * sizeof(int)); p[-1] = 3; return 0; }"
        )
        assert "Segmentation fault" in out.error

    def test_use_after_free(self):
        out = run_source(
            "int main() { int* p = (int*)malloc(8); free(p); p[0] = 1; return 0; }"
        )
        assert out.error is not None

    def test_double_free(self):
        out = run_source(
            "int main() { int* p = (int*)malloc(8); free(p); free(p); return 0; }"
        )
        assert "double free" in out.error

    def test_free_null_ok(self):
        out = run_source("int main() { free(NULL); return 0; }")
        assert out.error is None

    #: ``free`` of storage a declaration owns, then a read of it.
    DECLARED = {
        "local": "int x = 1; free(&x); printf(\"%d\\n\", x);",
        "local-array": "int a[2]; a[0] = 5; free(a); printf(\"%d\\n\", a[0]);",
        "element-of-a-local-array": "int a[2]; free(&a[1]); printf(\"%d\\n\", a[1]);",
        "global": "free(&g); printf(\"%d\\n\", g);",
        "global-array": "free(ga); printf(\"%d\\n\", ga[0]);",
    }

    @pytest.mark.parametrize("kind", sorted(DECLARED))
    def test_free_of_declared_storage_is_an_invalid_pointer(self, kind):
        out = run_source(
            "int g = 4; int ga[3];\n"
            f"int main() {{ {self.DECLARED[kind]} return 0; }}"
        )
        assert (out.stdout, out.error, out.exit_code) == (
            "", "free(): invalid pointer\nAborted (core dumped)", 1)

    def test_step_and_update_a_pointer_element(self):
        # ``++``, ``--`` and ``+=`` move a pointer held in an element, as
        # they move a pointer variable.
        out = run_source(
            "int main() { int* v = (int*)malloc(6 * sizeof(int));\n"
            "for (int i = 0; i < 6; i++) { v[i] = i * 10; }\n"
            "int** arr = (int**)malloc(2 * sizeof(int*)); arr[0] = v;\n"
            "arr[0]++; int a = arr[0][0];\n"
            "arr[0] += 3; int b = *arr[0];\n"
            "arr[0]--; int c = arr[0][0];\n"
            "int* old = arr[0]++; int d = old[0] * 100 + arr[0][0];\n"
            "arr[0] -= 4; --arr[0]; ++arr[0];\n"
            'printf("%d %d %d %d %d\\n", a, b, c, d, arr[0][0]); return 0; }'
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "10 40 30 3040 0\n")

    def test_null_deref(self):
        out = run_source("int main() { int* p = NULL; return p[0]; }")
        assert "Segmentation fault" in out.error

    def test_pointer_arithmetic(self):
        out = run_source(
            "int main() { int* p = (int*)malloc(5 * sizeof(int));\n"
            "for (int i = 0; i < 5; i++) p[i] = i + 10;\n"
            "int* q = p + 2;\n"
            'printf("%d %d\\n", q[0], *(q + 1)); free(p); return 0; }'
        )
        assert out.stdout == "12 13\n"

    def test_address_of_an_element_is_a_pointer(self):
        out = run_source(
            "int main() { int* p = (int*)malloc(10 * sizeof(int));\n"
            "int* q = &p[7]; long d = q - p; q[0] = 5; int* r = &*q;\n"
            'printf("%ld %d %d\\n", d, p[7], r[0]); free(p); return 0; }'
        )
        assert (out.error, out.stdout) == (None, "7 5 5\n")

    def test_int_array_stores_truncate(self):
        out = run_source(
            "int main() { int* p = (int*)malloc(sizeof(int)); p[0] = 3.7;\n"
            'printf("%d\\n", p[0]); free(p); return 0; }'
        )
        assert out.stdout == "3\n"

    def test_local_fixed_array(self):
        out = run_source(
            "int main() { int buf[16]; for (int i = 0; i < 16; i++) buf[i] = i;\n"
            'printf("%d\\n", buf[15]); return 0; }'
        )
        assert out.stdout == "15\n"

    def test_memset_zeroes(self):
        out = run_source(
            "int main() { int* p = (int*)malloc(4 * sizeof(int));\n"
            "p[2] = 9; memset(p, 0, 4 * sizeof(int));\n"
            'printf("%d\\n", p[2]); free(p); return 0; }'
        )
        assert out.stdout == "0\n"

    def test_memcpy_to_a_negative_offset_segfaults(self):
        out = run_source(
            "int main() { float* g = (float*)malloc(4 * sizeof(float));\n"
            "float* h = (float*)malloc(4 * sizeof(float));\n"
            "for (int i = 0; i < 4; i++) { g[i] = 0.0f; h[i] = 1.0f; }\n"
            "memcpy(g - 1, h, 4 * sizeof(float));\n"
            'printf("%.1f %.1f\\n", g[0], g[3]); return 0; }'
        )
        assert (out.stdout, out.error, out.error_detail) == (
            "",
            "Segmentation fault (core dumped)",
            "index -1 out of bounds for buffer ? of length 4",
        )

    def test_memset_at_a_negative_offset_segfaults(self):
        out = run_source(
            "int main() { int* g = (int*)malloc(4 * sizeof(int));\n"
            "for (int i = 0; i < 4; i++) { g[i] = i + 5; }\n"
            "memset(g - 1, 0, 2 * sizeof(int));\n"
            'printf("%d %d\\n", g[0], g[3]); return 0; }'
        )
        assert (out.stdout, out.error, out.error_detail) == (
            "",
            "Segmentation fault (core dumped)",
            "index -1 out of bounds for buffer ? of length 4",
        )

    def test_global_variables(self):
        out = run_source(
            "int counter = 10;\n"
            "void bump() { counter += 5; }\n"
            'int main() { bump(); bump(); printf("%d\\n", counter); return 0; }'
        )
        assert out.stdout == "20\n"



class TestAddressOfAVariable:
    """``&x`` is an ordinary pointer to the variable's one-cell storage."""

    def test_swap_through_pointers(self):
        out = run_source(
            "void swap(int* a, int* b) { int t = *a; *a = *b; *b = t; }\n"
            "int main() { int x = 1; int y = 2; swap(&x, &y);\n"
            'printf("%d %d\\n", x, y); return 0; }'
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "2 1\n")

    def test_store_through_an_index_of_a_local_address(self):
        out = run_source(
            "int main() { int loc = 3; int* pl = &loc; pl[0] = 11;\n"
            'printf("%d\\n", loc); return 0; }'
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "11\n")

    def test_pointer_to_a_pointer_variable(self):
        out = run_source(
            "int main() { int* p = (int*)malloc(2 * sizeof(int)); p[0] = 6;\n"
            'int** pp = &p; printf("%d\\n", **pp); free(p); return 0; }'
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "6\n")

    def test_store_a_pointer_through_a_pointer(self):
        out = run_source(
            "int main() { int* p = NULL; int** pp = &p;\n"
            "int* q = (int*)malloc(2 * sizeof(int)); q[1] = 3; *pp = q;\n"
            "float* f = (float*)malloc(sizeof(float)); f[0] = 2.5f;\n"
            "float** arr = (float**)malloc(2 * sizeof(float*)); arr[1] = f;\n"
            'printf("%d %.1f\\n", p[1], arr[1][0]); return 0; }'
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "3 2.5\n")

    def test_address_of_a_global(self):
        out = run_source(
            "int g = 3;\n"
            "void inc(int* p) { *p = *p + 1; }\n"
            'int main() { inc(&g); printf("%d\\n", g); return 0; }'
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "4\n")

    def test_global_initializer_takes_the_address_of_a_global(self):
        out = run_source(
            "int g = 3; int* pg = &g;\n"
            'int main() { *pg = 8; printf("%d\\n", g); return 0; }'
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "8\n")

    def test_memset_of_a_variable(self):
        out = run_source(
            "int main() { int x = 9; memset(&x, 0, sizeof(int));\n"
            'printf("%d\\n", x); return 0; }'
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "0\n")

    def test_taking_the_address_leaves_the_cost_of_naming_it(self):
        loop = (
            "for (int i = 0; i < 10; i++) { x = x + i; x += 2; x++; }\n"
            'printf("%d\\n", x); return 0; }'
        )
        plain = run_source("int main() { int x = 1; int* px = NULL;\n" + loop)
        addressed = run_source("int main() { int x = 1; int* px = &x;\n" + loop)
        assert (addressed.error, addressed.stdout) == (None, plain.stdout) == (None, "76\n")
        counters = [(c.ops, c.load_bytes, c.store_bytes, c.atomics)
                    for c in (plain.profile.host, addressed.profile.host)]
        assert counters[0] == counters[1]


class TestIo:
    def test_printf_widths_and_precision(self):
        out = run_source(
            'int main() { printf("[%5d][%-5d][%.2f][%8.3f]\\n", 42, 42, 3.14159, 2.5); return 0; }'
        )
        assert out.stdout == "[   42][42   ][3.14][   2.500]\n"

    def test_printf_e_and_x(self):
        out = run_source(
            'int main() { printf("%e %x\\n", 12345.678, 255); return 0; }'
        )
        assert out.stdout == "1.234568e+04 ff\n"

    def test_printf_string_and_char(self):
        out = run_source(
            'int main() { printf("%s %c\\n", "hello", 65); return 0; }'
        )
        assert out.stdout == "hello A\n"

    def test_printf_percent_literal(self):
        out = run_source('int main() { printf("100%%\\n"); return 0; }')
        assert out.stdout == "100%\n"

    def test_printf_missing_argument_faults(self):
        out = run_source('int main() { printf("%d %d\\n", 1); return 0; }')
        assert out.error is not None

    def test_argv_and_atoi(self):
        out = run_source(
            "int main(int argc, char** argv) {\n"
            'printf("%d %d\\n", argc, atoi(argv[1]) * 2); return 0; }',
            argv=["21"],
        )
        assert out.stdout == "2 42\n"

    def test_exit_code(self):
        out = run_source("int main() { exit(3); return 0; }")
        assert out.exit_code == 3

    def test_main_return_code(self):
        out = run_source("int main() { return 7; }")
        assert out.exit_code == 7
        assert not out.ok


class TestRand:
    def test_rand_deterministic_sequence(self):
        src = (
            "int main() { srand(42); "
            'printf("%d %d %d\\n", rand() % 1000, rand() % 1000, rand() % 1000); return 0; }'
        )
        a = run_source(src)
        b = run_source(src)
        assert a.stdout == b.stdout

    def test_rand_same_across_dialects(self):
        src = (
            "int main() { srand(7); int s = 0;"
            "for (int i = 0; i < 10; i++) { s += rand() % 100; }"
            'printf("%d\\n", s); return 0; }'
        )
        a = run_source(src, Dialect.OMP)
        b = run_source(src, Dialect.CUDA)
        assert a.stdout == b.stdout

    def test_rand_in_range(self):
        out = run_source(
            "int main() { srand(1); for (int i = 0; i < 100; i++) {"
            " int r = rand(); if (r < 0) { return 1; } }"
            ' printf("ok\\n"); return 0; }'
        )
        assert out.stdout == "ok\n"


class TestMathBuiltins:
    def test_sqrt_and_pow(self):
        out = run_source(
            'int main() { printf("%.1f %.1f\\n", sqrtf(16.0f), powf(2.0f, 10.0f)); return 0; }'
        )
        assert out.stdout == "4.0 1024.0\n"

    def test_min_max_abs(self):
        out = run_source(
            'int main() { printf("%d %d %d\\n", min(3, 5), max(3, 5), abs(-9)); return 0; }'
        )
        assert out.stdout == "3 5 9\n"

    def test_log_of_negative_is_nan(self):
        out = run_source('int main() { printf("%f\\n", logf(-1.0f)); return 0; }')
        assert "nan" in out.stdout

    def test_fmin_fmax(self):
        out = run_source(
            'int main() { printf("%.1f %.1f\\n", fminf(1.5f, 2.5f), fmaxf(1.5f, 2.5f)); return 0; }'
        )
        assert out.stdout == "1.5 2.5\n"
