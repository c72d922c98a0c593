"""Tests for simulated OpenMP execution: target regions, mapping semantics,
reductions, collapse, host parallelism, and profile events."""

from __future__ import annotations

from repro.gpu.stats import HostParallelEvent
from repro.minilang.source import Dialect
from tests.interp.helpers import run_source


def run_omp(text: str, argv=None, **kw):
    return run_source(text, Dialect.OMP, argv=argv, **kw)


class TestTargetLoop:
    def test_vecadd_end_to_end(self, omp_vecadd_source):
        out = run_source(omp_vecadd_source.text, Dialect.OMP)
        assert out.ok, (out.error, out.error_detail)
        assert out.stdout == "checksum 97920.0000\n"

    def test_map_tofrom_roundtrip(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 10;\n"
            "  int* a = (int*)malloc(n * sizeof(int));\n"
            "  for (int i = 0; i < n; i++) a[i] = i;\n"
            "#pragma omp target teams distribute parallel for map(tofrom: a[0:n])\n"
            "  for (int i = 0; i < n; i++) { a[i] = a[i] * 10; }\n"
            '  printf("%d %d\\n", a[0], a[9]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "0 90\n"

    def test_missing_from_map_loses_results(self):
        # map(to:) only: device writes never come back — classic wrong-output
        # bug the verification stage must catch.
        out = run_omp(
            "int main() {\n"
            "  int n = 4;\n"
            "  int* a = (int*)malloc(n * sizeof(int));\n"
            "  for (int i = 0; i < n; i++) a[i] = 1;\n"
            "#pragma omp target teams distribute parallel for map(to: a[0:n])\n"
            "  for (int i = 0; i < n; i++) { a[i] = 99; }\n"
            '  printf("%d\\n", a[0]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.ok
        assert out.stdout == "1\n"

    def test_unmapped_array_in_target_region_crashes(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 4;\n"
            "  int* a = (int*)malloc(n * sizeof(int));\n"
            "  int* b = (int*)malloc(n * sizeof(int));\n"
            "#pragma omp target teams distribute parallel for map(tofrom: a[0:n])\n"
            "  for (int i = 0; i < n; i++) { a[i] = b[i]; }\n"
            "  return 0;\n"
            "}"
        )
        assert out.error is not None
        assert "illegal memory access" in out.error

    def test_reduction_sum(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 100;\n"
            "  double s = 5.0;\n"
            "  float* a = (float*)malloc(n * sizeof(float));\n"
            "  for (int i = 0; i < n; i++) a[i] = 1.0f;\n"
            "#pragma omp target teams distribute parallel for map(to: a[0:n]) reduction(+: s)\n"
            "  for (int i = 0; i < n; i++) { s += a[i]; }\n"
            '  printf("%.1f\\n", s);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "105.0\n"

    def test_reduction_max(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 50;\n"
            "  float m = -1000.0f;\n"
            "  float* a = (float*)malloc(n * sizeof(float));\n"
            "  for (int i = 0; i < n; i++) a[i] = i * 1.0f;\n"
            "#pragma omp target teams distribute parallel for map(to: a[0:n]) reduction(max: m)\n"
            "  for (int i = 0; i < n; i++) { if (a[i] > m) m = a[i]; }\n"
            '  printf("%.1f\\n", m);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "49.0\n"

    def test_collapse_two_levels(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 8;\n"
            "  int* a = (int*)malloc(n * n * sizeof(int));\n"
            "#pragma omp target teams distribute parallel for collapse(2) map(from: a[0:n*n])\n"
            "  for (int i = 0; i < n; i++) {\n"
            "    for (int j = 0; j < n; j++) {\n"
            "      a[i * n + j] = i * 10 + j;\n"
            "    }\n"
            "  }\n"
            '  printf("%d %d\\n", a[0], a[63]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "0 77\n"
        ev = out.profile.kernel_events[0]
        assert ev.total_threads == 64  # collapsed width

    def test_kernel_event_omp_api(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 32;\n"
            "  float* a = (float*)malloc(n * sizeof(float));\n"
            "#pragma omp target teams distribute parallel for map(tofrom: a[0:n])\n"
            "  for (int i = 0; i < n; i++) { a[i] = i * 2.0f; }\n"
            '  printf("%.0f\\n", a[31]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "62\n"
        ev = out.profile.kernel_events[0]
        assert ev.api == "omp"
        assert ev.total_threads == 32
        assert ev.parallel_limit is None  # full combined directive

    def test_num_threads_clause_caps_parallelism(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 32;\n"
            "  float* a = (float*)malloc(n * sizeof(float));\n"
            "#pragma omp target teams distribute parallel for map(tofrom: a[0:n]) num_threads(1)\n"
            "  for (int i = 0; i < n; i++) { a[i] = 1.0f; }\n"
            "  return 0;\n"
            "}"
        )
        assert out.profile.kernel_events[0].parallel_limit == 1

    def test_bare_target_is_serial_on_device(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 16;\n"
            "  float* a = (float*)malloc(n * sizeof(float));\n"
            "#pragma omp target map(tofrom: a[0:n])\n"
            "  {\n"
            "    for (int i = 0; i < n; i++) { a[i] = 3.0f; }\n"
            "  }\n"
            '  printf("%.0f\\n", a[15]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "3\n"
        ev = out.profile.kernel_events[0]
        assert ev.parallel_limit == 1

    def test_descending_canonical_loop(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 10;\n"
            "  int* a = (int*)malloc(n * sizeof(int));\n"
            "#pragma omp target teams distribute parallel for map(from: a[0:n])\n"
            "  for (int i = n - 1; i >= 0; i--) { a[i] = i; }\n"
            '  printf("%d %d\\n", a[0], a[9]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "0 9\n"

    def test_strided_canonical_loop(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 10;\n"
            "  int* a = (int*)malloc(n * sizeof(int));\n"
            "#pragma omp target teams distribute parallel for map(tofrom: a[0:n])\n"
            "  for (int i = 0; i < n; i += 2) { a[i] = 1; }\n"
            "  int s = 0;\n"
            "  for (int i = 0; i < n; i++) s += a[i];\n"
            '  printf("%d\\n", s);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "5\n"

    def test_body_declaration_leaves_the_host_variable(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 4;\n"
            "  float* a = (float*)malloc(n * sizeof(float));\n"
            "  int t = 10;\n"
            "#pragma omp target teams distribute parallel for map(from: a[0:n])\n"
            "  for (int i = 0; i < n; i++) { int t = i; a[i] = t * 1.0f; }\n"
            '  printf("%d %.1f\\n", t, a[3]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "10 3.0\n"

    def test_global_loop_variable_takes_each_iteration_value(self):
        out = run_omp(
            "int g;\n"
            "int main() {\n"
            "  int n = 4;\n"
            "  float* a = (float*)malloc(n * sizeof(float));\n"
            "#pragma omp target teams distribute parallel for map(from: a[0:n])\n"
            "  for (g = 0; g < n; g++) { a[g] = g + 1.0f; }\n"
            '  printf("%.1f %.1f\\n", a[0], a[3]);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "1.0 4.0\n"


    def test_body_takes_the_address_of_its_own_variable(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 4;\n"
            "  float* a = (float*)malloc(n * sizeof(float));\n"
            "#pragma omp target teams distribute parallel for map(from: a[0:n])\n"
            "  for (int i = 0; i < n; i++) { float v = i * 1.5f; float* pv = &v; a[i] = *pv; }\n"
            '  printf("%.1f %.1f\\n", a[1], a[3]);\n'
            "  return 0;\n"
            "}"
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "1.5 4.5\n")

    def test_body_takes_the_address_of_the_loop_variable(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 4;\n"
            "  float* a = (float*)malloc(n * sizeof(float));\n"
            "#pragma omp target teams distribute parallel for map(from: a[0:n])\n"
            "  for (int i = 0; i < n; i++) { int* pi = &i; a[i] = *pi * 2.0f; }\n"
            '  printf("%.1f %.1f\\n", a[1], a[3]);\n'
            "  return 0;\n"
            "}"
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "2.0 6.0\n")

    def test_body_steps_and_updates_a_pointer_element(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 4;\n"
            "  int* data = (int*)malloc(8 * sizeof(int));\n"
            "  for (int i = 0; i < 8; i++) { data[i] = i; }\n"
            "  int** ptrs = (int**)malloc(n * sizeof(int*));\n"
            "  int* out = (int*)malloc(n * sizeof(int));\n"
            "#pragma omp target teams distribute parallel for map(to: data[0:8]) "
            "map(alloc: ptrs[0:n]) map(from: out[0:n])\n"
            "  for (int i = 0; i < n; i++) {\n"
            "    ptrs[i] = data + i;\n"
            "    ptrs[i]++; ptrs[i] += 3; ptrs[i]--; --ptrs[i]; ptrs[i] -= 1;\n"
            "    int* old = ptrs[i]++;\n"
            "    out[i] = old[0] * 100 + ptrs[i][0];\n"
            "  }\n"
            '  printf("%d %d\\n", out[0], out[3]);\n'
            "  return 0;\n"
            "}"
        )
        assert (out.error, out.exit_code, out.stdout) == (None, 0, "102 405\n")


class TestTargetData:
    PROG = (
        "int main() {\n"
        "  int n = 16;\n"
        "  float* a = (float*)malloc(n * sizeof(float));\n"
        "  for (int i = 0; i < n; i++) a[i] = 1.0f;\n"
        "#pragma omp target data map(tofrom: a[0:n])\n"
        "  {\n"
        "    for (int iter = 0; iter < 5; iter++) {\n"
        "#pragma omp target teams distribute parallel for\n"
        "      for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0f; }\n"
        "    }\n"
        "  }\n"
        '  printf("%.0f\\n", a[0]);\n'
        "  return 0;\n"
        "}"
    )

    def test_data_region_keeps_array_resident(self):
        out = run_omp(self.PROG)
        assert out.ok, (out.error, out.error_detail)
        assert out.stdout == "6\n"
        # One h2d on entry + one d2h on exit — inner regions move nothing.
        omp_transfers = [t for t in out.profile.transfer_events if t.api == "omp"]
        assert len(omp_transfers) == 2

    def test_without_data_region_transfers_each_iteration(self):
        prog = self.PROG.replace(
            "#pragma omp target data map(tofrom: a[0:n])\n", ""
        ).replace(
            "#pragma omp target teams distribute parallel for\n",
            "#pragma omp target teams distribute parallel for map(tofrom: a[0:n])\n",
        )
        out = run_omp(prog)
        assert out.ok, (out.error, out.error_detail)
        assert out.stdout == "6\n"
        omp_transfers = [t for t in out.profile.transfer_events if t.api == "omp"]
        assert len(omp_transfers) == 10  # 5 iterations x (h2d + d2h)

    def test_host_sees_host_copy_inside_data_region(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 4;\n"
            "  int* a = (int*)malloc(n * sizeof(int));\n"
            "  a[0] = 7;\n"
            "#pragma omp target data map(to: a[0:n])\n"
            "  {\n"
            '    printf("%d\\n", a[0]);\n'  # host access: host copy
            "  }\n"
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "7\n"


class TestHostParallel:
    def test_parallel_for_result_and_event(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 64;\n"
            "  int* a = (int*)malloc(n * sizeof(int));\n"
            "#pragma omp parallel for\n"
            "  for (int i = 0; i < n; i++) { a[i] = i; }\n"
            "  int s = 0;\n"
            "  for (int i = 0; i < n; i++) s += a[i];\n"
            '  printf("%d\\n", s);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "2016\n"
        events = [e for e in out.profile.events if isinstance(e, HostParallelEvent)]
        assert len(events) == 1
        assert events[0].num_threads == 64

    def test_parallel_for_reduction(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 10;\n"
            "  int s = 100;\n"
            "#pragma omp parallel for reduction(+: s)\n"
            "  for (int i = 0; i < n; i++) { s += i; }\n"
            '  printf("%d\\n", s);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "145\n"

    def test_atomic_pragma_counts(self):
        out = run_omp(
            "int main() {\n"
            "  int n = 20;\n"
            "  int c = 0;\n"
            "#pragma omp parallel for\n"
            "  for (int i = 0; i < n; i++) {\n"
            "#pragma omp atomic\n"
            "    c += 1;\n"
            "  }\n"
            '  printf("%d\\n", c);\n'
            "  return 0;\n"
            "}"
        )
        assert out.stdout == "20\n"
