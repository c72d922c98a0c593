"""Tests for the rule-based CUDA <-> OpenMP transpiler."""

from __future__ import annotations

import pytest

from repro.hecbench import all_apps, get_app
from repro.llm import transpiler
from repro.llm.transpiler import TranspileError, TranspileOptions, Transpiler
from repro.minilang.source import Dialect
from repro.toolchain import Executor, compiler_for


def run_translated(app, src_d, tgt_d, options=None):
    tr = Transpiler(options)
    code = tr.translate(app.source(src_d), src_d, tgt_d)
    cr = compiler_for(tgt_d).compile(code)
    assert cr.ok, cr.stderr
    ex = Executor()
    run = ex.run(cr.program, tgt_d, app.args,
                 work_scale=app.work_scale, launch_scale=app.launch_scale)
    assert run.ok, run.stderr
    ref_cr = compiler_for(tgt_d).compile(app.source(tgt_d))
    ref = ex.run(ref_cr.program, tgt_d, app.args,
                 work_scale=app.work_scale, launch_scale=app.launch_scale)
    return code, run, ref


@pytest.mark.parametrize("app_name", [a.name for a in all_apps()])
@pytest.mark.parametrize("direction", ["omp2cuda", "cuda2omp"])
class TestFullMatrix:
    def test_translation_is_correct(self, app_name, direction):
        app = get_app(app_name)
        src_d, tgt_d = (
            (Dialect.OMP, Dialect.CUDA) if direction == "omp2cuda"
            else (Dialect.CUDA, Dialect.OMP)
        )
        code, run, ref = run_translated(app, src_d, tgt_d)
        assert run.stdout == ref.stdout


class TestStyles:
    def test_literal_mode_correct_and_slower_for_jacobi(self):
        app = get_app("jacobi")
        _, smart, ref = run_translated(app, Dialect.CUDA, Dialect.OMP)
        _, literal, _ = run_translated(
            app, Dialect.CUDA, Dialect.OMP,
            TranspileOptions(use_data_region=False),
        )
        assert smart.stdout == literal.stdout
        # literal re-maps per sweep -> much slower than the data-region style
        assert literal.runtime_seconds > 5 * smart.runtime_seconds
        # ... and lands near the slow OpenMP reference
        assert literal.runtime_seconds == pytest.approx(
            ref.runtime_seconds, rel=0.5
        )

    def test_hoisting_collapses_idempotent_repeats(self):
        app = get_app("bsearch")
        _, plain, _ = run_translated(app, Dialect.CUDA, Dialect.OMP)
        _, hoisted, _ = run_translated(
            app, Dialect.CUDA, Dialect.OMP,
            TranspileOptions(hoist_invariant_repeat=True),
        )
        assert hoisted.stdout == plain.stdout
        assert hoisted.runtime_seconds < plain.runtime_seconds / 4

    def test_hoisting_refuses_loop_carried_repeats(self):
        # matrix-rotate's repeat loop swaps buffers: must NOT be hoisted.
        app = get_app("matrix-rotate")
        tr = Transpiler(TranspileOptions(hoist_invariant_repeat=True))
        code = tr.translate(app.cuda_source, Dialect.CUDA, Dialect.OMP)
        cr = compiler_for(Dialect.OMP).compile(code)
        run = Executor().run(cr.program, Dialect.OMP, app.args)
        ref_cr = compiler_for(Dialect.OMP).compile(app.omp_source)
        ref = Executor().run(ref_cr.program, Dialect.OMP, app.args)
        assert run.stdout == ref.stdout

    def test_privatize_atomics_reduces_atomic_traffic(self):
        app = get_app("atomicCost")
        _, plain, ref = run_translated(app, Dialect.CUDA, Dialect.OMP)
        code, privatized, _ = run_translated(
            app, Dialect.CUDA, Dialect.OMP,
            TranspileOptions(privatize_atomics=True),
        )
        assert privatized.stdout == plain.stdout
        assert privatized.profile.total_atomics < plain.profile.total_atomics / 3
        assert privatized.runtime_seconds < ref.runtime_seconds

    def test_reduction_styles(self):
        app = get_app("jacobi")
        red_code, run_r, ref = run_translated(app, Dialect.CUDA, Dialect.OMP)
        assert run_r.stdout == ref.stdout
        assert "reduction(+:" in red_code

    def test_rename_scheme_changes_identifiers_consistently(self):
        app = get_app("layout")
        plain, _, _ = run_translated(app, Dialect.CUDA, Dialect.OMP)
        renamed, run, ref = run_translated(
            app, Dialect.CUDA, Dialect.OMP,
            TranspileOptions(rename_scheme="verbose"),
        )
        assert run.stdout == ref.stdout
        assert "v_repeat" in renamed
        assert plain != renamed

    def test_hoist_decls_restructures_but_preserves_output(self):
        app = get_app("pathfinder")
        code, run, ref = run_translated(
            app, Dialect.CUDA, Dialect.OMP, TranspileOptions(hoist_decls=True)
        )
        assert run.stdout == ref.stdout
        # declarations come before the first assignment
        lines = [ln.strip() for ln in code.splitlines() if ln.strip()]
        first_assign = next(
            i for i, ln in enumerate(lines) if ln.startswith("cols =")
        )
        decl = next(i for i, ln in enumerate(lines) if ln == "int cols;")
        assert decl < first_assign

    def test_kernel_naming_and_block_size(self):
        app = get_app("layout")
        tr = Transpiler(TranspileOptions(
            kernel_name_template="kernel_{i}", block_size=128
        ))
        code = tr.translate(app.omp_source, Dialect.OMP, Dialect.CUDA)
        assert "__global__ void kernel_0" in code
        assert ", 128>>>" in code


class TestErrors:
    def test_same_dialect_rejected(self):
        with pytest.raises(ValueError):
            Transpiler().translate("int main(){}", Dialect.CUDA, Dialect.CUDA)

    def test_unparsable_source_rejected(self):
        with pytest.raises(TranspileError):
            Transpiler().translate("int main() { int x = ; }",
                                   Dialect.OMP, Dialect.CUDA)

    def test_non_canonical_loop_rejected(self):
        src = (
            "int main() { int n = 4; int i = 0;\n"
            "float* a = (float*)malloc(n * sizeof(float));\n"
            "#pragma omp target teams distribute parallel for map(tofrom: a[0:n])\n"
            "for (i = 0; i < n; i += 2) { a[i] = 1.0f; }\n"
            "return 0; }"
        )
        with pytest.raises(TranspileError):
            Transpiler().translate(src, Dialect.OMP, Dialect.CUDA)


#: The offloaded loop's header -> whether OpenMP -> CUDA translation accepts
#: it.  Only ``for (int v = start; v < bound; v++ | ++v | v += 1)`` becomes a
#: kernel; every other form is refused rather than mistranslated.
LOOP_FORMS = {
    "i++": ("int i = 0; i < n; i++", True),
    "++i": ("int i = 0; i < n; ++i", True),
    "i += 1": ("int i = 0; i < n; i += 1", True),
    "i = i + 1": ("int i = 0; i < n; i = i + 1", False),
    "i += 2": ("int i = 0; i < n; i += 2", False),
    "i--": ("int i = 0; i < n; i--", False),
    "i <= n": ("int i = 0; i <= n; i++", False),
    "i > 0": ("int i = 0; i > 0; i++", False),
    "assignment initialiser": ("i = 0; i < n; i++", False),
}


@pytest.mark.parametrize("form", list(LOOP_FORMS))
def test_offloaded_loop_forms(form):
    header, accepted = LOOP_FORMS[form]
    src = (
        "int main() { int n = 8; int i;\n"
        "float* a = (float*)malloc(n * sizeof(float));\n"
        "#pragma omp target teams distribute parallel for map(tofrom: a[0:n])\n"
        f"for ({header}) {{ a[i] = 2.0f; }}\n"
        "return 0; }"
    )
    tr = Transpiler()
    if accepted:
        assert "__global__" in tr.translate(src, Dialect.OMP, Dialect.CUDA)
    else:
        with pytest.raises(TranspileError, match="not canonical"):
            tr.translate(src, Dialect.OMP, Dialect.CUDA)


# -- shapes the pin's corpus lacks ----------------------------------------------
#
# Reduction updates, OpenMP atomics and CUDA atomics are rewritten wherever
# they sit in the offloaded body: in an arm without braces or in an
# ``else if`` arm as well as in a braced block.  Launches and ``target``
# loops are translated inside a host ``if`` arm; a reduction's result can be
# read anywhere on the host, beside other one-cell host buffers; and one
# kernel may accumulate into several one-cell buffers.

_REDUCTION_HEAD = """int main() {
  int n = 16;
  float* a = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) {
    a[i] = (float)((i * 5) % 7 - 2);
  }
  float s = 0.0f;
  #pragma omp target teams distribute parallel for map(to: a[0:n]) reduction(+: s)
  for (int i = 0; i < n; i++) {
"""

_REDUCTION_TAIL = """  }
  printf("%f\\n", s);
  free(a);
  return 0;
}
"""


def _sum_source(printed, before="", after="", freed=""):
    """A CUDA sum of eight 1.5s into the one-cell buffer ``d_res``, copied
    back into ``h_res``.  ``printed`` is printf's argument list; ``before``
    runs ahead of the device phase, ``after`` follows the copy-back and
    ``freed`` frees what ``before`` allocates."""
    return f"""\
__global__ void sum(float* a, float* res, int n) {{
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {{
    atomicAdd(&res[0], a[i]);
  }}
}}

int main() {{
  int n = 8;
  float* a = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) {{
    a[i] = 1.5f;
  }}
{before}  float* h_res = (float*)malloc(sizeof(float));
  float* d_a;
  float* d_res;
  cudaMalloc(&d_a, n * sizeof(float));
  cudaMalloc(&d_res, sizeof(float));
  cudaMemcpy(d_a, a, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemset(d_res, 0, sizeof(float));
  sum<<<1, 32>>>(d_a, d_res, n);
  cudaMemcpy(h_res, d_res, sizeof(float), cudaMemcpyDeviceToHost);
{after}  printf({printed});
  cudaFree(d_a);
  cudaFree(d_res);
  free(a);
{freed}  free(h_res);
  return 0;
}}
"""


ARM_SOURCES = {
    "reduction in an unbraced arm": (
        Dialect.OMP,
        _REDUCTION_HEAD + "    if (a[i] > 0.0f) s += a[i];\n" + _REDUCTION_TAIL,
    ),
    "reduction in an else-if arm": (
        Dialect.OMP,
        _REDUCTION_HEAD + (
            "    if (a[i] > 2.0f) {\n"
            "      s += a[i];\n"
            "    } else if (a[i] > 0.0f) {\n"
            "      s += 3.0f * a[i];\n"
            "    }\n"
        ) + _REDUCTION_TAIL,
    ),
    "atomicAdd in an unbraced arm": (Dialect.CUDA, """\
__global__ void hist(int* a, int* h, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    if (a[i] > 1) atomicAdd(&h[a[i]], 1);
  }
}

int main() {
  int n = 64;
  int nb = 8;
  int* a = (int*)malloc(n * sizeof(int));
  int* h = (int*)malloc(nb * sizeof(int));
  for (int i = 0; i < n; i++) {
    a[i] = (i * 3) % nb;
  }
  int* d_a;
  int* d_h;
  cudaMalloc(&d_a, n * sizeof(int));
  cudaMalloc(&d_h, nb * sizeof(int));
  cudaMemcpy(d_a, a, n * sizeof(int), cudaMemcpyHostToDevice);
  cudaMemset(d_h, 0, nb * sizeof(int));
  hist<<<(n + 31) / 32, 32>>>(d_a, d_h, n);
  cudaMemcpy(h, d_h, nb * sizeof(int), cudaMemcpyDeviceToHost);
  for (int b = 0; b < nb; b++) {
    printf("%d ", h[b]);
  }
  printf("\\n");
  cudaFree(d_a);
  cudaFree(d_h);
  free(a);
  free(h);
  return 0;
}
"""),
    "launch in an if arm": (Dialect.CUDA, """\
__global__ void fill(float* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    a[i] = 2.0f;
  }
}

int main() {
  int n = 8;
  float* h = (float*)malloc(n * sizeof(float));
  float* d;
  cudaMalloc(&d, n * sizeof(float));
  if (n > 4) {
    fill<<<1, 32>>>(d, n);
  }
  cudaMemcpy(h, d, n * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%.1f\\n", h[n - 1]);
  cudaFree(d);
  free(h);
  return 0;
}
"""),
    "target loop in an if arm": (Dialect.OMP, """\
int main() {
  int n = 8;
  float* a = (float*)malloc(n * sizeof(float));
  #pragma omp target teams distribute parallel for map(from: a[0:n])
  for (int i = 0; i < n; i++) {
    a[i] = 1.0f;
  }
  if (n > 4) {
    #pragma omp target teams distribute parallel for map(tofrom: a[0:n])
    for (int i = 0; i < n; i++) {
      a[i] = a[i] * 2.0f;
    }
  }
  printf("%.1f\\n", a[n - 1]);
  free(a);
  return 0;
}
"""),
    "reduction result read into a declaration": (Dialect.CUDA, _sum_source(
        '"%.1f\\n", total', after="  float total = h_res[0];\n",
    )),
    "one-cell host buffer beside a reduction": (Dialect.CUDA, _sum_source(
        '"%.1f %d\\n", h_res[0], count[0]',
        before="  int* count = (int*)malloc(sizeof(int));\n  count[0] = n;\n",
        freed="  free(count);\n",
    )),
    "two accumulators in one kernel": (Dialect.CUDA, """\
__global__ void moments(float* a, float* s, float* q, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    atomicAdd(&s[0], a[i]);
    atomicAdd(&q[0], a[i] * a[i]);
  }
}

int main() {
  int n = 8;
  float* a = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++) {
    a[i] = (float)(i + 1);
  }
  float* h_s = (float*)malloc(sizeof(float));
  float* h_q = (float*)malloc(sizeof(float));
  float* d_a;
  float* d_s;
  float* d_q;
  cudaMalloc(&d_a, n * sizeof(float));
  cudaMalloc(&d_s, sizeof(float));
  cudaMalloc(&d_q, sizeof(float));
  cudaMemcpy(d_a, a, n * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemset(d_s, 0, sizeof(float));
  cudaMemset(d_q, 0, sizeof(float));
  moments<<<1, 32>>>(d_a, d_s, d_q, n);
  cudaMemcpy(h_s, d_s, sizeof(float), cudaMemcpyDeviceToHost);
  cudaMemcpy(h_q, d_q, sizeof(float), cudaMemcpyDeviceToHost);
  printf("%.1f %.1f\\n", h_s[0], h_q[0]);
  cudaFree(d_a);
  cudaFree(d_s);
  cudaFree(d_q);
  free(a);
  free(h_s);
  free(h_q);
  return 0;
}
"""),
}


def _stdout(code, dialect):
    cr = compiler_for(dialect).compile(code)
    assert cr.ok, cr.stderr
    run = Executor().run(cr.program, dialect, [])
    assert run.ok, run.stderr
    return run.stdout


@pytest.mark.parametrize("use_data_region", [True, False])
@pytest.mark.parametrize("case,privatize", [(case, False) for case in ARM_SOURCES] + [
    ("atomicAdd in an unbraced arm", True),
])
def test_updates_in_every_arm_are_translated(case, privatize, use_data_region):
    src_d, src = ARM_SOURCES[case]
    tgt_d = Dialect.CUDA if src_d is Dialect.OMP else Dialect.OMP
    tr = Transpiler(TranspileOptions(
        privatize_atomics=privatize, use_data_region=use_data_region,
    ))
    code = tr.translate(src, src_d, tgt_d)
    assert _stdout(code, tgt_d) == _stdout(src, src_d)


_NESTED_LAUNCHES = """\
__global__ void bump(float* a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    a[i] = a[i] + 1.0f;
  }
}

int main() {
  int n = 8;
  float* a = (float*)malloc(n * sizeof(float));
  float* d_a;
  cudaMalloc(&d_a, n * sizeof(float));
  cudaMemset(d_a, 0, n * sizeof(float));
  for (int r = 0; r < 2; r++) {
    for (int s = 0; s < 3; s++) {
      if (s != r) {
        bump<<<1, 32>>>(d_a, n);
      }
    }
  }
  cudaMemcpy(a, d_a, n * sizeof(float), cudaMemcpyDeviceToHost);
  printf("%.1f\\n", a[0]);
  cudaFree(d_a);
  free(a);
  return 0;
}
"""


def test_each_kernel_is_classified_once(monkeypatch):
    """A launch nested in loops is analysed once, not once per enclosing
    statement."""
    classified = []
    real = transpiler.pointer_access_kinds

    def counting(node):
        classified.append(node)
        return real(node)

    monkeypatch.setattr(transpiler, "pointer_access_kinds", counting)
    code = Transpiler().translate(_NESTED_LAUNCHES, Dialect.CUDA, Dialect.OMP)
    assert len(classified) == 1
    assert _stdout(code, Dialect.OMP) == _stdout(_NESTED_LAUNCHES, Dialect.CUDA)
