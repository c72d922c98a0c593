"""Tests for the rule-based CUDA <-> OpenMP transpiler."""

from __future__ import annotations

import pytest

from repro.hecbench import all_apps, get_app
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
        atomic_code, run_a, _ = run_translated(
            app, Dialect.CUDA, Dialect.OMP,
            TranspileOptions(reduction_style="atomic"),
        )
        red_code, run_r, _ = run_translated(
            app, Dialect.CUDA, Dialect.OMP,
            TranspileOptions(reduction_style="reduction"),
        )
        assert run_a.stdout == run_r.stdout
        assert "reduction(+:" in red_code
        assert "#pragma omp atomic" in atomic_code

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
