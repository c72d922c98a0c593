"""Per-model behaviour profiles and the paper's 80 scenario plans.

Two layers:

* **Model styles** — each of the four Table V models carries its own
  :class:`TranspileOptions` (naming, block size, formatting).  This is what
  spreads the Sim-T / Sim-L similarity metrics across models the way the
  paper's Tables VI/VII show.
* **Cell plans** — for the paper profile, each (model, direction, app) cell
  carries a :class:`CellPlan` describing the *behaviour class* observed in
  Tables VI/VII: success with k self-corrections, or one of the N/A modes,
  plus style overrides that decide the runtime-Ratio shape (literal staging
  vs data regions vs loop hoisting vs perf faults).  Plans pin which faults
  are injected and when repairs land; every reported number still emerges
  from compiling/running the resulting code.

For unplanned scenarios (new apps, new seeds) the **stochastic profile**
draws outcomes from per-model probabilities, so the machinery is usable far
beyond the 80 paper cells.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.llm.faults import faults_for
from repro.llm.transpiler import TranspileOptions
from repro.minilang.codegen import CodegenStyle
from repro.minilang.source import Dialect
from repro.utils.rng import RngStream

#: Direction keys used throughout the experiment layer.
OMP2CUDA = "omp2cuda"
CUDA2OMP = "cuda2omp"


def direction_key(source: Dialect, target: Dialect) -> str:
    if source is Dialect.OMP and target is Dialect.CUDA:
        return OMP2CUDA
    if source is Dialect.CUDA and target is Dialect.OMP:
        return CUDA2OMP
    raise ValueError(f"unsupported direction {source} -> {target}")


@dataclass(frozen=True)
class CellPlan:
    """Planned behaviour for one (model, direction, app) scenario.

    ``outcome``:
      * ``ok``          — eventually compiles, runs and verifies;
      * ``na-compile``  — never produces compilable code (unfixable);
      * ``na-runtime``  — never produces code that executes cleanly;
      * ``na-output``   — runs but prints wrong results (caught by output
        comparison, like the paper's manually-detected mismatches).
    """

    outcome: str = "ok"
    #: Number of self-correction rounds before success (``ok`` only).
    self_corrections: int = 0
    #: Explicit fault sequence; auto-selected per dialect when empty.
    fault_ids: Tuple[str, ...] = ()
    #: TranspileOptions overrides for this cell (style / data-region / hoist).
    style: Tuple[Tuple[str, object], ...] = ()
    #: A perf-stage fault applied to every generation (never corrected).
    perf_fault: Optional[str] = None

    def options_for(self, base: TranspileOptions) -> TranspileOptions:
        if not self.style:
            return base
        return replace(base, **dict(self.style))


#: Direction-dependent style adjustments.  Translating OpenMP loops into
#: CUDA invites more restructuring (kernel extraction, staging) than the
#: reverse, and the paper's Table VI similarities are correspondingly lower
#: than Table VII's for every model — modelled here as declaration hoisting
#: kicking in for the conservative models too when they synthesize CUDA.
DIRECTION_STYLE_TWEAKS: Dict[Tuple[str, str], Tuple[Tuple[str, object], ...]] = {
    ("gpt4", OMP2CUDA): (("hoist_decls", True),),
    ("codestral", OMP2CUDA): (("hoist_decls", True), ("loop_var", "tid")),
}


#: Base style per model: four distinct "voices".
MODEL_STYLES: Dict[str, TranspileOptions] = {
    "gpt4": TranspileOptions(
        device_prefix="d_",
        kernel_name_template="{stem}_kernel",
        block_size=256,
        loop_var="idx",
        codegen=CodegenStyle(indent="  ", brace_same_line=True, pointer_left=True),
    ),
    "codestral": TranspileOptions(
        device_prefix="d_",
        kernel_name_template="{stem}_gpu",
        block_size=256,
        loop_var="i",
        codegen=CodegenStyle(indent="    ", brace_same_line=True, pointer_left=True),
    ),
    "wizardcoder": TranspileOptions(
        device_prefix="dev_",
        kernel_name_template="kernel_{i}",
        block_size=128,
        loop_var="tid",
        rename_scheme="suffix",
        hoist_decls=True,
        codegen=CodegenStyle(indent="  ", brace_same_line=True, pointer_left=False),
    ),
    "deepseek": TranspileOptions(
        device_prefix="gpu_",
        kernel_name_template="k_{stem}",
        block_size=512,
        loop_var="gid",
        rename_scheme="verbose",
        hoist_decls=True,
        codegen=CodegenStyle(indent="    ", brace_same_line=False, pointer_left=True),
    ),
}

# ---------------------------------------------------------------------------
# Paper plans: Tables VIa/VIb (OpenMP -> CUDA)
# ---------------------------------------------------------------------------

_L = (("use_data_region", False),)       # literal staging (slow translations)
_H = (("hoist_invariant_repeat", True),)  # idempotent-repeat hoisting

_PAPER: Dict[Tuple[str, str, str], CellPlan] = {}


def _plan(model: str, direction: str, app: str, **kw) -> None:
    _PAPER[(model, direction, app)] = CellPlan(**kw)


# --- Table VIa: GPT-4, OMP->CUDA ------------------------------------------
_plan("gpt4", OMP2CUDA, "matrix-rotate", self_corrections=1,
      fault_ids=("undeclared-index-cuda",))
_plan("gpt4", OMP2CUDA, "jacobi")
_plan("gpt4", OMP2CUDA, "layout")
_plan("gpt4", OMP2CUDA, "atomicCost")
_plan("gpt4", OMP2CUDA, "dense-embedding", outcome="na-compile",
      fault_ids=("missing-launch-arg",))
_plan("gpt4", OMP2CUDA, "pathfinder")
_plan("gpt4", OMP2CUDA, "bsearch", outcome="na-output",
      fault_ids=("missing-copyback-cuda",))
_plan("gpt4", OMP2CUDA, "entropy", self_corrections=1,
      fault_ids=("oob-guard-cuda",))
_plan("gpt4", OMP2CUDA, "colorwheel", self_corrections=3,
      fault_ids=("missing-device-decl", "kernel-called-directly",
                 "oob-guard-cuda"))
_plan("gpt4", OMP2CUDA, "randomAccess", outcome="na-runtime",
      fault_ids=("missing-cudamalloc",))

# --- Table VIa: Codestral, OMP->CUDA --------------------------------------
_plan("codestral", OMP2CUDA, "matrix-rotate")
_plan("codestral", OMP2CUDA, "jacobi")
_plan("codestral", OMP2CUDA, "layout")
_plan("codestral", OMP2CUDA, "atomicCost")
_plan("codestral", OMP2CUDA, "dense-embedding", self_corrections=1,
      fault_ids=("missing-semicolon",))
_plan("codestral", OMP2CUDA, "pathfinder", self_corrections=1,
      fault_ids=("undeclared-index-cuda",))
_plan("codestral", OMP2CUDA, "bsearch")
_plan("codestral", OMP2CUDA, "entropy", self_corrections=2,
      fault_ids=("missing-semicolon", "oob-guard-cuda"))
_plan("codestral", OMP2CUDA, "colorwheel", outcome="na-output",
      fault_ids=("missing-copyback-cuda",))
_plan("codestral", OMP2CUDA, "randomAccess", self_corrections=2,
      fault_ids=("missing-launch-arg", "missing-semicolon"))

# --- Table VIb: Wizard Coder, OMP->CUDA ------------------------------------
_plan("wizardcoder", OMP2CUDA, "matrix-rotate")
_plan("wizardcoder", OMP2CUDA, "jacobi")
_plan("wizardcoder", OMP2CUDA, "layout")
_plan("wizardcoder", OMP2CUDA, "atomicCost", perf_fault="tiny-block-cuda")
_plan("wizardcoder", OMP2CUDA, "dense-embedding")
_plan("wizardcoder", OMP2CUDA, "pathfinder")
_plan("wizardcoder", OMP2CUDA, "bsearch", self_corrections=1,
      fault_ids=("kernel-called-directly",))
_plan("wizardcoder", OMP2CUDA, "entropy")
_plan("wizardcoder", OMP2CUDA, "colorwheel", self_corrections=2,
      fault_ids=("missing-semicolon", "missing-launch-arg"))
_plan("wizardcoder", OMP2CUDA, "randomAccess", outcome="na-compile",
      fault_ids=("undeclared-index-cuda",))

# --- Table VIb: DeepSeek Coder v2, OMP->CUDA --------------------------------
_plan("deepseek", OMP2CUDA, "matrix-rotate")
_plan("deepseek", OMP2CUDA, "jacobi", self_corrections=1,
      fault_ids=("missing-launch-arg",))
_plan("deepseek", OMP2CUDA, "layout")
_plan("deepseek", OMP2CUDA, "atomicCost", self_corrections=1,
      fault_ids=("missing-semicolon",), perf_fault="tiny-block-cuda")
_plan("deepseek", OMP2CUDA, "dense-embedding", outcome="na-output",
      fault_ids=("missing-copyback-cuda",))
_plan("deepseek", OMP2CUDA, "pathfinder")
_plan("deepseek", OMP2CUDA, "bsearch")
_plan("deepseek", OMP2CUDA, "entropy")
_plan("deepseek", OMP2CUDA, "colorwheel", outcome="na-compile",
      fault_ids=("kernel-called-directly",))
_plan("deepseek", OMP2CUDA, "randomAccess", outcome="na-runtime",
      fault_ids=("missing-cudamalloc",))

# ---------------------------------------------------------------------------
# Paper plans: Tables VIIa/VIIb (CUDA -> OpenMP)
# ---------------------------------------------------------------------------

# --- Table VIIa: GPT-4, CUDA->OMP -------------------------------------------
_plan("gpt4", CUDA2OMP, "matrix-rotate")
_plan("gpt4", CUDA2OMP, "jacobi", style=_L)          # ratio ~1.34: literal maps
_plan("gpt4", CUDA2OMP, "layout")
_plan("gpt4", CUDA2OMP, "atomicCost", style=_L)      # ratio 0.21: slower
_plan("gpt4", CUDA2OMP, "dense-embedding", outcome="na-output",
      fault_ids=("missing-copyback-omp",))
_plan("gpt4", CUDA2OMP, "pathfinder", self_corrections=1,
      fault_ids=("oob-guard-omp",))
_plan("gpt4", CUDA2OMP, "bsearch", style=_H)         # ratio 3.11: fast
_plan("gpt4", CUDA2OMP, "entropy", self_corrections=1,
      fault_ids=("cuda-api-in-omp",))
_plan("gpt4", CUDA2OMP, "colorwheel", style=_H)
_plan("gpt4", CUDA2OMP, "randomAccess")

# --- Table VIIa: Codestral, CUDA->OMP ---------------------------------------
_plan("codestral", CUDA2OMP, "matrix-rotate")
_plan("codestral", CUDA2OMP, "jacobi", outcome="na-compile",
      fault_ids=("bad-directive-spelling",))
_plan("codestral", CUDA2OMP, "layout", self_corrections=1,
      fault_ids=("cuda-api-in-omp",))
_plan("codestral", CUDA2OMP, "atomicCost")
_plan("codestral", CUDA2OMP, "dense-embedding", outcome="na-output",
      fault_ids=("flipped-operator",))
_plan("codestral", CUDA2OMP, "pathfinder", self_corrections=34,
      fault_ids=("undeclared-index-omp", "cuda-api-in-omp",
                 "missing-semicolon", "oob-guard-omp"))
_plan("codestral", CUDA2OMP, "bsearch", perf_fault="weak-parallelism-omp",
      style=_H)  # the §V-D 20x single-thread anecdote
_plan("codestral", CUDA2OMP, "entropy")
_plan("codestral", CUDA2OMP, "colorwheel", style=_H)
_plan("codestral", CUDA2OMP, "randomAccess")

# --- Table VIIb: Wizard Coder, CUDA->OMP ------------------------------------
_plan("wizardcoder", CUDA2OMP, "matrix-rotate", self_corrections=2,
      fault_ids=("undeclared-index-omp", "oob-guard-omp"))
_plan("wizardcoder", CUDA2OMP, "jacobi", self_corrections=4,
      fault_ids=("bad-directive-spelling", "cuda-api-in-omp",
                 "missing-semicolon", "oob-guard-omp"))
_plan("wizardcoder", CUDA2OMP, "layout")
_plan("wizardcoder", CUDA2OMP, "atomicCost", self_corrections=1,
      fault_ids=("atomic-left-in-omp",))
_plan("wizardcoder", CUDA2OMP, "dense-embedding", style=_L)  # ratio ~1: literal
_plan("wizardcoder", CUDA2OMP, "pathfinder")
_plan("wizardcoder", CUDA2OMP, "bsearch", self_corrections=1,
      fault_ids=("undeclared-index-omp",), style=_H)
_plan("wizardcoder", CUDA2OMP, "entropy")
_plan("wizardcoder", CUDA2OMP, "colorwheel", self_corrections=1,
      fault_ids=("missing-semicolon",), style=_H)
_plan("wizardcoder", CUDA2OMP, "randomAccess", self_corrections=1,
      fault_ids=("cuda-api-in-omp",))

# --- Table VIIb: DeepSeek Coder v2, CUDA->OMP -------------------------------
_plan("deepseek", CUDA2OMP, "matrix-rotate", style=_L)  # ratio 0.107: slow
_plan("deepseek", CUDA2OMP, "jacobi", self_corrections=1,
      fault_ids=("cuda-api-in-omp",))
_plan("deepseek", CUDA2OMP, "layout", self_corrections=2,
      fault_ids=("undeclared-index-omp", "cuda-api-in-omp"))
_plan("deepseek", CUDA2OMP, "atomicCost", self_corrections=1,
      fault_ids=("atomic-left-in-omp",),
      style=(("privatize_atomics", True),))  # the §V-D 66x speedup anecdote
_plan("deepseek", CUDA2OMP, "dense-embedding", outcome="na-output",
      fault_ids=("missing-copyback-omp",))
_plan("deepseek", CUDA2OMP, "pathfinder", outcome="na-runtime",
      fault_ids=("oob-guard-omp",))
_plan("deepseek", CUDA2OMP, "bsearch", self_corrections=2,
      fault_ids=("undeclared-index-omp", "cuda-api-in-omp"), style=_H)
_plan("deepseek", CUDA2OMP, "entropy", self_corrections=1,
      fault_ids=("missing-semicolon",))
_plan("deepseek", CUDA2OMP, "colorwheel", self_corrections=2,
      fault_ids=("oob-guard-omp", "cuda-api-in-omp"), style=_H)
_plan("deepseek", CUDA2OMP, "randomAccess", outcome="na-output",
      fault_ids=("flipped-operator",))


def paper_plan(model: str, direction: str, app: str) -> Optional[CellPlan]:
    """The Tables VI/VII plan for a scenario, or None if unplanned."""
    return _PAPER.get((model, direction, app))


def all_paper_plans() -> Dict[Tuple[str, str, str], CellPlan]:
    return dict(_PAPER)


# ---------------------------------------------------------------------------
# Stochastic profile (unplanned scenarios / other seeds)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StochasticProfile:
    """Per-model outcome probabilities for unplanned scenarios."""

    p_na: float
    p_fault_per_round: float
    max_planned_corrections: int

    def draw_plan(self, rng: RngStream, target: Dialect) -> CellPlan:
        if rng.bernoulli(self.p_na):
            mode = rng.choice(["na-compile", "na-runtime", "na-output"])
            pool = {
                "na-compile": faults_for(target, "compile"),
                "na-runtime": faults_for(target, "runtime"),
                "na-output": faults_for(target, "output"),
            }[mode]
            fault = rng.choice(pool)
            return CellPlan(outcome=mode, fault_ids=(fault.fault_id,))
        corrections = 0
        fault_ids = []
        pool = faults_for(target, "compile") + faults_for(target, "runtime")
        while (
            corrections < self.max_planned_corrections
            and rng.bernoulli(self.p_fault_per_round)
        ):
            fault_ids.append(rng.choice(pool).fault_id)
            corrections += 1
        style = ()
        if rng.bernoulli(0.3):
            style = (("use_data_region", False),)
        elif rng.bernoulli(0.3):
            style = (("hoist_invariant_repeat", True),)
        return CellPlan(
            outcome="ok",
            self_corrections=corrections,
            fault_ids=tuple(fault_ids),
            style=style,
        )


STOCHASTIC_PROFILES: Dict[str, StochasticProfile] = {
    "gpt4": StochasticProfile(p_na=0.2, p_fault_per_round=0.3,
                              max_planned_corrections=4),
    "codestral": StochasticProfile(p_na=0.15, p_fault_per_round=0.4,
                                   max_planned_corrections=6),
    "wizardcoder": StochasticProfile(p_na=0.1, p_fault_per_round=0.35,
                                     max_planned_corrections=4),
    "deepseek": StochasticProfile(p_na=0.3, p_fault_per_round=0.45,
                                  max_planned_corrections=4),
}
