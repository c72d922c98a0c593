"""Deterministic app generation, naming, suite specs and the self-check.

The unit of generation is a :class:`SynthSpec` ``(family, difficulty,
seed)``.  Its :attr:`~SynthSpec.name` — ``synth-<family>-d<difficulty>-
s<seed>`` — encodes the complete tuple, so any consumer holding only the
*name* (a resumed session, a cache entry, a campaign manifest) can rebuild
the identical :class:`~repro.hecbench.spec.AppSpec` via
:func:`app_from_name`.  Determinism is byte-level: the same spec renders
byte-identical sources in any process (the generator tests pin this).

A :class:`SynthSuiteSpec` names a whole generated suite —
``synth:stencil,reduction:seeds=3:difficulty=2`` — and is what the suite
registry's ``synth:`` resolver, ``--suite`` CLI flags and campaign specs
parse.  :func:`differential_check` is the correctness oracle: compile both
dialects, execute both through the interpreter, require clean exits and
byte-identical stdout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import UnknownApplicationError, UnknownSuiteError
from repro.hecbench.spec import AppSpec
from repro.minilang.source import Dialect
from repro.synth.families import FAMILIES, get_family
from repro.toolchain import Executor, compiler_for
from repro.utils.rng import RngStream

SYNTH_NAME_RE = re.compile(r"^synth-([a-z]+)-d(\d+)-s(\d+)$")

DEFAULT_DIFFICULTY = 1


@dataclass(frozen=True)
class SynthSpec:
    """One generated app's identity: ``(family, difficulty, seed)``."""

    family: str
    difficulty: int = DEFAULT_DIFFICULTY
    seed: int = 0

    @property
    def name(self) -> str:
        return f"synth-{self.family}-d{self.difficulty}-s{self.seed}"

    @classmethod
    def from_name(cls, name: str) -> "SynthSpec":
        m = SYNTH_NAME_RE.match(name)
        if m is None:
            raise UnknownApplicationError(
                f"{name!r} is not a synthetic app name "
                f"(expected synth-<family>-d<difficulty>-s<seed>)"
            )
        family, difficulty, seed = m.group(1), int(m.group(2)), int(m.group(3))
        if family not in FAMILIES:
            known = ", ".join(FAMILIES)
            raise UnknownApplicationError(
                f"unknown kernel family {family!r} in app name {name!r}; "
                f"known families: {known}"
            )
        if difficulty < 1:
            raise UnknownApplicationError(
                f"app name {name!r} has difficulty {difficulty}; "
                f"difficulty must be >= 1"
            )
        return cls(family=family, difficulty=difficulty, seed=seed)


def is_synth_name(name: str) -> bool:
    """Does ``name`` follow the synthetic-app naming grammar?"""
    return SYNTH_NAME_RE.match(name) is not None


def _synthesized_scales(spec: SynthSpec) -> Tuple[float, float]:
    """Deterministic (work_scale, launch_scale) for the perf model.

    Reduced synthetic workloads stand in for nominal runs the same way the
    Table IV apps do: ``work_scale`` (total-work ratio) is drawn
    log-uniformly across the range the real suite spans, and
    ``launch_scale`` (event-count ratio) is drawn lower, as repeat counts
    shrink less than problem sizes.  Both grow with difficulty.
    """
    rng = RngStream(spec.seed, "synth", spec.family,
                    f"d{spec.difficulty}", "scales")
    work = 10.0 ** rng.uniform(3.0, 5.5) * spec.difficulty
    launch = 10.0 ** rng.uniform(0.5, 3.0) * spec.difficulty
    return round(work, 1), round(launch, 3)


def generate_app(spec: SynthSpec) -> AppSpec:
    """Expand a spec into a full :class:`AppSpec` the pipeline can run."""
    family = get_family(spec.family)
    pair = family.generate(spec.difficulty, spec.seed)
    work_scale, launch_scale = _synthesized_scales(spec)
    return AppSpec(
        name=spec.name,
        category=family.category,
        paper_args=[],
        args=[],
        cuda_source=pair.cuda_source,
        omp_source=pair.omp_source,
        work_scale=work_scale,
        launch_scale=launch_scale,
        notes=f"generated: {pair.notes}",
    )


def app_from_name(name: str) -> AppSpec:
    """Rebuild a generated app from its name alone (names encode specs)."""
    return generate_app(SynthSpec.from_name(name))


# ---------------------------------------------------------------------
# Suite specs: "synth:stencil,reduction:seeds=3:difficulty=2"
# ---------------------------------------------------------------------

SUITE_PREFIX = "synth:"


@dataclass(frozen=True)
class SynthSuiteSpec:
    """A whole generated suite: families x seed count at one difficulty."""

    families: Tuple[str, ...]
    seeds: int = 1
    difficulty: int = DEFAULT_DIFFICULTY

    def __post_init__(self) -> None:
        if not self.families:
            raise UnknownSuiteError("synth suite spec names no families")
        for fam in self.families:
            if fam not in FAMILIES:
                known = ", ".join(FAMILIES)
                raise UnknownSuiteError(
                    f"unknown kernel family {fam!r} in synth suite spec; "
                    f"known families: {known}"
                )
        if self.seeds < 1:
            raise UnknownSuiteError(
                f"synth suite spec needs seeds >= 1, got {self.seeds}"
            )
        if self.difficulty < 1:
            raise UnknownSuiteError(
                f"synth suite spec needs difficulty >= 1, "
                f"got {self.difficulty}"
            )

    @property
    def spec_string(self) -> str:
        """Canonical round-trippable form (a valid ``--suite`` value)."""
        return (
            f"synth:{','.join(self.families)}:seeds={self.seeds}"
            f":difficulty={self.difficulty}"
        )

    def specs(self) -> List[SynthSpec]:
        """Every (family, seed) cell, family-major."""
        return [
            SynthSpec(family=fam, difficulty=self.difficulty, seed=s)
            for fam in self.families
            for s in range(self.seeds)
        ]

    def apps(self) -> List[AppSpec]:
        return [generate_app(spec) for spec in self.specs()]


def parse_suite_spec(text: str) -> SynthSuiteSpec:
    """Parse ``synth:<families>[:seeds=N][:difficulty=D]``.

    ``<families>`` is a comma-separated list of family identifiers (or
    ``all``); ``seeds`` counts generation seeds ``0..N-1`` per family.
    """
    if not text.startswith(SUITE_PREFIX):
        raise UnknownSuiteError(
            f"not a synth suite spec: {text!r} (expected "
            f"'synth:<families>[:seeds=N][:difficulty=D]')"
        )
    parts = text[len(SUITE_PREFIX):].split(":")
    family_part, options = parts[0], parts[1:]
    if family_part == "all":
        families: Tuple[str, ...] = tuple(FAMILIES)
    else:
        seen: Dict[str, None] = {}
        for fam in family_part.split(","):
            fam = fam.strip()
            if fam:
                seen.setdefault(fam)
        families = tuple(seen)
    kwargs: Dict[str, int] = {}
    for opt in options:
        key, sep, value = opt.partition("=")
        if not sep or key not in ("seeds", "difficulty"):
            raise UnknownSuiteError(
                f"bad synth suite option {opt!r} in {text!r} "
                f"(expected seeds=N or difficulty=D)"
            )
        try:
            kwargs[key] = int(value)
        except ValueError:
            raise UnknownSuiteError(
                f"synth suite option {key!r} needs an integer, got {value!r}"
            ) from None
    return SynthSuiteSpec(families=families, **kwargs)


def generate_suite_apps(
    families: Sequence[str], seeds: int = 1,
    difficulty: int = DEFAULT_DIFFICULTY,
) -> List[AppSpec]:
    """Generate a whole suite's apps (family-major, seeds 0..N-1)."""
    return SynthSuiteSpec(
        families=tuple(families), seeds=seeds, difficulty=difficulty
    ).apps()


def suite_from_spec(text: str):
    """Resolve a ``synth:...`` spec string into a registry ``Suite``."""
    from repro.hecbench.suite import Suite

    spec = parse_suite_spec(text)
    return Suite(
        name=spec.spec_string,
        apps=tuple(spec.apps()),
        description=(
            f"generated suite: {len(spec.families)} family(ies) x "
            f"{spec.seeds} seed(s), difficulty {spec.difficulty}"
        ),
    )


# ---------------------------------------------------------------------
# Differential self-check
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class CheckReport:
    """Outcome of one app's differential CUDA-vs-OMP self-check."""

    app_name: str
    ok: bool
    stage: str  # "ok" | "compile-<dialect>" | "run-<dialect>" | "output-mismatch"
    detail: str = ""

    def __str__(self) -> str:
        status = "pass" if self.ok else f"FAIL[{self.stage}]"
        return f"{self.app_name}: {status}"


def differential_check(
    app: AppSpec, executor: Optional[Executor] = None
) -> CheckReport:
    """Compile + execute both dialects and require byte-identical stdout.

    This is the KernelBench-style programmatic oracle that gates a
    generated pair's entry into a suite: a pair that fails here is a
    generator bug, never a benchmark.
    """
    executor = executor or Executor()
    outputs: Dict[Dialect, str] = {}
    for dialect in (Dialect.CUDA, Dialect.OMP):
        compiled = compiler_for(dialect).compile(app.source(dialect))
        if not compiled.ok:
            return CheckReport(
                app_name=app.name, ok=False,
                stage=f"compile-{dialect.value}", detail=compiled.stderr,
            )
        run = executor.run(
            compiled.program, dialect, app.args,
            work_scale=app.work_scale, launch_scale=app.launch_scale,
        )
        if not run.ok:
            return CheckReport(
                app_name=app.name, ok=False,
                stage=f"run-{dialect.value}", detail=run.stderr,
            )
        if not run.stdout.strip():
            return CheckReport(
                app_name=app.name, ok=False,
                stage=f"run-{dialect.value}",
                detail="program printed no verification output",
            )
        outputs[dialect] = run.stdout
    if outputs[Dialect.CUDA] != outputs[Dialect.OMP]:
        return CheckReport(
            app_name=app.name, ok=False, stage="output-mismatch",
            detail=(
                f"CUDA stdout:\n{outputs[Dialect.CUDA]}\n"
                f"OpenMP stdout:\n{outputs[Dialect.OMP]}"
            ),
        )
    return CheckReport(app_name=app.name, ok=True, stage="ok")


def check_apps(
    apps: Sequence[AppSpec], executor: Optional[Executor] = None
) -> List[CheckReport]:
    """Differentially check a batch of apps with one shared executor."""
    executor = executor or Executor()
    return [differential_check(app, executor) for app in apps]
