"""Declarative experiment campaigns: ablation sweeps over the §V grid.

A :class:`CampaignSpec` names a grid subset (models x directions x apps)
and a list of :class:`Variant`\\ s; each variant overrides
:class:`~repro.pipeline.PipelineConfig` fields (the ablation switches),
picks a profile, and lists one seed per stochastic replicate.  Running a
campaign expands every (variant, seed) cell into one
:class:`~repro.experiments.parallel.ParallelExperimentRunner` grid, all
sharing a single :class:`~repro.pipeline.BaselinePreparer` (each HeCBench
baseline builds once campaign-wide) and a single content-addressed
:class:`~repro.experiments.cache.ResultCache` (identical cells — same
scenario, profile, seed and config fingerprint — execute once and are
replayed everywhere else, including on re-runs of the campaign).

On disk a campaign is a directory::

    <root>/<campaign-name>/
        manifest.json            # spec + per-cell status (rewritten per cell)
        cache.db                 # shared ResultCache entries (sqlite)
        sessions/<variant>-seed<seed>.jsonl   # one RunSession per cell

Both levels of resume compose: killing a campaign midway loses at most the
in-flight scenarios — finished cells are replayed from their sessions, the
interrupted cell resumes scenario-by-scenario from its session, and any
cell sharing config with a finished one replays from the cache.

Built-in presets (:data:`PRESETS`) reproduce the paper's ablations:

* ``knowledge-ablation``      — drop the §III-B language-knowledge document;
* ``self-correction-ablation`` — disable the §III-D feedback loops;
* ``max-corrections-sweep``   — sweep the §III-D iteration cap around the
  paper's worst successful cell (34 corrections, Codestral/pathfinder);
* ``stochastic-replicates``   — multi-seed stochastic replicates reported
  as mean ± stddev (dispersion, not single numbers).
"""

from __future__ import annotations

import copy
import json
import os
import re
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.experiments.cache import ResultCache
from repro.experiments.store import SqliteCacheStore
from repro.metrics.runtime import speedup_distribution
from repro.experiments.parallel import ParallelExperimentRunner
from repro.experiments.runner import ExperimentRunner, ScenarioResult
from repro.experiments.session import RunSession
from repro.pipeline import BaselinePreparer, PipelineConfig
from repro.telemetry import merge_trace_files, trace_path_for
from repro.toolchain import Executor

#: Bumped when the manifest shape changes incompatibly.
MANIFEST_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: Shard-spec syntax accepted by ``--shard`` / ``CampaignRunner(shard=)``.
_SHARD_RE = re.compile(r"^(\d+)/(\d+)$")

#: Partial-manifest naming for sharded runs (``manifest.shard-0-of-2.json``).
_SHARD_MANIFEST_RE = re.compile(r"^manifest\.shard-(\d+)-of-(\d+)\.json$")

#: Per-cell session naming for sharded runs.
_SHARD_SESSION_SUFFIX = ".shard-{index}-of-{count}.jsonl"
_SHARD_SESSION_RE = re.compile(r"\.shard-\d+-of-\d+\.jsonl$")

DEFAULT_SEED = 2024

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

_CONFIG_FIELDS = {f.name for f in fields(PipelineConfig)}


class CampaignError(ReproError):
    """Raised for invalid specs and unusable campaign directories."""


def parse_shard_spec(
    shard: Union[str, Tuple[int, int], None],
) -> Optional[Tuple[int, int]]:
    """Normalize a shard spec — ``"i/N"`` or ``(i, N)`` — to a tuple.

    ``None`` means unsharded.  ``i`` is the zero-based shard index,
    ``N`` the shard count; ``0 <= i < N`` is enforced here so every
    downstream consumer can trust the tuple.
    """
    if shard is None:
        return None
    if isinstance(shard, str):
        match = _SHARD_RE.match(shard.strip())
        if not match:
            raise CampaignError(
                f"shard spec {shard!r} must look like i/N (e.g. 0/2)"
            )
        index, count = int(match.group(1)), int(match.group(2))
    else:
        try:
            index, count = int(shard[0]), int(shard[1])
        except (TypeError, ValueError, IndexError):
            raise CampaignError(
                f"shard spec {shard!r} must be 'i/N' or an (i, N) pair"
            ) from None
    if count < 1:
        raise CampaignError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise CampaignError(
            f"shard index {index} out of range for {count} shard(s)"
        )
    return (index, count)


def shard_manifest_name(index: int, count: int) -> str:
    """The partial-manifest file name for one shard of an ``N``-way run."""
    return f"manifest.shard-{index}-of-{count}.json"


def shard_cell_indexes(
    cell_index: int, grid_size: int, shard: Tuple[int, int]
) -> List[int]:
    """This shard's scenario positions within one cell's enumeration.

    The campaign's work units are the flattened variant×scenario cells in
    deterministic order (cell-major, scenario-minor); shard ``(i, n)``
    takes every unit whose flat index is ``i`` modulo ``n``.  Together the
    ``n`` shards partition the flat list exactly — disjoint and complete —
    which the merge re-verifies from the recorded sessions.
    """
    index, count = shard
    return [
        j for j in range(grid_size)
        if (cell_index * grid_size + j) % count == index
    ]


def _check_name(kind: str, name: str) -> str:
    if not _NAME_RE.match(name):
        raise CampaignError(
            f"{kind} name {name!r} must match {_NAME_RE.pattern} "
            f"(it becomes a file name)"
        )
    return name


# ----------------------------------------------------------------------
@dataclass
class Variant:
    """One arm of a campaign: a config delta, a profile, and its seeds."""

    name: str
    overrides: Dict[str, Any] = field(default_factory=dict)
    profile: str = "paper"
    seeds: List[int] = field(default_factory=lambda: [DEFAULT_SEED])
    description: str = ""

    def __post_init__(self) -> None:
        _check_name("variant", self.name)
        unknown = set(self.overrides) - _CONFIG_FIELDS
        if unknown:
            raise CampaignError(
                f"variant {self.name!r} overrides unknown PipelineConfig "
                f"field(s): {', '.join(sorted(unknown))}"
            )
        if self.profile not in ("paper", "stochastic"):
            raise CampaignError(
                f"variant {self.name!r} has unknown profile {self.profile!r}"
            )
        if not self.seeds:
            raise CampaignError(f"variant {self.name!r} has no seeds")
        if len(set(self.seeds)) != len(self.seeds):
            raise CampaignError(f"variant {self.name!r} repeats a seed")

    def config(self, base: PipelineConfig) -> PipelineConfig:
        return replace(base, **self.overrides)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "overrides": dict(self.overrides),
            "profile": self.profile,
            "seeds": list(self.seeds),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Variant":
        return cls(
            name=data["name"],
            overrides=dict(data.get("overrides", {})),
            profile=data.get("profile", "paper"),
            seeds=list(data.get("seeds", [DEFAULT_SEED])),
            description=data.get("description", ""),
        )


@dataclass
class CampaignSpec:
    """A named sweep: grid subset + variants + the base configuration.

    ``suite`` names the application suite the grid enumerates — a
    registered suite (``table4``), a dynamic one
    (``synth:stencil,reduction:seeds=2``) or a merged view; ``apps``
    still filters within it.
    """

    name: str
    variants: List[Variant]
    models: Optional[List[str]] = None
    directions: Optional[List[str]] = None
    apps: Optional[List[str]] = None
    suite: str = "table4"
    description: str = ""
    base_config: PipelineConfig = field(default_factory=PipelineConfig)

    def __post_init__(self) -> None:
        _check_name("campaign", self.name)
        if not self.variants:
            raise CampaignError(f"campaign {self.name!r} has no variants")
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise CampaignError(
                f"campaign {self.name!r} repeats a variant name"
            )

    def cells(self) -> List["CampaignCell"]:
        """Every (variant, seed) execution cell, variant-major."""
        return [
            CampaignCell(variant=v, seed=s)
            for v in self.variants
            for s in v.seeds
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "models": self.models,
            "directions": self.directions,
            "apps": self.apps,
            "suite": self.suite,
            "base_config": asdict(self.base_config),
            "variants": [v.to_dict() for v in self.variants],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        base = data.get("base_config", {})
        unknown = set(base) - _CONFIG_FIELDS
        if unknown:
            raise CampaignError(
                f"campaign {data.get('name')!r} base_config has unknown "
                f"field(s): {', '.join(sorted(unknown))}"
            )
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            models=data.get("models"),
            directions=data.get("directions"),
            apps=data.get("apps"),
            suite=data.get("suite", "table4"),
            base_config=PipelineConfig(**base),
            variants=[Variant.from_dict(v) for v in data.get("variants", [])],
        )


@dataclass(frozen=True)
class CampaignCell:
    """One executable unit: a variant under one seed."""

    variant: Variant
    seed: int

    @property
    def session_name(self) -> str:
        return f"{self.variant.name}-seed{self.seed}.jsonl"

    def session_name_for(self, shard: Optional[Tuple[int, int]]) -> str:
        """Session file name, shard-suffixed for partial (sharded) runs."""
        if shard is None:
            return self.session_name
        stem = f"{self.variant.name}-seed{self.seed}"
        return stem + _SHARD_SESSION_SUFFIX.format(
            index=shard[0], count=shard[1]
        )


@dataclass
class CellRun:
    """A completed (or loaded) cell plus its results."""

    variant: Variant
    seed: int
    results: List[ScenarioResult]
    config_fingerprint: str
    expected_scenarios: int
    pipeline_runs: int = 0  # scenarios actually executed (not replayed)
    #: Deterministic performance summary over the cell's scored results
    #: (speedup-ratio distribution + scenario counts).  It derives from
    #: session-persisted ratios, so replayed and executed runs produce
    #: identical blocks.
    perf: Optional[Dict[str, Any]] = None

    @property
    def complete(self) -> bool:
        return len(self.results) >= self.expected_scenarios


def cell_perf_summary(results: List[ScenarioResult]) -> Dict[str, Any]:
    """The manifest's per-cell ``perf`` block.

    Built purely from session-persisted fields (success status and the
    Ratio column), so the block is byte-identical whether the cell was
    executed, replayed from its session, or merged from shards — which
    is why :func:`normalize_manifest` does *not* strip it.
    """
    ratios = [
        sr.result.ratio
        for sr in results
        if sr.result.ok and sr.result.ratio is not None
    ]
    return {
        "scenarios": len(results),
        "scored": len(ratios),
        "speedup": speedup_distribution(ratios),
    }


@dataclass
class CampaignResult:
    """Everything a campaign produced, cell by cell (variant-major)."""

    spec: CampaignSpec
    directory: Path
    runs: List[CellRun]

    def by_variant(self) -> Dict[str, List[CellRun]]:
        grouped: Dict[str, List[CellRun]] = {v.name: [] for v in self.spec.variants}
        for run in self.runs:
            grouped[run.variant.name].append(run)
        return grouped

    @property
    def total_pipeline_runs(self) -> int:
        return sum(r.pipeline_runs for r in self.runs)


def _grid_identity(suite, models, directions, apps):
    """Canonical identity of one grid subset, for manifest comparison.

    The suite spec string is resolved to its app-name list (two spellings
    of one suite compare equal) and an explicit app filter is
    canonicalized through the suite's case-insensitive lookup.  Anything
    unresolvable falls back to its raw value — comparison still works, it
    is just spelling-sensitive for that component.
    """
    from repro.hecbench import resolve_suite

    try:
        resolved = resolve_suite(suite)
    except ReproError:
        return {
            "suite": suite, "models": models, "directions": directions,
            "apps": apps,
        }
    canon_apps = None
    if apps is not None:
        canon_apps = []
        for name in apps:
            try:
                canon_apps.append(resolved.get(name).name)
            except ReproError:
                canon_apps.append(name)
    return {
        "suite": resolved.app_names(),
        "models": models,
        "directions": directions,
        "apps": canon_apps,
    }


# ----------------------------------------------------------------------
class CampaignRunner:
    """Executes a :class:`CampaignSpec` into a campaign directory."""

    def __init__(
        self,
        spec: CampaignSpec,
        root: Union[str, Path] = "campaigns",
        jobs: Union[int, str] = 1,
        executor: Optional[Executor] = None,
        log: Optional[Callable[[str], None]] = None,
        backend: str = "thread",
        cache_store: Union[str, Path, SqliteCacheStore, None] = None,
        shard: Union[str, Tuple[int, int], None] = None,
        trace: bool = False,
    ) -> None:
        self.spec = spec
        self.directory = Path(root) / spec.name
        self.jobs = jobs
        self.backend = backend
        #: Telemetry switch: each cell runner traces its pipelines and
        #: every cell session gets a ``.trace.jsonl`` sidecar.
        self.trace = trace
        self.executor = executor or Executor()
        self.baselines = BaselinePreparer(self.executor)
        #: ``(index, count)`` when this runner executes one shard of the
        #: campaign; its manifest and sessions get shard-suffixed names
        #: and ``merge_manifests`` fuses them into the canonical artifacts.
        self.shard = parse_shard_spec(shard)
        #: Scenario results go through a shared store when one is given
        #: (``sqlite:<path>`` URI, path, or an open SqliteCacheStore),
        #: else through the campaign's own ``cache.db``.
        self.cache = ResultCache(
            cache_store if cache_store is not None
            else self.directory / "cache.db"
        )
        self.sessions_dir = self.directory / "sessions"
        self.sessions_dir.mkdir(parents=True, exist_ok=True)
        self._log = log or (lambda _msg: None)
        # Resolved once so dynamic suites (synth:...) generate one app set
        # shared by every cell.
        from repro.hecbench import resolve_suite

        try:
            self.suite = resolve_suite(spec.suite)
        except ReproError as exc:
            raise CampaignError(
                f"campaign {spec.name!r} has an unusable suite "
                f"{spec.suite!r}: {exc}"
            ) from exc
        self._check_existing_manifest()
        #: Scenarios per cell, known before any cell runs — the manifest
        #: records it so loaders can tell truncated cells from finished
        #: ones.  Enumerating also validates spec.apps against the suite,
        #: so an out-of-suite filter fails here, not mid-run.
        try:
            self._grid_size = len(
                ExperimentRunner(
                    executor=self.executor, baselines=self.baselines,
                    suite=self.suite,
                ).scenarios(spec.models, spec.directions, spec.apps)
            )
        except ReproError as exc:
            raise CampaignError(
                f"campaign {spec.name!r} has an unusable app filter: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    @property
    def _manifest_path(self) -> Path:
        """This run's manifest: canonical, or the shard's partial one."""
        if self.shard is None:
            return self.directory / MANIFEST_NAME
        return self.directory / shard_manifest_name(*self.shard)

    def _own_sessions(self) -> List[Path]:
        """Session files belonging to *this* run's shard identity.

        A sharded run must ignore sibling shards' sessions (they share the
        campaign directory by design), and an unsharded run must ignore
        shard-suffixed files (a merged directory keeps both layers); each
        only refuses to resume over unaccounted sessions of its own kind.
        """
        if self.shard is not None:
            suffix = _SHARD_SESSION_SUFFIX.format(
                index=self.shard[0], count=self.shard[1]
            )
            return sorted(self.sessions_dir.glob(f"*{suffix}"))
        return sorted(
            p for p in self.sessions_dir.glob("*.jsonl")
            if not _SHARD_SESSION_RE.search(p.name)
            and not p.name.endswith(".trace.jsonl")
        )

    def _check_existing_manifest(self) -> None:
        """Refuse to resume a directory recorded under a different grid.

        The directory is keyed by campaign name and its per-cell sessions
        validate profile/seed/config — but not the grid subset.  Re-running
        the same name with a different suite/models/directions/apps (e.g.
        ``campaign run <name> --suite ...``) would append a second
        experiment's scenarios to the same session files and silently blend
        both into one report.  A missing or unreadable manifest is only
        ignored when no session files exist either (a truly fresh
        directory); sessions without a readable manifest cannot be tied to
        any grid, so resuming over them is refused too.
        """
        path = self._manifest_path
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            manifest = None
        recorded_spec = (
            manifest.get("spec") if isinstance(manifest, dict) else None
        )
        if not isinstance(recorded_spec, dict):
            leftovers = self._own_sessions()
            if leftovers:
                raise CampaignError(
                    f"campaign directory {self.directory} has "
                    f"{len(leftovers)} session file(s) but no readable "
                    f"manifest; cannot verify they belong to this grid — "
                    f"delete the directory (or its sessions/) to start over"
                )
            return
        recorded_raw = {
            "suite": recorded_spec.get("suite", "table4"),
            "models": recorded_spec.get("models"),
            "directions": recorded_spec.get("directions"),
            "apps": recorded_spec.get("apps"),
        }
        current_raw = {
            "suite": self.spec.suite,
            "models": self.spec.models,
            "directions": self.spec.directions,
            "apps": self.spec.apps,
        }
        # Compare canonical identities, not raw strings: two spellings of
        # the same suite (e.g. 'synth:scan:seeds=1' and its canonical
        # 'synth:scan:seeds=1:difficulty=1') or a case-variant app filter
        # enumerate the identical grid and must resume, not refuse.
        recorded = _grid_identity(**recorded_raw)
        current = _grid_identity(**current_raw)
        if recorded != current:
            diffs = ", ".join(
                f"{key}: {recorded_raw[key]!r} -> {current_raw[key]!r}"
                for key in current
                if recorded[key] != current[key]
            )
            raise CampaignError(
                f"campaign directory {self.directory} was recorded under a "
                f"different grid ({diffs}); resuming would blend two "
                f"experiments — use a new campaign name or --dir, or delete "
                f"the directory to start over"
            )

    # ------------------------------------------------------------------
    def _cell_scenario_indexes(self, cell_index: int) -> Optional[List[int]]:
        """This run's scenario positions for one cell (None = all)."""
        if self.shard is None:
            return None
        return shard_cell_indexes(cell_index, self._grid_size, self.shard)

    def _cell_expected(self, cell_index: int) -> int:
        """How many scenarios this run owes the cell (shard-local)."""
        indexes = self._cell_scenario_indexes(cell_index)
        return self._grid_size if indexes is None else len(indexes)

    def run(self, progress: Optional[Callable] = None) -> CampaignResult:
        """Execute every cell, persisting sessions + manifest as it goes."""
        runs: List[CellRun] = []
        cells = self.spec.cells()
        self._write_manifest(runs, cells)
        for cell_index, cell in enumerate(cells):
            config = cell.variant.config(self.spec.base_config)
            session = RunSession(
                self.sessions_dir / cell.session_name_for(self.shard),
                resume=True,
            )
            already = len(session)
            runner = ParallelExperimentRunner(
                config=config,
                profile=cell.variant.profile,
                seed=cell.seed,
                executor=self.executor,
                jobs=self.jobs,
                session=session,
                cache=self.cache,
                baselines=self.baselines,
                suite=self.suite,
                backend=self.backend,
                trace=self.trace,
            )
            results = runner.run(
                models=self.spec.models,
                directions=self.spec.directions,
                apps=self.spec.apps,
                progress=progress,
                scenario_indexes=self._cell_scenario_indexes(cell_index),
            )
            runs.append(CellRun(
                variant=cell.variant,
                seed=cell.seed,
                results=results,
                config_fingerprint=config.fingerprint(),
                expected_scenarios=self._cell_expected(cell_index),
                pipeline_runs=runner.pipeline_runs,
                perf=cell_perf_summary(results),
            ))
            self._log(
                f"variant {cell.variant.name} seed {cell.seed}: "
                f"{len(results)} scenario(s) — {runner.pipeline_runs} "
                f"executed, {already} from session, "
                f"{len(results) - already - runner.pipeline_runs} from cache"
            )
            self._write_manifest(runs, cells)
        return CampaignResult(
            spec=self.spec, directory=self.directory, runs=runs
        )

    # ------------------------------------------------------------------
    def _write_manifest(
        self, runs: List[CellRun], cells: List[CampaignCell]
    ) -> None:
        done = {(r.variant.name, r.seed): r for r in runs}
        cell_entries = []
        for cell_index, cell in enumerate(cells):
            run = done.get((cell.variant.name, cell.seed))
            cell_entries.append({
                "variant": cell.variant.name,
                "seed": cell.seed,
                "profile": cell.variant.profile,
                "session": f"sessions/{cell.session_name_for(self.shard)}",
                "config_fingerprint": cell.variant.config(
                    self.spec.base_config
                ).fingerprint(),
                "expected_scenarios": self._cell_expected(cell_index),
                "completed": run is not None,
                "scenarios": len(run.results) if run is not None else None,
                "pipeline_runs": run.pipeline_runs if run is not None else None,
                # Speedup distribution over the cell's scored scenarios.
                # Deterministic (derived from session-persisted ratios),
                # so equality checks keep it.
                "perf": run.perf if run is not None else None,
            })
        manifest: Dict[str, Any] = {
            "type": (
                "campaign-manifest" if self.shard is None
                else "campaign-shard-manifest"
            ),
            "version": MANIFEST_FORMAT_VERSION,
            "spec": self.spec.to_dict(),
            "cells": cell_entries,
        }
        if self.shard is not None:
            manifest["shard"] = {
                "index": self.shard[0], "count": self.shard[1],
            }
            # The full (unsharded) per-cell grid size: the merge checks its
            # own enumeration against what the shards were cut from.
            manifest["grid_size"] = self._grid_size
        _write_json_atomic(self._manifest_path, manifest)


# ----------------------------------------------------------------------
def _write_json_atomic(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(
        json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
    )
    os.replace(tmp, path)


def normalize_manifest(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """A manifest with its execution counters stripped, for equality checks.

    ``pipeline_runs`` counts how many pipelines *executed* rather than
    replayed, which depends on cache and session state, not on the
    experiment (a reference rebuilt from a warm store reports 0 where a
    cold run reports the full grid).  So "shard + merge ≡ unsharded" is
    asserted over everything *except* that counter.  The CI fan-in gate
    and the shard tests compare
    ``normalize_manifest(merged) == normalize_manifest(reference)``.
    """
    normalized = copy.deepcopy(manifest)
    for cell in normalized.get("cells", []):
        if isinstance(cell, dict):
            cell.pop("pipeline_runs", None)
    return normalized


def _load_shard_manifests(
    directory: Path,
) -> List[Tuple[int, int, Dict[str, Any]]]:
    """Parse every ``manifest.shard-i-of-N.json`` in a campaign directory."""
    found = []
    for path in sorted(directory.glob("manifest.shard-*.json")):
        match = _SHARD_MANIFEST_RE.match(path.name)
        if not match:
            continue
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CampaignError(f"unreadable shard manifest {path}: {exc}")
        if (
            not isinstance(manifest, dict)
            or manifest.get("type") != "campaign-shard-manifest"
        ):
            raise CampaignError(f"{path} is not a campaign shard manifest")
        if manifest.get("version") != MANIFEST_FORMAT_VERSION:
            raise CampaignError(
                f"shard manifest {path} has format version "
                f"{manifest.get('version')!r}; this build reads version "
                f"{MANIFEST_FORMAT_VERSION}"
            )
        shard = manifest.get("shard") or {}
        index, count = int(match.group(1)), int(match.group(2))
        if (shard.get("index"), shard.get("count")) != (index, count):
            raise CampaignError(
                f"shard manifest {path} records shard "
                f"{shard.get('index')}/{shard.get('count')} but is named "
                f"{index}-of-{count}"
            )
        found.append((index, count, manifest))
    return found


def merge_manifests(directory: Union[str, Path]) -> CampaignResult:
    """Fuse per-shard partial manifests into the canonical campaign.

    Reads every ``manifest.shard-i-of-N.json`` under ``directory``,
    verifies the shards describe one experiment — same spec, same grid
    identity, same per-cell config fingerprints, a complete 0..N-1 index
    set, every shard cell completed — then re-assembles each cell's
    scenario results from the shard sessions, **refusing** unless the
    shards' coverage is disjoint and complete against the deterministic
    scenario enumeration.  On success the canonical ``manifest.json`` and
    per-cell ``sessions/*.jsonl`` are written exactly as an unsharded run
    would have written them (manifest-identical modulo ``pipeline_runs``),
    and the merged :class:`CampaignResult` is returned.

    Traced shards additionally leave ``.trace.jsonl`` sidecars: these are
    fused per cell into a canonical trace file (trace ids remapped to one
    sequential space).
    """
    directory = Path(directory)
    shards = _load_shard_manifests(directory)
    if not shards:
        raise CampaignError(
            f"no shard manifests (manifest.shard-*-of-*.json) in {directory}"
        )
    counts = {count for _idx, count, _m in shards}
    if len(counts) != 1:
        raise CampaignError(
            f"shard manifests in {directory} disagree on the shard count: "
            f"{sorted(counts)}"
        )
    count = counts.pop()
    indexes = [idx for idx, _c, _m in shards]
    if sorted(indexes) != list(range(count)):
        missing = sorted(set(range(count)) - set(indexes))
        raise CampaignError(
            f"incomplete shard set in {directory}: have "
            f"{sorted(indexes)} of {count}, missing {missing}"
        )
    ordered = [m for _i, _c, m in sorted(shards, key=lambda s: s[0])]

    first = ordered[0]
    spec = CampaignSpec.from_dict(first["spec"])
    for manifest in ordered[1:]:
        theirs = manifest["spec"]
        if _grid_identity(
            theirs.get("suite", "table4"), theirs.get("models"),
            theirs.get("directions"), theirs.get("apps"),
        ) != _grid_identity(spec.suite, spec.models, spec.directions,
                            spec.apps):
            raise CampaignError(
                f"shard manifests in {directory} were recorded under "
                f"different grids; refusing to blend two experiments"
            )
        if theirs != first["spec"]:
            raise CampaignError(
                f"shard manifests in {directory} record different campaign "
                f"specs; refusing to merge"
            )

    if directory.name != spec.name:
        raise CampaignError(
            f"campaign directory {directory} is named {directory.name!r} "
            f"but its shard manifests record campaign {spec.name!r}"
        )
    # A full runner re-derives the suite, validates the grid, and gives us
    # the canonical manifest writer; its constructor also refuses if an
    # existing canonical manifest belongs to a different grid.
    runner = CampaignRunner(spec, root=directory.parent)
    grid_sizes = {m.get("grid_size") for m in ordered}
    if grid_sizes != {runner._grid_size}:
        raise CampaignError(
            f"shard manifests in {directory} were cut from a grid of size "
            f"{sorted(grid_sizes)}; this build enumerates "
            f"{runner._grid_size} scenario(s) per cell"
        )
    scenarios = ExperimentRunner(
        executor=runner.executor, baselines=runner.baselines,
        suite=runner.suite,
    ).scenarios(spec.models, spec.directions, spec.apps)
    full_keys = [s.key for s in scenarios]

    cells = spec.cells()
    runs: List[CellRun] = []
    for cell_index, cell in enumerate(cells):
        expected_fp = cell.variant.config(spec.base_config).fingerprint()
        merged: Dict[Any, ScenarioResult] = {}
        owner: Dict[Any, int] = {}
        pipeline_runs = 0
        for shard_index, manifest in enumerate(ordered):
            try:
                entry = manifest["cells"][cell_index]
            except (KeyError, IndexError):
                raise CampaignError(
                    f"shard {shard_index} manifest in {directory} has no "
                    f"cell {cell_index} ({cell.variant.name} "
                    f"seed {cell.seed})"
                )
            if (entry.get("variant"), entry.get("seed")) != (
                cell.variant.name, cell.seed,
            ):
                raise CampaignError(
                    f"shard {shard_index} cell {cell_index} is "
                    f"{entry.get('variant')!r} seed {entry.get('seed')!r}, "
                    f"expected {cell.variant.name!r} seed {cell.seed!r}"
                )
            if entry.get("config_fingerprint") != expected_fp:
                raise CampaignError(
                    f"config fingerprint mismatch for cell "
                    f"{cell.variant.name} seed {cell.seed}: shard "
                    f"{shard_index} recorded "
                    f"{entry.get('config_fingerprint')!r}, this build "
                    f"computes {expected_fp!r}"
                )
            if not entry.get("completed"):
                raise CampaignError(
                    f"shard {shard_index} has not completed cell "
                    f"{cell.variant.name} seed {cell.seed}; run it to "
                    f"completion before merging"
                )
            session_path = directory / entry["session"]
            if not session_path.exists():
                raise CampaignError(
                    f"shard {shard_index} session {session_path} is missing"
                )
            session = RunSession(session_path, resume=True)
            for result in session:
                key = result.scenario.key
                if key in owner:
                    raise CampaignError(
                        f"shards {owner[key]} and {shard_index} both "
                        f"recorded scenario {key} for cell "
                        f"{cell.variant.name} seed {cell.seed}; shard "
                        f"coverage must be disjoint"
                    )
                owner[key] = shard_index
                merged[key] = result
            pipeline_runs += entry.get("pipeline_runs") or 0

        extra = sorted(k for k in merged if k not in set(full_keys))
        if extra:
            raise CampaignError(
                f"cell {cell.variant.name} seed {cell.seed} has recorded "
                f"scenario(s) outside the campaign grid: {extra[:3]}"
            )
        missing = [k for k in full_keys if k not in merged]
        if missing:
            raise CampaignError(
                f"cell {cell.variant.name} seed {cell.seed} is missing "
                f"{len(missing)} of {len(full_keys)} scenario(s) after "
                f"merging {count} shard(s) (first missing: {missing[0]}); "
                f"shard coverage must be complete"
            )
        ordered_results = [merged[k] for k in full_keys]

        # Write the canonical per-cell session exactly as an unsharded run
        # would have: header first, then records in enumeration order.
        canonical = runner.sessions_dir / cell.session_name
        tmp = canonical.with_name(canonical.name + ".tmp")
        if tmp.exists():
            tmp.unlink()
        out = RunSession(tmp)
        out.bind(cell.variant.profile, cell.seed, expected_fp)
        for result in ordered_results:
            out.record(result)
        os.replace(tmp, canonical)

        # Traced shards leave per-shard .trace.jsonl sidecars next to
        # their sessions; fuse them (shard order, trace ids remapped to
        # one sequence) into the canonical cell trace.
        shard_traces = [
            trace_path_for(directory / manifest["cells"][cell_index]["session"])
            for manifest in ordered
        ]
        shard_traces = [p for p in shard_traces if p.exists()]
        if shard_traces:
            merge_trace_files(shard_traces, trace_path_for(canonical))

        runs.append(CellRun(
            variant=cell.variant,
            seed=cell.seed,
            results=ordered_results,
            config_fingerprint=expected_fp,
            expected_scenarios=len(full_keys),
            pipeline_runs=pipeline_runs,
            # Recomputed over the full merged result list, not fused from
            # the shards' partial blocks — identical to what an unsharded
            # run writes (the merge gate compares it).
            perf=cell_perf_summary(ordered_results),
        ))

    runner._write_manifest(runs, cells)
    return CampaignResult(spec=spec, directory=directory, runs=runs)


# ----------------------------------------------------------------------
def load_campaign(directory: Union[str, Path]) -> CampaignResult:
    """Rebuild a :class:`CampaignResult` from a campaign directory.

    Reads the manifest and every per-cell session; cells whose sessions are
    missing or partial load with whatever results were recorded (their
    ``complete`` flag reflects the manifest's expected count).
    """
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    if not path.exists():
        raise CampaignError(f"no campaign manifest at {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CampaignError(f"unreadable campaign manifest {path}: {exc}")
    if (
        not isinstance(manifest, dict)
        or manifest.get("type") != "campaign-manifest"
    ):
        raise CampaignError(f"{path} is not a campaign manifest")
    if manifest.get("version") != MANIFEST_FORMAT_VERSION:
        raise CampaignError(
            f"campaign manifest {path} has format version "
            f"{manifest.get('version')!r}; this build reads version "
            f"{MANIFEST_FORMAT_VERSION}"
        )
    spec = CampaignSpec.from_dict(manifest["spec"])
    variants = {v.name: v for v in spec.variants}
    runs: List[CellRun] = []
    for entry in manifest.get("cells", []):
        variant = variants.get(entry["variant"])
        if variant is None:
            raise CampaignError(
                f"manifest cell references unknown variant "
                f"{entry['variant']!r}"
            )
        session_path = directory / entry["session"]
        results: List[ScenarioResult] = []
        if session_path.exists():
            results = list(RunSession(session_path, resume=True))
        expected = entry.get("expected_scenarios")
        if expected is None:
            # Manifest predates the field: trust the completed flag so a
            # cell interrupted mid-grid still reports as incomplete.
            completed = bool(entry.get("completed"))
            expected = len(results) if completed else len(results) + 1
        runs.append(CellRun(
            variant=variant,
            seed=entry["seed"],
            results=results,
            config_fingerprint=entry.get("config_fingerprint", ""),
            expected_scenarios=expected,
            pipeline_runs=entry.get("pipeline_runs") or 0,
            # Recompute from the loaded results (deterministic) so reports
            # stay consistent even against a manifest written mid-cell.
            perf=cell_perf_summary(results) if results else entry.get("perf"),
        ))
    return CampaignResult(spec=spec, directory=directory, runs=runs)


def load_spec_file(path: Union[str, Path]) -> CampaignSpec:
    """Load a declarative :class:`CampaignSpec` from a JSON file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CampaignError(f"cannot read campaign spec {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CampaignError(f"campaign spec {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise CampaignError(f"campaign spec {path} must be a JSON object")
    return CampaignSpec.from_dict(data)


# ----------------------------------------------------------------------
# Built-in presets reproducing the paper's ablations.

#: The representative grid slice the ablation benchmarks use: 2 models x
#: 5 apps x both directions = 20 scenarios per (variant, seed) cell.
ABLATION_MODELS = ["gpt4", "wizardcoder"]
ABLATION_APPS = ["matrix-rotate", "jacobi", "bsearch", "entropy", "colorwheel"]


def _knowledge_ablation() -> CampaignSpec:
    """§III-B ablation: strip the language-knowledge document + summary."""
    return CampaignSpec(
        name="knowledge-ablation",
        description=(
            "LASSI with vs. without the SIII-B language-knowledge document "
            "(ablated prompting a la Nichols et al.)"
        ),
        models=ABLATION_MODELS,
        apps=ABLATION_APPS,
        variants=[
            Variant(name="baseline", description="full LASSI pipeline"),
            Variant(
                name="no-knowledge",
                overrides={"include_knowledge": False},
                description="SIII-B knowledge document dropped",
            ),
        ],
    )


def _self_correction_ablation() -> CampaignSpec:
    """§III-D ablation: disable the compile/execute feedback loops."""
    return CampaignSpec(
        name="self-correction-ablation",
        description=(
            "LASSI with vs. without the SIII-D self-correcting feedback "
            "loops (single-shot generation)"
        ),
        models=ABLATION_MODELS,
        apps=ABLATION_APPS,
        variants=[
            Variant(name="baseline", description="full LASSI pipeline"),
            Variant(
                name="no-self-correction",
                overrides={"self_correction": False},
                description="SIII-D loops disabled; one attempt only",
            ),
        ],
    )


def _max_corrections_sweep() -> CampaignSpec:
    """§III-D cap sweep around the paper's worst successful cell (34)."""
    caps = (0, 10, 33, 34, 40)
    return CampaignSpec(
        name="max-corrections-sweep",
        description=(
            "SIII-D self-correction cap swept across the success threshold "
            "of Codestral/pathfinder (34 corrections, Table VIIa)"
        ),
        models=["codestral"],
        directions=["cuda2omp"],
        apps=["pathfinder"],
        variants=[
            Variant(
                name=f"cap-{cap}",
                overrides={"max_corrections": cap},
                description=f"max_corrections={cap}",
            )
            for cap in caps
        ],
    )


def _stochastic_replicates() -> CampaignSpec:
    """Multi-seed stochastic replicates: dispersion, not single numbers."""
    seeds = [1, 2, 3, 4, 5]
    return CampaignSpec(
        name="stochastic-replicates",
        description=(
            "stochastic-profile replicates across 5 seeds, reported as "
            "mean +/- stddev per headline metric"
        ),
        models=["gpt4", "codestral"],
        apps=["layout", "entropy", "bsearch"],
        variants=[
            Variant(name="baseline", profile="stochastic", seeds=list(seeds)),
            Variant(
                name="no-knowledge",
                overrides={"include_knowledge": False},
                profile="stochastic",
                seeds=list(seeds),
                description="SIII-B knowledge document dropped",
            ),
        ],
    )


def _synth_sweep() -> CampaignSpec:
    """LASSI over a generated synthetic suite (beyond the Table IV grid)."""
    return CampaignSpec(
        name="synth-sweep",
        description=(
            "LASSI over a generated synthetic suite (2 families x 2 seeds) "
            "with and without the SIII-B knowledge document"
        ),
        suite="synth:stencil,reduction:seeds=2",
        models=["gpt4", "codestral"],
        directions=["omp2cuda"],
        variants=[
            Variant(name="baseline", description="full LASSI pipeline"),
            Variant(
                name="no-knowledge",
                overrides={"include_knowledge": False},
                description="SIII-B knowledge document dropped",
            ),
        ],
    )


PRESETS: Dict[str, Callable[[], CampaignSpec]] = {
    "knowledge-ablation": _knowledge_ablation,
    "self-correction-ablation": _self_correction_ablation,
    "max-corrections-sweep": _max_corrections_sweep,
    "stochastic-replicates": _stochastic_replicates,
    "synth-sweep": _synth_sweep,
}


def preset_names() -> List[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> CampaignSpec:
    try:
        builder = PRESETS[name]
    except KeyError:
        raise CampaignError(
            f"unknown campaign preset {name!r}; available: "
            f"{', '.join(preset_names())}"
        )
    return builder()
