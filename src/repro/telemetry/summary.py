"""Aggregation and rendering behind ``repro trace show|summarize``.

Works on anything trace-shaped: a single ``.trace.jsonl`` file, a
session log (its sidecar is found by convention), or a campaign
directory (every canonical trace under ``sessions/`` — falling back to
per-shard trace files when the campaign has not been merged yet).

The summary reports run statuses, per-stage latency percentiles, the
slowest traces, the LLM-call latency histogram, compile-cache
efficiency, and interpreter work summed from the exec spans' runtime
profiles.  Spans are the only telemetry record, so this is the only
aggregate over them.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.telemetry.tracefile import (
    TRACE_SUFFIX,
    load_trace_file,
    trace_path_for,
)

__all__ = [
    "LLM_LATENCY_BUCKETS",
    "collect_trace_paths",
    "critical_path_report",
    "percentile",
    "render_critical_path",
    "render_trace_show",
    "render_trace_summary",
    "summarize_traces",
    "trace_critical_path",
]

#: Upper bounds of the LLM-latency histogram buckets, in seconds
#: (modelled round-trips are ~seconds); the trailing +inf bucket is
#: implicit.
LLM_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Interpreter dispatch paths, as ``RuntimeProfile`` names their
#: ``<path>_launches`` fields.
LAUNCH_PATHS = ("flat", "barrier", "slow", "omp")


def collect_trace_paths(target: Union[str, Path]) -> List[Path]:
    """Resolve a file / session / campaign-dir argument to trace files.

    Raises :class:`FileNotFoundError` with a helpful message when no
    trace data exists at the target.
    """
    path = Path(target)
    if path.is_file():
        if path.name.endswith(TRACE_SUFFIX):
            return [path]
        if path.suffix == ".jsonl":
            sidecar = trace_path_for(path)
            if sidecar.exists():
                return [sidecar]
            raise FileNotFoundError(
                f"no trace sidecar next to {path} (expected {sidecar.name}; "
                "was the run traced? pass --trace)"
            )
        raise FileNotFoundError(f"{path} is not a trace or session file")
    if path.is_dir():
        roots = [path / "sessions", path]
        for root in roots:
            if not root.is_dir():
                continue
            all_traces = sorted(root.glob(f"*{TRACE_SUFFIX}"))
            canonical = [p for p in all_traces if ".shard-" not in p.name]
            if canonical:
                return canonical
            if all_traces:
                return all_traces
        raise FileNotFoundError(
            f"no *{TRACE_SUFFIX} files under {path} "
            "(was the campaign run with --trace?)"
        )
    raise FileNotFoundError(f"no such file or directory: {path}")


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank-interpolated percentile of pre-sorted values."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (len(sorted_values) - 1) * q
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return sorted_values[lo]
    frac = rank - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def summarize_traces(
    paths: Sequence[Union[str, Path]], top: int = 5
) -> Dict[str, Any]:
    """Aggregate trace files into one JSON-able summary dict."""
    stage_walls: Dict[str, List[float]] = {}
    llm_walls: List[float] = []
    llm_calls_by_purpose: Dict[str, int] = {}
    prompt_tokens = 0
    completion_tokens = 0
    compile_total = 0
    compile_cached = 0
    statuses: Dict[str, int] = {}
    exec_runs = 0
    exec_failed = 0
    # Summed from each exec span's RuntimeProfile payload.
    work = {"steps": 0, "kernel_launches": 0, "atomics": 0, "barrier_waits": 0}
    path_launches: Dict[str, int] = {}
    trace_rows: List[Dict[str, Any]] = []
    n_traces = 0

    for path in paths:
        data = load_trace_file(path)
        for trace in data["traces"]:
            n_traces += 1
            root_wall = 0.0
            status = "?"
            for span in trace.get("spans", []):
                kind = span.get("kind")
                wall = float(span.get("wall", 0.0))
                attrs = span.get("attrs", {})
                if kind == "pipeline":
                    root_wall = wall
                    status = str(attrs.get("status", "?"))
                elif kind == "stage":
                    stage_walls.setdefault(span.get("name", "?"), []).append(wall)
                elif kind == "llm":
                    llm_walls.append(wall)
                    purpose = str(attrs.get("purpose", "?"))
                    llm_calls_by_purpose[purpose] = (
                        llm_calls_by_purpose.get(purpose, 0) + 1
                    )
                    prompt_tokens += int(attrs.get("prompt_tokens") or 0)
                    completion_tokens += int(attrs.get("completion_tokens") or 0)
                elif kind == "compile":
                    compile_total += 1
                    if attrs.get("cached"):
                        compile_cached += 1
                elif kind == "exec":
                    exec_runs += 1
                    if not attrs.get("ok"):
                        exec_failed += 1
                    profile = attrs.get("profile") or {}
                    for key in work:
                        work[key] += int(profile.get(key) or 0)
                    for name in LAUNCH_PATHS:
                        launches = int(profile.get(f"{name}_launches") or 0)
                        if launches:
                            path_launches[name] = (
                                path_launches.get(name, 0) + launches
                            )
            statuses[status] = statuses.get(status, 0) + 1
            trace_rows.append(
                {
                    "scenario": trace.get("scenario", {}),
                    "wall": root_wall,
                    "status": status,
                    "file": str(Path(path).name),
                    "trace_id": trace.get("trace_id"),
                }
            )

    stages: Dict[str, Dict[str, float]] = {}
    for name, walls in stage_walls.items():
        walls.sort()
        stages[name] = {
            "entries": len(walls),
            "total": sum(walls),
            "p50": percentile(walls, 0.50),
            "p90": percentile(walls, 0.90),
            "p99": percentile(walls, 0.99),
            "max": walls[-1],
        }

    llm_walls.sort()
    llm_summary: Dict[str, Any] = {
        "calls": len(llm_walls),
        "calls_by_purpose": llm_calls_by_purpose,
        "prompt_tokens": prompt_tokens,
        "completion_tokens": completion_tokens,
    }
    if llm_walls:
        llm_summary.update(
            p50=percentile(llm_walls, 0.50),
            p90=percentile(llm_walls, 0.90),
            p99=percentile(llm_walls, 0.99),
            max=llm_walls[-1],
            histogram=_latency_histogram(llm_walls),
        )

    trace_rows.sort(key=lambda row: row["wall"], reverse=True)
    return {
        "files": [str(p) for p in paths],
        "traces": n_traces,
        "statuses": statuses,
        "stages": stages,
        "llm": llm_summary,
        "compile": {
            "calls": compile_total,
            "cached": compile_cached,
            "cache_rate": (compile_cached / compile_total) if compile_total else 0.0,
        },
        "exec": {
            "runs": exec_runs,
            "failed": exec_failed,
            "steps": work["steps"],
            "launches": work["kernel_launches"],
            "launches_by_path": path_launches,
            "atomics": work["atomics"],
            "barrier_waits": work["barrier_waits"],
        },
        "slowest": trace_rows[: max(0, top)],
    }


def _latency_histogram(sorted_walls: Sequence[float]) -> List[Tuple[str, int]]:
    """Fixed log-spaced latency buckets for the LLM histogram display."""
    bounds = list(LLM_LATENCY_BUCKETS)
    counts = [0] * (len(bounds) + 1)
    for value in sorted_walls:
        for i, bound in enumerate(bounds):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    labels = [f"<={b:g}s" for b in bounds] + [f">{bounds[-1]:g}s"]
    return [(label, count) for label, count in zip(labels, counts) if count]


# ----------------------------------------------------------------------
# Critical-path analysis: where did each scenario's wall time go?
#: The leaf buckets a pipeline's wall time is attributed to.  "overhead"
#: is the root wall minus every leaf wall — stage dispatch, prompt
#: building, result bookkeeping, and (on cold runs) §III-A baseline
#: preparation, which publishes no leaf events of its own; baselines are
#: cached across a grid, so their cost amortizes to the first scenario.
CRITICAL_PATH_BUCKETS = ("llm", "compile", "exec", "overhead")


def trace_critical_path(trace: Dict[str, Any]) -> Dict[str, Any]:
    """Attribute one trace's wall time to its dominant leaf bucket.

    Walks the span tree, sums leaf walls per kind (llm / compile /
    exec), and charges the remainder of the root pipeline span's wall to
    ``overhead``.  The dominant bucket is the argmax; ties break in
    :data:`CRITICAL_PATH_BUCKETS` order (deterministic).
    """
    walls = {bucket: 0.0 for bucket in CRITICAL_PATH_BUCKETS}
    root_wall = 0.0
    for span in trace.get("spans", []):
        kind = span.get("kind")
        wall = float(span.get("wall", 0.0))
        if kind == "pipeline":
            root_wall = wall
        elif kind in ("llm", "compile", "exec"):
            walls[kind] += wall
    leaf_total = walls["llm"] + walls["compile"] + walls["exec"]
    walls["overhead"] = max(0.0, root_wall - leaf_total)
    dominant = max(CRITICAL_PATH_BUCKETS, key=lambda b: walls[b])
    return {
        "scenario": trace.get("scenario", {}),
        "wall": root_wall,
        "walls": {k: round(v, 6) for k, v in walls.items()},
        "dominant": dominant,
    }


def critical_path_report(
    paths: Sequence[Union[str, Path]]
) -> Dict[str, Any]:
    """Aggregate per-trace critical paths across a campaign or session.

    Returns the per-bucket dominance counts, the mean wall-time fraction
    each bucket claims, total wall time, and the per-scenario rows.  The
    scenario count equals the number of traces — one per executed
    pipeline run — so it can be cross-checked against a campaign
    manifest's scenario totals.
    """
    rows: List[Dict[str, Any]] = []
    for path in paths:
        data = load_trace_file(path)
        for trace in data["traces"]:
            rows.append(trace_critical_path(trace))
    dominant_counts = {bucket: 0 for bucket in CRITICAL_PATH_BUCKETS}
    fraction_sums = {bucket: 0.0 for bucket in CRITICAL_PATH_BUCKETS}
    total_wall = 0.0
    fractional = 0
    for row in rows:
        dominant_counts[row["dominant"]] += 1
        total_wall += row["wall"]
        if row["wall"] > 0:
            fractional += 1
            for bucket in CRITICAL_PATH_BUCKETS:
                fraction_sums[bucket] += row["walls"][bucket] / row["wall"]
    fractions = {
        bucket: round(fraction_sums[bucket] / fractional, 4) if fractional else 0.0
        for bucket in CRITICAL_PATH_BUCKETS
    }
    return {
        "files": [str(p) for p in paths],
        "scenarios": len(rows),
        "dominant_counts": dominant_counts,
        "mean_fractions": fractions,
        "total_wall": round(total_wall, 6),
        "rows": rows,
    }


def render_critical_path(report: Dict[str, Any], top: int = 5) -> str:
    """Human-readable rendering of :func:`critical_path_report`."""
    lines = [
        f"critical path over {report['scenarios']} scenario(s), "
        f"{_fmt_s(report['total_wall'])} total wall"
    ]
    lines.append("")
    lines.append("Dominant bucket (scenarios / mean wall share):")
    for bucket in CRITICAL_PATH_BUCKETS:
        count = report["dominant_counts"][bucket]
        share = report["mean_fractions"][bucket]
        lines.append(f"  {bucket:<10}{count:>6}  {share:>7.1%}")
    rows = sorted(report["rows"], key=lambda r: r["wall"], reverse=True)
    if rows:
        lines.append("")
        lines.append("Slowest scenarios:")
        for row in rows[: max(0, top)]:
            lines.append(
                f"  {_fmt_s(row['wall']):>10}  dominant={row['dominant']:<9} "
                f"{_scenario_label(row['scenario'])}"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
def _fmt_s(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1000:.1f}ms"


def _scenario_label(scenario: Dict[str, Any]) -> str:
    parts = [
        str(scenario.get(key))
        for key in ("model", "direction", "app")
        if scenario.get(key)
    ]
    return "/".join(parts) if parts else "(unlabelled)"


def render_trace_summary(summary: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize_traces` output."""
    lines: List[str] = []
    lines.append(
        f"{summary['traces']} trace(s) across {len(summary['files'])} file(s)"
    )
    if summary["statuses"]:
        lines.append("Statuses: " + _render_counts(summary["statuses"]))

    stages = summary["stages"]
    if stages:
        lines.append("")
        lines.append("Per-stage latency (wall):")
        name_w = max(len(n) for n in stages) + 2
        header = (
            f"  {'stage':<{name_w}}{'entries':>8}{'total':>10}"
            f"{'p50':>10}{'p90':>10}{'p99':>10}{'max':>10}"
        )
        lines.append(header)
        for name in sorted(stages, key=lambda n: -stages[n]["total"]):
            s = stages[name]
            lines.append(
                f"  {name:<{name_w}}{int(s['entries']):>8}"
                f"{_fmt_s(s['total']):>10}{_fmt_s(s['p50']):>10}"
                f"{_fmt_s(s['p90']):>10}{_fmt_s(s['p99']):>10}"
                f"{_fmt_s(s['max']):>10}"
            )

    llm = summary["llm"]
    lines.append("")
    lines.append(f"LLM calls: {llm['calls']}")
    if llm["calls"]:
        lines.append(
            "  by purpose: " + _render_counts(llm["calls_by_purpose"])
        )
        lines.append(
            f"  latency p50 {_fmt_s(llm['p50'])} · p90 {_fmt_s(llm['p90'])}"
            f" · p99 {_fmt_s(llm['p99'])} · max {_fmt_s(llm['max'])}"
        )
        lines.append(
            f"  tokens: {llm['prompt_tokens']} prompt, "
            f"{llm['completion_tokens']} completion"
        )
        hist = llm.get("histogram", [])
        if hist:
            peak = max(count for _, count in hist)
            for label, count in hist:
                bar = "#" * max(1, round(count * 30 / peak))
                lines.append(f"  {label:>10} {count:>6}  {bar}")

    comp = summary["compile"]
    lines.append("")
    lines.append(
        f"Compiles: {comp['calls']} ({comp['cached']} cached, "
        f"{comp['cache_rate']:.1%} cache rate)"
    )
    ex = summary["exec"]
    lines.append(
        f"Executions: {ex['runs']} ({ex['failed']} failed) · "
        f"{ex['launches']} kernel launch(es) · "
        f"{ex['steps']} interpreter step(s)"
    )
    if ex["launches_by_path"]:
        lines.append(
            "  launches by path: " + _render_counts(ex["launches_by_path"])
        )
    lines.append(
        f"  atomics: {ex['atomics']} · barrier waits: {ex['barrier_waits']}"
    )

    slowest = summary["slowest"]
    if slowest:
        lines.append("")
        lines.append("Slowest traces:")
        for row in slowest:
            lines.append(
                f"  {_fmt_s(row['wall']):>10}  {row['status']:<16} "
                f"{_scenario_label(row['scenario'])}"
            )
    return "\n".join(lines)


def _render_counts(counts: Dict[str, int]) -> str:
    return ", ".join(f"{key}={counts[key]}" for key in sorted(counts))


def render_trace_show(
    paths: Sequence[Union[str, Path]], limit: int = 0
) -> str:
    """Span trees of each trace, indented by parent (``trace show``)."""
    lines: List[str] = []
    shown = 0
    for path in paths:
        data = load_trace_file(path)
        for trace in data["traces"]:
            if limit and shown >= limit:
                lines.append("… (truncated; raise --limit)")
                return "\n".join(lines)
            shown += 1
            label = _scenario_label(trace.get("scenario", {}))
            lines.append(f"trace {trace.get('trace_id')} · {label}")
            spans = trace.get("spans", [])
            depth: Dict[int, int] = {}
            for span in spans:
                parent = span.get("parent")
                depth[span["id"]] = depth.get(parent, -1) + 1 if parent is not None else 0
                indent = "  " * (depth[span["id"]] + 1)
                attrs = span.get("attrs", {})
                attr_txt = (
                    " [" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "]"
                    if attrs
                    else ""
                )
                lines.append(
                    f"{indent}{span.get('name')} ({span.get('kind')}) "
                    f"{_fmt_s(float(span.get('wall', 0.0)))}{attr_txt}"
                )
    if not lines:
        lines.append("no traces found")
    return "\n".join(lines)
