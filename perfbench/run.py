"""Host-speed benchmark: how fast this checkout reproduces LASSI's grids.

Run from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload, each in its own process, and prints
every metric.  A run measures whole passes until at least ``--seconds``
have passed and (untraced) at least the workload's minimum op count is
reached.  It checks every output; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (stores, campaign directories).
WORKDIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("paper-grid", "correction-storm", "campaign-replay")

E2E_UNITS = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values: List[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(workload: Any, args: argparse.Namespace) -> Tuple[List[Any], List[Any]]:
    """Run whole passes; (every pass run, the passes that are measured).

    A traced run first runs one untraced warm-up pass, which is checked but
    not measured, then traced and untraced passes in the order T U U T T U
    ..., so neither kind carries the warm-up or always runs first.
    """
    passes: List[Any] = [workload.run_pass(False)] if args.trace else []
    measured: List[Any] = []
    ops = 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(measured) % 4 in (0, 3)
        result = workload.run_pass(traced)
        passes.append(result)
        measured.append(result)
        ops += len(result.op_windows)
        if time.perf_counter() - start < args.seconds:
            continue
        if args.trace and len(measured) % 2 == 0:
            return passes, measured
        if not args.trace and ops >= workload.min_ops:
            return passes, measured


def check_repeats(passes: List[Any]) -> List[str]:
    """Every exact count must repeat on every pass."""
    problems = []
    for name in sorted(set().union(*(p.counts for p in passes))):
        values = {p.counts.get(name) for p in passes}
        if len(values) > 1:
            problems.append(f"{name} varies across passes: {sorted(values, key=str)}")
    return problems


def end_to_end(passes: List[Any], setup_s: float, seconds: Any) -> Dict[str, float]:
    """The end-to-end metrics, with intervals converted by ``seconds``."""
    ops = [seconds(*w) for p in passes for w in p.op_windows]
    measured = sum(seconds(*p.window) for p in passes)
    return {
        "setup_s": setup_s,
        "scenarios_per_s": sum(p.scenarios for p in passes) / measured,
        "op_p50_ms": percentile(ops, 50) * 1e3,
        "op_p90_ms": percentile(ops, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def wall(start: float, end: float) -> float:
    return end - start


def per_layer(workload: Any, passes: List[Any], speed: Any) -> Dict[str, float]:
    from tracing import layer_metrics

    traced = [p for p in passes if p.recorder is not None]
    untraced = [p for p in passes if p.recorder is None]
    # Layer times are scaled to the reference speed pass by pass.
    rows = [
        layer_metrics(p.recorder, speed.seconds(*p.window) / wall(*p.window))
        for p in traced
    ]
    out = {name: statistics.fmean(row[name] for row in rows) for name in rows[0]}
    first = traced[0]
    for name in ("toolchain.compile_cache_hit_ratio", "pipeline.baseline_builds",
                 "pipeline.attempts", "pipeline.corrections"):
        out[name] = first.counts.get(name, 0)
    setup = workload.setup_recorder
    out["experiments.store_put_calls"] = (
        setup.self_times().get("experiments.store_put", (0, 0.0))[0] if setup else 0
    )
    out["bench.trace_overhead_fraction"] = (
        statistics.median(speed.seconds(*p.window) for p in traced)
        / statistics.median(speed.seconds(*p.window) for p in untraced) - 1
    )
    return out


def layer_units(name: str) -> str:
    special = {
        "interp.us_per_step": "us/step",
        "llm.translate_ms_per_call": "ms/call",
        "minilang.parse_kb_per_s": "kB/s",
    }
    if name in special:
        return special[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_fraction"):
        return "ratio"
    return "count"


def print_ranking(passes: List[Any]) -> None:
    """Where a traced pass's wall time went, by span name (self time)."""
    from tracing import self_time_ranking

    traced = [p for p in passes if p.recorder is not None]
    totals: Dict[str, List[float]] = {}
    for p in traced:
        for name, calls, secs in self_time_ranking(p.recorder):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls / len(traced)
            entry[1] += secs / len(traced)
    pass_s = statistics.fmean(wall(*p.window) for p in traced)
    print(f"  self time per traced pass ({pass_s:.4f} s):")
    for name, (calls, secs) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        print(f"    {name:28s} {secs:10.4f} s {100 * secs / pass_s:6.1f}%  {calls:9.0f} calls")


def run_one(args: argparse.Namespace) -> int:
    from speed import SpeedSampler

    with SpeedSampler() as speed:
        start = time.perf_counter()
        from workloads import WORKLOADS  # imports the program

        import_window = (start, time.perf_counter())
        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        WORKDIR.mkdir(exist_ok=True)
        workload = WORKLOADS[args.workload](args.seed, expected, WORKDIR)
        try:
            setup_windows = workload.setup(traced=bool(args.trace))
            passes, measured = measure(workload, args)
        finally:
            workload.close()
    import_s = speed.seconds(*import_window)
    setup_s = import_s + statistics.median(speed.seconds(*w) for w in setup_windows)

    attempted = sum(len(p.op_windows) for p in passes)
    failed = sum(p.failed_ops for p in passes)
    problems = list(workload.setup_problems) + check_repeats(passes)
    problems += [msg for p in passes for msg in p.problems]
    correct = failed == 0 and not problems

    raw = sum(wall(*p.window) for p in measured)
    scaled = sum(speed.seconds(*p.window) for p in measured)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops in {len(passes)} passes, {raw:.3f} s wall measured; "
          f"times below are at the reference speed (this run: x{scaled / raw:.3f}); "
          f"set-up {setup_s:.3f} s (imports {import_s:.3f} s)")
    if args.trace:
        metrics = per_layer(workload, measured, speed)
        units = {name: layer_units(name) for name in metrics}
        print_ranking(measured)
    else:
        metrics = end_to_end(measured, setup_s, speed.seconds)
        units = E2E_UNITS
        ops = [speed.seconds(*w) * 1e3 for p in measured for w in p.op_windows]
        beyond = sum(1 for ms in ops if ms > metrics["op_p90_ms"])
        print(f"  samples: {len(ops)} ops, {beyond} beyond p90; "
              f"{sum(p.scenarios for p in measured)} scenarios")
        raw_metrics = end_to_end(measured, setup_s, wall)
        print("  raw wall (unscaled): " + ", ".join(
            f"{name} {raw_metrics[name]:.6f} {E2E_UNITS[name]}"
            for name in ("scenarios_per_s", "op_p50_ms", "op_p90_ms")
        ))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6f} {units[name]}")
    print(f"  {'failed_fraction':34s} {failed / attempted:16.6f} ratio "
          f"({failed} of {attempted} ops)")
    for msg in problems:
        print(f"  CHECK FAILED: {msg}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace, argv: List[str]) -> int:
    """Every workload in its own process; one combined JSON line at the end."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        child_argv = [a if a != "all" else name for a in argv]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve())] + child_argv,
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, argv)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
