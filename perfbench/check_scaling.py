"""Checks that scaling to the reference speed keeps a real slowdown.

Run from the repository root (about two minutes)::

    python3 perfbench/check_scaling.py

Every time the benchmark reports is wall time scaled by the speed sampler
(``speed.py``).  The sampler's chunk shares the core with the program, so
a slower program could in principle slow the chunk too and be scaled back
out.  This script measures whether it is.  In one process it runs
``correction-storm`` passes, alternating plain passes with passes in which
every interpreter call (``ProgramRunner.run``) also spins a fixed busy
loop.  The loop's own cost is timed alone between passes, with the same
scaling, so the slowdown an injected pass should show is known: the loop's
cost times the interpreter calls in the pass, or in the op.  For pass time
(which sets ``scenarios_per_s``), ``op_p50_ms`` and ``op_p90_ms`` the
script prints the measured slowdown as a share of the injected one, for
scaled and for raw wall times.  A share near 1 means the slowdown is kept.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from run import HERE, SRC, WORKDIR, percentile, wall

#: Plain/injected pass pairs, run in the order P I I P P I ...
PAIRS = 6
#: Share of a plain pass's wall time the injected loops add.
INJECTED_SHARE = 0.4
#: Busy-loop iterations per calibration call.
UNIT = 20_000


def busy(iterations: int) -> int:
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFF
    return acc


def loop_window(iterations: int) -> Tuple[float, float]:
    """(start, end) of 20 calls of ``busy(iterations)``, run alone."""
    start = time.perf_counter()
    for _ in range(20):
        busy(iterations)
    return start, time.perf_counter()


def calls_per_op(calls: List[float], p: Any) -> List[int]:
    return [sum(1 for t in calls if s <= t <= e) for s, e in p.op_windows]


def main() -> int:
    sys.path.insert(0, str(SRC))
    from speed import SpeedSampler

    with SpeedSampler() as speed:
        from repro.interp.executor import ProgramRunner
        from workloads import WORKLOADS

        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        WORKDIR.mkdir(exist_ok=True)
        workload = WORKLOADS["correction-storm"](1, expected, WORKDIR)
        workload.setup(traced=False)
        calls: List[float] = []
        spin = {"iterations": 0}
        original = ProgramRunner.run

        def slowed(self, *args, **kwargs):
            calls.append(time.perf_counter())
            busy(spin["iterations"])
            return original(self, *args, **kwargs)

        ProgramRunner.run = slowed
        try:
            warm = workload.run_pass(False)
            per_pass = len(calls)
            unit_wall = wall(*loop_window(UNIT)) / 20 / UNIT
            spin_iterations = int(INJECTED_SHARE * wall(*warm.window) / per_pass / unit_wall)
            runs: Dict[str, List[Any]] = {"plain": [], "injected": []}
            loops: List[Tuple[float, float]] = []
            for i in range(2 * PAIRS):
                kind = "injected" if i % 4 in (1, 2) else "plain"
                spin["iterations"] = spin_iterations if kind == "injected" else 0
                calls.clear()
                p = workload.run_pass(False)
                if p.problems or p.failed_ops:
                    print(f"pass {i} failed its checks: {p.problems}")
                    return 1
                runs[kind].append((p, calls_per_op(calls, p)))
                loops.append(loop_window(spin_iterations))
        finally:
            ProgramRunner.run = original
            workload.close()

    print(f"correction-storm, {PAIRS} plain and {PAIRS} injected passes; "
          f"{per_pass} interpreter calls per pass, {spin_iterations} busy-loop "
          f"iterations injected into each")
    print(f"{'':18s}{'plain':>12s}{'injected':>12s}{'expected':>12s}{'share':>8s}")
    for label, seconds in (("scaled", speed.seconds), ("raw", wall)):
        per_call = statistics.median(seconds(*w) / 20 for w in loops)
        plain = [p for p, _ in runs["plain"]]
        injected = [p for p, _ in runs["injected"]]
        rows = []
        pass_plain = statistics.median(seconds(*p.window) for p in plain)
        pass_inj = statistics.median(seconds(*p.window) for p in injected)
        rows.append(("pass_s", pass_plain, pass_inj, pass_plain + per_pass * per_call))
        ops_plain = [seconds(*w) for p in plain for w in p.op_windows]
        ops_pred = [
            seconds(*w) + n * per_call
            for p, counts in runs["plain"] for w, n in zip(p.op_windows, counts)
        ]
        ops_inj = [seconds(*w) for p in injected for w in p.op_windows]
        for q in (50, 90):
            rows.append((f"op_p{q}_s", percentile(ops_plain, q),
                         percentile(ops_inj, q), percentile(ops_pred, q)))
        for name, base, got, want in rows:
            share = (got - base) / (want - base)
            print(f"{label + ' ' + name:18s}{base:12.4f}{got:12.4f}{want:12.4f}{share:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
