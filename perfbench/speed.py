"""Scaling wall times to a fixed reference speed on a shared host.

On a shared host the speed of a core drifts by tens of percent over a few
seconds (other tenants' load).  Raw wall times then differ between runs by
more than the changes the benchmark must detect.  A side thread therefore
runs a fixed calibration chunk every ``PERIOD_S`` and records the chunk's
own CPU time; that time tracks the core's current speed.  A
timed interval is reported at the reference speed:

    seconds = (end - start) * mean(REFERENCE_CHUNK_S / chunk CPU time)

over the chunks sampled during the interval (padded by ``PAD_S`` so short
ops still see samples).  The process is pinned to one CPU, so the sampler
and the measured work share a core.  The chunk shares no code with the
program, but it shares the core and its caches; ``check_scaling.py``
injects a known slowdown into the program and measures how much of it the
scaled times keep.  The sampler costs the measured work about 2% of the
core, on every commit alike.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
import threading
import time
from typing import List

#: CPU seconds one calibration chunk takes at the reference speed (the
#: fastest it ran, over 3000 tries, on the 2-core Xeon VM it was sized on).
REFERENCE_CHUNK_S = 0.00036
#: Pause between calibration chunks.
PERIOD_S = 0.02
#: Samples this far outside an interval still count for it.
PAD_S = 0.2


#: A fixed document for the chunk's JSON round trips.
_DOCUMENT = {f"k{i}": [i, str(i) * 3, {"x": i * 0.5}] for i in range(40)}


def _calibration_chunk() -> int:
    """A blend of the work the workloads do: interpreter-bound Python
    (closure calls, dict reads and writes), C-heavy JSON encoding and
    decoding, and file-system system calls."""
    for _ in range(3):
        json.loads(json.dumps(_DOCUMENT, sort_keys=True))
        os.stat(".")
    table: dict = {}
    steps = [lambda x, i=i: x + i for i in range(16)]
    acc = 0
    for k in range(400):
        acc = (steps[k & 15](acc) + table.get(k & 127, k)) & 0xFFFF
        table[k & 127] = acc
    return acc


class SpeedSampler:
    """Context manager: samples core speed from a side thread."""

    def __init__(self) -> None:
        self.times: List[float] = []
        #: REFERENCE_CHUNK_S / measured chunk CPU time, per sample.
        self.factors: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._sample, name="perfbench-speed", daemon=True
        )

    def __enter__(self) -> "SpeedSampler":
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except (AttributeError, OSError):
            pass  # no affinity control here: sample whichever core runs us
        self._thread.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        cpu = time.thread_time
        while not self._stop.wait(PERIOD_S):
            start = cpu()
            _calibration_chunk()
            used = max(cpu() - start, 1e-9)
            self.times.append(time.perf_counter())
            self.factors.append(REFERENCE_CHUNK_S / used)

    def seconds(self, start: float, end: float) -> float:
        """Wall time of ``[start, end]`` at the reference speed."""
        lo = bisect.bisect_left(self.times, start - PAD_S)
        hi = bisect.bisect_right(self.times, end + PAD_S)
        if hi <= lo:
            raise RuntimeError("no speed samples around a timed interval")
        return (end - start) * statistics.fmean(self.factors[lo:hi])
