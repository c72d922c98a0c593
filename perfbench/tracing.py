"""In-memory span tracing around the public calls of each layer.

The benchmark never edits the program.  A traced pass installs thin
wrappers over the public functions that form each layer's seam (the
interpreter's ``ProgramRunner.run``, the transpiler's ``Transpiler.translate``,
the sqlite store's ``get``, ...), records one span per call — name, start,
end, parent — and restores the originals when the pass ends.  A layer's
self time is the duration of its spans minus the time covered by their
child spans, so nested layers are never counted twice.

Exact guest-cost counts (interpreter steps, launches per dispatch path,
step-budget kills) are read off each call's return value at the same seams.
Untraced passes count them too, through a :class:`GuestCounter` on the
interpreter's seam alone, so every pass checks guest cost.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.cache import ResultCache
from repro.experiments.campaign import CampaignRunner
from repro.experiments.session import RunSession
from repro.experiments.store import SqliteCacheStore
from repro.gpu.perfmodel import PerformanceModel
from repro.interp.executor import ProgramRunner
from repro.llm.simulated import SimulatedLLM
from repro.llm.transpiler import Transpiler
from repro.pipeline.baseline import BaselinePreparer
from repro.pipeline.engine import StagePipeline
from repro.pipeline.stages import finalize
from repro.prompts.builder import PromptBuilder
from repro.toolchain import compiler
from repro.toolchain.compiler import CompilerDriver
from repro.toolchain.executor import Executor

#: Interpreter dispatch paths, as ``ExecutionProfile.launch_paths`` names them.
LAUNCH_PATHS = ("flat", "barrier", "slow", "omp")

#: The message ``ExecContext.consume_steps`` raises when a guest run
#: exhausts its step budget.
_KILLED = "execution timed out (killed)"


def _observe_interp(counts: Counter, args: tuple, outcome: Any) -> None:
    counts["interp.steps"] += outcome.steps_used
    for path, n in outcome.profile.launch_paths().items():
        counts[f"interp.launches.{path}"] += n
    if outcome.error == _KILLED:
        counts["interp.killed"] += 1


def _observe_chat(counts: Counter, args: tuple, response: Any) -> None:
    counts["llm.prompt_tokens"] += response.prompt_tokens
    counts["llm.completion_tokens"] += response.completion_tokens


def _observe_parse(counts: Counter, args: tuple, result: Any) -> None:
    counts["minilang.parse_bytes"] += len(args[0].text)


def _observe_compile(counts: Counter, args: tuple, result: Any) -> None:
    if not result.ok:
        counts["toolchain.compile_failures"] += 1


def _observe_store_get(counts: Counter, args: tuple, entry: Any) -> None:
    if entry is not None:
        counts["experiments.store_hits"] += 1


#: (owner, attribute, span name, observer).  An owner is the class whose
#: method is wrapped, or the module through which the caller looks the
#: function up: ``minilang.parse`` is the compiler front end's parse, so
#: the simulated LLM's own re-parsing stays inside ``llm.translate``.
SEAMS: List[Tuple[Any, str, str, Optional[Callable]]] = [
    (ProgramRunner, "run", "interp.run", _observe_interp),
    (SimulatedLLM, "chat", "llm.chat", _observe_chat),
    (Transpiler, "translate", "llm.translate", None),
    (compiler, "parse", "minilang.parse", _observe_parse),
    (compiler, "analyze", "minilang.analyze", None),
    (CompilerDriver, "compile", "toolchain.compile", _observe_compile),
    (Executor, "run", "toolchain.run", None),
    (PerformanceModel, "breakdown", "gpu.breakdown", None),
    (PromptBuilder, "build", "prompts.build", None),
    (PromptBuilder, "correction_messages", "prompts.correction", None),
    (finalize, "sim_t", "metrics.similarity", None),
    (finalize, "sim_l", "metrics.similarity", None),
    (StagePipeline, "run", "pipeline.run", None),
    (BaselinePreparer, "prepare", "pipeline.baseline", None),
    (SqliteCacheStore, "get", "experiments.store_get", _observe_store_get),
    (SqliteCacheStore, "put", "experiments.store_put", None),
    (ResultCache, "get", "experiments.cache_get", None),
    (RunSession, "record", "experiments.session_record", None),
    (CampaignRunner, "run", "experiments.campaign", None),
]

#: The one seam an untraced pass wraps: where guest cost is counted.
GUEST_SEAMS = [seam for seam in SEAMS if seam[2] == "interp.run"]


class GuestCounter:
    """Counts at the seams it wraps, records no spans (untraced passes)."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn: Callable, observe: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(counts, args, result)
            return result

        return counted


class SpanRecorder:
    """Spans and counts of one traced pass, kept in memory.

    A span is ``[name, start, end, parent, op]``: ``parent`` indexes the
    enclosing span (-1 for a root) and ``op`` identifies the benchmark
    operation the span belongs to, so the spans of one op share an id.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self.op = -1

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def op_span(self, op: int) -> "_OpSpan":
        """Context manager recording the root span of one benchmark op."""
        return _OpSpan(self, op)

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - child[i]
        return {name: (int(c), s) for name, (c, s) in out.items()}

    def inclusive_seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _p, _o in self.spans if n == name)


class _OpSpan:
    def __init__(self, recorder: SpanRecorder, op: int) -> None:
        self.recorder = recorder
        self.op = op

    def __enter__(self) -> None:
        rec = self.recorder
        rec.op = self.op
        self.span = ["bench.op", time.perf_counter(), 0.0, -1, self.op]
        rec._stack.append(len(rec.spans))
        rec.spans.append(self.span)

    def __exit__(self, *_exc: object) -> None:
        self.span[2] = time.perf_counter()
        self.recorder._stack.pop()


class Instrumented:
    """Installs a recorder's wrappers on ``seams``; restores on exit."""

    def __init__(self, recorder: Any, seams: List[tuple] = SEAMS) -> None:
        self.recorder = recorder
        self.seams = seams
        #: (owner, attribute, value to restore or None to delete).
        self._undo: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> Any:
        for owner, attr, name, observe in self.seams:
            original = getattr(owner, attr)
            # An inherited method (SqliteCacheStore.get) is shadowed on the
            # subclass and the shadow deleted again on exit.
            self._undo.append((owner, attr, original if attr in vars(owner) else None))
            setattr(owner, attr, self.recorder.wrap(name, original, observe))
        return self.recorder

    def __exit__(self, *_exc: object) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


def layer_metrics(recorder: SpanRecorder, scale: float = 1.0) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    Times are self times, except ``pipeline.baseline_s``, which includes
    the baseline's own compile and run; all are multiplied by ``scale``
    (the pass's factor to the reference speed).
    """
    st = recorder.self_times()
    counts = recorder.counts

    def calls(name: str) -> int:
        return st.get(name, (0, 0.0))[0]

    def secs(name: str) -> float:
        return st.get(name, (0, 0.0))[1] * scale

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = counts["interp.steps"]
    gets = calls("experiments.store_get")
    out: Dict[str, float] = {
        "interp.run_calls": calls("interp.run"),
        "interp.run_s": secs("interp.run"),
        "interp.us_per_step": ratio(secs("interp.run") * 1e6, steps),
        "interp.steps": steps,
    }
    for path in LAUNCH_PATHS:
        out[f"interp.launches.{path}"] = counts[f"interp.launches.{path}"]
    out.update({
        "interp.killed": counts["interp.killed"],
        "llm.chat_calls": calls("llm.chat"),
        "llm.chat_s": secs("llm.chat"),
        "llm.translate_calls": calls("llm.translate"),
        "llm.translate_s": secs("llm.translate"),
        "llm.translate_ms_per_call": ratio(
            secs("llm.translate") * 1e3, calls("llm.translate")
        ),
        "llm.prompt_tokens": counts["llm.prompt_tokens"],
        "llm.completion_tokens": counts["llm.completion_tokens"],
        "minilang.parse_calls": calls("minilang.parse"),
        "minilang.parse_s": secs("minilang.parse"),
        "minilang.analyze_s": secs("minilang.analyze"),
        "minilang.parse_kb_per_s": ratio(
            counts["minilang.parse_bytes"] / 1e3, secs("minilang.parse")
        ),
        "toolchain.compile_calls": calls("toolchain.compile"),
        "toolchain.compile_s": secs("toolchain.compile"),
        "toolchain.compile_failures": counts["toolchain.compile_failures"],
        "toolchain.run_s": secs("toolchain.run"),
        "gpu.breakdown_calls": calls("gpu.breakdown"),
        "gpu.breakdown_s": secs("gpu.breakdown"),
        "prompts.build_s": secs("prompts.build"),
        "prompts.correction_calls": calls("prompts.correction"),
        "prompts.correction_s": secs("prompts.correction"),
        "metrics.similarity_calls": calls("metrics.similarity"),
        "metrics.similarity_s": secs("metrics.similarity"),
        "pipeline.run_calls": calls("pipeline.run"),
        "pipeline.self_s": secs("pipeline.run"),
        "pipeline.baseline_s": recorder.inclusive_seconds("pipeline.baseline") * scale,
        "experiments.store_get_calls": gets,
        "experiments.store_get_s": secs("experiments.store_get"),
        "experiments.store_hit_ratio": ratio(counts["experiments.store_hits"], gets),
        "experiments.cache_get_s": secs("experiments.cache_get"),
        "experiments.session_record_s": secs("experiments.session_record"),
        "experiments.campaign_self_s": secs("experiments.campaign"),
    })
    return out


def self_time_ranking(recorder: SpanRecorder) -> List[Tuple[str, int, float]]:
    """(name, calls, self seconds) for every span name, largest first."""
    st = recorder.self_times()
    return sorted(
        ((name, c, s) for name, (c, s) in st.items()),
        key=lambda row: row[2],
        reverse=True,
    )
