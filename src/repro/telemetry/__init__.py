"""Unified telemetry: tracing spans, trace files and their summaries, a
flight recorder, and the ``repro.*`` logging namespace.

The layer rides on the typed pipeline event bus — a
:class:`~repro.telemetry.spans.SpanTracer` is just another subscriber —
and keeps telemetry strictly out of the science artifacts: session JSONL
stays byte-deterministic, while timing-shaped data lands in a
``.trace.jsonl`` sidecar (see :mod:`repro.telemetry.tracefile`).

This package imports nothing from the rest of :mod:`repro` except its
own modules, so any layer can depend on it without cycles.
"""

from repro.telemetry.log import configure as configure_logging
from repro.telemetry.log import get_logger
from repro.telemetry.recorder import (
    FlightRecorder,
    configure_flight_recorder,
    get_flight_recorder,
    install_sigterm_handler,
)
from repro.telemetry.profile import (
    RuntimeProfile,
    diff_profile_snapshots,
    load_profile_snapshot,
    profile_from_execution,
    regression_gate,
    render_profile_diff,
)
from repro.telemetry.spans import Span, SpanTracer
from repro.telemetry.tracefile import (
    TRACE_FORMAT_VERSION,
    TraceWriter,
    load_trace_file,
    merge_trace_files,
    trace_path_for,
)
from repro.telemetry.summary import (
    collect_trace_paths,
    critical_path_report,
    render_critical_path,
    render_trace_show,
    render_trace_summary,
    summarize_traces,
    trace_critical_path,
)

__all__ = [
    "FlightRecorder",
    "RuntimeProfile",
    "Span",
    "SpanTracer",
    "TRACE_FORMAT_VERSION",
    "TraceWriter",
    "collect_trace_paths",
    "configure_flight_recorder",
    "configure_logging",
    "critical_path_report",
    "diff_profile_snapshots",
    "get_flight_recorder",
    "get_logger",
    "install_sigterm_handler",
    "load_profile_snapshot",
    "load_trace_file",
    "merge_trace_files",
    "profile_from_execution",
    "regression_gate",
    "render_critical_path",
    "render_profile_diff",
    "render_trace_show",
    "render_trace_summary",
    "summarize_traces",
    "trace_critical_path",
    "trace_path_for",
]
