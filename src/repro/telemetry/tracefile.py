"""JSONL trace files written alongside ``RunSession`` logs.

A trace file is the telemetry sidecar of a session: the session JSONL
stays byte-deterministic (no timings), the ``.trace.jsonl`` next to it
holds everything timing-shaped.  Line format, one JSON object per line:

* ``{"record": "header", "format": 1, ...}`` — first line;
* ``{"record": "trace", "trace_id": N, "scenario": {...}, "spans": [...]}``
  — one per traced pipeline run, ``trace_id`` sequential per file.

Readers skip any other record kind, so sidecars written by older
versions (which closed with a ``metrics`` record) still load.

:func:`merge_trace_files` fuses per-shard trace files into one canonical
file, remapping ``trace_id`` to a single sequential space.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Union

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TRACE_SUFFIX",
    "TraceWriter",
    "iter_trace_records",
    "load_trace_file",
    "merge_trace_files",
    "trace_path_for",
]

TRACE_FORMAT_VERSION = 1

#: Suffix replacing a session's ``.jsonl``.
TRACE_SUFFIX = ".trace.jsonl"


def trace_path_for(session_path: Union[str, Path]) -> Path:
    """The trace sidecar path for a session log path.

    ``sessions/run.jsonl`` → ``sessions/run.trace.jsonl``; a sharded
    session ``run.shard-0-of-2.jsonl`` → ``run.shard-0-of-2.trace.jsonl``.
    """
    path = Path(session_path)
    name = path.name
    if name.endswith(".jsonl"):
        name = name[: -len(".jsonl")]
    return path.with_name(name + TRACE_SUFFIX)


def _dumps(obj: Dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TraceWriter:
    """Appends trace records for one session (or shard) to one file.

    Safe to use as a context manager.
    """

    def __init__(self, path: Union[str, Path], resume: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._trace_id = 0
        self._closed = False
        mode = "a" if (resume and self.path.exists()) else "w"
        if mode == "a":
            for record in iter_trace_records(self.path):
                if record.get("record") == "trace":
                    self._trace_id = int(record["trace_id"]) + 1
        self._fh = open(self.path, mode, encoding="utf-8")
        if mode == "w":
            self._fh.write(
                _dumps(
                    {
                        "record": "header",
                        "format": TRACE_FORMAT_VERSION,
                    }
                )
                + "\n"
            )
            self._fh.flush()

    def write_trace(
        self, scenario: Dict[str, Any], spans: Sequence[Dict[str, Any]]
    ) -> int:
        """Append one pipeline run's spans; returns its trace id."""
        trace_id = self._trace_id
        self._trace_id += 1
        self._fh.write(
            _dumps(
                {
                    "record": "trace",
                    "trace_id": trace_id,
                    "scenario": dict(scenario),
                    "spans": [dict(s) for s in spans],
                }
            )
            + "\n"
        )
        self._fh.flush()
        return trace_id

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def iter_trace_records(path: Union[str, Path]) -> Iterator[Dict[str, Any]]:
    """Yield records from a trace file, tolerating a truncated tail
    (a killed worker may die mid-line; everything before it is good)."""
    p = Path(path)
    if not p.exists():
        return
    with open(p, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                return  # truncated tail — stop, keep what parsed
            if isinstance(record, dict):
                yield record


def load_trace_file(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse one trace file into ``{header, traces}``."""
    header: Optional[Dict[str, Any]] = None
    traces: List[Dict[str, Any]] = []
    for record in iter_trace_records(path):
        kind = record.get("record")
        if kind == "header":
            header = record
        elif kind == "trace":
            traces.append(record)
    return {
        "header": header or {"record": "header", "format": TRACE_FORMAT_VERSION},
        "traces": traces,
    }


def merge_trace_files(
    shard_paths: Iterable[Union[str, Path]], out_path: Union[str, Path]
) -> int:
    """Concatenate shard trace files into one, remapping trace ids.

    Shards are consumed in the given order and trace ids become one
    sequential space.  Writes atomically (temp file + replace).  Returns
    the number of traces written.
    """
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + ".tmp")
    next_id = 0
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(
            _dumps({"record": "header", "format": TRACE_FORMAT_VERSION}) + "\n"
        )
        for shard in shard_paths:
            for record in iter_trace_records(shard):
                if record.get("record") == "trace":
                    record = dict(record)
                    record["trace_id"] = next_id
                    next_id += 1
                    fh.write(_dumps(record) + "\n")
    os.replace(tmp, out)
    return next_id
