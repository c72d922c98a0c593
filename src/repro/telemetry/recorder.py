"""Flight recorder: a bounded ring of recent events, dumped on disaster.

Each worker process keeps one :class:`FlightRecorder` subscribed to its
pipeline buses.  In normal operation it costs one deque append per
event.  When a pipeline run raises an unhandled exception — or the
worker receives SIGTERM (a shard being reaped on a remote host) — the
ring is dumped to ``flight-<pid>.json`` in the configured directory, so
a dead shard is debuggable from artifacts alone: the dump carries the
last N events with offsets, the active scenario, and the exception.

The recorder is process-global (workers are single-tenant); configure
the dump directory with :func:`configure_flight_recorder` or the
``REPRO_FLIGHT_DIR`` environment variable.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import traceback
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

__all__ = [
    "FlightRecorder",
    "configure_flight_recorder",
    "get_flight_recorder",
    "install_sigterm_handler",
]

#: Environment variable naming the dump directory (workers inherit it).
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Ring buffer of recent pipeline events; callable as a subscriber."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        directory: Optional[Union[str, Path]] = None,
    ) -> None:
        self.capacity = capacity
        self.directory = Path(directory) if directory else None
        self._lock = threading.Lock()
        #: (perf_counter at arrival, event); events are frozen, so a
        #: record is built only when the ring is read
        self._events: Deque[Tuple[float, Any]] = deque(maxlen=capacity)
        self._t0 = time.perf_counter()
        self._context: Dict[str, Any] = {}

    # -- event intake ---------------------------------------------------
    def __call__(self, event: Any) -> None:
        with self._lock:
            self._events.append((time.perf_counter(), event))

    def records(self) -> List[Dict[str, Any]]:
        """The ring as JSON-able records, oldest first: the arrival offset
        ``t``, the event's class name and its fields (strings cut at 500
        characters)."""
        with self._lock:
            ring = list(self._events)
        out = []
        for arrived, event in ring:
            record: Dict[str, Any] = {
                "t": round(arrived - self._t0, 6),
                "event": type(event).__name__,
            }
            for name in getattr(event, "__dataclass_fields__", None) or ():
                value = getattr(event, name, None)
                if isinstance(value, str) and len(value) > 500:
                    value = value[:500] + "…"
                record[name] = value
            out.append(record)
        return out

    def set_context(self, **context: Any) -> None:
        """Note what the worker is currently doing (shown in dumps)."""
        with self._lock:
            self._context.update(context)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._context.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # -- dumping --------------------------------------------------------
    def dump_path(self) -> Path:
        directory = self.directory
        if directory is None:
            directory = Path(os.environ.get(FLIGHT_DIR_ENV, "."))
        return directory / f"flight-{os.getpid()}.json"

    def dump(
        self, reason: str, exc: Optional[BaseException] = None
    ) -> Optional[Path]:
        """Write the ring to ``flight-<pid>.json``; never raises."""
        events = self.records()
        with self._lock:
            context = dict(self._context)
        payload: Dict[str, Any] = {
            "pid": os.getpid(),
            "reason": reason,
            "context": context,
            "events": events,
        }
        if exc is not None:
            payload["exception"] = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": "".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                ),
            }
        try:
            path = self.dump_path()
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, default=str)
                fh.write("\n")
            return path
        except OSError:
            return None  # dying anyway; don't mask the original failure


# ----------------------------------------------------------------------
_RECORDER: Optional[FlightRecorder] = None


def get_flight_recorder() -> FlightRecorder:
    """The process-wide recorder (created on first use)."""
    global _RECORDER
    if _RECORDER is None:
        _RECORDER = FlightRecorder()
    return _RECORDER


def configure_flight_recorder(
    directory: Optional[Union[str, Path]] = None,
    capacity: int = DEFAULT_CAPACITY,
) -> FlightRecorder:
    """(Re)build the process-wide recorder with an explicit dump dir."""
    global _RECORDER
    _RECORDER = FlightRecorder(capacity=capacity, directory=directory)
    return _RECORDER


def install_sigterm_handler() -> bool:
    """Dump the flight ring when the process is terminated.

    Returns ``False`` (and installs nothing) off the main thread —
    thread-pool workers share the parent's handler.  After dumping, the
    previous disposition is restored and the signal re-raised so exit
    semantics are unchanged.
    """
    if threading.current_thread() is not threading.main_thread():
        return False

    def _on_sigterm(signum: int, frame: Any) -> None:
        get_flight_recorder().dump("sigterm")
        signal.signal(signal.SIGTERM, previous)
        signal.raise_signal(signal.SIGTERM)

    try:
        previous = signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):
        return False  # non-main interpreter thread or unsupported platform
    return True
