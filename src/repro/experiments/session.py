"""Persistent run sessions: JSONL artifacts that make the grid resumable.

A :class:`RunSession` owns one append-only JSONL file.  The first line is a
``session`` header recording the profile/seed the grid was launched with;
every subsequent line is one completed :class:`ScenarioResult`.  Because
records are appended (and flushed) as each scenario finishes, killing the
process midway loses at most the in-flight scenarios — rerunning with
``resume=True`` reloads the file, skips every recorded scenario, and the
grid completes without re-executing finished work.

A trailing half-written line (the signature of a hard kill) is tolerated on
load and simply dropped; its scenario reruns.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ReproError
from repro.experiments.runner import Scenario, ScenarioResult

ScenarioKey = Tuple[str, str, str]

#: Bumped when the on-disk record shape changes incompatibly, or when the
#: results a recorded grid identity would produce change (version 2:
#: unplanned scenarios salt the LLM seed per app, so resuming a
#: version-1 stochastic session would silently blend old and new
#: behaviour draws in one grid).
SESSION_FORMAT_VERSION = 2


class SessionError(ReproError):
    """Raised for unusable session artifacts (bad header, profile mismatch)."""


class RunSession:
    """Records every completed scenario of one experiment grid to JSONL.

    Thread-safe: :meth:`record` may be called concurrently from worker
    threads; a lock serialises the appends so lines never interleave.
    """

    def __init__(self, path: Union[str, Path], resume: bool = False) -> None:
        self.path = Path(path)
        self.resume = resume
        self._lock = threading.Lock()
        self._results: Dict[ScenarioKey, ScenarioResult] = {}
        self._meta: Optional[dict] = None
        #: Count of unusable lines dropped during load (partial writes).
        self.dropped_lines = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume and self.path.exists():
            self._load()
        elif not resume:
            # Refuse to clobber checkpointed work: a forgotten --resume must
            # not silently wipe a grid's worth of recorded results.
            if self.path.exists() and self.path.stat().st_size > 0:
                raise SessionError(
                    f"session file {self.path} already has content; pass "
                    f"resume=True (--resume) to continue it, or remove the "
                    f"file to start over"
                )
            self.path.write_text("", encoding="utf-8")

    # ------------------------------------------------------------------
    def _load(self) -> None:
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # Half-written trailing line from a killed run.
                    self.dropped_lines += 1
                    continue
                if not isinstance(record, dict):
                    self.dropped_lines += 1
                    continue
                kind = record.get("type")
                if kind == "session":
                    self._check_header(record)
                    self._meta = record
                elif kind == "scenario":
                    try:
                        sr = ScenarioResult.from_dict(record)
                    except (KeyError, TypeError):
                        # Structurally broken record: drop it and let the
                        # scenario rerun rather than refusing the session.
                        self.dropped_lines += 1
                        continue
                    self._results[sr.scenario.key] = sr
        if self._results and self._meta is None:
            # Without the header there is no way to know which profile/seed
            # produced these records; blending them into a new run would be
            # exactly the mix-up bind() exists to prevent.
            raise SessionError(
                f"session file {self.path} has scenario records but no valid "
                f"session header; refusing to resume from it"
            )

    def _check_header(self, record: dict) -> None:
        version = record.get("version")
        if version != SESSION_FORMAT_VERSION:
            raise SessionError(
                f"session file {self.path} has format version {version!r}; "
                f"this build reads version {SESSION_FORMAT_VERSION}"
            )

    # ------------------------------------------------------------------
    def bind(
        self,
        profile: str,
        seed: int,
        config_fingerprint: Optional[str] = None,
    ) -> None:
        """Pin the session to a runner's (profile, seed, config) identity.

        Writes the header on a fresh session; on resume, refuses to mix
        results produced under a different profile, seed or pipeline
        configuration — resuming a ``stochastic seed=3`` grid with
        ``seed=4``, or an ablated-config grid with the full config, would
        silently blend two different experiments.  Headers written before
        the fingerprint existed (no ``config_fingerprint`` key) are
        accepted as-is.
        """
        if self._meta is not None:
            got = (self._meta.get("profile"), self._meta.get("seed"))
            if got != (profile, seed):
                raise SessionError(
                    f"session {self.path} was recorded with profile="
                    f"{got[0]!r} seed={got[1]!r}; cannot resume with "
                    f"profile={profile!r} seed={seed!r}"
                )
            recorded_fp = self._meta.get("config_fingerprint")
            if (
                config_fingerprint is not None
                and recorded_fp is not None
                and recorded_fp != config_fingerprint
            ):
                raise SessionError(
                    f"session {self.path} was recorded with pipeline config "
                    f"{recorded_fp}; cannot resume with config "
                    f"{config_fingerprint}"
                )
            return
        self._meta = {
            "type": "session",
            "version": SESSION_FORMAT_VERSION,
            "profile": profile,
            "seed": seed,
            "config_fingerprint": config_fingerprint,
        }
        self._append(self._meta)

    # ------------------------------------------------------------------
    def record(self, result: ScenarioResult) -> None:
        """Persist one completed scenario (thread-safe, flushed on return).

        Serialized without per-stage wall-time telemetry: session files
        are deterministic functions of the grid identity (the golden
        session digest pins this), and wall-clock noise would break
        that.  Timing telemetry lives on the in-memory results and in
        campaign manifests instead.
        """
        payload = result.to_dict()
        payload["type"] = "scenario"
        self._append(payload)
        with self._lock:
            self._results[result.scenario.key] = result

    def _append(self, payload: dict) -> None:
        line = json.dumps(payload, sort_keys=True)
        with self._lock:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()

    # ------------------------------------------------------------------
    def get(self, scenario: Scenario) -> Optional[ScenarioResult]:
        return self._results.get(scenario.key)

    def __contains__(self, scenario: Scenario) -> bool:
        return scenario.key in self._results

    def __len__(self) -> int:
        return len(self._results)

    def __iter__(self) -> Iterator[ScenarioResult]:
        return iter(self._results.values())

    @property
    def completed_keys(self) -> List[ScenarioKey]:
        return list(self._results.keys())

    @property
    def meta(self) -> Optional[dict]:
        return self._meta
