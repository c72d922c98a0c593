"""Result records produced by the pipeline.

Both record types round-trip through plain dicts (``to_dict`` /
``from_dict``) so a :class:`~repro.experiments.session.RunSession` can
persist every result to a JSONL artifact and rebuild it on resume.

Terminal statuses are a :class:`Status` str-enum whose members serialize
to the exact historical string literals (``"success"``, ``"no-code"``,
…) — session files and cache entries written before the enum existed
load unchanged, and new ones are byte-identical to old ones.

Telemetry fields (:attr:`LassiResult.spans` and the ``profile`` block)
are not science: they are excluded from equality comparisons and from
``to_dict`` by default so sessions and caches stay deterministic; pass
``include_timings=True`` to carry them across a process boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.metrics.aggregate import ScenarioMetrics


class Status(str, enum.Enum):
    """Terminal pipeline statuses (values are the on-disk literals)."""

    SUCCESS = "success"
    NO_CODE = "no-code"
    COMPILE_FAILED = "compile-failed"
    EXECUTE_FAILED = "execute-failed"
    OUTPUT_MISMATCH = "output-mismatch"

    # str() and format() must yield the bare value on every supported
    # Python version (3.9-3.12 disagree on mixed-in enum repr/format);
    # session JSONL byte-identity depends on it.
    __str__ = str.__str__
    __format__ = str.__format__


@dataclass
class Attempt:
    """One generation attempt inside the self-correction loops."""

    index: int
    kind: str  # "initial" | "compile-correction" | "execute-correction"
    code: Optional[str]
    compiled: bool = False
    executed: bool = False
    stderr: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "code": self.code,
            "compiled": self.compiled,
            "executed": self.executed,
            "stderr": self.stderr,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Attempt":
        return cls(
            index=data["index"],
            kind=data["kind"],
            code=data.get("code"),
            compiled=data.get("compiled", False),
            executed=data.get("executed", False),
            stderr=data.get("stderr", ""),
        )


@dataclass
class LassiResult:
    """Full record of one pipeline run (one Table VI/VII cell)."""

    status: str  # a Status member (plain strings with the same values
    #              compare and serialize identically)
    source_dialect: str
    target_dialect: str
    model: str
    generated_code: Optional[str] = None
    stdout: str = ""
    runtime_seconds: Optional[float] = None
    ratio: Optional[float] = None
    sim_t: Optional[float] = None
    sim_l: Optional[float] = None
    self_corrections: int = 0
    attempts: List[Attempt] = field(default_factory=list)
    prompt_tokens: int = 0
    verified: bool = False
    failure_detail: str = ""
    #: Serialized telemetry spans from a :class:`~repro.telemetry.spans.
    #: SpanTracer`, when the run was traced — the only per-stage wall-time
    #: record (excluded from equality and default serialization; this is
    #: how worker processes ship their spans to the parent).
    spans: List[Dict[str, Any]] = field(default_factory=list, compare=False)
    #: Deterministic runtime-profile block from :class:`~repro.pipeline.
    #: stages.finalize.ComputeMetrics`: the generated and reference
    #: :class:`~repro.telemetry.profile.RuntimeProfile` dicts plus their
    #: step ratio.  Observability, not science: excluded from equality
    #: and from default serialization (session bytes stay pinned), but —
    #: unlike wall-clock timings — its counts are exact, so it also rides
    #: campaign manifests as a per-cell summary.
    profile: Optional[Dict[str, Any]] = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == Status.SUCCESS

    def metrics(self) -> ScenarioMetrics:
        """Project onto the five table columns (§V-A)."""
        if not self.ok:
            return ScenarioMetrics(ok=False)
        return ScenarioMetrics(
            ok=True,
            runtime_seconds=self.runtime_seconds,
            ratio=self.ratio,
            sim_t=self.sim_t,
            sim_l=self.sim_l,
            self_corrections=self.self_corrections,
        )

    def to_dict(self, include_timings: bool = False) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "status": str(self.status),
            "source_dialect": self.source_dialect,
            "target_dialect": self.target_dialect,
            "model": self.model,
            "generated_code": self.generated_code,
            "stdout": self.stdout,
            "runtime_seconds": self.runtime_seconds,
            "ratio": self.ratio,
            "sim_t": self.sim_t,
            "sim_l": self.sim_l,
            "self_corrections": self.self_corrections,
            "attempts": [a.to_dict() for a in self.attempts],
            "prompt_tokens": self.prompt_tokens,
            "verified": self.verified,
            "failure_detail": self.failure_detail,
        }
        if include_timings:
            if self.spans:
                data["spans"] = [dict(s) for s in self.spans]
            if self.profile is not None:
                data["profile"] = dict(self.profile)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LassiResult":
        return cls(
            status=Status(data["status"]),
            source_dialect=data["source_dialect"],
            target_dialect=data["target_dialect"],
            model=data["model"],
            generated_code=data.get("generated_code"),
            stdout=data.get("stdout", ""),
            runtime_seconds=data.get("runtime_seconds"),
            ratio=data.get("ratio"),
            sim_t=data.get("sim_t"),
            sim_l=data.get("sim_l"),
            self_corrections=data.get("self_corrections", 0),
            attempts=[Attempt.from_dict(a) for a in data.get("attempts", [])],
            prompt_tokens=data.get("prompt_tokens", 0),
            verified=data.get("verified", False),
            failure_detail=data.get("failure_detail", ""),
            spans=[dict(s) for s in data.get("spans", [])],
            profile=(
                dict(data["profile"])
                if data.get("profile") is not None
                else None
            ),
        )
