"""Pipeline configuration (the ablation switches).

Lives in its own module so the stage implementations and the engine can
both import it without cycles.  Re-exported from :mod:`repro.pipeline`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable pipeline behaviour (ablation switches included).

    Under the stage-graph API each switch is a graph edit performed by
    :class:`~repro.pipeline.engine.PipelineBuilder`: ``verify_output``
    adds/removes the verification stage, ``include_knowledge`` adds/removes
    the self-prompt knowledge sub-steps, and ``self_correction`` zeroes the
    loop budgets (the loop stages stay in the graph so the single-attempt
    path is the same code).
    """

    #: Cap on self-correction re-prompts (the paper observed up to 34).
    max_corrections: int = 40
    #: Include the language-knowledge document + self-prompt summary
    #: (§III-B).  Ablating this models direct prompting a la Nichols et al.
    include_knowledge: bool = True
    #: Run the automated output comparison (§VI future work, implemented).
    verify_output: bool = True
    #: Self-correction enabled at all (ablation: max_corrections=0 happens
    #: through this switch so the loop structure is untouched).
    self_correction: bool = True

    @property
    def effective_max_corrections(self) -> int:
        return self.max_corrections if self.self_correction else 0

    def fingerprint(self) -> str:
        """Content hash of the configuration (the cache/session identity).

        Two configs with equal field values — however they were built —
        share a fingerprint, so e.g. an explicit ``max_corrections=40``
        variant hits the same cache entries as the defaults.
        """
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
