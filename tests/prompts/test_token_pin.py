"""Token-count pin: every count a chat carries, over the busiest cells.

Context-window accounting is exact, not approximate-by-construction: the
budget the prompt builder checks and the usage the simulated model
reports must not move when the counting is reorganised.  The digest
covers, for every chat of the 8 paper-plan cells that spend at least 34
correction rounds and of the golden session slice, each message's role
and ``ChatMessage.tokens`` and the response's ``prompt_tokens`` and
``completion_tokens``.  It was captured before token counts were summed
from memoized parts.
"""

from __future__ import annotations

import hashlib
import json

from repro.experiments import ExperimentRunner
from repro.experiments.runner import Scenario
from repro.llm.simulated import SimulatedLLM
from tests.experiments.test_stage_graph_compat import GOLDEN_SLICE

#: Paper-plan cells spending >= 34 correction rounds.
STORM_CELLS = [
    ("codestral", "cuda2omp", "jacobi"),
    ("codestral", "cuda2omp", "pathfinder"),
    ("deepseek", "cuda2omp", "pathfinder"),
    ("deepseek", "omp2cuda", "colorwheel"),
    ("deepseek", "omp2cuda", "randomAccess"),
    ("gpt4", "omp2cuda", "dense-embedding"),
    ("gpt4", "omp2cuda", "randomAccess"),
    ("wizardcoder", "omp2cuda", "randomAccess"),
]

CHAT_COUNTS_SHA256 = (
    "76d63a554b52dc51a01dca00dc9a733e876b9e29735bb854c944b07ef568d877"
)


def test_every_chat_count_is_pinned(monkeypatch):
    records = []
    chat = SimulatedLLM.chat

    def recording(self, messages):
        response = chat(self, messages)
        records.append([
            [[m.role, m.tokens] for m in messages],
            response.prompt_tokens,
            response.completion_tokens,
        ])
        return response

    monkeypatch.setattr(SimulatedLLM, "chat", recording)
    runner = ExperimentRunner(profile="paper", jobs=1)
    for cell in STORM_CELLS:
        runner.run_scenario(Scenario(*cell))
    runner.run(**GOLDEN_SLICE)
    text = json.dumps(records, separators=(",", ":"))
    assert len(records) == 411
    assert hashlib.sha256(text.encode()).hexdigest() == CHAT_COUNTS_SHA256
