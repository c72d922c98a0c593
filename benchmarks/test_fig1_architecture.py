"""Figure 1: the LASSI framework architecture, rendered from the live
pipeline's stage graph (not a hard-coded picture)."""

from __future__ import annotations

from repro.llm.profiles import CellPlan
from repro.llm.simulated import SimulatedLLM
from repro.minilang.source import Dialect
from repro.pipeline import build_pipeline


def render_architecture() -> str:
    llm = SimulatedLLM("gpt4", Dialect.OMP, Dialect.CUDA, plan=CellPlan())
    pipeline = build_pipeline(llm, Dialect.OMP, Dialect.CUDA)
    stages = pipeline.stage_names()
    width = max(len(s) for s in stages) + 4
    lines = ["Figure 1: The LASSI framework (stage graph of the live pipeline)"]
    for i, stage in enumerate(stages):
        lines.append("+" + "-" * width + "+")
        lines.append("| " + stage.ljust(width - 1) + "|")
        if "self-correction" in stage:
            lines.append("|" + "  <--- error feedback to LLM".ljust(width) + "|")
    lines.append("+" + "-" * width + "+")
    return "\n".join(lines)


def test_fig1_architecture(benchmark):
    text = benchmark(render_architecture)
    assert "Source code preparation" in text
    assert "Compile self-correction loop" in text
    assert "Execute self-correction loop" in text
    assert "Automated output verification" in text
    print("\n" + text)
