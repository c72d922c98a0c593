#!/usr/bin/env python3
"""Plug a custom LLM backend into LASSI.

The pipeline is LLM-agnostic (§III of the paper): anything implementing
``LLMClient.chat`` works.  This example wires an ``OllamaClient`` with a
*fake transport* that delegates to the simulated model — exactly the shape
of a real deployment (swap the transport for the default urllib one and
point ``base_url`` at a live Ollama server).
"""

from repro.hecbench import get_app
from repro.llm.base import ChatMessage
from repro.llm.clients import OllamaClient
from repro.llm.profiles import CellPlan
from repro.llm.simulated import SimulatedLLM
from repro.minilang.source import Dialect
from repro.pipeline import build_pipeline

backing = SimulatedLLM("deepseek", Dialect.CUDA, Dialect.OMP, plan=CellPlan())


def fake_ollama_transport(url: str, payload: dict) -> dict:
    """Stands in for a live Ollama server on localhost:11434."""
    messages = [ChatMessage(m["role"], m["content"]) for m in payload["messages"]]
    out = backing.chat(messages)
    return {
        "message": {"content": out.text},
        "prompt_eval_count": out.prompt_tokens,
        "eval_count": out.completion_tokens,
    }


def main() -> int:
    client = OllamaClient(
        model="deepseek-coder-v2:16b",
        context_length=163840,
        transport=fake_ollama_transport,  # drop this arg on a real server
    )
    app = get_app("entropy")
    pipeline = build_pipeline(client, Dialect.CUDA, Dialect.OMP)
    result = pipeline.run(
        app.cuda_source,
        reference_target_code=app.omp_source,
        args=app.args,
        work_scale=app.work_scale,
        launch_scale=app.launch_scale,
    )
    print(f"model: {client.name} (via Ollama wire protocol)")
    print(f"status: {result.status}, Sim-T {result.sim_t:.2f}, "
          f"ratio {result.ratio:.3f}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
