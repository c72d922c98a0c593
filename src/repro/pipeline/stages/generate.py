"""Generation stage: the §III-C translation request."""

from __future__ import annotations

import time
from typing import List, Optional

from repro.llm.base import ChatMessage, GenerationResult, LLMClient
from repro.minilang.source import Dialect
from repro.pipeline.events import LlmCallFinished
from repro.pipeline.stages.base import PipelineContext, StageOutcome
from repro.utils.text import extract_code_block


def preferred_langs(target_dialect: Dialect) -> List[str]:
    """Fence-tag preference for extracting the target-language block."""
    if target_dialect is Dialect.CUDA:
        return ["cuda", "cu"]
    return ["cpp", "c++"]


def extract_target_code(response_text: str, target_dialect: Dialect) -> Optional[str]:
    """LASSI's "filter out the code block" step, shared with the loops."""
    return extract_code_block(
        response_text, prefer_langs=preferred_langs(target_dialect)
    )


def timed_chat(
    ctx: PipelineContext,
    llm: LLMClient,
    stage: str,
    purpose: str,
    messages: List[ChatMessage],
) -> GenerationResult:
    """One LLM round-trip, timed and published as :class:`LlmCallFinished`.

    Generation and every correction round call the LLM through here, so
    their ``llm`` spans time the same thing: the chat alone.
    """
    start = time.perf_counter()
    response = llm.chat(messages)
    ctx.events.publish(LlmCallFinished(
        stage=stage,
        purpose=purpose,
        model=response.model,
        seconds=time.perf_counter() - start,
        prompt_tokens=response.prompt_tokens,
        completion_tokens=response.completion_tokens,
    ))
    return response


class Generate:
    """Query the LLM with the assembled prompt and extract the code block.

    A response with no fenced code block leaves ``ctx.code`` as ``None``;
    the compile loop records that as the (failed) initial attempt, exactly
    like the monolithic pipeline did.
    """

    name = "generate"

    def __init__(self, llm: LLMClient, target_dialect: Dialect) -> None:
        self.llm = llm
        self.target_dialect = target_dialect

    def run(self, ctx: PipelineContext) -> StageOutcome:
        bundle = ctx.bundle
        assert bundle is not None, "Generate requires ContextPrep's bundle"
        response = timed_chat(ctx, self.llm, self.name, "generate", bundle.messages)
        ctx.code = extract_target_code(response.text, self.target_dialect)
        return StageOutcome.proceed()

    def describe(self) -> List[str]:
        return ["Code generation (LLM)"]
