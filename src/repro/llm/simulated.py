"""The simulated LLM: transpiler competence + seeded fault/repair behaviour.

``SimulatedLLM`` implements the same :class:`~repro.llm.base.LLMClient`
protocol as the live adapters and is driven purely by the *content* of the
prompts the pipeline sends — it recognizes the knowledge-summary request,
the code-description request, the translation request and the Table III
correction prompts by their dictionary text, extracts the embedded source
code / stderr, and responds like a code model would: prose + a fenced code
block.

Behaviour per scenario comes from a :class:`~repro.llm.profiles.CellPlan`:

* generation ``k`` of an ``ok``-outcome scenario carries planned fault
  ``k`` (the model "fixes one bug and introduces the next" — the dynamics
  that give LASSI its Self-corr counts), and generation ``k = plan.
  self_corrections`` is clean;
* a correction prompt only advances the state when the quoted stderr
  matches the active fault's signature (the repair must be *about* the
  error);
* ``na-*`` outcomes re-inject an unfixable fault class forever, which is
  how the paper's N/A cells emerge from the loop's iteration cap or the
  output comparison.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import List, Optional

from repro.llm.base import ChatMessage, GenerationResult, LLMClient
from repro.llm.faults import Fault, faults_for, get_fault
from repro.llm.profiles import (
    DIRECTION_STYLE_TWEAKS,
    CellPlan,
    MODEL_STYLES,
    STOCHASTIC_PROFILES,
    direction_key,
)
from repro.llm.registry import get_model
from repro.llm.transpiler import TranspileError, Transpiler, TranspileOptions
from repro.minilang.source import Dialect
from repro.utils.rng import RngStream
from repro.utils.tokens import count_joined, count_tokens

_SUMMARY_MARKER = "Summarize the following"
_DESCRIBE_MARKER = "Describe succinctly what the following"
_TRANSLATE_MARKER = "Think carefully before developing"
_CORRECTION_MARKER = "Re-factor the above code with a fix"

_CHATTER = {
    "gpt4": "Here is the complete translated code:",
    "codestral": "Below is the translated program.",
    "wizardcoder": "Sure! The fully translated code is:",
    "deepseek": "The translated code follows.",
}


class SimulatedLLM(LLMClient):
    """Offline stand-in for the paper's four models."""

    def __init__(
        self,
        model_key: str,
        source_dialect: Dialect,
        target_dialect: Dialect,
        plan: Optional[CellPlan] = None,
        seed: int = 0,
    ) -> None:
        spec = get_model(model_key)
        self.spec = spec
        self.name = spec.name
        self.key = spec.key
        self.context_length = spec.context_length
        self.source_dialect = source_dialect
        self.target_dialect = target_dialect
        self.rng = RngStream(
            seed, "llm", spec.key, source_dialect.value, target_dialect.value
        )
        if plan is None:
            plan = STOCHASTIC_PROFILES[spec.key].draw_plan(
                self.rng.child("plan"), target_dialect
            )
        self.plan = plan
        #: Number of repairs that have landed so far.
        self.state = 0
        #: Total chat calls (for accounting/tests).
        self.calls = 0
        base = MODEL_STYLES[spec.key]
        tweaks = DIRECTION_STYLE_TWEAKS.get(
            (spec.key, direction_key(source_dialect, target_dialect))
        )
        if tweaks:
            base = replace(base, **dict(tweaks))
        self.options: TranspileOptions = plan.options_for(base)
        #: The conversation's translation before planned faults.  It is a
        #: pure function of the source, :attr:`options` and the dialects,
        #: so it is made once per translation prompt and every correction
        #: round applies its planned fault to the same text.
        self._translation: Optional[str] = None

    # ------------------------------------------------------------------
    # LLMClient protocol
    # ------------------------------------------------------------------
    def chat(self, messages: List[ChatMessage]) -> GenerationResult:
        self.calls += 1
        prompt = messages[-1].content if messages else ""
        prompt_tokens = sum(
            m.tokens if m.tokens is not None else count_tokens(m.content)
            for m in messages
        )

        # Each handler returns its reply as parts, so the reply is counted
        # from them: the code a generation quotes is counted once, and the
        # next correction prompt, which quotes it back, finds it counted.
        if _CORRECTION_MARKER in prompt:
            parts = self._handle_correction(prompt)
        elif _TRANSLATE_MARKER in prompt:
            parts = self._handle_translation(prompt)
        elif _SUMMARY_MARKER in prompt:
            parts = [self._handle_summary(prompt)]
        elif _DESCRIBE_MARKER in prompt:
            parts = [self._handle_description(prompt)]
        else:
            parts = [
                "I can help translate parallel code between CUDA and "
                "OpenMP. Please provide the source program."
            ]
        return GenerationResult(
            text="".join(parts),
            model=self.name,
            prompt_tokens=prompt_tokens,
            completion_tokens=count_joined(parts),
        )

    # ------------------------------------------------------------------
    # Request handlers
    # ------------------------------------------------------------------
    def _handle_summary(self, prompt: str) -> str:
        lang = self.target_dialect.display_name
        return (
            f"Key points for writing {lang} code: use the canonical "
            f"data-parallel constructs, keep data resident on the device "
            f"across launches, guard index ranges, and map every array the "
            f"device touches. Atomic updates protect shared histogram bins; "
            f"reductions combine per-thread partials. Transfers dominate "
            f"when staged inside iteration loops, so hoist them out."
        )

    def _handle_description(self, prompt: str) -> str:
        code = prompt.split(":\n\n", 1)[-1]
        kernels = len(re.findall(r"__global__", code))
        pragmas = len(re.findall(r"#pragma omp target", code))
        loops = len(re.findall(r"\bfor \(", code))
        src = self.source_dialect.display_name
        parallel_bits = (
            f"{kernels} CUDA kernel(s)" if kernels else f"{pragmas} offloaded region(s)"
        )
        return (
            f"A {src} program that allocates its working arrays, initializes "
            f"them deterministically, performs its computation with "
            f"{parallel_bits} across {loops} loop(s), and prints checksum "
            f"lines for verification."
        )

    def _handle_translation(self, prompt: str) -> List[str]:
        source = self._extract_translation_source(prompt)
        try:
            self._translation = Transpiler(self.options).translate(
                source, self.source_dialect, self.target_dialect
            )
        except TranspileError:
            # Outside the competence envelope: emit the source unchanged;
            # it will not compile, which is the honest failure mode of a
            # weak model.
            self._translation = source
        return self._emit_generation(self._translation)

    def _handle_correction(self, prompt: str) -> List[str]:
        code, error = self._extract_correction_parts(prompt)
        if self._repair_lands(error):
            self.state += 1
        if self._translation is None:
            # Conversation started mid-stream (correction without a prior
            # translation): best effort — re-emit the quoted code.
            return ["```\n", code, "\n```"]
        return self._emit_generation(self._translation)

    # ------------------------------------------------------------------
    # Generation machinery
    # ------------------------------------------------------------------
    def _emit_generation(self, translated: str) -> List[str]:
        """The reply's parts: chatter and opening fence, code, closing fence."""
        code = self._apply_faults(translated)
        fence_lang = "cuda" if self.target_dialect is Dialect.CUDA else "cpp"
        return [f"{_CHATTER[self.key]}\n```{fence_lang}\n", code, "```\n"]

    def _apply_faults(self, code: str) -> str:
        plan = self.plan
        if plan.perf_fault is not None:
            out = get_fault(plan.perf_fault).apply(code)
            if out is not None:
                code = out
        if plan.outcome == "ok":
            if self.state >= plan.self_corrections:
                self._active_fault = None
                return code
            fault = self._planned_fault(self.state)
            if fault is not None:
                out = fault.apply(code)
                if out is not None:
                    self._active_fault = fault
                    return out
            # Planned fault does not fit this code shape: fall back to any
            # applicable non-perf fault so the planned behaviour class (one
            # correction round per planned fault) is preserved.
            for fallback in faults_for(self.target_dialect):
                if fallback.stage == "perf" or fallback.stage == "output":
                    continue
                out = fallback.apply(code)
                if out is not None:
                    self._active_fault = fallback
                    return out
            self._active_fault = None
            return code
        # N/A modes: persistently re-inject a fault of the terminal class.
        stage = {
            "na-compile": "compile",
            "na-runtime": "runtime",
            "na-output": "output",
        }[plan.outcome]
        fault = self._planned_fault(self.state, stage=stage)
        if fault is not None:
            out = fault.apply(code)
            if out is not None:
                return out
        for fallback in faults_for(self.target_dialect, stage):
            out = fallback.apply(code)
            if out is not None:
                return out
        return code

    def _planned_fault(self, index: int, stage: Optional[str] = None) -> Optional[Fault]:
        ids = self.plan.fault_ids
        if ids:
            fault = get_fault(ids[index % len(ids)])
            if stage is None or fault.stage == stage:
                return fault
        pool = faults_for(
            self.target_dialect,
            stage if stage is not None else None,
        )
        pool = [f for f in pool if f.stage != "perf"] if stage is None else pool
        if not pool:
            return None
        return pool[index % len(pool)]

    def _repair_lands(self, error: str) -> bool:
        """Does this correction round fix the active fault?"""
        plan = self.plan
        if plan.outcome != "ok":
            return False  # terminal fault class: the model never escapes it
        if self.state >= plan.self_corrections:
            return True  # already clean; nothing to do
        fault = getattr(self, "_active_fault", None) or self._planned_fault(self.state)
        if fault is None:
            return True
        signatures = fault.error_signature
        return not signatures or any(sig in error for sig in signatures)

    # ------------------------------------------------------------------
    # Prompt parsing
    # ------------------------------------------------------------------
    @staticmethod
    def _extract_translation_source(prompt: str) -> str:
        marker = "Avoid explanation of the code.: "
        pos = prompt.rfind(marker)
        if pos >= 0:
            return prompt[pos + len(marker):]
        # Fallback: everything after the final "Now," sentence's colon.
        pos = prompt.rfind("Now, ")
        if pos >= 0:
            colon = prompt.find(": ", pos)
            if colon >= 0:
                return prompt[colon + 2:]
        return prompt

    @staticmethod
    def _extract_correction_parts(prompt: str):
        split_marker = "\n-- The above code was"
        pos = prompt.find(split_marker)
        code = prompt[:pos] if pos >= 0 else ""
        error = ""
        for kind in ("compile error: ", "execution error: "):
            epos = prompt.find(kind)
            if epos >= 0:
                tail = prompt[epos + len(kind):]
                end = tail.rfind(". Re-factor the above code")
                error = tail[:end] if end >= 0 else tail
                break
        return code, error
