"""Tests for the prompt dictionary, knowledge docs and prompt builder."""

from __future__ import annotations

import string

import pytest

from repro.errors import ContextWindowExceeded
from repro.llm.base import GenerationResult, LLMClient
from repro.minilang.source import Dialect
from repro.prompts import (
    PromptBuilder,
    correction_prompt,
    knowledge_document,
    system_prompt,
    translation_prompt,
)
from repro.prompts.builder import (
    CODE_DESCRIPTION_REQUEST,
    KNOWLEDGE_SECTION,
    KNOWLEDGE_SUMMARY_REQUEST,
    SUMMARY_SECTION,
)
from repro.prompts.dictionary import (
    CORRECTION_PROMPTS,
    SYSTEM_PROMPTS,
    THINK_PREFIX,
    template_parts,
)
from repro.utils.tokens import count_tokens

#: Every template a prompt is assembled from.
TEMPLATES = list(CORRECTION_PROMPTS.values()) + [
    THINK_PREFIX,
    KNOWLEDGE_SUMMARY_REQUEST,
    CODE_DESCRIPTION_REQUEST,
    KNOWLEDGE_SECTION,
    SUMMARY_SECTION,
]


class TestDictionary:
    def test_table1_system_prompts_verbatim_fragments(self):
        c2o = system_prompt(Dialect.CUDA, Dialect.OMP)
        assert "professional coding AI assistant" in c2o
        assert "CUDA code to C++ code using OpenMP directives" in c2o
        assert "Surround your new generated code" in c2o
        o2c = system_prompt(Dialect.OMP, Dialect.CUDA)
        assert "OpenMP directives to the CUDA framework" in o2c
        assert "general" in SYSTEM_PROMPTS

    def test_table2_translation_prompts(self):
        o2c = translation_prompt(Dialect.OMP, Dialect.CUDA)
        assert o2c.startswith("Generate new code to refactor")
        assert "Avoid explanation of the code." in o2c
        c2o = translation_prompt(Dialect.CUDA, Dialect.OMP)
        assert "target teams" in c2o
        assert "static scheduling" in c2o.lower()

    def test_table3_correction_templates(self):
        compile_p = correction_prompt("compile", "CODE", "nvcc x", "ERR")
        assert compile_p.startswith("CODE")
        assert "compiled with nvcc x" in compile_p
        assert "compile error: ERR" in compile_p
        assert "Re-factor the above code" in compile_p
        execute_p = correction_prompt("execute", "CODE", "nvcc x", "ERR")
        assert "executed after a successful compile" in execute_p
        assert set(CORRECTION_PROMPTS) == {"compile", "execute"}

    @pytest.mark.parametrize("template", TEMPLATES)
    def test_template_parts_join_to_the_formatted_template(self, template):
        names = [
            name for _, name, _, _ in string.Formatter().parse(template)
            if name is not None
        ]
        assert names
        # Field values with braces and runs that touch the literals.
        values = {name: f"x{{{name}}}1\n{name}" for name in names}
        parts = template_parts(template, **values)
        assert "".join(parts) == template.format(**values)

    def test_unknown_direction_or_kind(self):
        with pytest.raises(KeyError):
            translation_prompt(Dialect.C, Dialect.CUDA)
        with pytest.raises(KeyError):
            correction_prompt("link", "c", "cmd", "e")


class TestKnowledge:
    def test_token_budgets_match_paper_within_10pct(self):
        # §III-B: OpenMP reference card 7,290 tokens; CUDA ch.5 4,053 tokens.
        omp = count_tokens(knowledge_document(Dialect.OMP))
        cuda = count_tokens(knowledge_document(Dialect.CUDA))
        assert abs(omp - 7290) / 7290 < 0.10
        assert abs(cuda - 4053) / 4053 < 0.10

    def test_omp_card_content(self):
        card = knowledge_document(Dialect.OMP)
        assert "target teams distribute parallel for" in card
        assert "map(tofrom" in card or "map(tofrom:" in card
        assert "reduction" in card

    def test_cuda_guide_content(self):
        guide = knowledge_document(Dialect.CUDA)
        assert "__global__" in guide
        assert "cudaMemcpy" in guide
        assert "atomicAdd" in guide

    def test_no_document_for_plain_c(self):
        with pytest.raises(ValueError):
            knowledge_document(Dialect.C)


class FakeLLM(LLMClient):
    """Echo client for builder tests."""

    def __init__(self, context_length=32768):
        self.name = "fake"
        self.context_length = context_length
        self.prompts = []

    def chat(self, messages):
        self.prompts.append(messages[-1].content)
        return GenerationResult(text="SUMMARY-OR-DESCRIPTION", model=self.name)


class TestPromptBuilder:
    def test_full_bundle_structure(self):
        llm = FakeLLM()
        builder = PromptBuilder(Dialect.OMP, Dialect.CUDA)
        bundle = builder.build(llm, "int main() { return 0; }")
        assert bundle.system == system_prompt(Dialect.OMP, Dialect.CUDA)
        assert bundle.knowledge
        assert bundle.knowledge_summary == "SUMMARY-OR-DESCRIPTION"
        assert bundle.code_description == "SUMMARY-OR-DESCRIPTION"
        assert "Think carefully before developing" in bundle.translation_request
        assert "int main() { return 0; }" in bundle.full_user_prompt
        assert bundle.prompt_tokens > 0
        assert [m.tokens for m in bundle.messages] == [
            count_tokens(m.content) for m in bundle.messages
        ]
        # two self-prompting calls happened (summary + description)
        assert len(llm.prompts) == 2

    def test_knowledge_ablation(self):
        llm = FakeLLM()
        builder = PromptBuilder(Dialect.OMP, Dialect.CUDA, include_knowledge=False)
        bundle = builder.build(llm, "int main() { return 0; }")
        assert bundle.knowledge == ""
        assert bundle.knowledge_summary == ""
        assert len(llm.prompts) == 1  # only the code description

    def test_context_window_enforced(self):
        llm = FakeLLM(context_length=1000)
        builder = PromptBuilder(Dialect.OMP, Dialect.CUDA)
        with pytest.raises(ContextWindowExceeded):
            builder.build(llm, "int main() { return 0; }")

    def test_correction_messages(self):
        llm = FakeLLM()
        builder = PromptBuilder(Dialect.CUDA, Dialect.OMP)
        msgs = builder.correction_messages(llm, "compile", "CODE", "clang++", "boom")
        assert msgs[0].role == "system"
        assert msgs[1].content == correction_prompt(
            "compile", "CODE", "clang++", "boom"
        )
        assert [m.tokens for m in msgs] == [count_tokens(m.content) for m in msgs]
