"""Full-prompt assembly with self-prompting (§III-B/C).

LASSI builds the translation prompt from four parts: (1) the language
knowledge document, (2) an LLM-generated summary of that knowledge, (3) an
LLM-generated description of the source code, and (4) the Table II
translation prompt wrapped in the "think carefully" prefix with the source
code spliced in.  The builder performs the context-window accounting the
paper discusses: the assembled prompt must fit the model's window (the
lower-bound window in Table V is Wizard Coder's 16,384 tokens).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ContextWindowExceeded
from repro.llm.base import ChatMessage, LLMClient
from repro.minilang.source import Dialect
from repro.prompts import dictionary
from repro.prompts.knowledge import knowledge_document
from repro.utils.tokens import count_tokens


@dataclass
class PromptBundle:
    """Everything assembled for one translation request."""

    system: str
    knowledge: str
    knowledge_summary: str
    code_description: str
    translation_request: str
    full_user_prompt: str
    prompt_tokens: int


KNOWLEDGE_SUMMARY_REQUEST = (
    "Summarize the following {language} programming reference so you can "
    "apply it when translating code. Keep every directive, API call and "
    "performance rule you would need:\n\n{knowledge}"
)

CODE_DESCRIPTION_REQUEST = (
    "Describe succinctly what the following {language} program computes and "
    "how it is parallelized:\n\n{code}"
)


class PromptBuilder:
    """Assembles LASSI prompts for one translation direction."""

    def __init__(
        self,
        source: Dialect,
        target: Dialect,
        include_knowledge: bool = True,
        reserve_completion_tokens: int = 4096,
    ) -> None:
        self.source = source
        self.target = target
        self.include_knowledge = include_knowledge
        self.reserve_completion_tokens = reserve_completion_tokens

    # ------------------------------------------------------------------
    def system_prompt(self) -> str:
        return dictionary.system_prompt(self.source, self.target)

    def knowledge(self) -> str:
        return knowledge_document(self.target) if self.include_knowledge else ""

    def knowledge_summary_prompt(self) -> str:
        return KNOWLEDGE_SUMMARY_REQUEST.format(
            language=self.target.display_name, knowledge=self.knowledge()
        )

    def code_description_prompt(self, source_code: str) -> str:
        return CODE_DESCRIPTION_REQUEST.format(
            language=self.source.display_name, code=source_code
        )

    # ------------------------------------------------------------------
    def build(
        self,
        llm: LLMClient,
        source_code: str,
    ) -> PromptBundle:
        """Run the self-prompting stages against ``llm`` and assemble the
        full translation prompt, enforcing the context budget."""
        system = self.system_prompt()
        knowledge = self.knowledge()

        knowledge_summary = ""
        if self.include_knowledge:
            summary_prompt = self.knowledge_summary_prompt()
            self._check_budget(llm, system, summary_prompt)
            knowledge_summary = llm.generate(summary_prompt, system).text

        description_prompt = self.code_description_prompt(source_code)
        self._check_budget(llm, system, description_prompt)
        code_description = llm.generate(description_prompt, system).text

        translation_request = dictionary.THINK_PREFIX.format(
            description=code_description,
            translation_prompt=dictionary.translation_prompt(
                self.source, self.target
            ),
            code=source_code,
        )
        parts: List[str] = []
        if knowledge:
            parts.append(
                f"Reference material for {self.target.display_name}:\n{knowledge}"
            )
        if knowledge_summary:
            parts.append(f"Summary of the reference material:\n{knowledge_summary}")
        parts.append(translation_request)
        full_user_prompt = "\n\n".join(parts)
        prompt_tokens = self._check_budget(llm, system, full_user_prompt)
        return PromptBundle(
            system=system,
            knowledge=knowledge,
            knowledge_summary=knowledge_summary,
            code_description=code_description,
            translation_request=translation_request,
            full_user_prompt=full_user_prompt,
            prompt_tokens=prompt_tokens,
        )

    def correction_messages(
        self,
        llm: LLMClient,
        kind: str,
        code: str,
        command: str,
        error: str,
    ) -> List[ChatMessage]:
        """Messages for one self-correction round (Table III)."""
        system = self.system_prompt()
        prompt = dictionary.correction_prompt(kind, code, command, error)
        system_tokens, prompt_tokens = self._budget(llm, system, prompt)
        # The counts travel with the messages, so the model need not
        # count the same text again.
        return [
            ChatMessage("system", system, system_tokens),
            ChatMessage("user", prompt, prompt_tokens),
        ]

    # ------------------------------------------------------------------
    def _check_budget(self, llm: LLMClient, system: str, prompt: str) -> int:
        return sum(self._budget(llm, system, prompt))

    def _budget(self, llm: LLMClient, system: str, prompt: str) -> Tuple[int, int]:
        """Token counts of (system, prompt); raises past the context budget."""
        counts = (count_tokens(system), count_tokens(prompt))
        tokens = sum(counts)
        limit = llm.context_length - self.reserve_completion_tokens
        if tokens > limit:
            raise ContextWindowExceeded(llm.name, tokens, llm.context_length)
        return counts
