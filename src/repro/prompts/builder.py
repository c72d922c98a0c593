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
from typing import List

from repro.errors import ContextWindowExceeded
from repro.llm.base import ChatMessage, LLMClient
from repro.minilang.source import Dialect
from repro.prompts import dictionary
from repro.prompts.dictionary import template_parts
from repro.prompts.knowledge import knowledge_document
from repro.utils.tokens import count_joined, count_tokens


@dataclass
class PromptBundle:
    """Everything assembled for one translation request."""

    knowledge: str
    knowledge_summary: str
    code_description: str
    translation_request: str
    #: The generation chat: system prompt and full user prompt, each
    #: carrying the token count the context budget was checked with.
    messages: List[ChatMessage]

    @property
    def system(self) -> str:
        return self.messages[0].content

    @property
    def full_user_prompt(self) -> str:
        return self.messages[1].content

    @property
    def prompt_tokens(self) -> int:
        return sum(m.tokens for m in self.messages)


KNOWLEDGE_SUMMARY_REQUEST = (
    "Summarize the following {language} programming reference so you can "
    "apply it when translating code. Keep every directive, API call and "
    "performance rule you would need:\n\n{knowledge}"
)

CODE_DESCRIPTION_REQUEST = (
    "Describe succinctly what the following {language} program computes and "
    "how it is parallelized:\n\n{code}"
)

#: The optional sections ahead of the translation request in the full
#: prompt: the knowledge document, then the model's summary of it.
KNOWLEDGE_SECTION = "Reference material for {language}:\n{knowledge}\n\n"
SUMMARY_SECTION = "Summary of the reference material:\n{summary}\n\n"


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
        language = self.target.display_name

        knowledge_summary = ""
        if self.include_knowledge:
            knowledge_summary = llm.chat(self._messages(llm, system, template_parts(
                KNOWLEDGE_SUMMARY_REQUEST, language=language, knowledge=knowledge
            ))).text

        code_description = llm.chat(self._messages(llm, system, template_parts(
            CODE_DESCRIPTION_REQUEST,
            language=self.source.display_name,
            code=source_code,
        ))).text

        request = template_parts(
            dictionary.THINK_PREFIX,
            description=code_description,
            translation_prompt=dictionary.translation_prompt(
                self.source, self.target
            ),
            code=source_code,
        )
        parts: List[str] = []
        if knowledge:
            parts += template_parts(
                KNOWLEDGE_SECTION, language=language, knowledge=knowledge
            )
        if knowledge_summary:
            parts += template_parts(SUMMARY_SECTION, summary=knowledge_summary)
        return PromptBundle(
            knowledge=knowledge,
            knowledge_summary=knowledge_summary,
            code_description=code_description,
            translation_request="".join(request),
            messages=self._messages(llm, system, parts + request),
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
        return self._messages(
            llm,
            self.system_prompt(),
            dictionary.correction_parts(kind, code, command, error),
        )

    # ------------------------------------------------------------------
    def _messages(
        self, llm: LLMClient, system: str, parts: List[str]
    ) -> List[ChatMessage]:
        """The system message and the user message joined from ``parts``,
        budgeted.

        Raises :class:`ContextWindowExceeded` when the two do not fit the
        model's window less the completion reserve.  The counts travel on
        the messages, so the model need not count the same text again.
        """
        system_tokens, prompt_tokens = count_tokens(system), count_joined(parts)
        tokens = system_tokens + prompt_tokens
        if tokens > llm.context_length - self.reserve_completion_tokens:
            raise ContextWindowExceeded(llm.name, tokens, llm.context_length)
        return [
            ChatMessage("system", system, system_tokens),
            ChatMessage("user", "".join(parts), prompt_tokens),
        ]
