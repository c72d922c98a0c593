"""LLM client protocol and chat data types.

LASSI is LLM-agnostic: §III of the paper emphasizes that the pipeline "can be
easily modified to incorporate different LLMs".  Everything upstream of the
model — prompt assembly, self-correction, code extraction — talks to this
protocol only, so swapping the simulated model for a live Ollama or OpenAI
backend is a one-line change in the pipeline configuration.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class ChatMessage:
    """One message in a chat exchange.  ``role`` in {system, user, assistant}."""

    role: str
    content: str
    #: ``count_tokens(content)`` when the sender already counted it (the
    #: prompt builder does, to budget the context window).
    tokens: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"invalid chat role {self.role!r}")


def system(content: str) -> ChatMessage:
    return ChatMessage("system", content)


def user(content: str) -> ChatMessage:
    return ChatMessage("user", content)


def assistant(content: str) -> ChatMessage:
    return ChatMessage("assistant", content)


@dataclass
class GenerationResult:
    """The model's reply plus accounting metadata."""

    text: str
    model: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    #: Total tokens this call consumed of the context window.
    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


class LLMClient(abc.ABC):
    """Minimal chat-completion interface the pipeline depends on."""

    #: Model identifier (matches the registry name where applicable).
    name: str
    #: Context window in tokens; the pipeline budget-checks prompts.
    context_length: int

    @abc.abstractmethod
    def chat(self, messages: List[ChatMessage]) -> GenerationResult:
        """Generate a reply to the conversation."""
