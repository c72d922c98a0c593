"""Exception hierarchy for the LASSI reproduction.

Every error raised by the package derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
The toolchain deliberately does *not* raise exceptions for diagnosable
compile/runtime failures of *mini-language programs* — those are reported as
structured results (see :mod:`repro.toolchain`) because the LASSI pipeline
consumes them as data.  Exceptions here signal misuse of the library itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class InterpreterError(ReproError):
    """Internal interpreter invariant violation (not a guest-program fault)."""


class GuestRuntimeError(ReproError):
    """A mini-language program faulted at run time (OOB, div-by-zero, ...).

    Carries the simulated process' stderr-style message so the executor can
    surface it exactly as a real runtime would.
    """

    def __init__(self, message: str, detail: str = "") -> None:
        super().__init__(message)
        self.message = message
        self.detail = detail


class ResourceLimitExceeded(GuestRuntimeError):
    """Guest program exceeded an interpreter resource limit (steps/memory)."""


class LLMError(ReproError):
    """Base for LLM-client failures."""


class ContextWindowExceeded(LLMError):
    """Prompt did not fit in the model's context window."""

    def __init__(self, model: str, needed: int, limit: int) -> None:
        super().__init__(
            f"prompt of {needed} tokens exceeds context window of "
            f"{limit} tokens for model {model!r}"
        )
        self.model = model
        self.needed = needed
        self.limit = limit


class TransportError(LLMError):
    """Network/transport failure from a real-model adapter."""


class PipelineError(ReproError):
    """LASSI pipeline misuse or unrecoverable stage failure."""


class BaselineError(PipelineError):
    """Original source/target code failed to compile or run (pipeline halts).

    Mirrors §III-A of the paper: LASSI refuses to translate until the user
    fixes the input code.
    """


class UnknownApplicationError(ReproError):
    """Requested HeCBench application is not registered."""


class UnknownSuiteError(ReproError):
    """Requested application suite is not registered or its spec is invalid."""


class UnknownModelError(ReproError):
    """Requested LLM is not present in the registry."""
