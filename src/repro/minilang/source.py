"""Source-file model and dialect enumeration."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, NamedTuple


class Dialect(enum.Enum):
    """Mini-language dialect: which parallel extensions are enabled."""

    C = "c"
    CUDA = "cuda"
    OMP = "omp"

    @property
    def display_name(self) -> str:
        return {"c": "C", "cuda": "CUDA", "omp": "OpenMP"}[self.value]

    @property
    def file_extension(self) -> str:
        return {"c": ".c", "cuda": ".cu", "omp": ".cpp"}[self.value]


class Span(NamedTuple):
    """1-based source position (start of the relevant token).

    A named pair, cheap to build for every token: spans compare and hash
    as their ``(line, col)`` and print as ``line:col``.
    """

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


UNKNOWN_SPAN = Span(0, 0)


@dataclass
class SourceFile:
    """A named piece of mini-language source text."""

    name: str
    text: str
    dialect: Dialect = Dialect.C
    _lines: List[str] = field(default_factory=list, repr=False)

    def line(self, lineno: int) -> str:
        """Return the 1-based source line (empty string out of range)."""
        if not self._lines:
            self._lines = self.text.splitlines()
        if 1 <= lineno <= len(self._lines):
            return self._lines[lineno - 1]
        return ""
