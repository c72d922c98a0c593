"""Approximate tokenizers for context-window accounting and similarity.

Two distinct tokenizations are needed:

* :func:`tokenize_text` — an LLM-ish subword-free approximation used for
  context-window budgeting (§III-B of the paper reports knowledge documents
  of 7,290 and 4,053 tokens; we reproduce those budgets with this scheme).
* :func:`tokenize_code` — a lexical tokenization used by the **Sim-T** metric
  (token-based Ratcliff-Obershelp similarity, §V-A).
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, List

# Word pieces, numbers, and single punctuation marks; an empirically
# reasonable stand-in for BPE token counts on English + code (≈1.3x words).
_TEXT_TOKEN_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]")

# C-family lexical tokens: identifiers, numbers, strings, multi-char
# operators, then single chars.
_CODE_TOKEN_RE = re.compile(
    r"""
      [A-Za-z_][A-Za-z_0-9]*          # identifier / keyword
    | 0[xX][0-9a-fA-F]+               # hex literal
    | \d+\.\d*(?:[eE][+-]?\d+)?[fF]?  # float literal
    | \.\d+(?:[eE][+-]?\d+)?[fF]?     # float literal (leading dot)
    | \d+(?:[eE][+-]?\d+)?[fF]?       # int literal
    | "(?:[^"\\]|\\.)*"               # string literal
    | '(?:[^'\\]|\\.)'                # char literal
    | <<<|>>>                         # CUDA launch delimiters
    | <<=|>>=|\+\+|--|->|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=
    | \S                              # any other single non-space char
    """,
    re.VERBOSE,
)


def tokenize_text(text: str) -> List[str]:
    """Tokenize prose (or anything) for context-window budgeting."""
    return _TEXT_TOKEN_RE.findall(text)


@functools.lru_cache(maxsize=64)
def count_tokens(text: str) -> int:
    """Approximate LLM token count of ``text``.

    Memoized: a conversation re-sends the same texts (the knowledge
    document, the system prompt, the code it just received), so each is
    scanned once while it stays among the 64 most recently counted.
    """
    return len(tokenize_text(text))


def _ascii_class(char: str) -> str:
    if char.isascii():
        if char.isalpha():
            return "a"
        if char.isdigit():
            return "0"
    return ""


def count_joined(parts: Iterable[str]) -> int:
    """``count_tokens("".join(parts))``, summed from the parts' counts.

    Under ``tokenize_text`` only a run of ASCII letters or of ASCII digits
    can span a join, so a boundary where both sides are letters, or both
    digits, merges two tokens into one; every other boundary splits
    nothing.
    """
    total = 0
    last = ""
    for part in parts:
        if not part:
            continue
        total += count_tokens(part)
        if last and _ascii_class(part[0]) == last:
            total -= 1
        last = _ascii_class(part[-1])
    return total


def tokenize_code(code: str) -> List[str]:
    """Lexically tokenize C-family source code for the Sim-T metric."""
    return _CODE_TOKEN_RE.findall(code)
