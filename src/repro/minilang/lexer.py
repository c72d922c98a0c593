"""Lexer for the mini-language.

Produces a flat token stream in one pass over the text.  Each step is one
match of a compiled master pattern for the dialect: it skips whitespace and
terminated comments, then takes an identifier or keyword, a number, or the
longest punctuation (``<<<``/``>>>`` only when ``cuda_launch_syntax`` is
set).  Line and column come from positions: the newlines in each skipped
span are counted, never walked one character at a time.  What the pattern
leaves (directives, string and char literals, an unterminated ``/*``, an
invalid character, the end of input) is a small position-based branch of
the same loop.

``#pragma`` lines are captured as single ``PRAGMA`` tokens (their clause
text is parsed later by :mod:`repro.minilang.pragma`); ``#include`` and the
other conditional/definition directives are tolerated and skipped so
LLM-style output that carries them still lexes.  Errors become diagnostics,
never exceptions: LLM output is untrusted input to the compiler.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List, Optional

from repro.minilang.diagnostics import DiagnosticBag
from repro.minilang.source import Span


class TokenKind(enum.Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    INT_LIT = "integer literal"
    FLOAT_LIT = "float literal"
    STRING_LIT = "string literal"
    CHAR_LIT = "char literal"
    PUNCT = "punctuation"
    PRAGMA = "pragma"
    EOF = "end of file"


KEYWORDS = frozenset(
    {
        "int", "float", "double", "char", "bool", "void", "long", "unsigned",
        "size_t",
        "if", "else", "for", "while", "do", "return", "break", "continue",
        "sizeof", "true", "false", "NULL", "nullptr", "const",
        "__global__", "__device__", "__host__", "__shared__", "__restrict__",
        "struct",
    }
)


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    span: Span

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.name}, {self.text!r}, {self.span})"


# Longest-first punctuation.  ``<<<``/``>>>`` are lexed as single tokens
# only when the CUDA dialect is active — in plain C they would be
# shift-assign sequences, and none of our programs use nested templates.
# ``#`` is absent: it always starts a directive.
_PUNCTUATION = [
    "<<=", ">>=", "...",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "++", "--", "->",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "::",
    *"+-*/%<>=!&|^~?:;,.(){}[]",
]

# Numbers start with an ASCII digit (or a point and one), as in C.
_NUMBER = (
    r"0[xX][0-9a-fA-F]+[uUlL]*"
    r"|(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fFlL]?"
    r"|[0-9]+[eE][+-]?[0-9]+[fF]?"
    r"|[0-9]+[uUlLfF]*"
)

# Whitespace and terminated comments.  An unterminated ``/*`` is left for
# the open-comment group below.
_TRIVIA = r"(?:[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)*"

# Groups of the master pattern.  Its last alternative is empty, so a match
# never fails and never backtracks into the trivia: when no group took part,
# the match ends where a directive, a literal, an invalid character or the
# end of input starts.
_NUMBER_GROUP, _WORD_GROUP, _OPEN_COMMENT_GROUP, _PUNCT_GROUP = 1, 2, 3, 4


def _master_pattern(punctuation: List[str]) -> "re.Pattern[str]":
    return re.compile(
        _TRIVIA
        + f"(?:({_NUMBER})|([A-Za-z_][A-Za-z_0-9]*)|(/\\*)"
        + f"|({'|'.join(map(re.escape, punctuation))})|)"
    )


_C_PATTERN = _master_pattern(_PUNCTUATION)
_CUDA_PATTERN = _master_pattern(["<<<", ">>>"] + _PUNCTUATION)

# A directive runs to the end of its logical line: backslash-newline
# continues it.
_DIRECTIVE = re.compile(r"[^\\\n]*(?:\\\n?[^\\\n]*)*")
# A string body up to its closing quote, a newline, a backslash that ends
# the text, or the end of input.
_STRING = re.compile(r'"[^"\\\n]*(?:\\(?s:.)[^"\\\n]*)*')

_SKIPPED_DIRECTIVES = (
    "#include", "#define", "#ifdef", "#ifndef", "#endif", "#if", "#else",
)

_FLOAT_MARKS = frozenset(".eEfF")


def _number_kind(text: str) -> TokenKind:
    """Hex literals are integers; a decimal literal with a point, an
    exponent or an ``f`` suffix is a float."""
    if text[:2] in ("0x", "0X") or _FLOAT_MARKS.isdisjoint(text):
        return TokenKind.INT_LIT
    return TokenKind.FLOAT_LIT


class Lexer:
    """Single-pass lexer.  Errors become diagnostics, never exceptions."""

    def __init__(self, text: str, diagnostics: Optional[DiagnosticBag] = None,
                 cuda_launch_syntax: bool = False) -> None:
        self.text = text
        self.diagnostics = diagnostics if diagnostics is not None else DiagnosticBag()
        self.cuda_launch_syntax = cuda_launch_syntax

    def tokens(self) -> List[Token]:
        text = self.text
        n = len(text)
        rfind = text.rfind
        error = self.diagnostics.error
        match = (_CUDA_PATTERN if self.cuda_launch_syntax else _C_PATTERN).match
        keyword, ident, punct = TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.PUNCT
        out: List[Token] = []
        append = out.append
        pos = 0  # where the next match starts
        seen = 0  # newlines before this index are counted in ``line``
        line = 1
        bol = 0  # index of the first character of ``line``
        while True:
            m = match(text, pos)
            group = m.lastindex
            if group:
                start, end = m.span(group)
            else:
                start = end = m.end()
            nl = rfind("\n", seen, start)
            if nl >= 0:
                line += text.count("\n", seen, nl) + 1
                bol = nl + 1
            seen = start
            span = Span(line, start - bol + 1)
            if group == _WORD_GROUP:
                word = text[start:end]
                append(Token(keyword if word in KEYWORDS else ident, word, span))
                pos = end
            elif group == _PUNCT_GROUP:
                append(Token(punct, text[start:end], span))
                pos = end
            elif group == _NUMBER_GROUP:
                number = text[start:end]
                append(Token(_number_kind(number), number, span))
                pos = end
            elif group == _OPEN_COMMENT_GROUP:
                error("unterminated-comment", "unterminated /* comment", span)
                pos = n
            elif start >= n:
                # ``pos`` passes the end only when a literal's backslash was
                # the last character: the escape took the end of input as
                # its character, so EOF sits one column further on.
                append(Token(TokenKind.EOF, "", Span(line, max(pos, n) - bol + 1)))
                return out
            elif text[start] == "#":
                pos = _DIRECTIVE.match(text, start).end()
                directive = text[start:pos].replace("\\\n", " ").strip()
                if directive.startswith("#pragma"):
                    append(Token(TokenKind.PRAGMA, directive, span))
                elif not directive.startswith(_SKIPPED_DIRECTIVES):
                    error(
                        "unknown-directive",
                        f"unknown preprocessor directive: {directive.split()[0]}",
                        span,
                    )
            elif text[start] == '"':
                pos = _STRING.match(text, start).end()
                if pos < n and text[pos] == '"':
                    pos += 1
                    append(Token(TokenKind.STRING_LIT, text[start:pos], span))
                else:
                    if pos < n and text[pos] == "\\":
                        pos = n + 1
                    error("unterminated-string", "unterminated string literal", span)
                    append(Token(TokenKind.STRING_LIT, text[start:pos] + '"', span))
            elif text[start] == "'":
                pos = start + 1
                if pos < n:
                    pos += 2 if text[pos] == "\\" else 1
                if pos < n and text[pos] == "'":
                    pos += 1
                    append(Token(TokenKind.CHAR_LIT, text[start:pos], span))
                else:
                    error("unterminated-char", "unterminated character literal", span)
                    append(Token(TokenKind.CHAR_LIT, text[start:pos] + "'", span))
            else:
                error(
                    "invalid-character",
                    f"invalid character {text[start]!r} in source",
                    span,
                )
                pos = start + 1


def lex(text: str, cuda_launch_syntax: bool = False) -> List[Token]:
    """Convenience: lex ``text`` and return tokens, raising on lex errors."""
    bag = DiagnosticBag()
    toks = Lexer(text, bag, cuda_launch_syntax=cuda_launch_syntax).tokens()
    return toks
