"""Text utilities: code-fence extraction, stdout normalization, comments.

The LASSI pipeline (§III-C of the paper) captures the LLM's free-text response
and "filters out the code block, which is saved to a local file".  The fence
handling here is therefore part of the core pipeline contract, not a cosmetic
helper, and is tested accordingly.
"""

from __future__ import annotations

import re
from typing import List, Optional

_FENCE_RE = re.compile(
    r"```(?P<lang>[A-Za-z0-9_+.#-]*)[ \t]*\r?\n(?P<body>.*?)```",
    re.DOTALL,
)

# Languages an LLM plausibly tags translated GPU code with.
_CODE_LANGS = {
    "", "c", "cpp", "c++", "cuda", "cu", "cxx", "h", "hpp", "openmp", "omp",
}


def extract_code_block(response: str, prefer_langs: Optional[List[str]] = None) -> Optional[str]:
    """Extract the most plausible code block from an LLM response.

    Strategy (mirrors LASSI's "filter out the code block"):

    1. Collect all triple-backtick fenced blocks.
    2. Prefer blocks tagged with one of ``prefer_langs`` (case-insensitive),
       then any block tagged with a C-family language, then untagged blocks.
    3. Among candidates of equal preference, take the **longest** — LLMs often
       emit a short usage snippet alongside the full translation.
    4. If no fences exist but the text *looks like* bare code (has ``int main``
       or a kernel signature), return the whole text.

    Returns ``None`` if nothing code-like is present.
    """
    prefer = {lang.lower() for lang in (prefer_langs or [])}
    matches = list(_FENCE_RE.finditer(response))
    if matches:
        ranked = []
        for m in matches:
            lang = m.group("lang").lower()
            body = m.group("body")
            if prefer and lang in prefer:
                rank = 0
            elif lang in _CODE_LANGS:
                rank = 1
            else:
                rank = 2
            ranked.append((rank, -len(body), body))
        ranked.sort(key=lambda item: (item[0], item[1]))
        best = ranked[0][2]
        return best.strip("\n") + "\n" if best.strip() else None
    if re.search(r"\bint\s+main\s*\(", response) or "__global__" in response:
        return response.strip("\n") + "\n"
    return None


#: What ``strip_comments`` acts on, leftmost first: a ``"..."`` literal
#: (escapes included; an unterminated one runs to the end of the text), a
#: ``//`` comment up to the newline, and a ``/* */`` comment (an
#: unterminated one runs to the end of the text).
_COMMENT_RE = re.compile(
    r'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)'
    r"|//[^\n]*"
    r"|/\*.*?(?:\*/|\Z)",
    re.DOTALL,
)


def _uncomment(m: "re.Match[str]") -> str:
    text = m.group()
    if text[0] == '"':
        return text
    # A line comment stops at its newline; a block comment keeps its own.
    return "\n" * text.count("\n")


def strip_comments(code: str) -> str:
    """Remove ``//`` line comments and ``/* */`` block comments.

    String literals are respected (a ``//`` inside quotes survives).  A
    block comment leaves its newlines behind, so line numbers hold.
    """
    return _COMMENT_RE.sub(_uncomment, code)


def dedent_code(code: str) -> str:
    """Strip the common leading whitespace of all non-blank lines."""
    lines = code.splitlines()
    indents = [
        len(line) - len(line.lstrip())
        for line in lines
        if line.strip()
    ]
    if not indents:
        return code
    cut = min(indents)
    return "\n".join(line[cut:] if line.strip() else "" for line in lines) + (
        "\n" if code.endswith("\n") else ""
    )


def normalize_stdout(text: str) -> str:
    """Normalize program stdout for comparison between two runs.

    * strips trailing whitespace per line,
    * drops blank lines at the edges,
    * normalizes line endings.

    Deliberately does **not** round numbers: the two dialect versions of each
    benchmark app are written to produce identical output bit-for-bit thanks
    to the deterministic ``rand`` intrinsic.
    """
    lines = [line.rstrip() for line in text.replace("\r\n", "\n").split("\n")]
    while lines and not lines[0]:
        lines.pop(0)
    while lines and not lines[-1]:
        lines.pop()
    return "\n".join(lines)
