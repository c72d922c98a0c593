"""The LASSI prompt dictionary (paper Tables I, II and III, verbatim).

The dictionary maps a translation direction to system / translation /
correction prompts, keeping the core pipeline language-agnostic: adding a
new language pair means adding dictionary entries, not touching the pipeline
(§III-B: "enables easy extensibility ... without the need to adjust the core
pipeline process").
"""

from __future__ import annotations

import string
from typing import Dict, List, Tuple

from repro.minilang.source import Dialect

Direction = Tuple[Dialect, Dialect]

CUDA2OMP: Direction = (Dialect.CUDA, Dialect.OMP)
OMP2CUDA: Direction = (Dialect.OMP, Dialect.CUDA)

#: Table I — system prompts.
SYSTEM_PROMPTS: Dict[object, str] = {
    "general": (
        "You are a professional coding AI assistant that specializes in "
        "translating parallelized code between coding frameworks."
    ),
    CUDA2OMP: (
        "You are a professional coding AI assistant that specializes in "
        "translating parallelized CUDA code to C++ code using OpenMP "
        "directives. Always provide the complete and fully functional "
        "translated code without placeholders, comments, or references "
        "suggesting that parts of the original code should be included. "
        "Ensure every part of the translated code is explicitly written "
        "out. Surround your new generated code with the three characters "
        "```."
    ),
    OMP2CUDA: (
        "You are a professional coding AI assistant that specializes in "
        "translating parallelized C++ code using OpenMP directives to the "
        "CUDA framework. Always provide the complete and fully functional "
        "translated code without placeholders, comments, or references "
        "suggesting that parts of the original code should be included. "
        "Ensure every part of the translated code is explicitly written "
        "out. Surround your new generated code with the three characters "
        "```."
    ),
}

#: Table II — target-language-specific translation prompts.
TRANSLATION_PROMPTS: Dict[Direction, str] = {
    OMP2CUDA: (
        "Generate new code to refactor the following parallelized C++ "
        "program written with OpenMP to instead use the CUDA framework. "
        "Provide the complete translated CUDA code without any "
        "placeholders, comments, or references suggesting that parts of "
        "the original code should be included. Every part of the "
        "translated code should be explicitly written out. Avoid "
        "explanation of the code."
    ),
    CUDA2OMP: (
        "Generate new code to refactor the following parallelized CUDA "
        "program to instead use C++ code written with OpenMP directives. "
        "To enable GPU offloading, use the 'omp pragma' directive 'target "
        "teams' for distributing 'for' loop computations. Use static "
        "scheduling when needed and avoid dynamic scheduling. Provide the "
        "complete translated C++ code without any placeholders, comments, "
        "or references suggesting that parts of the original code should "
        "be included. Every part of the translated code should be "
        "explicitly written out. Avoid explanation of the code."
    ),
}

#: Table III — self-correction prompt templates.  ``{code}``, ``{command}``
#: and ``{error}`` are spliced in by the pipeline.
CORRECTION_PROMPTS: Dict[str, str] = {
    "compile": (
        "{code}\n-- The above code was compiled with {command} and "
        "produced the following compile error: {error}. Re-factor the "
        "above code with a fix to eliminate the stated error."
    ),
    "execute": (
        "{code}\n-- The above code was executed after a successful "
        "compile with {command} and produced the following execution "
        "error: {error}. Re-factor the above code with a fix to "
        "eliminate the stated error."
    ),
}

#: §III-C — the "think carefully" wrapper around the translation request.
THINK_PREFIX = (
    "Think carefully before developing the following code that you "
    "describe as: {description}. Now, {translation_prompt}: {code}"
)


def _direction(source: Dialect, target: Dialect) -> Direction:
    key = (source, target)
    if key not in TRANSLATION_PROMPTS:
        raise KeyError(
            f"no prompt dictionary entry for {source.value} -> {target.value}"
        )
    return key


def system_prompt(source: Dialect, target: Dialect) -> str:
    """Table I system prompt for a direction."""
    return SYSTEM_PROMPTS[_direction(source, target)]


def translation_prompt(source: Dialect, target: Dialect) -> str:
    """Table II translation prompt for a direction."""
    return TRANSLATION_PROMPTS[_direction(source, target)]


_FORMATTER = string.Formatter()


def template_parts(template: str, **fields: str) -> List[str]:
    """``template.format(**fields)`` as a list of parts: the template's
    literal fragments between its ``{name}`` fields, and the fields'
    values, in order.  A prompt is counted from its parts, so the
    constant fragments are scanned once, not once per prompt."""
    parts = []
    for literal, name, _spec, _conversion in _FORMATTER.parse(template):
        parts.append(literal)
        if name is not None:
            parts.append(fields[name])
    return parts


def correction_parts(kind: str, code: str, command: str, error: str) -> List[str]:
    """Table III correction prompt as parts; ``kind`` in {compile, execute}."""
    template = CORRECTION_PROMPTS.get(kind)
    if template is None:
        raise KeyError(f"unknown correction kind {kind!r}")
    return template_parts(template, code=code, command=command, error=error)


def correction_prompt(kind: str, code: str, command: str, error: str) -> str:
    """Table III correction prompt; ``kind`` in {compile, execute}."""
    return "".join(correction_parts(kind, code, command, error))
