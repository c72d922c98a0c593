"""Pin of the parser's output over the lexer pin's corpus.

One sha256 covers a canonical dump of what :func:`repro.minilang.parser.parse`
returns for every distinct text of ``tests/minilang/test_lexer_pin._inputs``
(Table IV sources, ``synth:all`` sources, every simulated model's first
translation and the malformed snippets), each parsed as CUDA and as OpenMP.
The dump names each node's class and gives every field that is part of the
node's identity (its dataclass comparison, spans included), and each
diagnostic's severity, code, message, span and hint.

Compiler stderr quotes these diagnostics, and the interpreter and the
simulated LLM read these trees, so a parser change that moves any of them
changes session bytes.  The digest was captured on the parser that predates
the shared parse memo and the tuple tokens.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

import pytest

from repro.minilang import ast
from repro.minilang.parser import parse
from repro.minilang.source import Dialect, SourceFile, Span
from repro.minilang.types import Type
from tests.minilang.test_lexer_pin import _inputs

#: Records an AST is built from: dumped field by field.
_RECORDS = (ast.Node, ast.MapClause, ast.ReductionClause)


def dump(value) -> str:
    """Canonical text of an AST value.

    Analysis annotations (``Expr.static_type``, ``Program.analyzed_for``)
    and the interpreter's ``Program.generated`` are not part of a node's
    identity, so the dump leaves them out and reads the same before and
    after a program is analysed or run.
    """
    if isinstance(value, Span):
        return f"@{value.line}:{value.col}"
    if isinstance(value, Type):
        return f"Type({value.kind.name},{value.pointers})"
    if isinstance(value, _RECORDS):
        parts = [
            f"{f.name}={dump(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
            if f.compare
        ]
        return f"{type(value).__name__}({','.join(parts)})"
    if isinstance(value, list):
        return f"[{','.join(dump(v) for v in value)}]"
    if isinstance(value, enum.Enum):
        return value.name
    if value is None or isinstance(value, (str, int, float, bool)):
        return repr(value)
    raise TypeError(f"no canonical dump for a {type(value).__name__}")


def dump_parse(text: str, dialect: Dialect) -> str:
    program, diagnostics = parse(SourceFile("pin", text, dialect))
    lines = [dump(program)]
    for d in diagnostics:
        lines.append(
            f"{d.severity.name} {d.code} {d.message!r} "
            f"{dump(d.span)} {d.hint!r}"
        )
    return "\n".join(lines)


PINNED = "27a69e9b76c50e2b78d660c28cba3b61cedf306a6edf59b06db2fa0f5598b98d"


@pytest.fixture(scope="module")
def dumps():
    texts = dict.fromkeys(text for text, _cuda in _inputs())
    return [
        dump_parse(text, dialect)
        for text in texts
        for dialect in (Dialect.CUDA, Dialect.OMP)
    ]


def test_parser_output_is_pinned(dumps):
    h = hashlib.sha256()
    for record in dumps:
        h.update(record.encode("utf-8"))
        h.update(b"\n")
    assert h.hexdigest() == PINNED


def test_corpus_exercises_clauses_launches_and_diagnostics(dumps):
    text = "\n".join(dumps)
    for part in ("Launch(", "MapClause(", "ReductionClause(", "While(",
                 "Cast(", "ERROR ", "WARNING "):
        assert part in text


def test_span_behaves_as_a_value():
    a, b = Span(3, 7), Span(3, 7)
    assert a == b and hash(a) == hash(b) and a != Span(7, 3)
    assert str(a) == "3:7"
    assert repr(a) == "Span(line=3, col=7)"
    assert (a.line, a.col) == (3, 7)
