"""Pin of the lexer's output over every source the repository ships.

One sha256 covers ``(kind, text, line, col)`` of every token and
``(code, message, line, col)`` of every diagnostic the lexer produces for:

* every Table IV source in both dialects, lexed with and without
  ``cuda_launch_syntax``;
* the ``synth:all`` sources at two seeds;
* every simulated model's first translation of every Table IV app in both
  directions (planned faults included: this is the text the compiler sees);
* a set of malformed snippets, each lexed in both modes.

Compiler stderr quotes these spans and messages and feeds the correction
prompts, so a lexer change that moves any of them changes session bytes.
The digest was captured on the character-at-a-time lexer that the
one-pattern lexer replaced.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.hecbench import all_apps
from repro.llm.base import ChatMessage
from repro.llm.profiles import direction_key, paper_plan
from repro.llm.registry import model_keys
from repro.llm.simulated import SimulatedLLM
from repro.minilang.diagnostics import DiagnosticBag
from repro.minilang.lexer import Lexer
from repro.minilang.source import Dialect
from repro.pipeline.stages.generate import extract_target_code
from repro.prompts.builder import PromptBuilder

MALFORMED = [
    "int a; /* never closed",
    "/*/ int b;",
    "/**/ a /* one */ b /* two\n lines */ c */ d",
    'char* s = "abc;\nint x;',
    'char* s = "abc',
    'char* s = "abc\\',
    '"line one \\\nline two" x',
    '"tab\\t quote\\" end" "\\\\" ""',
    "char c = 'a",
    "char c = '\\",
    "char c = '';",
    "char c = '\\'' ; char d = '\\n'; char e = 'ab';",
    "char c = '\n';",
    "#pragma omp target teams distribute \\\n    parallel for map(to: a[0:n])\nx;",
    "#pragma omp parallel for \\",
    "#pragma\nint y;",
    "  #  pragma omp parallel\n#warning careful\n#\nint z;",
    "#include <stdio.h>\n#include <stdlib.h>\n#define N 8\n#ifdef X\n#else\n#endif\nint w;",
    "#if 0\r\n#pragma omp atomic\r\nx++;\r\n",
    "a <<< b >>> c <<<= d >>>= e << f >> g <<= h >>= i",
    "k<<<grid, block>>>(p, q);",
    "int f(int n, ...) { return a->b :: c; }",
    "x+++y---z&&w||!v^~u%t?s:r;",
    "0x1F 0XabcUL 1e5 1E-3f 2.5e+10 .5 5. 10u 10UL 3.0f 2.5L 1e5F 7lu 1fu",
    "0x 08 1.2.3 1..2 .e5 1e 1e+ 0x1Fp3 12abc",
    "\tint\tx = 1;\r\n\treturn x;\r\n",
    "a @ b $ c ` d",
    "a\\\nb \\ c",
    "int x = 1 // no newline at end of input",
    "*/ / * /= // trailing",
    "",
    "   \n\n\t  ",
]


def _inputs():
    """Every (text, cuda_launch_syntax) pair the digest covers, in order."""
    table4 = all_apps()
    for app in table4:
        for text in (app.cuda_source, app.omp_source):
            yield text, False
            yield text, True
    for app in all_apps("synth:all:seeds=2"):
        yield app.cuda_source, True
        yield app.omp_source, False
    directions = ((Dialect.OMP, Dialect.CUDA), (Dialect.CUDA, Dialect.OMP))
    for model in model_keys():
        for src, tgt in directions:
            builder = PromptBuilder(src, tgt)
            for app in table4:
                plan = paper_plan(model, direction_key(src, tgt), app.name)
                llm = SimulatedLLM(model, src, tgt, plan=plan)
                bundle = builder.build(llm, app.source(src))
                response = llm.chat([
                    ChatMessage("system", bundle.system),
                    ChatMessage("user", bundle.full_user_prompt),
                ])
                code = extract_target_code(response.text, tgt)
                yield code if code is not None else response.text, tgt is Dialect.CUDA
    for text in MALFORMED:
        yield text, False
        yield text, True


def _record(text: str, cuda: bool):
    bag = DiagnosticBag()
    tokens = Lexer(text, bag, cuda_launch_syntax=cuda).tokens()
    return (
        [(t.kind.name, t.text, t.span.line, t.span.col) for t in tokens],
        [(d.code, d.message, d.span.line, d.span.col) for d in bag],
    )


PINNED = "566948dddd4fb64fd183beb439ef00a66c17278c2e27904b13710784c80d5ec9"


@pytest.fixture(scope="module")
def records():
    return [_record(text, cuda) for text, cuda in _inputs()]


def test_lexer_output_is_pinned(records):
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode("utf-8"))
        h.update(b"\n")
    assert h.hexdigest() == PINNED


def test_inputs_exercise_every_diagnostic(records):
    codes = {code for _tokens, diags in records for code, *_where in diags}
    assert codes == {
        "invalid-character", "unknown-directive", "unterminated-char",
        "unterminated-comment", "unterminated-string",
    }
