"""Pin of the interpreter's generated Python over a fixed corpus of programs.

One sha256 covers the source that :class:`repro.interp.codegen.ProgramCode`
generates for each program of this corpus, in order:

* the guest-cost pin's programs (``tests/interp/test_guest_cost_pin.py``);
* every Table IV source in both dialects;
* the ``synth:all`` sources at ``seeds=2`` and at ``seeds=5``;
* every simulated model's first translation of every Table IV app in both
  directions, where the translation compiles.

The guest-cost pin proves what the generated code charges; this pin proves
the code itself is unchanged, so a refactor of the front end or of the code
generator that should be byte-neutral is shown to be.  A change that alters
the generated code on purpose re-captures ``PINNED`` and says so.

The code generator reads each expression's type from semantic analysis, so
the same corpus also checks that analysis types every expression it can.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.hecbench import all_apps
from repro.interp import codegen
from repro.llm.base import ChatMessage
from repro.llm.profiles import direction_key, paper_plan
from repro.llm.registry import model_keys
from repro.llm.simulated import SimulatedLLM
from repro.minilang import analyze, ast, parse
from repro.minilang.source import Dialect, SourceFile
from repro.pipeline.stages.generate import extract_target_code
from repro.prompts.builder import PromptBuilder
from tests.interp.test_guest_cost_pin import PROGRAMS

PINNED = "d37eefc391f3575988d57ff86352eb426a16c52ed435ce11a176e82af10936bd"

BUILDS = 225


def _sources():
    """Every (name, text, dialect) the corpus covers, in order."""
    for name, (dialect, text, _argv, _steps) in PROGRAMS.items():
        yield name, text, dialect
    table4 = all_apps()
    for app in table4:
        yield app.name + ".cu", app.cuda_source, Dialect.CUDA
        yield app.name + ".cpp", app.omp_source, Dialect.OMP
    for spec in ("synth:all:seeds=2", "synth:all:seeds=5"):
        for app in all_apps(spec):
            yield app.name + ".cu", app.cuda_source, Dialect.CUDA
            yield app.name + ".cpp", app.omp_source, Dialect.OMP
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
                if code is not None:
                    yield f"{model}:{app.name}:{tgt.value}", code, tgt


def compiled_corpus():
    """(name, program, dialect) of every corpus source that compiles cleanly."""
    out = []
    for name, text, dialect in _sources():
        program, diags = parse(SourceFile(name, text, dialect))
        if diags.has_errors or not analyze(program, dialect).ok:
            continue
        out.append((name, program, dialect))
    return out


@pytest.fixture(scope="module")
def corpus():
    return compiled_corpus()


def test_generated_code_is_pinned(corpus, monkeypatch):
    sources = []

    def capture(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(codegen, "compile", capture, raising=False)
    h = hashlib.sha256()
    for name, program, dialect in corpus:
        codegen.ProgramCode(program, dialect)
        h.update(name.encode("utf-8") + b"\n" + sources[-1].encode("utf-8") + b"\n")
    assert len(sources) == BUILDS
    assert h.hexdigest() == PINNED


def test_analysis_types_every_expression_but_member_objects(corpus):
    """After a clean compile only the ``blockIdx`` of ``blockIdx.x`` (an
    object, not a value) has no type."""
    objects = untyped = 0
    for name, program, _dialect in corpus:
        for node in [fn.body for fn in program.functions] + [
            gv.decl for gv in program.globals
        ]:
            exprs = ast.walk_exprs(node)
            members = [e.obj for e in exprs if isinstance(e, ast.Member)]
            missing = [e for e in exprs if getattr(e, "static_type", None) is None]
            assert missing == members, name
            assert all(any(m is e for m in members) for e in missing), name
            objects += len(members)
            untyped += len(missing)
    assert objects == untyped == 369
