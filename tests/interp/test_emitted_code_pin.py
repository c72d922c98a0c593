"""Pin of the interpreter's generated Python over a fixed corpus of programs.

``emitted_code_pin.json`` holds one sha256 per build of this corpus, of the
source that :class:`repro.interp.codegen.ProgramCode` generates for it,
keyed ``"<index>:<name>"`` (names repeat across the two synth seed sets).
The corpus, in order:

* the guest-cost pin's programs (``tests/interp/test_guest_cost_pin.py``);
* every Table IV source in both dialects;
* the ``synth:all`` sources at ``seeds=2`` and at ``seeds=5``;
* every simulated model's first translation of every Table IV app in both
  directions, where the translation compiles.

The guest-cost pin proves what the generated code charges; this pin proves
the code itself is unchanged, so a refactor of the front end or of the code
generator that should be byte-neutral is shown to be.  A failure lists the
builds whose code moved.  A change that alters the generated code on
purpose re-captures the pin and says which builds moved and why::

    PYTHONPATH=src python -m tests.interp.test_emitted_code_pin

The code generator reads each expression's type from semantic analysis, so
the same corpus also checks that analysis types every expression it can.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict
from unittest import mock

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

PIN = Path(__file__).with_name("emitted_code_pin.json")

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


def build_digests(corpus) -> Dict[str, str]:
    """``"<index>:<name>"`` -> sha256 of the source generated for that build."""
    sources = []

    def capture(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    digests = {}
    with mock.patch.object(codegen, "compile", capture, create=True):
        for index, (name, program, dialect) in enumerate(corpus):
            codegen.ProgramCode(program, dialect)
            digests[f"{index}:{name}"] = hashlib.sha256(
                sources[-1].encode("utf-8")).hexdigest()
    assert len(sources) == len(corpus)
    return digests


def test_generated_code_is_pinned(corpus):
    digests = build_digests(corpus)
    pinned = json.loads(PIN.read_text(encoding="utf-8"))
    assert len(digests) == BUILDS
    moved = [k for k in {**pinned, **digests} if pinned.get(k) != digests.get(k)]
    assert not moved, f"{len(moved)} build(s) moved: {moved}"


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


if __name__ == "__main__":
    PIN.write_text(json.dumps(build_digests(compiled_corpus()), indent=1) + "\n",
                   encoding="utf-8")
