"""The parse memo the compiler and the simulated LLM's transpiler share.

``parse_once`` keeps one parse per ``(text, dialect)``: a baseline build's
front end and every later translation of the same source read one program,
so none of them may change it.  The memo is cleared with the compile memo,
counted apart from it, keeps nothing a failed compile produced, and is safe
to call from several threads.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.hecbench import all_apps, get_app
from repro.interp import ProgramRunner, codegen
from repro.llm.profiles import direction_key, paper_plan
from repro.llm.registry import model_keys
from repro.llm.simulated import SimulatedLLM
from repro.llm.transpiler import Transpiler
from repro.minilang import analyze, ast, parse
from repro.minilang.source import Dialect, SourceFile
from repro.toolchain import (
    CUDA_COMPILER,
    OMP_COMPILER,
    clear_compile_cache,
    compile_cache_stats,
    compiler_for,
)
from repro.toolchain import compiler
from repro.toolchain.compiler import parse_once
from tests.minilang.test_ast_pin import dump

DIRECTIONS = ((Dialect.OMP, Dialect.CUDA), (Dialect.CUDA, Dialect.OMP))

#: Parses cleanly, fails semantic analysis.
SEMA_ERROR = "int main() { return undeclared_name; }\n"
#: Fails to parse.
PARSE_ERROR = "int main() { return 1 +; }\n"


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_compile_cache()
    yield
    clear_compile_cache()


@pytest.fixture
def parses(monkeypatch):
    """Texts the memo really parses: the seam perfbench counts at."""
    seen = []
    real = compiler.parse

    def counting(source):
        seen.append(source.text)
        return real(source)

    monkeypatch.setattr(compiler, "parse", counting)
    return seen


def test_no_consumer_mutates_a_shared_ast():
    for app in all_apps():
        for src, tgt in DIRECTIONS:
            text = app.source(src)
            baseline = compiler_for(src).compile(text)
            assert baseline.ok, baseline.stderr
            program = baseline.program
            before = dump(program)
            where = f"{app.name} ({src.value})"
            for model in model_keys():
                plan = paper_plan(model, direction_key(src, tgt), app.name)
                options = SimulatedLLM(model, src, tgt, plan=plan).options
                translated = Transpiler(options).translate(text, src, tgt)
                compiler_for(tgt).compile(translated)
            assert dump(program) == before, f"translating {where} changed it"
            assert parse_once(SourceFile("x", text, src))[0] is program
            # Another filename misses the compile memo, so analysis runs
            # again over the shared program.
            again = compiler_for(src).compile(text, filename="again" + src.file_extension)
            assert again.program is program
            outcome = ProgramRunner(program, src).run(list(app.args))
            assert outcome.ok, outcome.error
            assert dump(program) == before, f"compiling or running {where} changed it"


def test_a_baseline_and_four_translations_parse_once(parses):
    text = get_app("jacobi").cuda_source
    assert CUDA_COMPILER.compile(text).ok
    for _ in range(4):
        Transpiler().translate(text, Dialect.CUDA, Dialect.OMP)
    assert parses == [text]


def test_clear_empties_the_memo_and_translations_are_not_compile_traffic(parses):
    text = get_app("pathfinder").cuda_source
    CUDA_COMPILER.compile(text)
    clear_compile_cache()
    stats = compile_cache_stats()
    Transpiler().translate(text, Dialect.CUDA, Dialect.OMP)
    assert parses == [text, text]
    assert compile_cache_stats() == stats


@pytest.mark.parametrize("text", [SEMA_ERROR, PARSE_ERROR], ids=["sema", "parse"])
def test_a_failed_compile_keeps_no_ast(parses, text):
    parse_once(SourceFile("x", text, Dialect.CUDA))
    result = CUDA_COMPILER.compile(text)
    assert not result.ok and result.program is None
    parses.clear()
    parse_once(SourceFile("x", text, Dialect.CUDA))
    assert parses == [text]


def test_threads_parsing_one_text_get_equal_programs():
    text = get_app("layout").omp_source
    threads, calls = 4, 25
    start = threading.Barrier(threads)
    programs = [[] for _ in range(threads)]

    def work(i):
        start.wait()
        for _ in range(calls):
            programs[i].append(parse_once(SourceFile("x", text, Dialect.OMP))[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    first = programs[0][0]
    assert all(p == first for got in programs for p in got)
    assert len({dump(p) for got in programs for p in got}) == 1
    # Every lookup was counted and the text holds one entry: no lost update.
    stats = compiler._PARSE_MEMO.stats()
    assert stats["hits"] + stats["misses"] == threads * calls
    assert stats["entries"] == 1


def _unheld(program: ast.Program):
    """Uses bound to a symbol that no declaration of ``program`` holds."""
    held = {gv.decl.symbol for gv in program.globals}
    for fn in program.functions:
        held.update(p.symbol for p in fn.params)
        held.update(s.symbol for s in ast.walk_stmts(fn.body) if isinstance(s, ast.VarDecl))
    return [
        e for fn in program.functions for e in ast.walk_exprs(fn.body)
        if isinstance(e, ast.Ident) and e.symbol is not None and e.symbol not in held
    ]


def test_threads_compiling_one_text_bind_every_use_to_its_declaration(monkeypatch):
    """Threads that compile one text (each under its own file name, so each
    misses the compile memo and analyses the memo's shared program) while
    others build its code for either dialect leave every use bound to a
    symbol its declaration holds, and code built afterwards is a serial
    build's."""
    text = get_app("layout").omp_source
    source = SourceFile("x.cpp", text, Dialect.OMP)
    threads, rounds = 4, 30
    built = []

    def capture(source, filename, mode):
        built.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(codegen, "compile", capture, raising=False)
    serial = parse(source)[0]
    assert analyze(serial, Dialect.OMP).ok
    codegen.ProgramCode(serial, Dialect.OMP)
    expected = built[-1]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            clear_compile_cache()
            program = parse_once(source)[0]
            start = threading.Barrier(threads)
            compiled = []

            def work(i):
                start.wait()
                compiled.append(OMP_COMPILER.compile(text, filename=f"t{i}.cpp").ok)
                codegen.ProgramCode.of(program, Dialect.CUDA if i % 2 else Dialect.OMP)

            workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in workers)
            assert compiled == [True] * threads
            assert _unheld(program) == []
            codegen.ProgramCode(program, Dialect.OMP)
            assert built[-1] == expected
    finally:
        sys.setswitchinterval(interval)
