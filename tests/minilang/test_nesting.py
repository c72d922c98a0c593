"""Deeply nested guest code fails with a diagnostic, never an exception.

The parser stops at ``MAX_NESTING`` levels with clang's fatal
``bracket nesting level exceeded`` error, so no later pass recurses past
Python's limit.  Programs within it that the generated Python cannot
express (Python allows 20 nested loops and 100 indentation levels) fail
their run with an interpreter-limit error.
"""

from __future__ import annotations

import sys

import pytest

from repro.llm.transpiler import Transpiler, TranspileOptions
from repro.minilang.parser import MAX_NESTING
from repro.minilang.source import Dialect
from repro.toolchain import compiler_for
from repro.toolchain.executor import Executor

TOO_DEEP = f"bracket nesting level exceeded maximum of {MAX_NESTING}"


def compile_omp(text):
    return compiler_for(Dialect.OMP).compile(text)


def run(text):
    result = compile_omp(text)
    assert result.ok, result.stderr
    return Executor().run(result.program, Dialect.OMP)


def nested_ifs(n):
    return (
        "int main() { int x = 1;\n" + "if (x) {\n" * n + "x = 2;\n" + "}\n" * n
        + 'printf("%d\\n", x); return 0; }'
    )


def nested_loops(n, keyword):
    head = {
        "for": "for (int i{i} = 0; i{i} < 1; i{i}++) {{\n",
        "while": "while (x < {i}) {{\n",
    }[keyword]
    return (
        "int main() { int x = 1;\n"
        + "".join(head.format(i=i) for i in range(n))
        + "x = x + 1;\n" + "}\n" * n + 'printf("%d\\n", x); return 0; }'
    )


def parens(n):
    return "int main() { return " + "(" * n + "1" + ")" * n + "; }"


def blocks(n):
    return "int main() { int x = 1;\n" + "{" * n + "x = 2;" + "}" * n + " return x; }"


#: Shapes whose AST nests one level per repetition, with no brackets to
#: show it: unary operators, casts, binary and assignment chains, and
#: else-if chains.
UNBRACKETED = {
    "unary": lambda n: "int main() { int x = 1; return " + "- " * n + "x; }",
    "cast": lambda n: "int main() { int x = 1; return " + "(int)" * n + "x; }",
    "sum": lambda n: "int main() { int x = 1; return " + "+".join(["x"] * n) + "; }",
    "assign": lambda n: "int main() { int x = 1; int y = 0;\n" + "x = " * n + "y; return x; }",
    "else-if": lambda n: (
        "int main() { int x = 1;\n"
        + "".join(f"if (x == {i}) x = {i};\nelse " for i in range(n))
        + "x = 0;\nreturn x; }"
    ),
    "ternary": lambda n: (
        "int main() { int x = 1; return "
        + "".join(f"x == {i} ? {i} : " for i in range(n)) + "0; }"
    ),
}


class TestParserLimit:
    @pytest.mark.parametrize("text", [
        parens(150),
        nested_ifs(400),
        nested_ifs(200),
        nested_ifs(120),
        blocks(1000),
    ], ids=["150-parens", "400-ifs", "200-ifs", "120-ifs", "1000-blocks"])
    def test_past_the_limit_is_a_compile_error(self, text):
        result = compile_omp(text)
        assert not result.ok
        assert [d.code for d in result.diagnostics.errors] == ["bracket-depth"]
        assert f"error: {TOO_DEEP}" in result.stderr

    @pytest.mark.parametrize("shape", sorted(UNBRACKETED))
    def test_unbracketed_nesting_counts_too(self, shape):
        result = compile_omp(UNBRACKETED[shape](1000))
        assert [d.code for d in result.diagnostics.errors] == ["bracket-depth"]

    def test_pragma_clauses_nest_at_their_statement_level(self):
        text = (
            "int main() { int x = 1;\n" + "{" * 60
            + "#pragma omp parallel for num_threads(" + "(" * 60 + "2"
            + ")" * 60 + ")\nfor (int i = 0; i < 4; i++) x = i;\n"
            + "}" * 60 + " return x; }"
        )
        result = compile_omp(text)
        assert [d.code for d in result.diagnostics.errors] == ["bracket-depth"]

    @pytest.mark.parametrize("launch", [
        "k<<<1, 1>>>(" + "(" * MAX_NESTING + "1" + ")" * MAX_NESTING + ")",
        "k<<<" * 400 + "1, 1>>>(1)" * 400,
    ], ids=["arguments", "configuration"])
    def test_cuda_launches_count(self, launch):
        text = (
            "__global__ void k(int n) { }\nint main() { " + launch
            + "; return 0; }"
        )
        result = compiler_for(Dialect.CUDA).compile(text)
        assert [d.code for d in result.diagnostics.errors] == ["bracket-depth"]

    def test_the_limit_itself_compiles_and_runs(self):
        # main's braces are the first level and, in ``blocks``, the
        # assignment inside the innermost block the last.
        assert run(blocks(MAX_NESTING - 2)).exit_code == 2
        assert run(parens(MAX_NESTING - 1)).exit_code == 1
        for build in UNBRACKETED.values():
            assert compile_omp(build(MAX_NESTING // 2)).ok
        assert compile_omp(blocks(MAX_NESTING - 1)).stderr.count(TOO_DEEP) == 1
        assert compile_omp(parens(MAX_NESTING)).stderr.count(TOO_DEEP) == 1

    def test_the_transpiler_handles_the_limit(self):
        for text in (parens(MAX_NESTING - 1), nested_ifs(MAX_NESTING - 2)):
            out = Transpiler(TranspileOptions()).translate(
                text, Dialect.OMP, Dialect.CUDA
            )
            assert "int main()" in out


class TestInterpreterLimit:
    @pytest.mark.parametrize("keyword", ["for", "while"])
    def test_twenty_nested_loops_fail_the_run(self, keyword):
        outcome = run(nested_loops(20, keyword))
        assert outcome.exit_code == 1
        assert outcome.stderr == (
            "interpreter limit exceeded: program nests too deeply\n"
            "[detail] too many statically nested blocks"
        )

    @pytest.mark.parametrize("keyword", ["for", "while"])
    def test_nineteen_nested_loops_run(self, keyword):
        outcome = run(nested_loops(19, keyword))
        assert outcome.ok
        assert outcome.stdout == ("2\n" if keyword == "for" else "1\n")

    def test_indentation_past_python_limit_fails_the_run(self):
        outcome = run(nested_ifs(98))
        assert outcome.exit_code == 1
        assert outcome.stderr.startswith("interpreter limit exceeded")
        assert "too many levels of indentation" in outcome.stderr

    def test_ninety_seven_nested_ifs_run(self):
        outcome = run(nested_ifs(97))
        assert outcome.ok and outcome.stdout == "2\n"

    def test_code_generator_recursion_is_not_a_guest_fault(self):
        # Generating code for 90 nested ifs takes several hundred frames;
        # started near the recursion limit, the generator runs out, which
        # is the interpreter's limit, not the guest's stack overflow.
        result = compile_omp(nested_ifs(90))
        assert result.ok

        def at_depth(n):
            return at_depth(n - 1) if n else Executor().run(
                result.program, Dialect.OMP
            )

        outcome = at_depth(sys.getrecursionlimit() - 300)
        assert outcome.exit_code == 1
        assert outcome.stderr == (
            "interpreter limit exceeded: program nests too deeply\n"
            "[detail] code generator recursion limit"
        )
        # The failed build is not kept: from a shallow stack it runs.
        assert Executor().run(result.program, Dialect.OMP).stdout == "2\n"
