"""Code generation: AST back to mini-language source text.

Used by the simulated-LLM transpiler to emit translated programs.  The
:class:`CodegenStyle` knobs (indentation, brace placement, pointer spelling,
block-size spelling) are how per-model "style profiles" produce visibly
different — yet semantically equivalent — translations, which is what gives
the Sim-T / Sim-L similarity metrics realistic spread across LLMs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.minilang import ast
from repro.minilang.types import Type

# Operator precedence table shared with the parser (kept here to avoid
# emitting redundant parentheses).
_PREC = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}
_UNARY_PREC = 11
_POSTFIX_PREC = 12


@dataclass(frozen=True)
class CodegenStyle:
    """Formatting and idiom knobs for emitted source."""

    indent: str = "  "
    brace_same_line: bool = True
    pointer_left: bool = True  # "float* a" vs "float *a"
    rename: Optional[Dict[str, str]] = None  # identifier renaming map


DEFAULT_STYLE = CodegenStyle()


class _Emitter:
    def __init__(self, style: CodegenStyle) -> None:
        self.style = style
        self.lines: List[str] = []
        self.depth = 0

    def line(self, text: str = "") -> None:
        if text:
            self.lines.append(self.style.indent * self.depth + text)
        else:
            self.lines.append("")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class CodeGenerator:
    def __init__(self, style: CodegenStyle = DEFAULT_STYLE) -> None:
        self.style = style

    # ------------------------------------------------------------------
    def generate(self, program: ast.Program) -> str:
        em = _Emitter(self.style)
        first = True
        for gv in program.globals:
            em.line(self._vardecl_text(gv.decl))
            first = False
        if program.globals:
            em.line()
        for fn in program.functions:
            if not first:
                em.line()
            self._emit_function(fn, em)
            first = False
        return em.text()

    # ------------------------------------------------------------------
    def _name(self, name: str) -> str:
        if self.style.rename:
            return self.style.rename.get(name, name)
        return name

    def _type_text(self, t: Type, declarator: str = "") -> str:
        base = t.kind.value
        stars = "*" * t.pointers
        if not declarator:
            return base + stars
        if t.pointers and not self.style.pointer_left:
            return f"{base} {stars}{declarator}"
        if t.pointers:
            return f"{base}{stars} {declarator}"
        return f"{base} {declarator}"

    # ------------------------------------------------------------------
    def _emit_function(self, fn: ast.FuncDef, em: _Emitter) -> None:
        params = ", ".join(
            self._type_text(p.type, self._name(p.name)) if p.name else self._type_text(p.type)
            for p in fn.params
        )
        qual = f"{fn.qualifier} " if fn.qualifier else ""
        header = f"{qual}{self._type_text(fn.return_type, self._name(fn.name))}({params})"
        self._emit_braced(header, fn.body, em)

    # ------------------------------------------------------------------
    def _emit_stmt(self, stmt: ast.Stmt, em: _Emitter) -> None:
        if isinstance(stmt, ast.Block):
            em.line("{")
            self._emit_nested(stmt, em)
            em.line("}")
        elif isinstance(stmt, ast.VarDecl):
            em.line(self._vardecl_text(stmt))
        elif isinstance(stmt, ast.ExprStmt):
            em.line(self.expr(stmt.expr) + ";")
        elif isinstance(stmt, ast.If):
            self._emit_if(stmt, em)
        elif isinstance(stmt, ast.For):
            self._emit_for(stmt, em)
        elif isinstance(stmt, ast.While):
            head = f"while ({self.expr(stmt.cond)})"
            self._emit_braced(head, stmt.body, em)
        elif isinstance(stmt, ast.DoWhile):
            self._emit_braced(
                "do", stmt.body, em, close=f"}} while ({self.expr(stmt.cond)});"
            )
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                em.line(f"return {self.expr(stmt.value)};")
            else:
                em.line("return;")
        elif isinstance(stmt, ast.Break):
            em.line("break;")
        elif isinstance(stmt, ast.Continue):
            em.line("continue;")
        elif isinstance(stmt, ast.Pragma):
            em.line(self._pragma_text(stmt.pragma))
            if stmt.body is not None:
                self._emit_stmt(stmt.body, em)
        elif isinstance(stmt, ast.SyncThreads):
            em.line("__syncthreads();")
        else:
            raise AssertionError(f"unhandled statement node {type(stmt).__name__}")

    def _emit_nested(self, body: ast.Stmt, em: _Emitter) -> None:
        """The statements of ``body`` (a block's, or ``body`` itself), one
        level deeper."""
        em.depth += 1
        for s in body.stmts if isinstance(body, ast.Block) else [body]:
            self._emit_stmt(s, em)
        em.depth -= 1

    def _emit_braced(self, head: str, body: ast.Stmt, em: _Emitter,
                     close: str = "}") -> None:
        """``head``, its opening brace placed by style, ``body`` one level
        deeper, then ``close`` unless it is empty."""
        if self.style.brace_same_line:
            em.line(head + " {")
        else:
            em.line(head)
            em.line("{")
        self._emit_nested(body, em)
        if close:
            em.line(close)

    def _emit_if(self, stmt: ast.If, em: _Emitter) -> None:
        """One ``else if`` arm shares the closing brace's line; the rest of a
        longer chain nests inside its ``else``."""
        self._emit_braced(f"if ({self.expr(stmt.cond)})", stmt.then, em, close="")
        other = stmt.other
        if isinstance(other, ast.If):
            em.line(f"}} else if ({self.expr(other.cond)}) {{")
            self._emit_nested(other.then, em)
            other = other.other
        if other is not None:
            em.line("} else {")
            self._emit_nested(other, em)
        em.line("}")

    def _emit_for(self, stmt: ast.For, em: _Emitter) -> None:
        init = ""
        if isinstance(stmt.init, ast.VarDecl):
            init = self._vardecl_text(stmt.init).rstrip(";")
        elif isinstance(stmt.init, ast.ExprStmt):
            init = self.expr(stmt.init.expr)
        cond = self.expr(stmt.cond) if stmt.cond is not None else ""
        step = self.expr(stmt.step) if stmt.step is not None else ""
        head = f"for ({init}; {cond}; {step})"
        self._emit_braced(head, stmt.body, em)

    def _vardecl_text(self, decl: ast.VarDecl) -> str:
        prefix = "__shared__ " if decl.shared else ""
        if decl.const:
            prefix += "const "
        name = self._name(decl.name)
        if decl.array_size is not None:
            text = f"{prefix}{self._type_text(decl.type, name)}[{self.expr(decl.array_size)}]"
        else:
            text = f"{prefix}{self._type_text(decl.type, name)}"
        if decl.init is not None:
            text += f" = {self.expr(decl.init)}"
        return text + ";"

    # ------------------------------------------------------------------
    def _pragma_text(self, pragma: ast.OmpPragma) -> str:
        parts = [f"#pragma omp {pragma.directive}"]
        for mc in pragma.maps:
            if mc.length is not None:
                lo = self.expr(mc.lower) if mc.lower is not None else "0"
                parts.append(
                    f"map({mc.kind}: {self._name(mc.name)}[{lo}:{self.expr(mc.length)}])"
                )
            else:
                parts.append(f"map({mc.kind}: {self._name(mc.name)})")
        if pragma.reduction is not None:
            names = ", ".join(self._name(n) for n in pragma.reduction.names)
            parts.append(f"reduction({pragma.reduction.op}: {names})")
        if pragma.collapse > 1:
            parts.append(f"collapse({pragma.collapse})")
        if pragma.num_teams is not None:
            parts.append(f"num_teams({self.expr(pragma.num_teams)})")
        if pragma.thread_limit is not None:
            parts.append(f"thread_limit({self.expr(pragma.thread_limit)})")
        if pragma.num_threads is not None:
            parts.append(f"num_threads({self.expr(pragma.num_threads)})")
        if pragma.schedule is not None:
            if pragma.schedule_chunk is not None:
                parts.append(f"schedule({pragma.schedule}, {self.expr(pragma.schedule_chunk)})")
            else:
                parts.append(f"schedule({pragma.schedule})")
        if pragma.private:
            parts.append(f"private({', '.join(self._name(n) for n in pragma.private)})")
        if pragma.firstprivate:
            parts.append(
                f"firstprivate({', '.join(self._name(n) for n in pragma.firstprivate)})"
            )
        return " ".join(parts)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def expr(self, e: ast.Expr, parent_prec: int = 0) -> str:
        text, prec = self._expr_prec(e)
        if prec < parent_prec:
            return f"({text})"
        return text

    def _expr_prec(self, e: ast.Expr):
        if isinstance(e, ast.IntLit):
            return (e.text or str(e.value)), _POSTFIX_PREC
        if isinstance(e, ast.FloatLit):
            return (e.text or repr(e.value)), _POSTFIX_PREC
        if isinstance(e, ast.StrLit):
            escaped = (
                e.value.replace("\\", "\\\\").replace('"', '\\"')
                .replace("\n", "\\n").replace("\t", "\\t")
            )
            return f'"{escaped}"', _POSTFIX_PREC
        if isinstance(e, ast.CharLit):
            ch = {"\n": "\\n", "\t": "\\t", "'": "\\'", "\0": "\\0"}.get(e.value, e.value)
            return f"'{ch}'", _POSTFIX_PREC
        if isinstance(e, ast.BoolLit):
            return ("true" if e.value else "false"), _POSTFIX_PREC
        if isinstance(e, ast.NullLit):
            return e.spelling, _POSTFIX_PREC
        if isinstance(e, ast.Ident):
            return self._name(e.name), _POSTFIX_PREC
        if isinstance(e, ast.Member):
            return f"{self.expr(e.obj, _POSTFIX_PREC)}.{e.field_name}", _POSTFIX_PREC
        if isinstance(e, ast.Unary):
            inner = self.expr(e.operand, _UNARY_PREC)
            return f"{e.op}{inner}", _UNARY_PREC
        if isinstance(e, ast.Postfix):
            return f"{self.expr(e.operand, _POSTFIX_PREC)}{e.op}", _POSTFIX_PREC
        if isinstance(e, ast.Binary):
            prec = _PREC[e.op]
            left = self.expr(e.left, prec)
            right = self.expr(e.right, prec + 1)
            return f"{left} {e.op} {right}", prec
        if isinstance(e, ast.Assign):
            target = self.expr(e.target, 1)
            value = self.expr(e.value, 0)
            return f"{target} {e.op} {value}", 0
        if isinstance(e, ast.Ternary):
            return (
                f"{self.expr(e.cond, 1)} ? {self.expr(e.then)} : {self.expr(e.other)}",
                0,
            )
        if isinstance(e, ast.Call):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{self._name(e.callee)}({args})", _POSTFIX_PREC
        if isinstance(e, ast.Launch):
            args = ", ".join(self.expr(a) for a in e.args)
            grid = self.expr(e.grid)
            block = self.expr(e.block)
            return (
                f"{self._name(e.kernel)}<<<{grid}, {block}>>>({args})",
                _POSTFIX_PREC,
            )
        if isinstance(e, ast.Index):
            return (
                f"{self.expr(e.base, _POSTFIX_PREC)}[{self.expr(e.index)}]",
                _POSTFIX_PREC,
            )
        if isinstance(e, ast.Cast):
            return f"({self._type_text(e.type)}){self.expr(e.operand, _UNARY_PREC)}", _UNARY_PREC
        if isinstance(e, ast.SizeOf):
            return f"sizeof({self._type_text(e.type)})", _POSTFIX_PREC
        raise AssertionError(f"unhandled expression node {type(e).__name__}")


def generate(program: ast.Program, style: CodegenStyle = DEFAULT_STYLE) -> str:
    """Render ``program`` as source text."""
    return CodeGenerator(style).generate(program)
