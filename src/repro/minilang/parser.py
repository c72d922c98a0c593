"""Recursive-descent parser for the mini-language (both dialects).

Parsing is permissive across dialects — CUDA constructs and OpenMP pragmas are
both recognized — and the *semantic* pass (:mod:`repro.minilang.semantics`)
rejects constructs the active dialect's toolchain would not accept.  This
mirrors real toolchains: nvcc ignores unknown pragmas with a warning, while a
host C++ compiler reports CUDA qualifiers as unknown identifiers.

Errors are accumulated as diagnostics with statement-level recovery, so a
single run reports multiple problems, the way clang/nvcc stderr does.

The parser reads the lexer's token list through one cursor, ``pos``, which
never moves past the ``EOF`` token that ends the list: the current token is
read without a bounds check, and only lookahead (``_ahead``) clamps.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.minilang import ast
from repro.minilang.diagnostics import DiagnosticBag
from repro.minilang.lexer import Lexer, Token, TokenKind
from repro.minilang.source import Dialect, SourceFile, Span
from repro.minilang import types as ty

# Token kinds bound once as module globals: the parser tests a kind at
# nearly every token, and a global is cheaper to load than an enum member.
_IDENT, _KEYWORD, _PUNCT, _PRAGMA, _EOF = (
    TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.PUNCT, TokenKind.PRAGMA, TokenKind.EOF,
)
_INT_LIT, _FLOAT_LIT, _STRING_LIT, _CHAR_LIT = (
    TokenKind.INT_LIT, TokenKind.FLOAT_LIT, TokenKind.STRING_LIT, TokenKind.CHAR_LIT,
)

_TYPE_KEYWORDS = {"int", "float", "double", "char", "bool", "void", "long", "unsigned", "size_t"}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

# Binary operator precedence (higher binds tighter).
_BIN_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}


#: The deepest nesting the parser accepts, as clang's ``-fbracket-depth``
#: does.  One level is a parenthesized group, cast, call argument list,
#: kernel launch, subscript or braced block; a statement body without
#: braces; or an operator over an operand (unary, binary, assignment,
#: conditional).
#: The parser recurses at most 7 Python frames per level (a
#: parenthesized group) and semantic analysis, the transpiler and the
#: interpreter's code generator at most 7, so input at the limit stays
#: well inside Python's default recursion limit of 1000.
MAX_NESTING = 100


class _ParseBailout(Exception):
    """Internal: unwound to the nearest recovery point."""


class _NestingLimit(Exception):
    """Internal: :data:`MAX_NESTING` was exceeded; parsing stops."""


class Parser:
    def __init__(
        self,
        source: SourceFile,
        diagnostics: Optional[DiagnosticBag] = None,
        depth: int = 0,
    ) -> None:
        self.source = source
        self.diagnostics = diagnostics if diagnostics is not None else DiagnosticBag()
        lexer = Lexer(
            source.text,
            self.diagnostics,
            cuda_launch_syntax=(source.dialect is Dialect.CUDA),
        )
        self.tokens: List[Token] = lexer.tokens()
        #: Index of the EOF token that ends ``tokens``.
        self._last = len(self.tokens) - 1
        #: The cursor: index of the current token, never past ``_last``.
        self.pos = 0
        #: Current nesting level (see :data:`MAX_NESTING`).
        self.depth = depth

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _ahead(self, offset: int) -> Token:
        """The token ``offset`` places past the current one (EOF at most)."""
        return self.tokens[min(self.pos + offset, self._last)]

    def _at_punct(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.text == text and tok.kind is _PUNCT

    def _at_keyword(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.text == text and tok.kind is _KEYWORD

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if self.pos < self._last:
            self.pos += 1
        return tok

    def _accept_punct(self, text: str) -> Optional[Token]:
        if self._at_punct(text):
            return self._advance()
        return None

    def _expect_punct(self, text: str, context: str = "") -> Token:
        if self._at_punct(text):
            return self._advance()
        got = self._peek()
        where = f" {context}" if context else ""
        self.diagnostics.error(
            "expected-token",
            f"expected '{text}'{where}, found {self._describe(got)}",
            got.span,
        )
        raise _ParseBailout()

    def _expect_ident(self, context: str = "") -> Token:
        tok = self._peek()
        if tok.kind is _IDENT:
            return self._advance()
        where = f" {context}" if context else ""
        self.diagnostics.error(
            "expected-identifier",
            f"expected identifier{where}, found {self._describe(tok)}",
            tok.span,
        )
        raise _ParseBailout()

    def _nest(self) -> None:
        """Enter one nesting level; past :data:`MAX_NESTING` parsing stops
        with clang's fatal error.  The caller leaves the level with
        ``self.depth -= 1``; a bailout restores it at its recovery point."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.diagnostics.error(
                "bracket-depth",
                f"bracket nesting level exceeded maximum of {MAX_NESTING}",
                self._peek().span,
            )
            raise _NestingLimit()

    @staticmethod
    def _describe(tok: Token) -> str:
        if tok.kind is _EOF:
            return "end of file"
        return f"'{tok.text}'"

    def _sync_to(self, *stops: str) -> None:
        """Skip tokens until one of ``stops`` (consumed) or EOF, balancing braces."""
        depth = 0
        while self._peek().kind is not _EOF:
            tok = self._peek()
            if tok.is_punct("{"):
                depth += 1
            elif tok.is_punct("}"):
                if depth == 0:
                    if "}" in stops:
                        self._advance()
                    return
                depth -= 1
            elif depth == 0 and tok.kind is _PUNCT and tok.text in stops:
                self._advance()
                return
            self._advance()

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------
    def _at_type(self, offset: int = 0) -> bool:
        tok = self._ahead(offset)
        if tok.is_keyword("const"):
            return self._at_type(offset + 1)
        return tok.kind is _KEYWORD and tok.text in _TYPE_KEYWORDS

    def _parse_type(self) -> Tuple[ty.Type, bool]:
        """Parse ``[const] scalar '*'*``; returns (type, is_const)."""
        is_const = False
        while self._at_keyword("const"):
            self._advance()
            is_const = True
        tok = self._peek()
        if not (tok.kind is _KEYWORD and tok.text in _TYPE_KEYWORDS):
            self.diagnostics.error(
                "expected-type", f"expected type name, found {self._describe(tok)}", tok.span
            )
            raise _ParseBailout()
        self._advance()
        name = tok.text
        if name == "unsigned" and self._at_keyword("int"):
            self._advance()
        if name == "long" and self._at_keyword("long"):
            self._advance()
        base = ty.named(name)
        ptrs = 0
        while self._at_punct("*"):
            self._advance()
            ptrs += 1
            while self._at_keyword("const") or self._at_keyword("__restrict__"):
                self._advance()
        return ty.Type(base.kind, ptrs), is_const

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        program = ast.Program()
        program.span = Span(1, 1)
        while self._peek().kind is not _EOF:
            try:
                self._parse_topdecl(program)
            except _ParseBailout:
                self.depth = 0
                self._sync_to(";", "}")
            except _NestingLimit:
                break
        return program

    def _parse_topdecl(self, program: ast.Program) -> None:
        tok = self._peek()
        if tok.kind is _PRAGMA:
            self.diagnostics.warning(
                "pragma-at-top-level", "ignoring pragma at file scope", tok.span
            )
            self._advance()
            return

        qualifier: Optional[str] = None
        span = tok.span
        if tok.kind is _KEYWORD and tok.text in ("__global__", "__device__", "__host__"):
            qualifier = tok.text if tok.text != "__host__" else None
            self._advance()

        decl_type, is_const = self._parse_type()
        name_tok = self._expect_ident("after type in declaration")

        if self._at_punct("("):
            fn = self._parse_function(decl_type, name_tok.text, qualifier)
            fn.span = span
            program.functions.append(fn)
            return

        if qualifier is not None:
            self.diagnostics.error(
                "qualifier-on-variable",
                f"'{qualifier}' is not allowed on a variable declaration",
                span,
            )
        decl = self._parse_vardecl_tail(decl_type, name_tok.text, is_const)
        decl.span = span
        program.globals.append(ast.GlobalVar(decl=decl, span=span))

    def _parse_function(
        self, return_type: ty.Type, name: str, qualifier: Optional[str]
    ) -> ast.FuncDef:
        self._expect_punct("(", "to begin parameter list")
        params: List[ast.Param] = []
        if not self._at_punct(")"):
            while True:
                if self._at_keyword("void") and self._ahead(1).is_punct(")"):
                    self._advance()
                    break
                p_span = self._peek().span
                p_type, _ = self._parse_type()
                restrict = False
                p_name = ""
                if self._peek().kind is _IDENT:
                    p_name = self._advance().text
                params.append(ast.Param(type=p_type, name=p_name, span=p_span, restrict=restrict))
                if not self._accept_punct(","):
                    break
        self._expect_punct(")", "to close parameter list")
        if self._accept_punct(";"):
            # Forward declaration: record an empty body; semantics treats a
            # later definition with the same name as the real one.
            return ast.FuncDef(return_type, name, params, ast.Block(), qualifier)
        body = self._parse_block()
        return ast.FuncDef(return_type, name, params, body, qualifier)

    def _parse_vardecl_tail(self, decl_type: ty.Type, name: str, is_const: bool) -> ast.VarDecl:
        array_size: Optional[ast.Expr] = None
        if self._accept_punct("["):
            array_size = self._parse_expr()
            self._expect_punct("]", "to close array size")
        init: Optional[ast.Expr] = None
        if self._accept_punct("="):
            init = self._parse_expr()
        self._expect_punct(";", "after declaration")
        decl = ast.VarDecl(
            type=decl_type, name=name, init=init, array_size=array_size, const=is_const
        )
        return decl

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _parse_block(self) -> ast.Block:
        open_tok = self._expect_punct("{", "to begin block")
        self._nest()
        depth = self.depth
        block = ast.Block()
        block.span = open_tok.span
        while not self._at_punct("}"):
            if self._peek().kind is _EOF:
                self.diagnostics.error(
                    "unclosed-block", "expected '}' to close block", open_tok.span
                )
                raise _ParseBailout()
            try:
                block.stmts.append(self._parse_stmt())
            except _ParseBailout:
                self.depth = depth
                self._sync_to(";", "}")
                if self.tokens[self.pos - 1].is_punct("}"):
                    self.depth -= 1
                    return block
        self._advance()
        self.depth -= 1
        return block

    def _parse_body(self) -> ast.Stmt:
        """A statement's body: a block, or a statement one level deeper."""
        if self._at_punct("{"):
            return self._parse_block()
        self._nest()
        body = self._parse_stmt()
        self.depth -= 1
        return body

    def _parse_stmt(self) -> ast.Stmt:
        tok = self._peek()
        span = tok.span

        if tok.kind is _PRAGMA:
            return self._parse_pragma_stmt()

        if tok.is_punct("{"):
            return self._parse_block()
        if tok.is_punct(";"):
            self._advance()
            return ast.Block().with_span(span)

        if tok.kind is _KEYWORD:
            kw = tok.text
            if kw == "if":
                return self._parse_if()
            if kw == "for":
                return self._parse_for()
            if kw == "while":
                return self._parse_while()
            if kw == "do":
                return self._parse_do_while()
            if kw == "return":
                self._advance()
                value = None if self._at_punct(";") else self._parse_expr()
                self._expect_punct(";", "after return statement")
                return ast.Return(value=value).with_span(span)
            if kw == "break":
                self._advance()
                self._expect_punct(";", "after 'break'")
                return ast.Break().with_span(span)
            if kw == "continue":
                self._advance()
                self._expect_punct(";", "after 'continue'")
                return ast.Continue().with_span(span)
            if kw == "__shared__":
                self._advance()
                decl_type, is_const = self._parse_type()
                name_tok = self._expect_ident("after type in __shared__ declaration")
                decl = self._parse_vardecl_tail(decl_type, name_tok.text, is_const)
                decl.shared = True
                return decl.with_span(span)

        if self._at_type() and (
            self._ahead(1).kind is _IDENT
            or (self._ahead(1).is_punct("*"))
            or self._ahead(1).is_keyword("const")
            or (self._ahead(1).kind is _KEYWORD and self._ahead(1).text in _TYPE_KEYWORDS)
        ):
            decl_type, is_const = self._parse_type()
            name_tok = self._expect_ident("after type in declaration")
            return self._parse_vardecl_tail(decl_type, name_tok.text, is_const).with_span(span)

        # __syncthreads() is a statement-level intrinsic with barrier
        # semantics; recognize it here so the executor can special-case it.
        if tok.kind is _IDENT and tok.text == "__syncthreads":
            self._advance()
            self._expect_punct("(", "after '__syncthreads'")
            self._expect_punct(")", "after '__syncthreads('")
            self._expect_punct(";", "after '__syncthreads()'")
            return ast.SyncThreads().with_span(span)

        expr = self._parse_expr()
        self._expect_punct(";", "after expression statement")
        return ast.ExprStmt(expr=expr).with_span(span)

    def _parse_if(self) -> ast.Stmt:
        span = self._advance().span  # 'if'
        self._expect_punct("(", "after 'if'")
        cond = self._parse_expr()
        self._expect_punct(")", "to close if condition")
        then = self._parse_body()
        other: Optional[ast.Stmt] = None
        if self._at_keyword("else"):
            self._advance()
            other = self._parse_body()
        return ast.If(cond=cond, then=then, other=other).with_span(span)

    def _parse_for(self) -> ast.Stmt:
        span = self._advance().span  # 'for'
        self._expect_punct("(", "after 'for'")
        init: Optional[ast.Stmt] = None
        if not self._at_punct(";"):
            if self._at_type():
                d_span = self._peek().span
                decl_type, is_const = self._parse_type()
                name_tok = self._expect_ident("in for-loop initializer")
                array_size = None
                f_init = None
                if self._accept_punct("="):
                    f_init = self._parse_expr()
                self._expect_punct(";", "after for-loop initializer")
                init = ast.VarDecl(
                    type=decl_type, name=name_tok.text, init=f_init,
                    array_size=array_size, const=is_const,
                ).with_span(d_span)
            else:
                e_span = self._peek().span
                expr = self._parse_expr()
                self._expect_punct(";", "after for-loop initializer")
                init = ast.ExprStmt(expr=expr).with_span(e_span)
        else:
            self._advance()
        cond: Optional[ast.Expr] = None
        if not self._at_punct(";"):
            cond = self._parse_expr()
        self._expect_punct(";", "after for-loop condition")
        step: Optional[ast.Expr] = None
        if not self._at_punct(")"):
            step = self._parse_expr()
        self._expect_punct(")", "to close for-loop header")
        body = self._parse_body()
        return ast.For(init=init, cond=cond, step=step, body=body).with_span(span)

    def _parse_while(self) -> ast.Stmt:
        span = self._advance().span
        self._expect_punct("(", "after 'while'")
        cond = self._parse_expr()
        self._expect_punct(")", "to close while condition")
        body = self._parse_body()
        return ast.While(cond=cond, body=body).with_span(span)

    def _parse_do_while(self) -> ast.Stmt:
        span = self._advance().span
        body = self._parse_body()
        if not self._at_keyword("while"):
            self.diagnostics.error(
                "expected-token", "expected 'while' after do-statement body", self._peek().span
            )
            raise _ParseBailout()
        self._advance()
        self._expect_punct("(", "after 'while'")
        cond = self._parse_expr()
        self._expect_punct(")", "to close do-while condition")
        self._expect_punct(";", "after do-while statement")
        return ast.DoWhile(body=body, cond=cond).with_span(span)

    # ------------------------------------------------------------------
    # Pragmas
    # ------------------------------------------------------------------
    def _parse_pragma_stmt(self) -> ast.Stmt:
        tok = self._advance()
        pragma = parse_omp_pragma(tok.text, tok.span, self.diagnostics, self.depth)
        if pragma is None:
            # Unknown pragma: warn and parse the next statement plainly,
            # matching "warning: ignoring #pragma" behaviour.
            self.diagnostics.warning(
                "unknown-pragma", f"ignoring unrecognized pragma: {tok.text}", tok.span
            )
            return self._parse_body()
        node = ast.Pragma(pragma=pragma)
        node.span = tok.span
        if pragma.directive in ("target data", "target"):
            node.body = self._parse_body()
        elif pragma.is_loop:
            nxt = self._peek()
            if not nxt.is_keyword("for"):
                self.diagnostics.error(
                    "pragma-requires-for",
                    f"statement after '#pragma omp {pragma.directive}' must be a for loop",
                    nxt.span,
                )
                raise _ParseBailout()
            node.body = self._parse_body()
        elif pragma.directive in ("atomic", "critical"):
            node.body = self._parse_body()
        elif pragma.directive == "barrier":
            node.body = None
        else:
            node.body = self._parse_body()
        return node

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _parse_expr(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_ternary()
        tok = self._peek()
        if tok.kind is _PUNCT and tok.text in _ASSIGN_OPS:
            self._advance()
            self._nest()
            value = self._parse_assignment()
            self.depth -= 1
            return ast.Assign(op=tok.text, target=left, value=value).with_span(tok.span)
        return left

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self._at_punct("?"):
            span = self._advance().span
            self._nest()
            then = self._parse_assignment()
            self._expect_punct(":", "in conditional expression")
            other = self._parse_assignment()
            self.depth -= 1
            return ast.Ternary(cond=cond, then=then, other=other).with_span(span)
        return cond

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        # Each operator folded into ``left`` nests it one level deeper.
        depth = self.depth
        left = self._parse_unary()
        while True:
            tok = self._peek()
            if tok.kind is not _PUNCT:
                break
            prec = _BIN_PREC.get(tok.text)
            if prec is None or prec < min_prec:
                break
            self._advance()
            self._nest()
            right = self._parse_binary(prec + 1)
            left = ast.Binary(op=tok.text, left=left, right=right).with_span(tok.span)
        self.depth = depth
        return left

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is _PUNCT and tok.text in ("-", "+", "!", "~", "*", "&", "++", "--"):
            self._advance()
            self._nest()
            operand = self._parse_unary()
            self.depth -= 1
            if tok.text == "+":
                return operand
            return ast.Unary(op=tok.text, operand=operand).with_span(tok.span)
        if tok.text == "sizeof" and tok.kind is _KEYWORD:
            self._advance()
            self._expect_punct("(", "after 'sizeof'")
            size_type, _ = self._parse_type()
            self._expect_punct(")", "to close sizeof")
            return ast.SizeOf(type=size_type).with_span(tok.span)
        # Cast: '(' type ')' unary
        if tok.text == "(" and tok.kind is _PUNCT and self._at_type(1):
            # Look ahead to confirm a cast rather than, e.g. "(int_var + 1)".
            self._advance()
            cast_type, _ = self._parse_type()
            self._expect_punct(")", "to close cast")
            self._nest()
            operand = self._parse_unary()
            self.depth -= 1
            return ast.Cast(type=cast_type, operand=operand).with_span(tok.span)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.kind is not _PUNCT:
                return expr
            if tok.text == "[":
                self._advance()
                self._nest()
                index = self._parse_expr()
                self._expect_punct("]", "to close subscript")
                self.depth -= 1
                expr = ast.Index(base=expr, index=index).with_span(tok.span)
            elif tok.text == ".":
                self._advance()
                field_tok = self._peek()
                if field_tok.kind in (_IDENT, _KEYWORD):
                    self._advance()
                    expr = ast.Member(obj=expr, field_name=field_tok.text).with_span(tok.span)
                else:
                    self.diagnostics.error(
                        "expected-identifier",
                        f"expected member name after '.', found {self._describe(field_tok)}",
                        field_tok.span,
                    )
                    raise _ParseBailout()
            elif tok.text == "++" or tok.text == "--":
                self._advance()
                expr = ast.Postfix(op=tok.text, operand=expr).with_span(tok.span)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        span = tok.span
        kind = tok.kind

        if kind is _IDENT:
            self._advance()
            name = tok.text
            if self._at_punct("<<<"):
                return self._parse_launch(name, span)
            if self._at_punct("("):
                self._advance()
                self._nest()
                args: List[ast.Expr] = []
                if not self._at_punct(")"):
                    while True:
                        args.append(self._parse_expr())
                        if not self._accept_punct(","):
                            break
                self._expect_punct(")", "to close call argument list")
                self.depth -= 1
                return ast.Call(callee=name, args=args).with_span(span)
            return ast.Ident(name=name).with_span(span)

        if kind is _INT_LIT:
            self._advance()
            text = tok.text.rstrip("uUlL")
            value = int(text, 16) if text.lower().startswith("0x") else int(text)
            return ast.IntLit(value=value, text=tok.text).with_span(span)
        if kind is _FLOAT_LIT:
            self._advance()
            return ast.FloatLit(
                value=float(tok.text.rstrip("fFlL")), text=tok.text
            ).with_span(span)
        if kind is _STRING_LIT:
            self._advance()
            raw = tok.text[1:-1]
            value = (
                raw.replace("\\n", "\n").replace("\\t", "\t")
                .replace('\\"', '"').replace("\\\\", "\\")
            )
            return ast.StrLit(value=value).with_span(span)
        if kind is _CHAR_LIT:
            self._advance()
            raw = tok.text[1:-1]
            value = {"\\n": "\n", "\\t": "\t", "\\0": "\0", "\\'": "'"}.get(raw, raw)
            return ast.CharLit(value=value).with_span(span)
        if kind is _KEYWORD:
            if tok.text in ("true", "false"):
                self._advance()
                return ast.BoolLit(value=(tok.text == "true")).with_span(span)
            if tok.text in ("NULL", "nullptr"):
                self._advance()
                return ast.NullLit(spelling=tok.text).with_span(span)

        if tok.is_punct("("):
            self._advance()
            self._nest()
            inner = self._parse_expr()
            self._expect_punct(")", "to close parenthesized expression")
            self.depth -= 1
            return inner

        self.diagnostics.error(
            "expected-expression",
            f"expected expression, found {self._describe(tok)}",
            span,
        )
        raise _ParseBailout()

    def _parse_launch(self, kernel: str, span: Span) -> ast.Expr:
        self._expect_punct("<<<", "to begin kernel launch configuration")
        self._nest()
        grid = self._parse_expr()
        self._expect_punct(",", "between grid and block dimensions")
        block = self._parse_expr()
        self._expect_punct(">>>", "to close kernel launch configuration")
        self._expect_punct("(", "to begin kernel arguments")
        args: List[ast.Expr] = []
        if not self._at_punct(")"):
            while True:
                args.append(self._parse_expr())
                if not self._accept_punct(","):
                    break
        self._expect_punct(")", "to close kernel arguments")
        self.depth -= 1
        return ast.Launch(kernel=kernel, grid=grid, block=block, args=args).with_span(span)


# ---------------------------------------------------------------------------
# OpenMP pragma clause parsing
# ---------------------------------------------------------------------------

_DIRECTIVES = [
    # longest-phrase-first matching
    "target teams distribute parallel for simd",
    "target teams distribute parallel for",
    "target teams distribute",
    "target parallel for",
    "target data",
    "target update",
    "target",
    "teams distribute parallel for",
    "parallel for",
    "parallel",
    "atomic",
    "critical",
    "barrier",
    "simd",
]


def parse_omp_pragma(
    text: str, span: Span, diagnostics: DiagnosticBag, depth: int = 0
) -> Optional[ast.OmpPragma]:
    """Parse a ``#pragma`` line.  Returns None for non-OpenMP pragmas.

    Clause expressions are parsed at nesting level ``depth``, the level of
    the statement the pragma heads."""
    body = text[len("#pragma"):].strip()
    if not body.startswith("omp"):
        return None
    body = body[len("omp"):].strip()

    directive = None
    for cand in _DIRECTIVES:
        if body == cand or body.startswith(cand + " ") or body.startswith(cand + "\t") or (
            body.startswith(cand) and len(body) > len(cand) and not body[len(cand)].isalnum()
        ):
            directive = cand
            body = body[len(cand):].strip()
            break
    if directive is None:
        head = body.split()[0] if body.split() else body
        diagnostics.error(
            "unknown-omp-directive",
            f"unknown OpenMP directive '{head}'",
            span,
        )
        return None
    if directive.endswith(" simd"):
        directive = directive[: -len(" simd")]

    pragma = ast.OmpPragma(directive=directive, raw_text=text, span=span)

    for clause_name, clause_body in _split_clauses(body, span, diagnostics):
        _apply_clause(pragma, clause_name, clause_body, span, diagnostics, depth)
    return pragma


def _split_clauses(body: str, span: Span, diagnostics: DiagnosticBag):
    """Yield (name, parenthesized-body-or-None) for each clause in ``body``."""
    i, n = 0, len(body)
    while i < n:
        while i < n and body[i] in " \t,":
            i += 1
        if i >= n:
            return
        j = i
        while j < n and (body[j].isalnum() or body[j] == "_"):
            j += 1
        name = body[i:j]
        if not name:
            diagnostics.error(
                "malformed-omp-clause", f"malformed clause text near '{body[i:i+12]}'", span
            )
            return
        i = j
        while i < n and body[i] in " \t":
            i += 1
        if i < n and body[i] == "(":
            depth = 0
            k = i
            while k < n:
                if body[k] == "(":
                    depth += 1
                elif body[k] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            if depth != 0:
                diagnostics.error(
                    "malformed-omp-clause", f"unbalanced parentheses in clause '{name}'", span
                )
                return
            yield name, body[i + 1:k]
            i = k + 1
        else:
            yield name, None


def _parse_clause_expr(
    text: str, span: Span, diagnostics: DiagnosticBag, depth: int
) -> Optional[ast.Expr]:
    sub = Parser(SourceFile("<pragma>", text, Dialect.C), diagnostics, depth)
    try:
        return sub._parse_expr()
    except _ParseBailout:
        diagnostics.error(
            "pragma-bad-expr", f"could not parse expression '{text}' in pragma clause", span
        )
        return None


def _apply_clause(
    pragma: ast.OmpPragma,
    name: str,
    body: Optional[str],
    span: Span,
    diagnostics: DiagnosticBag,
    depth: int,
) -> None:
    if name == "map":
        if body is None:
            diagnostics.error("malformed-omp-clause", "map clause requires arguments", span)
            return
        kind = "tofrom"
        rest = body
        if ":" in body:
            head, _, tail = body.partition(":")
            if head.strip() in ("to", "from", "tofrom", "alloc", "release", "delete"):
                kind = head.strip()
                rest = tail
        for item in _split_top_commas(rest):
            item = item.strip()
            if not item:
                continue
            mc = _parse_map_item(kind, item, span, diagnostics, depth)
            if mc is not None:
                pragma.maps.append(mc)
    elif name == "reduction":
        if body is None or ":" not in body:
            diagnostics.error(
                "malformed-omp-clause", "reduction clause requires 'op: list'", span
            )
            return
        op, _, names = body.partition(":")
        op = op.strip()
        if op not in ("+", "*", "max", "min", "-", "&&", "||"):
            diagnostics.error(
                "malformed-omp-clause", f"unsupported reduction operator '{op}'", span
            )
            return
        pragma.reduction = ast.ReductionClause(
            op=op, names=[n.strip() for n in names.split(",") if n.strip()]
        )
    elif name == "num_threads":
        pragma.num_threads = _parse_clause_expr(body or "", span, diagnostics, depth)
    elif name == "thread_limit":
        pragma.thread_limit = _parse_clause_expr(body or "", span, diagnostics, depth)
    elif name == "num_teams":
        pragma.num_teams = _parse_clause_expr(body or "", span, diagnostics, depth)
    elif name == "collapse":
        try:
            pragma.collapse = int((body or "").strip())
        except ValueError:
            diagnostics.error(
                "malformed-omp-clause", f"collapse requires an integer, got '{body}'", span
            )
    elif name == "schedule":
        parts = [p.strip() for p in (body or "").split(",")]
        if not parts or parts[0] not in ("static", "dynamic", "guided", "auto", "runtime"):
            diagnostics.error(
                "malformed-omp-clause", f"unknown schedule kind '{body}'", span
            )
            return
        pragma.schedule = parts[0]
        if len(parts) > 1 and parts[1]:
            pragma.schedule_chunk = _parse_clause_expr(parts[1], span, diagnostics, depth)
    elif name == "private":
        pragma.private.extend(n.strip() for n in (body or "").split(",") if n.strip())
    elif name == "firstprivate":
        pragma.firstprivate.extend(n.strip() for n in (body or "").split(",") if n.strip())
    elif name == "shared":
        pragma.shared.extend(n.strip() for n in (body or "").split(",") if n.strip())
    elif name in ("default", "device", "if", "nowait", "defaultmap", "is_device_ptr", "update", "read", "write", "seq_cst"):
        # Recognized but semantically inert in the model.
        return
    else:
        diagnostics.warning(
            "unknown-omp-clause", f"ignoring unknown OpenMP clause '{name}'", span
        )


def _split_top_commas(text: str) -> List[str]:
    out: List[str] = []
    depth = 0
    cur: List[str] = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def _parse_map_item(
    kind: str, item: str, span: Span, diagnostics: DiagnosticBag, depth: int
) -> Optional[ast.MapClause]:
    """Parse ``name`` or ``name[lo:len]``."""
    if "[" not in item:
        return ast.MapClause(kind=kind, name=item)
    name, _, rest = item.partition("[")
    name = name.strip()
    if not rest.endswith("]"):
        diagnostics.error(
            "malformed-omp-clause", f"malformed array section '{item}' in map clause", span
        )
        return None
    section = rest[:-1]
    lo_text, _, len_text = section.partition(":")
    lower = _parse_clause_expr(lo_text.strip() or "0", span, diagnostics, depth)
    length = (
        _parse_clause_expr(len_text.strip(), span, diagnostics, depth)
        if len_text.strip() else None
    )
    return ast.MapClause(kind=kind, name=name, lower=lower, length=length)


def parse(source: SourceFile) -> Tuple[ast.Program, DiagnosticBag]:
    """Parse ``source`` and return (program, diagnostics)."""
    diagnostics = DiagnosticBag()
    parser = Parser(source, diagnostics)
    program = parser.parse_program()
    return program, diagnostics
