"""Semantic analysis: name binding, type checking, dialect legality.

The analyzer's product is a :class:`DiagnosticBag` whose rendered text is the
"compiler stderr" that the LASSI pipeline feeds back to the LLM.  Messages are
worded to match the clang/nvcc phrasing that real LLMs are trained on (e.g.
``use of undeclared identifier 'foo'``), since the simulated LLM's repair
matcher keys on them the way a real model attends to error tokens.

Analysis is also the only name resolver and typer of the language: it gives
each declaration one :class:`~repro.minilang.ast.Symbol`, binds every name
(``Ident``, map and reduction clauses) to the symbol in scope there, and
leaves each expression's type on the node (``Expr.static_type``, read with
:func:`expr_type`); the interpreter's code generator reads both.  The loop
helpers at the end (:func:`sole_inner_for`, :func:`canonical`) serve the
code generator and the transpiler alike.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.minilang import ast
from repro.minilang import types as ty
from repro.minilang.builtins import BUILTINS, CONSTANTS, GEOMETRY_BUILTINS, return_type
from repro.minilang.diagnostics import DiagnosticBag
from repro.minilang.source import Dialect, Span


@dataclass
class _Scope:
    vars: Dict[str, ast.Symbol] = field(default_factory=dict)
    parent: Optional["_Scope"] = None

    def lookup(self, name: str) -> Optional[ast.Symbol]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        return None

    def declare(self, node, type_: ty.Type, is_global: bool = False) -> bool:
        """Declare ``node``, a declaration or a parameter, here (False: already
        declared in this scope).  It keeps the symbol an earlier analysis gave
        it, so analysing again binds every use to the same object."""
        if node.symbol is None:
            hidden = self.lookup(node.name)
            depth = hidden.depth + 1 if hidden is not None and not hidden.is_global else 0
            node.symbol = ast.Symbol(node.name, type_, depth, is_global)
        if node.name in self.vars:
            return False
        self.vars[node.name] = node.symbol
        return True


@dataclass
class AnalysisResult:
    """Outcome of semantic analysis."""

    diagnostics: DiagnosticBag
    program: ast.Program

    @property
    def ok(self) -> bool:
        return not self.diagnostics.has_errors


class _FunctionContext:
    def __init__(self, fn: ast.FuncDef, in_device: bool) -> None:
        self.fn = fn
        self.in_device = in_device
        self.loop_depth = 0
        self.saw_return_value = False


class Analyzer:
    def __init__(self, program: ast.Program, dialect: Dialect) -> None:
        self.program = program
        self.dialect = dialect
        self.diagnostics = DiagnosticBag()
        self.functions: Dict[str, ast.FuncDef] = {}

    # ------------------------------------------------------------------
    def run(self) -> AnalysisResult:
        for fn in self.program.functions:
            prev = self.functions.get(fn.name)
            if prev is not None and prev.body.stmts and fn.body.stmts:
                self.diagnostics.error(
                    "redefinition", f"redefinition of '{fn.name}'", fn.span
                )
            # A definition supersedes a forward declaration.
            if prev is None or fn.body.stmts:
                self.functions[fn.name] = fn

        if "main" not in self.functions:
            self.diagnostics.error(
                "no-main", "undefined reference to 'main'", Span(1, 1),
                hint="a program entry point 'int main(...)' is required",
            )

        global_scope = _Scope()
        for gv in self.program.globals:
            self._check_global(gv, global_scope)

        for fn in self.functions.values():
            self._check_function(fn, global_scope)
        self.program.analyzed_for = self.dialect
        return AnalysisResult(self.diagnostics, self.program)

    # ------------------------------------------------------------------
    def _check_global(self, gv: ast.GlobalVar, scope: _Scope) -> None:
        decl = gv.decl
        ctx = _FunctionContext(
            ast.FuncDef(ty.VOID, "<global-init>", [], ast.Block()), in_device=False
        )
        var_type = self._declared_type(decl, scope, ctx)
        if not scope.declare(decl, var_type, is_global=True):
            self.diagnostics.error(
                "redefinition", f"redefinition of '{decl.name}'", gv.span
            )
        if decl.init is not None:
            init_type = self._expr_type(decl.init, scope, ctx)
            if init_type is not None and not ty.assignable(var_type, init_type):
                self.diagnostics.error(
                    "type-mismatch",
                    f"cannot initialize a variable of type '{var_type}' with an "
                    f"rvalue of type '{init_type}'",
                    decl.init.span,
                )

    def _check_function(self, fn: ast.FuncDef, global_scope: _Scope) -> None:
        if fn.qualifier in ("__global__", "__device__") and self.dialect is not Dialect.CUDA:
            self.diagnostics.error(
                "undeclared-ident",
                f"use of undeclared identifier '{fn.qualifier}'",
                fn.span,
                hint="CUDA function qualifiers require nvcc",
            )
        if fn.is_kernel and not fn.return_type.is_void:
            self.diagnostics.error(
                "kernel-return-type",
                f"a __global__ function must have a void return type, "
                f"but '{fn.name}' returns '{fn.return_type}'",
                fn.span,
            )
        scope = _Scope(parent=global_scope)
        for param in fn.params:
            if param.name and not scope.declare(param, param.type):
                self.diagnostics.error(
                    "redefinition",
                    f"redefinition of parameter '{param.name}'",
                    param.span,
                )
        ctx = _FunctionContext(fn, in_device=fn.qualifier in ("__global__", "__device__"))
        for s in fn.body.stmts:
            self._check_stmt(s, scope, ctx)
        if (
            not fn.return_type.is_void
            and fn.name != "main"
            and fn.body.stmts
            and not ctx.saw_return_value
        ):
            self.diagnostics.warning(
                "missing-return",
                f"non-void function '{fn.name}' does not return a value on all paths",
                fn.span,
            )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope, ctx: _FunctionContext) -> None:
        if isinstance(stmt, ast.Block):
            inner = _Scope(parent=scope)
            for s in stmt.stmts:
                self._check_stmt(s, inner, ctx)
        elif isinstance(stmt, ast.VarDecl):
            self._check_vardecl(stmt, scope, ctx)
        elif isinstance(stmt, ast.ExprStmt):
            self._expr_type(stmt.expr, scope, ctx)
        elif isinstance(stmt, ast.If):
            self._expr_type(stmt.cond, scope, ctx)
            self._check_stmt(stmt.then, scope, ctx)
            if stmt.other is not None:
                self._check_stmt(stmt.other, scope, ctx)
        elif isinstance(stmt, ast.For):
            inner = _Scope(parent=scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner, ctx)
            if stmt.cond is not None:
                self._expr_type(stmt.cond, inner, ctx)
            if stmt.step is not None:
                self._expr_type(stmt.step, inner, ctx)
            ctx.loop_depth += 1
            self._check_stmt(stmt.body, inner, ctx)
            ctx.loop_depth -= 1
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            self._expr_type(stmt.cond, scope, ctx)
            ctx.loop_depth += 1
            self._check_stmt(stmt.body, scope, ctx)
            ctx.loop_depth -= 1
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                vt = self._expr_type(stmt.value, scope, ctx)
                ctx.saw_return_value = True
                if (
                    vt is not None
                    and ctx.fn.return_type.is_void
                ):
                    self.diagnostics.error(
                        "void-return-value",
                        f"void function '{ctx.fn.name}' should not return a value",
                        stmt.span,
                    )
            elif not ctx.fn.return_type.is_void:
                self.diagnostics.error(
                    "missing-return-value",
                    f"non-void function '{ctx.fn.name}' should return a value",
                    stmt.span,
                )
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if ctx.loop_depth == 0:
                word = "break" if isinstance(stmt, ast.Break) else "continue"
                self.diagnostics.error(
                    "break-outside-loop",
                    f"'{word}' statement not in loop statement",
                    stmt.span,
                )
        elif isinstance(stmt, ast.Pragma):
            self._check_pragma(stmt, scope, ctx)
        elif isinstance(stmt, ast.SyncThreads):
            if not ctx.in_device:
                self.diagnostics.error(
                    "host-syncthreads",
                    "calling a __device__ function(\"__syncthreads\") from a "
                    "__host__ function is not allowed",
                    stmt.span,
                )

    def _declared_type(self, decl: ast.VarDecl, scope: _Scope,
                       ctx: _FunctionContext) -> ty.Type:
        """The variable's type; an array's size must be an integer."""
        if decl.array_size is None:
            return decl.type
        st = self._expr_type(decl.array_size, scope, ctx)
        if st is not None and not st.is_integer:
            self.diagnostics.error(
                "array-size-type",
                f"size of array '{decl.name}' has non-integer type '{st}'",
                decl.span,
            )
        return decl.type.pointer_to()

    def _check_vardecl(self, decl: ast.VarDecl, scope: _Scope, ctx: _FunctionContext) -> None:
        var_type = self._declared_type(decl, scope, ctx)
        if decl.shared and not ctx.in_device:
            self.diagnostics.error(
                "shared-outside-kernel",
                "__shared__ variables are only allowed in device code",
                decl.span,
            )
        if not scope.declare(decl, var_type):
            self.diagnostics.error(
                "redefinition", f"redefinition of '{decl.name}'", decl.span
            )
        if decl.init is not None:
            it = self._expr_type(decl.init, scope, ctx)
            if it is not None and not ty.assignable(var_type, it):
                self.diagnostics.error(
                    "type-mismatch",
                    f"cannot initialize a variable of type '{var_type}' with an "
                    f"rvalue of type '{it}'",
                    decl.init.span,
                )

    def _check_pragma(self, stmt: ast.Pragma, scope: _Scope, ctx: _FunctionContext) -> None:
        pragma = stmt.pragma
        for mc in pragma.maps:
            mc.symbol = scope.lookup(mc.name)
        red = pragma.reduction
        if red is not None:
            red.symbols = [scope.lookup(name) for name in red.names]
        if self.dialect is Dialect.CUDA:
            # nvcc without -fopenmp: pragma is ignored with a warning; the
            # attached statement still compiles (and will run serially).
            self.diagnostics.warning(
                "unknown-pragma",
                f"ignoring '#pragma omp {pragma.directive}' [-Wunknown-pragmas]",
                stmt.span,
            )
            if stmt.body is not None:
                self._check_stmt(stmt.body, scope, ctx)
            return
        if ctx.in_device:
            self.diagnostics.error(
                "pragma-in-kernel",
                "OpenMP directives are not allowed in device code",
                stmt.span,
            )
        for mc in pragma.maps:
            if mc.symbol is None:
                self.diagnostics.error(
                    "undeclared-ident",
                    f"use of undeclared identifier '{mc.name}' in map clause",
                    stmt.span,
                )
            for bound in (mc.lower, mc.length):
                if bound is not None:
                    self._expr_type(bound, scope, ctx)
        if red is not None:
            for name, sym in zip(red.names, red.symbols):
                if sym is None:
                    self.diagnostics.error(
                        "undeclared-ident",
                        f"use of undeclared identifier '{name}' in reduction clause",
                        stmt.span,
                    )
                elif sym.type.is_pointer:
                    self.diagnostics.error(
                        "reduction-pointer",
                        f"a reduction list item must be of scalar type, "
                        f"'{name}' has type '{sym.type}'",
                        stmt.span,
                    )
        for expr in (pragma.num_threads, pragma.thread_limit, pragma.num_teams,
                     pragma.schedule_chunk):
            if expr is not None:
                self._expr_type(expr, scope, ctx)

        if pragma.is_loop:
            if not isinstance(stmt.body, ast.For):
                self.diagnostics.error(
                    "pragma-requires-for",
                    f"statement after '#pragma omp {pragma.directive}' must be a for loop",
                    stmt.span,
                )
                if stmt.body is not None:
                    self._check_stmt(stmt.body, scope, ctx)
                return
            self._check_canonical_loop(stmt.body, pragma, scope, ctx)
            self._check_stmt(stmt.body, scope, ctx)
        elif pragma.directive == "atomic":
            body = stmt.body
            ok = (
                isinstance(body, ast.ExprStmt)
                and isinstance(body.expr, (ast.Assign, ast.Unary, ast.Postfix))
            )
            if not ok:
                self.diagnostics.error(
                    "invalid-atomic",
                    "the statement following '#pragma omp atomic' must be an "
                    "expression statement updating an l-value",
                    stmt.span,
                )
            if body is not None:
                self._check_stmt(body, scope, ctx)
        elif stmt.body is not None:
            self._check_stmt(stmt.body, scope, ctx)

    def _check_canonical_loop(
        self, loop: ast.For, pragma: ast.OmpPragma, scope: _Scope, ctx: _FunctionContext
    ) -> None:
        """OpenMP loop directives require canonical form: init, test, incr."""
        if loop.init is None or loop.cond is None or loop.step is None:
            self.diagnostics.error(
                "non-canonical-loop",
                "OpenMP loop directive requires a canonical for loop "
                "(initializer, condition and increment)",
                loop.span,
            )
        depth_needed = pragma.collapse
        cur: ast.Stmt = loop
        for level in range(1, depth_needed):
            body = cur.body if isinstance(cur, ast.For) else None
            inner = None
            if isinstance(body, ast.For):
                inner = body
            elif isinstance(body, ast.Block):
                fors = [s for s in body.stmts if isinstance(s, ast.For)]
                others = [
                    s for s in body.stmts
                    if not isinstance(s, (ast.For, ast.Block))
                ]
                if len(fors) == 1 and not others:
                    inner = fors[0]
            if inner is None:
                self.diagnostics.error(
                    "bad-collapse",
                    f"cannot collapse {depth_needed} loops: loop nest is not "
                    f"perfectly nested at depth {level + 1}",
                    loop.span,
                )
                return
            cur = inner

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _expr_type(
        self, expr: ast.Expr, scope: _Scope, ctx: _FunctionContext
    ) -> Optional[ty.Type]:
        """Type-check ``expr`` and leave its type on it (None if a
        sub-expression errored)."""
        t = self._check_expr(expr, scope, ctx)
        expr.static_type = t
        return t

    def _check_expr(
        self, expr: ast.Expr, scope: _Scope, ctx: _FunctionContext
    ) -> Optional[ty.Type]:
        if isinstance(expr, ast.IntLit):
            return ty.INT
        if isinstance(expr, ast.FloatLit):
            return ty.FLOAT if expr.text.rstrip().endswith(("f", "F")) else ty.DOUBLE
        if isinstance(expr, ast.StrLit):
            return ty.Type(ty.Kind.CHAR, 1)
        if isinstance(expr, ast.CharLit):
            return ty.CHAR
        if isinstance(expr, ast.BoolLit):
            return ty.BOOL
        if isinstance(expr, ast.NullLit):
            return ty.Type(ty.Kind.VOID, 1)
        if isinstance(expr, ast.Ident):
            return self._ident_type(expr, scope, ctx)
        if isinstance(expr, ast.Member):
            return self._member_type(expr, scope, ctx)
        if isinstance(expr, ast.Unary):
            return self._unary_type(expr, scope, ctx)
        if isinstance(expr, ast.Postfix):
            t = self._expr_type(expr.operand, scope, ctx)
            self._require_lvalue(expr.operand, "increment/decrement operand")
            return t
        if isinstance(expr, ast.Binary):
            return self._binary_type(expr, scope, ctx)
        if isinstance(expr, ast.Assign):
            return self._assign_type(expr, scope, ctx)
        if isinstance(expr, ast.Ternary):
            self._expr_type(expr.cond, scope, ctx)
            t1 = self._expr_type(expr.then, scope, ctx)
            t2 = self._expr_type(expr.other, scope, ctx)
            if t1 is None or t2 is None:
                return None
            if t1 == t2:
                return t1
            if t1.is_numeric and t2.is_numeric:
                return ty.unify_arith(t1, t2)
            return t1
        if isinstance(expr, ast.Call):
            return self._call_type(expr, scope, ctx)
        if isinstance(expr, ast.Launch):
            return self._launch_type(expr, scope, ctx)
        if isinstance(expr, ast.Index):
            base = self._expr_type(expr.base, scope, ctx)
            idx = self._expr_type(expr.index, scope, ctx)
            if idx is not None and not idx.is_integer:
                self.diagnostics.error(
                    "subscript-type",
                    f"array subscript is not an integer (got '{idx}')",
                    expr.index.span,
                )
            if base is None:
                return None
            if not base.is_pointer:
                self.diagnostics.error(
                    "subscript-nonpointer",
                    "subscripted value is not an array or pointer",
                    expr.span,
                )
                return None
            return base.pointee()
        if isinstance(expr, ast.Cast):
            self._expr_type(expr.operand, scope, ctx)
            return expr.type
        if isinstance(expr, ast.SizeOf):
            return ty.SIZE_T
        raise AssertionError(f"unhandled expression node {type(expr).__name__}")

    def _ident_type(
        self, expr: ast.Ident, scope: _Scope, ctx: _FunctionContext
    ) -> Optional[ty.Type]:
        name = expr.name
        sym = expr.symbol = scope.lookup(name)
        if sym is not None:
            return sym.type
        if name in CONSTANTS:
            value, cuda_only = CONSTANTS[name]
            if cuda_only and self.dialect is not Dialect.CUDA:
                self.diagnostics.error(
                    "undeclared-ident", f"use of undeclared identifier '{name}'", expr.span
                )
                return None
            return ty.FLOAT if isinstance(value, float) else ty.INT
        if name in GEOMETRY_BUILTINS:
            if self.dialect is not Dialect.CUDA or not ctx.in_device:
                self.diagnostics.error(
                    "undeclared-ident",
                    f"use of undeclared identifier '{name}'",
                    expr.span,
                    hint=(
                        f"'{name}' is only available in CUDA device code"
                        if self.dialect is Dialect.CUDA
                        else None
                    ),
                )
                return None
            # Usable only through .x member access; bare use is an error.
            return ty.INT
        if name in self.functions or name in BUILTINS:
            self.diagnostics.error(
                "function-as-value",
                f"reference to function '{name}' requires a call",
                expr.span,
            )
            return None
        self.diagnostics.error(
            "undeclared-ident", f"use of undeclared identifier '{name}'", expr.span
        )
        return None

    def _member_type(
        self, expr: ast.Member, scope: _Scope, ctx: _FunctionContext
    ) -> Optional[ty.Type]:
        if isinstance(expr.obj, ast.Ident) and expr.obj.name in GEOMETRY_BUILTINS:
            if self.dialect is not Dialect.CUDA:
                self.diagnostics.error(
                    "undeclared-ident",
                    f"use of undeclared identifier '{expr.obj.name}'",
                    expr.obj.span,
                )
                return None
            if not ctx.in_device:
                self.diagnostics.error(
                    "geometry-in-host",
                    f"'{expr.obj.name}' is not allowed in host code",
                    expr.obj.span,
                )
                return None
            if expr.field_name not in ("x", "y", "z"):
                self.diagnostics.error(
                    "bad-member",
                    f"no member named '{expr.field_name}' in 'uint3'",
                    expr.span,
                )
                return None
            return ty.INT
        self.diagnostics.error(
            "bad-member",
            "member reference base is not a structure",
            expr.span,
        )
        return None

    def _unary_type(
        self, expr: ast.Unary, scope: _Scope, ctx: _FunctionContext
    ) -> Optional[ty.Type]:
        t = self._expr_type(expr.operand, scope, ctx)
        if t is None:
            return None
        op = expr.op
        if op == "&":
            self._require_lvalue(expr.operand, "operand of '&'")
            return t.pointer_to()
        if op == "*":
            if not t.is_pointer:
                self.diagnostics.error(
                    "deref-nonpointer",
                    f"indirection requires pointer operand ('{t}' invalid)",
                    expr.span,
                )
                return None
            return t.pointee()
        if op == "!":
            return ty.BOOL
        if op == "~":
            if not t.is_integer:
                self.diagnostics.error(
                    "bitwise-nonint",
                    f"invalid argument type '{t}' to unary expression",
                    expr.span,
                )
            return ty.INT
        if op in ("++", "--"):
            self._require_lvalue(expr.operand, "increment/decrement operand")
            return t
        if op == "-":
            if not t.is_numeric:
                self.diagnostics.error(
                    "arith-nonnumeric",
                    f"invalid argument type '{t}' to unary expression",
                    expr.span,
                )
                return None
            return t
        raise AssertionError(f"unhandled unary op {op}")

    def _binary_type(
        self, expr: ast.Binary, scope: _Scope, ctx: _FunctionContext
    ) -> Optional[ty.Type]:
        lt = self._expr_type(expr.left, scope, ctx)
        rt = self._expr_type(expr.right, scope, ctx)
        if lt is None or rt is None:
            return None
        op = expr.op
        if op in ("&&", "||"):
            return ty.BOOL
        if op in ("==", "!=", "<", ">", "<=", ">="):
            if lt.is_pointer != rt.is_pointer and not (
                (lt.is_pointer and rt.kind is ty.Kind.VOID)
                or (rt.is_pointer and lt.kind is ty.Kind.VOID)
            ):
                # comparing pointer with int etc.
                if not (lt.is_numeric and rt.is_numeric):
                    self.diagnostics.error(
                        "comparison-mismatch",
                        f"comparison of distinct types ('{lt}' and '{rt}')",
                        expr.span,
                    )
            return ty.BOOL
        if op in ("&", "|", "^", "<<", ">>", "%"):
            if not (lt.is_integer and rt.is_integer):
                self.diagnostics.error(
                    "bitwise-nonint",
                    f"invalid operands to binary expression ('{lt}' and '{rt}')",
                    expr.span,
                )
                return None
            return ty.unify_arith(lt, rt)
        if op in ("+", "-"):
            if lt.is_pointer and rt.is_integer:
                return lt
            if rt.is_pointer and lt.is_integer and op == "+":
                return rt
            if lt.is_pointer and rt.is_pointer and op == "-":
                return ty.LONG
        if not (lt.is_numeric and rt.is_numeric):
            self.diagnostics.error(
                "arith-mismatch",
                f"invalid operands to binary expression ('{lt}' and '{rt}')",
                expr.span,
            )
            return None
        return ty.unify_arith(lt, rt)

    def _assign_type(
        self, expr: ast.Assign, scope: _Scope, ctx: _FunctionContext
    ) -> Optional[ty.Type]:
        tt = self._expr_type(expr.target, scope, ctx)
        vt = self._expr_type(expr.value, scope, ctx)
        self._require_lvalue(expr.target, "left operand of assignment")
        if tt is None or vt is None:
            return tt
        if expr.op == "=":
            if not ty.assignable(tt, vt):
                self.diagnostics.error(
                    "type-mismatch",
                    f"assigning to '{tt}' from incompatible type '{vt}'",
                    expr.span,
                )
        else:
            base_op = expr.op[:-1]
            if tt.is_pointer and base_op in ("+", "-") and vt.is_integer:
                pass  # pointer arithmetic compound assignment
            elif base_op in ("&", "|", "^", "%", "<<", ">>"):
                if not (tt.is_integer and vt.is_integer):
                    self.diagnostics.error(
                        "bitwise-nonint",
                        f"invalid operands to binary expression ('{tt}' and '{vt}')",
                        expr.span,
                    )
            elif not (tt.is_numeric and vt.is_numeric):
                self.diagnostics.error(
                    "arith-mismatch",
                    f"invalid operands to compound assignment ('{tt}' and '{vt}')",
                    expr.span,
                )
        return tt

    def _require_lvalue(self, expr: ast.Expr, what: str) -> None:
        """A variable, an element and ``*p`` are lvalues; a builtin constant,
        a geometry builtin and its members (typed, with no symbol) are not."""
        if isinstance(expr, ast.Index) or isinstance(expr, ast.Unary) and expr.op == "*":
            return
        if isinstance(expr, ast.Ident) and expr.symbol is not None:
            return
        if isinstance(expr, (ast.Ident, ast.Member)) and expr.static_type is None:
            return  # an undeclared name or a bad member: reported already
        self.diagnostics.error(
            "not-assignable",
            f"expression is not assignable ({what})",
            expr.span,
        )

    def _call_type(
        self, expr: ast.Call, scope: _Scope, ctx: _FunctionContext
    ) -> Optional[ty.Type]:
        arg_types = [self._expr_type(a, scope, ctx) for a in expr.args]
        name = expr.callee

        fn = self.functions.get(name)
        if fn is not None:
            if fn.is_kernel:
                self.diagnostics.error(
                    "kernel-call-unconfigured",
                    f"a __global__ function call must be configured: did you "
                    f"mean '{name}<<<...>>>(...)'?",
                    expr.span,
                )
                return ty.VOID
            if fn.is_device and not ctx.in_device:
                self.diagnostics.error(
                    "device-call-from-host",
                    f"calling a __device__ function(\"{name}\") from a __host__ "
                    f"function(\"{ctx.fn.name}\") is not allowed",
                    expr.span,
                )
            if not fn.is_device and ctx.in_device:
                self.diagnostics.error(
                    "host-call-from-device",
                    f"calling a __host__ function(\"{name}\") from a "
                    f"{ctx.fn.qualifier or '__global__'} function"
                    f"(\"{ctx.fn.name}\") is not allowed",
                    expr.span,
                )
            if len(expr.args) != len(fn.params):
                self.diagnostics.error(
                    "arg-count",
                    f"too {'many' if len(expr.args) > len(fn.params) else 'few'} "
                    f"arguments to function call '{name}', expected "
                    f"{len(fn.params)}, have {len(expr.args)}",
                    expr.span,
                )
                return fn.return_type
            for i, (param, at) in enumerate(zip(fn.params, arg_types)):
                if at is not None and not ty.assignable(param.type, at):
                    self.diagnostics.error(
                        "arg-type",
                        f"no matching function for call to '{name}': argument "
                        f"{i + 1} has type '{at}', expected '{param.type}'",
                        expr.args[i].span,
                    )
            return fn.return_type

        b = BUILTINS.get(name)
        if b is not None:
            if b.cuda_only and self.dialect is not Dialect.CUDA:
                self.diagnostics.error(
                    "undeclared-ident",
                    f"use of undeclared identifier '{name}'",
                    expr.span,
                    hint="CUDA runtime API requires nvcc" if name.startswith("cuda") else None,
                )
                return None
            if b.where == "device" and not ctx.in_device:
                self.diagnostics.error(
                    "device-call-from-host",
                    f"calling a __device__ function(\"{name}\") from a __host__ "
                    f"function(\"{ctx.fn.name}\") is not allowed",
                    expr.span,
                )
            if b.where == "host" and ctx.in_device and name != "printf":
                self.diagnostics.error(
                    "host-call-from-device",
                    f"calling a __host__ function(\"{name}\") from a __global__ "
                    f"function(\"{ctx.fn.name}\") is not allowed",
                    expr.span,
                )
            nargs = len(expr.args)
            if nargs < b.min_args or (b.max_args != -1 and nargs > b.max_args):
                self.diagnostics.error(
                    "arg-count",
                    f"too {'many' if b.max_args != -1 and nargs > b.max_args else 'few'} "
                    f"arguments to function call '{name}'",
                    expr.span,
                )
            if name in ("atomicAdd", "atomicSub", "atomicMax", "atomicMin", "atomicExch"):
                if arg_types and arg_types[0] is not None and not arg_types[0].is_pointer:
                    self.diagnostics.error(
                        "arg-type",
                        f"no instance of overloaded function \"{name}\" matches "
                        f"the argument list: first argument must be a pointer",
                        expr.span,
                    )
            clean_types = [t if t is not None else ty.INT for t in arg_types]
            return return_type(b, clean_types)

        self.diagnostics.error(
            "undeclared-function",
            f"use of undeclared identifier '{name}'",
            expr.span,
        )
        return None

    def _launch_type(
        self, expr: ast.Launch, scope: _Scope, ctx: _FunctionContext
    ) -> Optional[ty.Type]:
        if self.dialect is not Dialect.CUDA:
            self.diagnostics.error(
                "launch-outside-cuda",
                "kernel launch syntax '<<<...>>>' requires CUDA compilation",
                expr.span,
            )
            return None
        if ctx.in_device:
            self.diagnostics.error(
                "launch-in-device",
                "kernel launch from device code is not supported",
                expr.span,
            )
        for dim in (expr.grid, expr.block):
            dt = self._expr_type(dim, scope, ctx)
            if dt is not None and not dt.is_integer:
                self.diagnostics.error(
                    "launch-dim-type",
                    f"kernel launch dimension has non-integer type '{dt}'",
                    dim.span,
                )
        arg_types = [self._expr_type(a, scope, ctx) for a in expr.args]
        fn = self.functions.get(expr.kernel)
        if fn is None:
            self.diagnostics.error(
                "undeclared-function",
                f"use of undeclared identifier '{expr.kernel}'",
                expr.span,
            )
            return ty.VOID
        if not fn.is_kernel:
            self.diagnostics.error(
                "launch-non-kernel",
                f"only __global__ functions may be launched; '{expr.kernel}' "
                f"is not a kernel",
                expr.span,
            )
            return ty.VOID
        if len(expr.args) != len(fn.params):
            self.diagnostics.error(
                "arg-count",
                f"too {'many' if len(expr.args) > len(fn.params) else 'few'} "
                f"arguments to kernel launch '{expr.kernel}', expected "
                f"{len(fn.params)}, have {len(expr.args)}",
                expr.span,
            )
        else:
            for i, (param, at) in enumerate(zip(fn.params, arg_types)):
                if at is not None and not ty.assignable(param.type, at):
                    self.diagnostics.error(
                        "arg-type",
                        f"no matching function for call to '{expr.kernel}': "
                        f"argument {i + 1} has type '{at}', expected "
                        f"'{param.type}'",
                        expr.args[i].span,
                    )
        return ty.VOID


#: The parse memo shares programs between threads: one analysis at a time.
_ANALYSIS_LOCK = threading.Lock()


def analyze(program: ast.Program, dialect: Dialect) -> AnalysisResult:
    """Run semantic analysis over ``program`` for the given dialect."""
    with _ANALYSIS_LOCK:
        return Analyzer(program, dialect).run()


# ---------------------------------------------------------------------------
# Static facts for the code generator and the transpiler
# ---------------------------------------------------------------------------


def expr_type(expr: ast.Expr) -> Optional[ty.Type]:
    """The type analysis left on ``expr`` (None where it reported an error).

    An expression analysis never saw has no type to read: asking for one
    raises :class:`LookupError` instead of guessing.
    """
    try:
        return expr.static_type
    except AttributeError:
        raise LookupError(
            f"{type(expr).__name__} at {expr.span} has no static type: "
            "semantic analysis never saw it"
        ) from None


def sole_inner_for(body: ast.Stmt) -> Optional[ast.For]:
    """The ``for`` loop that is ``body``, alone or as a block's only statement."""
    if isinstance(body, ast.For):
        return body
    if isinstance(body, ast.Block) and len(body.stmts) == 1 and isinstance(
        body.stmts[0], ast.For
    ):
        return body.stmts[0]
    return None


def canonical(loop: ast.For) -> Optional[Tuple]:
    """(var, start, cmp, bound, delta) of a canonical loop, or None.

    ``delta`` is ``(sign, expr)``: ``expr`` None means a unit step.
    """
    init = loop.init
    if isinstance(init, ast.VarDecl) and init.init is not None:
        var, start = init.name, init.init
    elif (
        isinstance(init, ast.ExprStmt)
        and isinstance(init.expr, ast.Assign)
        and init.expr.op == "="
        and isinstance(init.expr.target, ast.Ident)
    ):
        var, start = init.expr.target.name, init.expr.value
    else:
        return None
    cond = loop.cond
    if not (
        isinstance(cond, ast.Binary)
        and cond.op in ("<", "<=", ">", ">=")
        and isinstance(cond.left, ast.Ident)
        and cond.left.name == var
    ):
        return None
    step = loop.step
    delta = None
    if isinstance(step, (ast.Postfix, ast.Unary)) and step.op in ("++", "--"):
        if isinstance(step.operand, ast.Ident) and step.operand.name == var:
            delta = (1 if step.op == "++" else -1, None)
    elif isinstance(step, ast.Assign) and isinstance(step.target, ast.Ident) and (
        step.target.name == var
    ):
        if step.op == "+=":
            delta = (1, step.value)
        elif step.op == "-=":
            delta = (-1, step.value)
        elif step.op == "=" and isinstance(step.value, ast.Binary) and (
            step.value.op in ("+", "-")
            and isinstance(step.value.left, ast.Ident)
            and step.value.left.name == var
        ):
            delta = (1 if step.value.op == "+" else -1, step.value.right)
    if delta is None:
        return None
    return (var, start, cond.op, cond.right, delta)
