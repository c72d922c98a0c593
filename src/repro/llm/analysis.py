"""Static analyses used by the rule-based transpiler.

Small, purpose-built passes over the mini-language AST:

* :func:`collect_identifiers` — free identifiers of an expression/statement;
* :func:`pointer_access_kinds` — read/write classification of every pointer
  dereferenced inside a statement (drives OpenMP ``map`` kind inference and
  the CUDA ``cudaMemcpy`` direction choices);
* :func:`substitute` — capture-naive identifier substitution (adequate
  because generated kernels use fresh parameter names).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.minilang import ast


def collect_identifiers(node) -> Set[str]:
    """All identifier names appearing in an expression or statement tree."""
    names: Set[str] = set()
    for expr in ast.walk_exprs(node):
        if isinstance(expr, ast.Ident):
            names.add(expr.name)
        elif isinstance(expr, ast.Call):
            names.add(expr.callee)
        elif isinstance(expr, ast.Launch):
            names.add(expr.kernel)
    if isinstance(node, ast.Stmt):
        for stmt in ast.walk_stmts(node):
            if isinstance(stmt, ast.Pragma):
                for mc in stmt.pragma.maps:
                    names.add(mc.name)
                if stmt.pragma.reduction:
                    names.update(stmt.pragma.reduction.names)
    return names


@dataclass
class AccessInfo:
    read: bool = False
    written: bool = False

    @property
    def map_kind(self) -> str:
        if self.read and self.written:
            return "tofrom"
        if self.written:
            return "from"
        return "to"


def pointer_access_kinds(node: ast.Stmt) -> Dict[str, AccessInfo]:
    """Classify each subscripted base identifier as read and/or written."""
    info: Dict[str, AccessInfo] = {}

    def touch(name: str) -> AccessInfo:
        return info.setdefault(name, AccessInfo())

    def base_name(expr: ast.Expr) -> Optional[str]:
        if isinstance(expr, ast.Ident):
            return expr.name
        if isinstance(expr, ast.Index):
            return base_name(expr.base)
        if isinstance(expr, ast.Unary) and expr.op in ("*", "&"):
            return base_name(expr.operand)
        return None

    def visit_expr(expr: Optional[ast.Expr], as_write: bool = False) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Index):
            name = base_name(expr.base)
            if name is not None:
                acc = touch(name)
                if as_write:
                    acc.written = True
                else:
                    acc.read = True
            visit_expr(expr.index)
            # nested bases (a[b[i]]) read the inner array
            if isinstance(expr.base, ast.Index):
                visit_expr(expr.base)
            return
        if isinstance(expr, ast.Assign):
            visit_expr(expr.target, as_write=True)
            if expr.op != "=":
                visit_expr(expr.target, as_write=False)
            visit_expr(expr.value)
            return
        if isinstance(expr, (ast.Unary, ast.Postfix)):
            if isinstance(expr, ast.Unary) and expr.op == "&":
                # &a[i] passed to an atomic: treat as read+write
                name = base_name(expr.operand)
                if name is not None:
                    acc = touch(name)
                    acc.read = True
                    acc.written = True
                visit_expr(
                    expr.operand.index if isinstance(expr.operand, ast.Index) else None
                )
                return
            if expr.op in ("++", "--"):
                visit_expr(expr.operand, as_write=True)
                visit_expr(expr.operand, as_write=False)
                return
            visit_expr(expr.operand)
            return
        if isinstance(expr, ast.Binary):
            visit_expr(expr.left)
            visit_expr(expr.right)
            return
        if isinstance(expr, ast.Ternary):
            visit_expr(expr.cond)
            visit_expr(expr.then)
            visit_expr(expr.other)
            return
        if isinstance(expr, ast.Call):
            for a in expr.args:
                visit_expr(a)
            return
        if isinstance(expr, ast.Launch):
            visit_expr(expr.grid)
            visit_expr(expr.block)
            for a in expr.args:
                visit_expr(a)
            return
        if isinstance(expr, ast.Cast):
            visit_expr(expr.operand)
            return
        if isinstance(expr, ast.Member):
            visit_expr(expr.obj)
            return

    for stmt in ast.walk_stmts(node):
        if isinstance(stmt, ast.ExprStmt):
            visit_expr(stmt.expr)
        elif isinstance(stmt, ast.VarDecl):
            visit_expr(stmt.init)
        elif isinstance(stmt, ast.If):
            visit_expr(stmt.cond)
        elif isinstance(stmt, ast.For):
            visit_expr(stmt.cond)
            visit_expr(stmt.step)
        elif isinstance(stmt, (ast.While, ast.DoWhile)):
            visit_expr(stmt.cond)
        elif isinstance(stmt, ast.Return):
            visit_expr(stmt.value)
    return info


def substitute(node, mapping: Dict[str, str]):
    """Rename identifiers throughout a statement/expression tree, in place.

    Capture-naive: callers are responsible for choosing fresh names.
    Returns ``node`` for chaining.
    """
    if not mapping:
        return node
    for expr in ast.walk_exprs(node):
        if isinstance(expr, ast.Ident) and expr.name in mapping:
            expr.name = mapping[expr.name]
        elif isinstance(expr, ast.Call) and expr.callee in mapping:
            expr.callee = mapping[expr.callee]
        elif isinstance(expr, ast.Launch) and expr.kernel in mapping:
            expr.kernel = mapping[expr.kernel]
    if isinstance(node, ast.Stmt):
        # Clause expressions and ``for`` initialisers were renamed above:
        # ``walk_exprs`` and ``walk_stmts`` visit them.
        for stmt in ast.walk_stmts(node):
            if isinstance(stmt, ast.VarDecl) and stmt.name in mapping:
                stmt.name = mapping[stmt.name]
            elif isinstance(stmt, ast.Pragma):
                for mc in stmt.pragma.maps:
                    if mc.name in mapping:
                        mc.name = mapping[mc.name]
                red = stmt.pragma.reduction
                if red is not None:
                    red.names = [mapping.get(n, n) for n in red.names]
    return node


def declared_names(node: ast.Stmt) -> Set[str]:
    """Names declared (VarDecl / for-init) within the statement tree."""
    out: Set[str] = set()
    for stmt in ast.walk_stmts(node):
        if isinstance(stmt, ast.VarDecl):
            out.add(stmt.name)
    return out
