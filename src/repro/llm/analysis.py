"""Static analyses used by the rule-based transpiler.

Small, purpose-built passes over the mini-language AST; each iterates
:func:`repro.minilang.ast.walk_exprs` or ``walk_stmts`` rather than
recursing on its own:

* :func:`collect_identifiers` — free identifiers of an expression/statement;
* :func:`pointer_access_kinds` — read/write classification of every pointer
  subscripted inside a statement (drives OpenMP ``map`` kind inference and
  the CUDA ``cudaMemcpy`` direction choices);
* :func:`substitute` — capture-naive identifier substitution (adequate
  because generated kernels use fresh parameter names);
* :func:`declared_names` — names declared within a statement;
* :func:`collect_local_types` — a function's variable types by name, scopes flattened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from repro.minilang import ast
from repro.minilang import types as ty


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
    """Classify each subscripted base identifier as read and/or written.

    ``&a[i]`` (an atomic's target), a compound assignment to ``a[i]`` and
    ``++``/``--`` on it mark ``a`` read and written; the target of ``=`` is
    written; every other subscript is a read, the inner one of ``a[i][j]``
    included.  ``*p`` is not classified, nor are pragma clauses.
    """
    info: Dict[str, AccessInfo] = {}
    #: id of each written subscript -> whether it is read as well
    written: Dict[int, bool] = {}
    for expr in ast.walk_exprs(node, clauses=False):
        if isinstance(expr, ast.Assign):
            written[id(expr.target)] = expr.op != "="
        elif isinstance(expr, (ast.Unary, ast.Postfix)) and expr.op in ("&", "++", "--"):
            written[id(expr.operand)] = True
        elif isinstance(expr, ast.Index):
            base = expr.base
            while isinstance(base, ast.Index) or (
                isinstance(base, ast.Unary) and base.op in ("*", "&")
            ):
                base = base.base if isinstance(base, ast.Index) else base.operand
            if not isinstance(base, ast.Ident):
                continue
            acc = info.setdefault(base.name, AccessInfo())
            also_read = written.get(id(expr))
            if also_read is None:
                acc.read = True
            else:
                acc.written = True
                acc.read = acc.read or also_read
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


def collect_local_types(fn: ast.FuncDef) -> Dict[str, ty.Type]:
    """Static name -> type map for a function (params + all declarations).

    Scopes are flattened: a name declared again in an inner or sibling
    block keeps its last declaration's type.
    """
    out: Dict[str, ty.Type] = {}
    for p in fn.params:
        if p.name:
            out[p.name] = p.type
    for s in ast.walk_stmts(fn.body):
        if isinstance(s, ast.VarDecl):
            out[s.name] = s.type.pointer_to() if s.array_size is not None else s.type
    return out
