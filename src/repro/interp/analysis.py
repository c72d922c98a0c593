"""Static facts about a guest program, for the code generator.

Expression types come from semantic analysis (:func:`expr_type` reads what
:mod:`repro.minilang.semantics` left on each node).  On top of them
:class:`ProgramFacts` decides whether a pointer could reach an arithmetic
slot (the guard on typed code) and finds the locals that always hold a
Python ``int`` or ``float``, and :class:`BodyFacts` says, for each function
and each ``target`` loop body, which names it writes or dereferences and
whether it can free or remap a buffer (the gate on hoisting pointer
resolution out of a launch).  The loop-nest helpers read OpenMP loop nests
the way the ``target`` loop schedule executes them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.minilang import ast
from repro.minilang import types as ty
from repro.minilang.builtins import BUILTINS, CONSTANTS, GEOMETRY_BUILTINS
from repro.minilang.semantics import (
    canonical,
    collect_local_types,
    expr_type,
    sole_inner_for,
)
from repro.minilang.source import Dialect

#: Math builtins whose result is not always a Python float.
NON_FLOAT_MATH = {"abs", "fabs", "fabsf", "min", "max", "fmin", "fmax", "fminf",
                  "fmaxf", "floor", "floorf", "ceil", "ceilf", "round", "roundf"}

#: OpenMP runtime calls with a fixed result (the value's Python spelling).
OMP_CONSTANT = {
    "omp_get_num_threads": "1",
    "omp_get_max_threads": "64",
    "omp_get_thread_num": "0",
    "omp_set_num_threads": "None",
    "omp_get_num_devices": "1",
}


def strip_cast(e: ast.Expr) -> ast.Expr:
    return e.operand if isinstance(e, ast.Cast) else e


def is_alloc_call(e: ast.Expr) -> bool:
    e = strip_cast(e)
    return isinstance(e, ast.Call) and e.callee in ("malloc", "calloc")


#: Builtins that free a buffer.
_FREES = ("free", "cudaFree")


class BodyFacts(NamedTuple):
    """What one function or ``target`` loop body does to names and buffers."""

    #: names it takes the address of (``&name``)
    addressed: FrozenSet[str]
    #: names it assigns, steps or declares, and the addressed ones
    written: FrozenSet[str]
    #: names it indexes or dereferences
    accessed: FrozenSet[str]
    #: nothing in it (a call of ``free``, ``cudaFree`` or a user function,
    #: a launch, a map clause) can free or remap a buffer
    stable: bool


def body_facts(stmts: List[ast.Stmt], exprs: List[ast.Expr], functions) -> BodyFacts:
    addressed: Set[str] = set()
    written = {s.name for s in stmts if type(s) is ast.VarDecl}
    accessed: Set[str] = set()
    stable = not any(type(s) is ast.Pragma and s.pragma.maps for s in stmts)
    for e in exprs:
        t = type(e)
        if t is ast.Assign:
            if type(e.target) is ast.Ident:
                written.add(e.target.name)
        elif (t is ast.Unary or t is ast.Postfix) and type(e.operand) is ast.Ident:
            if e.op == "&":
                addressed.add(e.operand.name)
            elif e.op == "*":
                accessed.add(e.operand.name)
            elif e.op in ("++", "--"):
                written.add(e.operand.name)
        elif t is ast.Index:
            if type(e.base) is ast.Ident:
                accessed.add(e.base.name)
        elif t is ast.Launch or t is ast.Call and (
            e.callee in _FREES or e.callee in functions
        ):
            stable = False
    return BodyFacts(frozenset(addressed), frozenset(written | addressed),
                     frozenset(accessed), stable)


class ProgramFacts:
    """Whole-program facts the emitter needs (types, kernels, guards)."""

    def __init__(self, program: ast.Program, dialect: Dialect) -> None:
        self.dialect = dialect
        self.functions: Dict[str, ast.FuncDef] = {}
        for fn in program.functions:
            prev = self.functions.get(fn.name)
            if prev is None or fn.body.stmts:
                self.functions[fn.name] = fn
        self.global_types: Dict[str, ty.Type] = {}
        self.global_decls: List[ast.VarDecl] = []
        for gv in program.globals:
            decl = gv.decl
            t = decl.type.pointer_to() if decl.array_size is not None else decl.type
            self.global_types[decl.name] = t
            self.global_decls.append(decl)
        self.local_types = {
            name: collect_local_types(fn) for name, fn in self.functions.items()
        }
        #: every statement / expression of each function, walked once
        self.stmts = {
            name: list(ast.walk_stmts(fn.body)) for name, fn in self.functions.items()
        }
        self.exprs = {
            name: ast.walk_exprs(fn.body, clauses=dialect is not Dialect.CUDA)
            for name, fn in self.functions.items()
        }
        self.bodies = {
            name: body_facts(self.stmts[name], self.exprs[name], self.functions)
            for name in self.functions
        }
        #: the facts of each ``target`` loop's body, by ``id`` of its pragma
        self.target_bodies: Dict[int, BodyFacts] = {}
        if dialect is not Dialect.CUDA:
            for stmts in self.stmts.values():
                for s in stmts:
                    if is_target_loop(s):
                        self.target_bodies[id(s)] = body_facts(
                            list(ast.walk_stmts(s.body)), ast.walk_exprs(s.body),
                            self.functions,
                        )
        self.typed = self._typed()
        self.int_clean: Dict[str, Set[str]] = {}
        self.float_clean: Dict[str, Set[str]] = {}
        if self.typed:
            self._clean_sets()

    # -- the typed-specialisation guard -------------------------------------
    def _typed(self) -> bool:
        """False when a pointer could reach an arithmetic slot, or a typed
        pointer a buffer of another element kind."""
        for name, fn in self.functions.items():
            for e in self.exprs[name]:
                if not self._expr_is_typed(e):
                    return False
            for s in self.stmts[name]:
                if isinstance(s, ast.VarDecl) and s.init is not None and (
                    s.array_size is None
                ) and self._void_flow(s.type, s.init, idiom=True):
                    return False
                if isinstance(s, ast.Return) and s.value is not None and (
                    self._void_flow(fn.return_type, s.value)
                ):
                    return False
        for decl in self.global_decls:
            if decl.init is not None and self._void_flow(decl.type, decl.init):
                return False
        return True

    def _void_flow(self, target: Optional[ty.Type], value: ast.Expr,
                   idiom: bool = False) -> bool:
        """A ``void*`` value flowing into a typed pointer slot.

        An uncast ``malloc``/``calloc`` is typed by its target only where
        the allocation idiom applies (``idiom``: assignments and local
        declarations); elsewhere it is a byte buffer.
        """
        if target is None or not target.is_pointer or target.kind is ty.Kind.VOID:
            return False
        if isinstance(value, ast.NullLit) or (
            is_alloc_call(value) and (idiom or isinstance(value, ast.Cast))
        ):
            return False
        t = expr_type(value)
        return t is None or (t.is_pointer and t.kind is ty.Kind.VOID)

    def _expr_is_typed(self, e: ast.Expr) -> bool:
        if isinstance(e, ast.Cast):
            src = expr_type(e.operand)
            if e.type.is_pointer:
                if is_alloc_call(e.operand) or e.type.kind is ty.Kind.VOID:
                    return True
                return src is not None and src == e.type
            return src is not None and src.is_numeric
        if isinstance(e, ast.Assign):
            return not self._void_flow(expr_type(e.target), e.value, idiom=True)
        if isinstance(e, (ast.Call, ast.Launch)):
            name = e.callee if isinstance(e, ast.Call) else e.kernel
            fn = self.functions.get(name)
            if fn is not None:
                return not any(
                    self._void_flow(p.type, a) for p, a in zip(fn.params, e.args)
                )
            if name in ("memcpy", "cudaMemcpy") and len(e.args) >= 2:
                a, b = (expr_type(x) for x in e.args[:2])
                return (
                    a is not None and b is not None and a.pointers == b.pointers == 1
                    and a.kind is not ty.Kind.VOID and b.kind is not ty.Kind.VOID
                    and a.pointee().is_real == b.pointee().is_real
                )
            if name == "cudaMalloc" and e.args:
                ref = strip_cast(e.args[0])
                if not (isinstance(ref, ast.Unary) and ref.op == "&"):
                    return False
                t = expr_type(ref.operand)
                return t is not None and t.is_pointer
        return True

    # -- provably-int / provably-float variables ----------------------------
    def _clean_sets(self) -> None:
        """Integer locals that always hold a Python int, real locals that
        always hold a Python float (optimistic fixpoint per function)."""
        for name, fn in self.functions.items():
            types = self.local_types[name]
            excluded = self.bodies[name].addressed | reduction_names(self.stmts[name])
            ints = {n for n, t in types.items() if t.is_integer} - excluded
            reals = {n for n, t in types.items() if t.is_real} - excluded
            reals -= {p.name for p in fn.params}
            if fn.is_kernel:
                ints -= {p.name for p in fn.params if p.type.is_integer}
            self.int_clean[name] = ints
            self.float_clean[name] = reals
        # Globals: only writes through '&' escape the truncating stores.
        taken: Set[str] = set()
        for facts in self.bodies.values():
            taken |= facts.addressed
        self.int_clean[""] = {
            n for n, t in self.global_types.items() if t.is_integer
        } - taken
        self.float_clean[""] = set()
        changed = True
        while changed:
            changed = False
            for name, fn in self.functions.items():
                changed |= self._refine(name, fn)
        # Kernel integer params: clean when every launch passes an int.
        for name, fn in self.functions.items():
            if not fn.is_kernel:
                continue
            for i, p in enumerate(fn.params):
                if p.type.is_integer and p.name and self._launch_args_int(name, i):
                    self.int_clean[name].add(p.name)

    def _refine(self, name: str, fn: ast.FuncDef) -> bool:
        types = self.local_types[name]
        ints, reals = self.int_clean[name], self.float_clean[name]
        before = (len(ints), len(reals))
        for s in self.stmts[name]:
            if self.dialect is not Dialect.CUDA and is_target_loop(s):
                for var, start in nest_starts(s.body, s.pragma.collapse):
                    if not self.is_int(start, name, types):
                        ints.discard(var)
                    reals.discard(var)
            if isinstance(s, ast.VarDecl) and s.name in reals:
                if s.array_size is not None or s.init is None or not (
                    self.is_float(s.init, name, types)
                ):
                    if not (s.init is None and s.array_size is None and s.type.is_real):
                        reals.discard(s.name)
        for e in self.exprs[name]:
            if isinstance(e, ast.Assign) and isinstance(e.target, ast.Ident):
                tname = e.target.name
                if tname in reals and tname in types:
                    if e.op == "=":
                        ok = self.is_float(e.value, name, types)
                    elif e.op in ("+=", "-=", "*=", "/="):
                        t = expr_type(e.value)
                        ok = t is not None and t.is_numeric
                    else:
                        ok = False
                    if not ok:
                        reals.discard(tname)
        return before != (len(ints), len(reals))

    def _launch_args_int(self, kernel: str, index: int) -> bool:
        found = False
        for name in self.functions:
            types = self.local_types[name]
            for e in self.exprs[name]:
                if isinstance(e, ast.Launch) and e.kernel == kernel:
                    found = True
                    if index >= len(e.args) or not self.is_int(e.args[index], name, types):
                        return False
        return found

    def contains(self, fname: str, kind) -> bool:
        return any(isinstance(s, kind) for s in self.stmts[fname])

    def _var_clean(self, table, fname: str, name: str, types) -> bool:
        if name in types:
            return name in table.get(fname, ())
        return name in self.global_types and name in table.get("", ())

    def is_int(self, e: ast.Expr, fname: str, types) -> bool:
        """Is ``e``'s run-time value always a Python ``int``?"""
        if isinstance(e, ast.Binary) and e.op in (
            "&&", "||", "==", "!=", "<", ">", "<=", ">=", "&", "|", "^", "<<", ">>"
        ):
            return True
        if isinstance(e, ast.Unary) and e.op == "!":
            return True
        if not self.typed:
            return False
        if isinstance(e, (ast.IntLit, ast.CharLit, ast.BoolLit, ast.SizeOf, ast.Member)):
            return True
        if isinstance(e, ast.Ident):
            if e.name in types or e.name in self.global_types:
                return self._var_clean(self.int_clean, fname, e.name, types)
            if e.name in CONSTANTS:
                return isinstance(CONSTANTS[e.name][0], int)
            return e.name in GEOMETRY_BUILTINS
        if isinstance(e, ast.Unary):
            if e.op in ("-", "~"):
                return self.is_int(e.operand, fname, types)
            if e.op in ("++", "--"):
                return self.is_int(e.operand, fname, types)
            if e.op == "*":
                t = expr_type(e)
                return t is not None and t.is_integer
            return False
        if isinstance(e, ast.Postfix):
            return self.is_int(e.operand, fname, types)
        if isinstance(e, ast.Binary):
            if e.op in ("+", "-", "*", "/", "%"):
                return self.is_int(e.left, fname, types) and self.is_int(e.right, fname, types)
            return False
        if isinstance(e, ast.Assign):
            t = expr_type(e.target)
            if isinstance(e.target, ast.Ident):
                return t is not None and t.is_integer
            return e.op == "=" and self.is_int(e.value, fname, types)
        if isinstance(e, ast.Ternary):
            return self.is_int(e.then, fname, types) and self.is_int(e.other, fname, types)
        if isinstance(e, ast.Call):
            fn = self.functions.get(e.callee)
            if fn is not None:
                return fn.return_type.is_integer
            if e.callee in ("abs", "min", "max"):
                return all(self.is_int(a, fname, types) for a in e.args)
            return e.callee in ("rand", "atoi", "printf", "fprintf") or (
                e.callee in OMP_CONSTANT and e.callee != "omp_set_num_threads"
            )
        if isinstance(e, ast.Index):
            t = expr_type(e)
            return t is not None and t.is_integer
        if isinstance(e, ast.Cast):
            return e.type.is_integer
        return False

    def is_float(self, e: ast.Expr, fname: str, types) -> bool:
        """Is ``e``'s run-time value always a Python ``float``?"""
        if not self.typed:
            return False
        if isinstance(e, ast.FloatLit):
            return True
        if isinstance(e, ast.Ident):
            if e.name in types:
                return self._var_clean(self.float_clean, fname, e.name, types)
            return e.name in CONSTANTS and isinstance(CONSTANTS[e.name][0], float)
        if isinstance(e, ast.Cast):
            return e.type.is_real
        if isinstance(e, ast.Index) or (isinstance(e, ast.Unary) and e.op == "*"):
            t = expr_type(e)
            return t is not None and t.is_real
        if isinstance(e, ast.Unary) and e.op == "-":
            return self.is_float(e.operand, fname, types)
        if isinstance(e, ast.Binary) and e.op in ("+", "-", "*", "/"):
            a, b = expr_type(e.left), expr_type(e.right)
            if a is None or b is None or not (a.is_numeric and b.is_numeric):
                return False
            return self.is_float(e.left, fname, types) or self.is_float(e.right, fname, types)
        if isinstance(e, ast.Call):
            b = BUILTINS.get(e.callee)
            return (
                e.callee not in self.functions and b is not None and b.py is not None
                and e.callee not in NON_FLOAT_MATH and len(e.args) in (1, 2)
            )
        if isinstance(e, ast.Ternary):
            return self.is_float(e.then, fname, types) and self.is_float(e.other, fname, types)
        return False


def is_target_loop(s: ast.Stmt) -> bool:
    """An OpenMP ``target`` loop construct over a ``for`` loop."""
    return isinstance(s, ast.Pragma) and s.pragma.is_target and s.pragma.is_loop and (
        isinstance(s.body, ast.For)
    )


def reduction_names(stmts: List[ast.Stmt]) -> Set[str]:
    out: Set[str] = set()
    for s in stmts:
        if isinstance(s, ast.Pragma) and s.pragma.reduction is not None:
            out.update(s.pragma.reduction.names)
    return out


def nest_levels(loop: ast.For, collapse: int) -> List[Tuple]:
    """Up to ``collapse`` canonical levels: (loop, canonical parts)."""
    levels = []
    cur = loop
    for level in range(collapse):
        parts = canonical(cur)
        if parts is None:
            break
        levels.append((cur, parts))
        if level + 1 < collapse:
            nxt = sole_inner_for(cur.body)
            if nxt is None:
                break
            cur = nxt
    return levels


def nest_starts(loop: ast.For, collapse: int):
    return [(parts[0], parts[1]) for _, parts in nest_levels(loop, collapse)]
