"""Static facts about a guest program, for the code generator.

The generator specialises what it can prove: :func:`collect_local_types`
gives each function's flattened name -> type map, :class:`ProgramFacts`
types expressions, decides whether a pointer could reach an arithmetic
slot (the guard on typed code), and finds the locals that always hold a
Python ``int`` or ``float``.  The canonical-loop helpers read OpenMP loop
nests the way the ``target`` loop schedule executes them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.minilang import ast
from repro.minilang import types as ty
from repro.minilang.builtins import BUILTINS, CONSTANTS, GEOMETRY_BUILTINS, return_type
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


def collect_local_types(fn: ast.FuncDef) -> Dict[str, ty.Type]:
    """Static name -> type map for a function (params + all declarations).

    Scopes are flattened; the semantic analyzer has already validated scoping,
    and redeclaration with a *different* type across sibling scopes is outside
    the supported subset.
    """
    out: Dict[str, ty.Type] = {}
    for p in fn.params:
        if p.name:
            out[p.name] = p.type
    for s in ast.walk_stmts(fn.body):
        if isinstance(s, ast.VarDecl):
            t = s.type.pointer_to() if s.array_size is not None else s.type
            out[s.name] = t
        elif isinstance(s, ast.For) and isinstance(s.init, ast.VarDecl):
            d = s.init
            out[d.name] = d.type.pointer_to() if d.array_size is not None else d.type
    return out


def strip_cast(e: ast.Expr) -> ast.Expr:
    return e.operand if isinstance(e, ast.Cast) else e


def is_alloc_call(e: ast.Expr) -> bool:
    e = strip_cast(e)
    return isinstance(e, ast.Call) and e.callee in ("malloc", "calloc")


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
            name: ast.walk_exprs(fn.body) for name, fn in self.functions.items()
        }
        self.typed = self._typed()
        self.int_clean: Dict[str, Set[str]] = {}
        self.float_clean: Dict[str, Set[str]] = {}
        if self.typed:
            self._clean_sets()

    # -- static typing ----------------------------------------------------
    def etype(self, e: ast.Expr, types: Dict[str, ty.Type]) -> Optional[ty.Type]:
        """Best-effort static type of ``e`` (None when unknown)."""
        if isinstance(e, ast.IntLit):
            return ty.INT
        if isinstance(e, ast.FloatLit):
            return ty.DOUBLE
        if isinstance(e, ast.CharLit):
            return ty.CHAR
        if isinstance(e, ast.BoolLit):
            return ty.BOOL
        if isinstance(e, ast.StrLit):
            return ty.Type(ty.Kind.CHAR, 1)
        if isinstance(e, ast.NullLit):
            return ty.Type(ty.Kind.VOID, 1)
        if isinstance(e, ast.Ident):
            t = types.get(e.name)
            if t is None:
                t = self.global_types.get(e.name)
            if t is None and e.name in CONSTANTS:
                t = ty.DOUBLE if isinstance(CONSTANTS[e.name][0], float) else ty.INT
            if t is None and e.name in GEOMETRY_BUILTINS:
                t = ty.INT
            return t
        if isinstance(e, ast.Member):
            return ty.INT
        if isinstance(e, (ast.Unary, ast.Postfix)):
            t = self.etype(e.operand, types)
            if e.op == "!":
                return ty.INT
            if e.op == "*":
                return t.pointee() if t is not None and t.is_pointer else None
            if e.op == "&":
                return t.pointer_to() if t is not None else None
            return t
        if isinstance(e, ast.Binary):
            if e.op in ("&&", "||", "==", "!=", "<", ">", "<=", ">="):
                return ty.INT
            a, b = self.etype(e.left, types), self.etype(e.right, types)
            if a is None or b is None:
                return None
            if e.op in ("+", "-") and (a.is_pointer or b.is_pointer):
                if a.is_pointer and b.is_pointer:
                    return ty.LONG if e.op == "-" else None
                return a if a.is_pointer else b
            if a.is_numeric and b.is_numeric:
                return ty.unify_arith(a, b)
            return None
        if isinstance(e, ast.Assign):
            return self.etype(e.target, types)
        if isinstance(e, ast.Ternary):
            a, b = self.etype(e.then, types), self.etype(e.other, types)
            if a is None or b is None:
                return None
            if a == b:
                return a
            if a.is_numeric and b.is_numeric:
                return ty.unify_arith(a, b)
            return None
        if isinstance(e, ast.Call):
            fn = self.functions.get(e.callee)
            if fn is not None:
                return fn.return_type
            b = BUILTINS.get(e.callee)
            if b is None:
                return None
            arg_types = [self.etype(a, types) for a in e.args]
            if b.return_rule in ("arg0", "real-arg") and (
                not arg_types or arg_types[0] is None
            ):
                return None
            return return_type(b, arg_types)
        if isinstance(e, ast.Index):
            t = self.etype(e.base, types)
            return t.pointee() if t is not None and t.is_pointer else None
        if isinstance(e, ast.Cast):
            return e.type
        if isinstance(e, ast.SizeOf):
            return ty.SIZE_T
        return None

    # -- the typed-specialisation guard -------------------------------------
    def _typed(self) -> bool:
        """False when a pointer could reach an arithmetic slot, or a typed
        pointer a buffer of another element kind."""
        for name, fn in self.functions.items():
            types = self.local_types[name]
            for e in self.exprs[name]:
                if not self._expr_is_typed(e, types):
                    return False
            for s in self.stmts[name]:
                if isinstance(s, ast.VarDecl) and s.init is not None and (
                    s.array_size is None
                ) and self._void_flow(s.type, s.init, types, idiom=True):
                    return False
                if isinstance(s, ast.Return) and s.value is not None and (
                    self._void_flow(fn.return_type, s.value, types)
                ):
                    return False
        for decl in self.global_decls:
            if decl.init is not None and self._void_flow(decl.type, decl.init, {}):
                return False
        return True

    def _void_flow(self, target: Optional[ty.Type], value: ast.Expr, types,
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
        t = self.etype(value, types)
        return t is None or (t.is_pointer and t.kind is ty.Kind.VOID)

    def _expr_is_typed(self, e: ast.Expr, types) -> bool:
        if isinstance(e, ast.Cast):
            src = self.etype(e.operand, types)
            if e.type.is_pointer:
                if is_alloc_call(e.operand) or e.type.kind is ty.Kind.VOID:
                    return True
                return src is not None and src == e.type
            return src is not None and src.is_numeric
        if isinstance(e, ast.Assign):
            return not self._void_flow(self.etype(e.target, types), e.value, types,
                                       idiom=True)
        if isinstance(e, (ast.Call, ast.Launch)):
            name = e.callee if isinstance(e, ast.Call) else e.kernel
            fn = self.functions.get(name)
            if fn is not None:
                return not any(
                    self._void_flow(p.type, a, types) for p, a in zip(fn.params, e.args)
                )
            if name in ("memcpy", "cudaMemcpy") and len(e.args) >= 2:
                a, b = (self.etype(x, types) for x in e.args[:2])
                return (
                    a is not None and b is not None and a.pointers == b.pointers == 1
                    and a.kind is not ty.Kind.VOID and b.kind is not ty.Kind.VOID
                    and a.pointee().is_real == b.pointee().is_real
                )
            if name == "cudaMalloc" and e.args:
                ref = strip_cast(e.args[0])
                if not (isinstance(ref, ast.Unary) and ref.op == "&"):
                    return False
                t = self.etype(ref.operand, types)
                return t is not None and t.is_pointer
        return True

    # -- provably-int / provably-float variables ----------------------------
    def _clean_sets(self) -> None:
        """Integer locals that always hold a Python int, real locals that
        always hold a Python float (optimistic fixpoint per function)."""
        for name, fn in self.functions.items():
            types = self.local_types[name]
            excluded = self.address_taken(name) | reduction_names(self.stmts[name])
            ints = {n for n, t in types.items() if t.is_integer} - excluded
            reals = {n for n, t in types.items() if t.is_real} - excluded
            reals -= {p.name for p in fn.params}
            if fn.is_kernel:
                ints -= {p.name for p in fn.params if p.type.is_integer}
            self.int_clean[name] = ints
            self.float_clean[name] = reals
        # Globals: only writes through '&' escape the truncating stores.
        taken: Set[str] = set()
        for name in self.functions:
            taken |= self.address_taken(name)
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
            if isinstance(s, ast.Pragma) and s.body is not None and (
                self.dialect is not Dialect.CUDA
                and s.pragma.is_target and s.pragma.is_loop
                and isinstance(s.body, ast.For)
            ):
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
                        ok = self.etype(e.value, types) is not None and (
                            self.etype(e.value, types).is_numeric
                        )
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

    def address_taken(self, fname: str) -> Set[str]:
        """Names the function takes the address of (``&name``)."""
        return {
            e.operand.name for e in self.exprs[fname]
            if isinstance(e, ast.Unary) and e.op == "&" and isinstance(e.operand, ast.Ident)
        }

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
                t = self.etype(e, types)
                return t is not None and t.is_integer
            return False
        if isinstance(e, ast.Postfix):
            return self.is_int(e.operand, fname, types)
        if isinstance(e, ast.Binary):
            if e.op in ("+", "-", "*", "/", "%"):
                return self.is_int(e.left, fname, types) and self.is_int(e.right, fname, types)
            return False
        if isinstance(e, ast.Assign):
            t = self.etype(e.target, types)
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
            t = self.etype(e, types)
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
            t = self.etype(e, types)
            return t is not None and t.is_real
        if isinstance(e, ast.Unary) and e.op == "-":
            return self.is_float(e.operand, fname, types)
        if isinstance(e, ast.Binary) and e.op in ("+", "-", "*", "/"):
            a, b = self.etype(e.left, types), self.etype(e.right, types)
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


def reduction_names(stmts: List[ast.Stmt]) -> Set[str]:
    out: Set[str] = set()
    for s in stmts:
        if isinstance(s, ast.Pragma) and s.pragma.reduction is not None:
            out.update(s.pragma.reduction.names)
    return out


def sole_inner_for(body: ast.Stmt) -> Optional[ast.For]:
    if isinstance(body, ast.For):
        return body
    if isinstance(body, ast.Block) and len(body.stmts) == 1 and isinstance(
        body.stmts[0], ast.For
    ):
        return body.stmts[0]
    return None


def canonical(loop: ast.For):
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
