"""Static facts about a guest program, for the code generator.

Expression types and variables come from semantic analysis (:func:`expr_type`
reads a node's type, ``Ident.symbol`` the declaration a name is bound to).
On top of them :class:`ProgramFacts` decides whether a pointer could reach
an arithmetic slot (the guard on typed code) and finds the variables that
always hold a Python ``int`` or ``float``, and :class:`BodyFacts` says, for
each function, each loop of a generated function and each ``target`` loop
nest, which variables it writes or dereferences and whether it can free or
remap a buffer (the gate on hoisting pointer resolution out of a launch or
a loop), and which it holds in a one-cell buffer
(``addressed``: those whose address it takes, and its ``__shared__``
scalars).  These sets hold symbols, not names.
The loop-nest helpers read OpenMP loop nests the way the ``target`` loop
schedule executes them.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.minilang import ast
from repro.minilang import types as ty
from repro.minilang.builtins import BUILTINS, CONSTANTS, GEOMETRY_BUILTINS
from repro.minilang.semantics import canonical, expr_type, sole_inner_for
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

#: Loop statements.
LOOPS = (ast.For, ast.While, ast.DoWhile)


class BodyFacts(NamedTuple):
    """What one function, loop or ``target`` loop nest does to variables
    and buffers."""

    #: variables held in a one-cell buffer: those it takes the address of
    #: (``&name``) and the ``__shared__`` scalars it declares
    addressed: FrozenSet[ast.Symbol]
    #: variables it assigns, steps or declares, and the addressed ones
    written: FrozenSet[ast.Symbol]
    #: variables it indexes or dereferences
    accessed: FrozenSet[ast.Symbol]
    #: nothing in it (a call of ``free``, ``cudaFree`` or a user function,
    #: a launch, a map clause) can free or remap a buffer
    stable: bool


def body_facts(stmts: List[ast.Stmt], exprs: List[ast.Expr], functions) -> BodyFacts:
    decls = [s for s in stmts if type(s) is ast.VarDecl]
    addressed = {s.symbol for s in decls if s.shared and s.array_size is None}
    written = {s.symbol for s in decls}
    accessed: Set[ast.Symbol] = set()
    stable = not any(type(s) is ast.Pragma and s.pragma.maps for s in stmts)
    for e in exprs:
        t = type(e)
        if t is ast.Assign:
            if type(e.target) is ast.Ident:
                written.add(e.target.symbol)
        elif (t is ast.Unary or t is ast.Postfix) and type(e.operand) is ast.Ident:
            if e.op == "&":
                addressed.add(e.operand.symbol)
            elif e.op == "*":
                accessed.add(e.operand.symbol)
            elif e.op in ("++", "--"):
                written.add(e.operand.symbol)
        elif t is ast.Index:
            if type(e.base) is ast.Ident:
                accessed.add(e.base.symbol)
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
        self.global_decls: List[ast.VarDecl] = [gv.decl for gv in program.globals]
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
        #: the facts of each loop, by ``id`` of the loop: for a loop of a
        #: function that is not a kernel, what runs on every iteration (its
        #: body, condition and step), except that it dereferences only what
        #: it does outside the regions in it (:func:`opens_region`), which
        #: resolve their own pointers; for the ``for`` of a ``target`` loop,
        #: the whole nest, whose pointers are resolved before its
        #: initialiser runs.  The inner levels a ``target`` loop collapses
        #: run in its nest and have none.
        self.loop_bodies: Dict[int, BodyFacts] = {}
        omp = dialect is not Dialect.CUDA
        levels: Set[int] = set()
        for name, fn in self.functions.items():
            for s in self.stmts[name]:
                if omp and is_target_loop(s):
                    levels.add(id(s.body))
                    levels.update(id(lv) for lv, _ in nest_levels(s.body, s.pragma.collapse))
                    self.loop_bodies[id(s.body)] = body_facts(
                        list(ast.walk_stmts(s.body)), ast.walk_exprs(s.body), self.functions
                    )
                elif type(s) in LOOPS and not fn.is_kernel and id(s) not in levels:
                    stmts = list(ast.walk_stmts(s.body))
                    exprs = ast.walk_exprs(s.body, clauses=omp)
                    for e in (s.cond, s.step) if type(s) is ast.For else (s.cond,):
                        if e is not None:
                            exprs += ast.walk_exprs(e)
                    facts = body_facts(stmts, exprs, self.functions)
                    regions = [r.body for r in stmts if opens_region(r)] if omp else []
                    if regions:
                        inner = {id(e) for body in regions for e in ast.walk_exprs(body)}
                        own = [e for e in exprs if id(e) not in inner]
                        facts = facts._replace(
                            accessed=body_facts([], own, self.functions).accessed
                        )
                    self.loop_bodies[id(s)] = facts
        #: the variables held in a one-cell buffer (``BodyFacts.addressed``
        #: of every function, and globals whose address an initialiser takes)
        inits = body_facts([], ast.walk_exprs(ast.Block(self.global_decls)), self.functions)
        self.addressed = inits.addressed.union(*(f.addressed for f in self.bodies.values()))
        self.typed = self._typed()
        #: variables that always hold a Python ``int`` / ``float``
        self.int_clean: Set[ast.Symbol] = set()
        self.float_clean: Set[ast.Symbol] = set()
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
        """Integer variables that always hold a Python int, real locals that
        always hold a Python float (optimistic fixpoint)."""
        ints, reals = self.int_clean, self.float_clean
        stmts = list(chain.from_iterable(self.stmts.values()))
        # A real parameter may be passed an int; a kernel's integer
        # parameter is clean when every launch passes an int (below).
        local = [s.symbol for s in stmts if type(s) is ast.VarDecl] + [
            p.symbol for fn in self.functions.values() if not fn.is_kernel
            for p in fn.params if p.name and p.type.is_integer
        ]
        excluded = self.addressed.union(*(
            s.pragma.reduction.symbols for s in stmts
            if type(s) is ast.Pragma and s.pragma.reduction is not None
        ))
        ints.update(v for v in local if v.type.is_integer and v not in excluded)
        reals.update(v for v in local if v.type.is_real and v not in excluded)
        # Globals: only writes through '&' escape the truncating stores.
        ints.update(d.symbol for d in self.global_decls
                    if d.symbol.type.is_integer and d.symbol not in self.addressed)
        while self._refine(stmts):
            pass
        for name, fn in self.functions.items():
            if fn.is_kernel:
                ints.update(p.symbol for i, p in enumerate(fn.params) if p.name
                            and p.type.is_integer and self._launch_args_int(name, i))

    def _refine(self, stmts: List[ast.Stmt]) -> bool:
        ints, reals = self.int_clean, self.float_clean
        before = (len(ints), len(reals))
        for s in stmts:
            if self.dialect is not Dialect.CUDA and is_target_loop(s):
                for var, start in nest_starts(s.body, s.pragma.collapse):
                    if not self.is_int(start):
                        ints.discard(var)
                    reals.discard(var)
            # (a real local is a scalar: arrays have pointer type)
            if isinstance(s, ast.VarDecl) and s.symbol in reals and s.init is not None and (
                not self.is_float(s.init)
            ):
                reals.discard(s.symbol)
        for e in chain.from_iterable(self.exprs.values()):
            if isinstance(e, ast.Assign) and isinstance(e.target, ast.Ident) and (
                e.target.symbol in reals
            ):
                if e.op == "=":
                    ok = self.is_float(e.value)
                elif e.op in ("+=", "-=", "*=", "/="):
                    t = expr_type(e.value)
                    ok = t is not None and t.is_numeric
                else:
                    ok = False
                if not ok:
                    reals.discard(e.target.symbol)
        return before != (len(ints), len(reals))

    def _launch_args_int(self, kernel: str, index: int) -> bool:
        found = False
        for e in chain.from_iterable(self.exprs.values()):
            if isinstance(e, ast.Launch) and e.kernel == kernel:
                found = True
                if index >= len(e.args) or not self.is_int(e.args[index]):
                    return False
        return found

    def barrier_path(self, kernel: str) -> bool:
        """Its threads meet at ``__syncthreads()`` or share ``__shared__`` storage."""
        return any(type(s) is ast.SyncThreads or type(s) is ast.VarDecl and s.shared
                   for s in self.stmts[kernel])

    def is_int(self, e: ast.Expr) -> bool:
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
            if e.symbol is not None:
                return e.symbol in self.int_clean
            if e.name in CONSTANTS:
                return isinstance(CONSTANTS[e.name][0], int)
            return e.name in GEOMETRY_BUILTINS
        if isinstance(e, ast.Unary):
            if e.op in ("-", "~"):
                return self.is_int(e.operand)
            if e.op in ("++", "--"):
                return self.is_int(e.operand)
            if e.op == "*":
                t = expr_type(e)
                return t is not None and t.is_integer
            return False
        if isinstance(e, ast.Postfix):
            return self.is_int(e.operand)
        if isinstance(e, ast.Binary):
            if e.op in ("+", "-", "*", "/", "%"):
                return self.is_int(e.left) and self.is_int(e.right)
            return False
        if isinstance(e, ast.Assign):
            t = expr_type(e.target)
            if isinstance(e.target, ast.Ident):
                return t is not None and t.is_integer
            return e.op == "=" and self.is_int(e.value)
        if isinstance(e, ast.Ternary):
            return self.is_int(e.then) and self.is_int(e.other)
        if isinstance(e, ast.Call):
            fn = self.functions.get(e.callee)
            if fn is not None:
                return fn.return_type.is_integer
            if e.callee in ("abs", "min", "max"):
                return all(self.is_int(a) for a in e.args)
            return e.callee in ("rand", "atoi", "printf", "fprintf") or (
                e.callee in OMP_CONSTANT and e.callee != "omp_set_num_threads"
            )
        if isinstance(e, ast.Index):
            t = expr_type(e)
            return t is not None and t.is_integer
        if isinstance(e, ast.Cast):
            return e.type.is_integer
        return False

    def is_float(self, e: ast.Expr) -> bool:
        """Is ``e``'s run-time value always a Python ``float``?"""
        if not self.typed:
            return False
        if isinstance(e, ast.FloatLit):
            return True
        if isinstance(e, ast.Ident):
            if e.symbol is not None:
                return e.symbol in self.float_clean
            return e.name in CONSTANTS and isinstance(CONSTANTS[e.name][0], float)
        if isinstance(e, ast.Cast):
            return e.type.is_real
        if isinstance(e, ast.Index) or (isinstance(e, ast.Unary) and e.op == "*"):
            t = expr_type(e)
            return t is not None and t.is_real
        if isinstance(e, ast.Unary) and e.op == "-":
            return self.is_float(e.operand)
        if isinstance(e, ast.Binary) and e.op in ("+", "-", "*", "/"):
            a, b = expr_type(e.left), expr_type(e.right)
            if a is None or b is None or not (a.is_numeric and b.is_numeric):
                return False
            return self.is_float(e.left) or self.is_float(e.right)
        if isinstance(e, ast.Call):
            b = BUILTINS.get(e.callee)
            return (
                e.callee not in self.functions and b is not None and b.py is not None
                and e.callee not in NON_FLOAT_MATH and len(e.args) in (1, 2)
            )
        if isinstance(e, ast.Ternary):
            return self.is_float(e.then) and self.is_float(e.other)
        return False


def is_target_loop(s: ast.Stmt) -> bool:
    """An OpenMP ``target`` loop construct over a ``for`` loop."""
    return isinstance(s, ast.Pragma) and s.pragma.is_target and s.pragma.is_loop and (
        isinstance(s.body, ast.For)
    )


def opens_region(s: ast.Stmt) -> bool:
    """An OpenMP construct whose body runs as a region with its own
    counters, resolving its own pointers: a ``target`` loop, a ``target``
    region or a host ``parallel`` region (the three that
    ``RegionEmitter.pragma`` emits through ``region()``)."""
    return isinstance(s, ast.Pragma) and (
        is_target_loop(s) or s.pragma.directive in ("target", "parallel for", "parallel")
    )


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


def loop_symbol(loop: ast.For) -> Optional[ast.Symbol]:
    """The variable a canonical loop's initialiser sets."""
    init = loop.init
    return init.symbol if isinstance(init, ast.VarDecl) else init.expr.target.symbol


def nest_starts(loop: ast.For, collapse: int):
    """(variable, start) of each canonical level of a nest."""
    return [(loop_symbol(level), parts[1]) for level, parts in nest_levels(loop, collapse)]
