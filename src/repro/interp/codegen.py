"""Guest code generation: each program becomes Python source, built once.

The emitter writes one Python function per guest function, one launcher
per kernel (its thread loop included) and inlines every OpenMP region
into the function that holds it, then builds the module with
``compile()``.  Each guest local declaration is one Python local, so
executing a statement costs the bytecodes it needs rather than one Python
call per AST node: ``v_<name>``, or ``v_<depth>_<name>`` for one that hides
a same-named local (``Symbol.depth``; no C name starts with a digit).  A
variable whose address is taken, or a ``__shared__`` scalar, is instead one
cell of guest memory (:mod:`repro.interp.memory`), allocated where it is
declared (a parameter moves into its cell at entry) and held in ``m_<key>``
(a global in ``G['<name>']``): naming it reads or writes ``.cells[0]``,
at the guest cost of a Python local, and ``&x`` is ``Pointer(<cell>, 0)``.

The generated code is a factory, ``bind(runner)``: the module is compiled
once per program and dialect (:meth:`ProgramCode.of` keeps it on the
program), and each run binds fresh functions to its own runner, so no
run's state outlives it.

Guest cost is counted exactly as the deterministic cost model defines
it.  Op, load, store and atomic counts accumulate in Python locals and
reach the ambient :class:`~repro.gpu.stats.OpCounters` when a function or
region ends.  Where a fault discards the counts (kernel launchers,
``__device__`` functions, ``target`` loop nests and host ``parallel``
regions) they are charged per block.  A block is straight-line code that
runs to its end once it starts: it ends only where control can leave it
(``break``, ``continue``, ``return``, a raise of ``_ThreadReturn``,
``_NestExit`` or ``_RegionExit``, or a statement holding one of these),
so an ``if``, loop or math builtin's ``try`` that cannot jump out lies
inside the block around it, and each of its own suites holds blocks of
its own.  A block's static counts (ops, atomics, and the loads and stores
of each launch-resolved pointer) form one vector.  A block with one entry
adds it to its accumulator; a block with more bumps a counter of its own,
and where the region settles, each counter times its vector is added.
Two blocks need no counter: the leading block of a launch's thread body
runs ``grid * block`` times (once in a barrier kernel's thread, which
settles itself, and in a device function's call), and the leading block
of a ``target`` nest's innermost body, up to its first possible exit,
runs once per iteration the nest already counts when that body cannot
``break`` or ``return``.  A loop's condition is paid on its exit path and
carried into the iteration that goes on.  Code inside a math builtin's
arguments, and any function they call (:attr:`ProgramFacts.guarded`),
settles its counts where a ValueError caught as NaN can stop it.

Where a fault leaves the counters observable (host code and serial
``target`` regions) pending ops are settled before every operation that
can fault, except a partial block at three tests that carry it on: a loop
condition settles it on the ``break`` path and a step kill on the kill
path, and a NULL or bounds test inside the branch that always faults.  So
a host loop that stores or loads through resolved pointers pays one op
increment per iteration, beside each access's byte charge, and still a
settle before any call or division that can raise.

Flat and slow kernel launchers and ``target`` loop nests resolve a pointer
once per launch (:mod:`repro.interp.access`) where static facts prove
nothing can change it (:class:`~repro.interp.analysis.BodyFacts`): a
Python local or parameter the body never assigns, declares or takes the
address of, in a body with no map clause, launch or call that could free
or remap a buffer (``free``, ``cudaFree``, a user function).  Resolution
never raises: a NULL, freed, unmapped or host pointer resolves to length
0, so it faults only at an access that runs, with the per-access form's
message (a NULL test stays in front of an index that can itself fault).
Load and store bytes through it are charged once per launch as access
count x ``elem_bytes``; a fault discards them with the launch's other
counts.  Launchers keep the step budget in a local, handed to ``ctx``
around every call and written back when they end, so ``steps_used`` is
exact on every exit (a ``target`` loop nest charges the local of the
function that holds it, below).  Functions nothing calls and kernels
nothing launches are not emitted.

Each loop of a generated function (host code, ``__device__`` functions and
the functions OpenMP code calls) resolves the pointers its body only reads
through once per loop, under the same facts, in the address space its
function runs in (``DEV``; device space inside a ``target`` region).  Host
counters stay observable after a fault, so these accesses keep the host
form's exactness: each charges its bytes where the per-access form does,
pending ops are settled before its bounds test, and the NULL test stays in
front of an index that charges ops.  A function with a loop keeps the step
budget in a local from entry, handed to ``ctx`` around every call and
launch (``target`` loops charge the same local) and written back in the
function's ``finally`` with ``min`` (the budget only falls), so a kill,
fault, ``exit()`` or return leaves ``steps_used`` exact.  Neither needs a
``try`` per loop, which would cost a level of Python's 20 statically
nested blocks.

Static types specialise arithmetic.  They are the types semantic
analysis left on each expression (:func:`repro.minilang.semantics.expr_type`),
with the static facts of :mod:`repro.interp.analysis` on top:
``+``/``-`` skip the pointer tests when both operands are known to be
arithmetic, and index conversions and integer truncations are dropped
where a value is provably a Python ``int``.  A program that can move a
pointer into an arithmetic slot (pointer casts, ``void*`` flows, mixed
``memcpy``) gets the generic forms throughout.

Kernels containing ``__syncthreads()`` or ``__shared__`` storage take the
barrier path (:meth:`~repro.interp.analysis.ProgramFacts.barrier_path`):
they come out as generator functions that yield :data:`BARRIER`, so the
executor can interleave a block's threads at barrier granularity and give
each block its own shared storage.
"""

from __future__ import annotations

import contextlib
import math
import re
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import GuestRuntimeError, InterpreterError, ResourceLimitExceeded
from repro.gpu.stats import HostParallelEvent, KernelEvent, OpCounters, TransferEvent
from repro.interp.access import ATOMIC_UPDATE, AccessEmitter, Elem, Hoisted
from repro.interp.analysis import LOOPS, OMP_CONSTANT, ProgramFacts, strip_cast
from repro.interp.memory import MemoryManager, Pointer
from repro.interp.regions import Frame, RegionEmitter
from repro.interp.values import (
    REDUCTION_IDENTITY,
    c_div,
    c_mod,
    compound_update,
    int_cast,
    pointer_add,
    pointer_step,
    pointer_sub,
    reduce_host,
    reduce_target,
)
from repro.minilang import ast
from repro.minilang import types as ty
from repro.minilang.builtins import BUILTINS, CONSTANTS, GEOMETRY_BUILTINS
from repro.minilang.semantics import analyze, expr_type
from repro.minilang.source import Dialect

BARRIER = "__barrier__"

_SEGFAULT = "Segmentation fault (core dumped)"

_GEOM_INDEX = {"threadIdx": 0, "blockIdx": 1, "blockDim": 2, "gridDim": 3}
_GEOM_LOCAL = {"threadIdx": "tid", "blockIdx": "bid", "blockDim": "block",
               "gridDim": "grid"}

#: A line's assignments to guest locals (``v_x = ...``, ``v_x += ...``).
_ASSIGNS = re.compile(r"(v_\w+)\s*(?:[-+*/%&|^]|<<|>>|//)?=(?!=)")

#: A guest local's Python name.
_LOCAL = re.compile(r"v_\w+")

#: A plain read of a guest variable (evaluating it alone does nothing).
_READ = re.compile(r"(?:G\['\w+'\]|m_\w+)(?:\.cells\[0\])?")

#: Temps, literals and module constants: values no later code can change.
_STABLE = re.compile(r"_t\d+|None|[KTMR]\d+|\(?-?\d[\w.+-]*\)?|'[^'\\]*'|\"[^\"\\]*\"")


def _typed(e: ast.Expr, t: Optional[ty.Type]) -> ast.Expr:
    """A node the emitter makes up, typed the way analysis would type it."""
    e.static_type = t
    return e


_ZERO = _typed(ast.IntLit(0, "0"), ty.INT)
_ONE = _typed(ast.IntLit(1, "1"), ty.INT)


class GuestExit(Exception):
    """Raised by the ``exit()`` builtin to unwind the guest program."""

    def __init__(self, code: int) -> None:
        super().__init__(f"exit({code})")
        self.code = code


# ---------------------------------------------------------------------------
# Run-time names of the generated code
# ---------------------------------------------------------------------------

class _ThreadReturn(Exception):
    """A kernel thread returned from inside a loop (ends that thread)."""


class _NestExit(Exception):
    """A ``target`` loop body returned from inside a nested loop."""


class _RegionExit(Exception):
    """A jump out of a host ``parallel`` region: ``kind`` and ``value``."""

    def __init__(self, kind: str, value=None) -> None:
        super().__init__(kind)
        self.kind = kind
        self.value = value


_RUNTIME = {
    "Pointer": Pointer, "OpCounters": OpCounters, "KernelEvent": KernelEvent,
    "TransferEvent": TransferEvent, "HostParallelEvent": HostParallelEvent,
    "GuestRuntimeError": GuestRuntimeError, "InterpreterError": InterpreterError,
    "GuestExit": GuestExit, "chk": MemoryManager.check_access,
    "_view": MemoryManager.view, "_fault": MemoryManager.fault,
    "c_div": c_div, "c_mod": c_mod, "nan": math.nan,
    "SEGV": _SEGFAULT, "BARRIER": BARRIER,
    "_add": pointer_add, "_sub": pointer_sub, "_step": pointer_step,
    "_update": compound_update, "_cast_int": int_cast,
    "_IDENTITY": REDUCTION_IDENTITY, "_reduce_target": reduce_target,
    "_reduce_host": reduce_host, "_ThreadReturn": _ThreadReturn,
    "_NestExit": _NestExit, "_RegionExit": _RegionExit,
}


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

class _Unsupported(Exception):
    """A construct the interpreter cannot run (raised when it is called)."""


#: Accumulator prefix -> the ``OpCounters`` field it settles into.
_COUNTERS = (("o", "ops"), ("lb", "load_bytes"), ("sb", "store_bytes"), ("at", "atomics"))


class _Module:
    """Collects constants shared by every function of one program."""

    def __init__(self, prog: ProgramFacts) -> None:
        self.prog = prog
        self.consts: Dict[str, object] = {}
        self._const_names: Dict[Tuple[str, object], str] = {}
        #: builtin name -> runner attribute bound in ``bind``
        self.bound: Dict[str, str] = {}
        #: some code calls a barrier kernel as a function
        self.barrier_call = False

    def const(self, value, tag: str = "K") -> str:
        key = (tag, value)
        name = self._const_names.get(key)
        if name is None:
            name = f"{tag}{len(self._const_names)}"
            self._const_names[key] = name
            self.consts[name] = value
        return name

    def bind(self, local: str, attr: str) -> str:
        self.bound[local] = attr
        return local


class _Emitter(AccessEmitter, RegionEmitter):
    """Writes the body of one generated Python function."""

    def __init__(self, mod: _Module, fname: str, fn: ast.FuncDef, *,
                 exact: bool, space: str, geom_local: bool = False,
                 gen: bool = False, indent: int = 2) -> None:
        self.mod = mod
        self.prog = mod.prog
        self.fname = fname
        self.fn = fn
        self.lines: List[str] = []
        self.ind = indent
        self.ntemp = 0
        self.nacc = 0
        #: the current block's counts: static ops, and static amounts of
        #: other accumulators and of hoisted pointers' access counts
        self.pending = 0
        self.tally: Dict[str, int] = {}
        #: the count of the current suite's leading block, where a launch,
        #: nest or call gives it (None: the block bumps a counter)
        self.known: Optional[str] = None
        #: blocks charged where their region settles: (count, amounts)
        self.blocks: List[Tuple[str, Dict[str, int]]] = []
        #: accumulator suffix -> the block counters that settle into it
        self.counters: Dict[str, List[str]] = {}
        #: inside a math builtin's arguments, or in a function they call:
        #: a ValueError can stop the code part-way and carry on after the
        #: builtin, so counts are settled where they always were
        self.guard = 0
        self.acc = ""
        self.exact = exact
        #: host | device | omp | dyn (``SP``/``DEV`` read at function entry)
        self.space = space
        self.geom_local = geom_local
        self.gen = gen
        self.frames: List[Frame] = []
        self.touched: Set[str] = set()
        #: the code reads ``SP``/``DEV`` (the run-time address space)
        self.dynamic = False
        #: locals already checked non-NULL in the current straight-line code
        self.nonnull: Set[str] = set()
        self.last_access: Optional[Elem] = None
        #: guest pointer -> its temps, resolved once per launch or loop
        self.hoisted: Dict[ast.Symbol, Hoisted] = {}
        #: the local that holds the step budget in a launch or in a
        #: function with a loop (None: ``ctx``)
        self.budget: Optional[str] = None
        #: the code charges steps to ``budget``, and hands it to calls
        self.budget_used = False
        self.handoffs = 0

    # -- low level -----------------------------------------------------------
    def emit(self, line: str) -> None:
        if self.nonnull and "v_" in line:
            self.nonnull.difference_update(_ASSIGNS.findall(line))
        self.lines.append("    " * self.ind + line)

    def tmp(self) -> str:
        self.ntemp += 1
        return f"_t{self.ntemp}"

    @property
    def blocked(self) -> bool:
        """Counts are settled per block (a fault discards them)."""
        return not self.exact and not self.guard

    def count(self, kind: str, amount: str) -> None:
        name = f"{kind}{self.acc}"
        if self.blocked and amount.isdigit():
            self.tally[name] = self.tally.get(name, 0) + int(amount)
            return
        self.touched.add(name)
        self.emit(f"{name} += {amount}")

    def flush(self) -> None:
        """The current block ends here: charge what it counted."""
        ops, tally = self.pending, self.tally
        self.pending, self.tally = 0, {}
        if self.known is None:
            for line in self.charging(ops, tally):
                self.emit(line)
            return
        vector = self.vector(ops, tally)
        if vector:
            self.blocks.append((self.known, vector))
        self.known = None

    def vector(self, ops: int, tally: Dict[str, int]) -> Dict[str, int]:
        out = {f"o{self.acc}": ops} if ops else {}
        out.update(tally)
        return out

    def charging(self, ops: int, tally: Dict[str, int]) -> List[str]:
        """The statements that charge a block's counts where control
        leaves it: each amount in exact code or where there is only one,
        else one increment of the block's own counter."""
        vector = self.vector(ops, tally)
        if self.exact or len(vector) < 2:
            self.touched.update(vector)
            return [f"{name} += {n}" for name, n in vector.items()]
        counter = f"_b{sum(map(len, self.counters.values())) + 1}"
        self.counters.setdefault(self.acc, []).append(counter)
        self.blocks.append((counter, vector))
        return [f"{counter} += 1"]

    def paying(self) -> str:
        """The pending counts charged on a path that leaves now, as a
        statement prefix; they stay pending on the path that goes on."""
        return "".join(line + "; " for line in self.charging(self.pending, self.tally))

    def terms(self, name: str) -> List[str]:
        """What accumulator or access count ``name`` adds up to: itself
        where code increments it, and each block's count times its amount."""
        out = [name] if name in self.touched else []
        const = 0
        for count, vector in self.blocks:
            n = vector.get(name)
            if n and count == "1":
                const += n
            elif n:
                out.append(count if n == 1 else f"{count} * {n}")
        return out + [str(const)] if const else out

    def charges(self, counters: str, acc: str = "", hoisted=()) -> List[str]:
        """Lines adding accumulators ``acc`` and their blocks (and the
        hoisted pointers' access counts times their ``elem_bytes``) to
        ``counters``."""
        out = []
        for k, attr in _COUNTERS:
            terms = self.terms(k + acc)
            for h in hoisted:
                n = {"lb": h.loads, "sb": h.stores}.get(k)
                counts = self.terms(n) if n else []
                if len(counts) > 1:
                    terms.append(f"({' + '.join(counts)}) * {h.eb}")
                elif counts:
                    terms.append(f"{counts[0]} * {h.eb}")
            if terms:
                out.append(f"{counters}.{attr} += {' + '.join(terms)}")
        return out

    def zeroed(self, acc: str = "", hoisted=()) -> List[str]:
        """The locals ``charges`` reads that code increments: they start at 0."""
        names = [k + acc for k, _ in _COUNTERS if k + acc in self.touched]
        names += [n for h in hoisted for n in (h.loads, h.stores) if n in self.touched]
        return names + self.counters.get(acc, [])

    def fault(self) -> None:
        """An operation that can fault follows: settle counts if exact."""
        if self.exact:
            self.flush()

    def faulting(self, test: str, action: str) -> None:
        """``if test: action``, where ``action`` always faults.  Exact code
        charges its pending ops on that path and carries them on the other
        (inside a math builtin's arguments it settles them before)."""
        pay = ""
        if self.exact and self.guard:
            self.flush()
        elif self.exact:
            pay = self.paying()
        self.emit(f"if {test}: {pay}{action}")

    def split(self, s: Optional[ast.Stmt] = None) -> None:
        """Control flow follows (guest statement ``s``).  Block-counted
        code ends the block only where it can jump out; other code settles
        its counts first."""
        if not self.blocked or (s is not None and self.prog.exits(s)):
            self.flush()

    @contextlib.contextmanager
    def scope(self):
        """A nested suite with blocks of its own: the enclosing block's
        counts carry over it."""
        saved = self.pending, self.tally, self.known
        self.pending, self.tally, self.known = 0, {}, None
        try:
            yield
        finally:
            self.pending, self.tally, self.known = saved

    @contextlib.contextmanager
    def capture(self, reset: bool = False, deeper: int = 0):
        saved_lines = self.lines
        self.lines = buf = []
        self.ind += deeper
        box = {"lines": buf, "pending": 0, "tally": {}}
        try:
            if reset:
                with self.scope():
                    yield box
                    box["pending"], box["tally"] = self.pending, self.tally
                # Conditionally run code proves nothing afterwards.
                self.nonnull.clear()
            else:
                yield box
                box["pending"], box["tally"] = self.pending, self.tally
        finally:
            self.lines = saved_lines
            self.ind -= deeper

    def block(self, header: str, body) -> None:
        """``header:`` then ``body()`` one level deeper (settled at its end)."""
        self.emit(header)
        self.ind += 1
        self.nonnull.clear()
        known, self.known = self.known, None
        n = len(self.lines)
        body()
        self.flush()
        if len(self.lines) == n:
            self.emit("pass")
        self.known = known
        self.ind -= 1
        self.nonnull.clear()

    def steps(self) -> None:
        """Charge one step; exact code pays its pending ops if it kills."""
        pay = self.paying() if self.exact and not self.guard else ""
        if self.budget is None:
            self.emit("ctx.steps_left -= 1")
            self.emit(f"if ctx.steps_left < 0: {pay}ctx.consume_steps(0)")
            return
        b = self.budget
        self.budget_used = True
        self.emit(f"{b} -= 1")
        self.emit(f"if {b} < 0: {pay}ctx.steps_left = {b}; ctx.consume_steps(0)")

    def calling(self, line: str) -> None:
        """``line`` runs guest code that charges ``ctx``: hand it the budget."""
        if self.budget is None:
            self.emit(line)
            return
        self.budget_used = True
        self.handoffs += 1
        self.emit(f"ctx.steps_left = {self.budget}")
        self.emit(line)
        self.emit(f"{self.budget} = ctx.steps_left")

    def raise_segv(self, detail: str) -> None:
        self.emit(f"raise GuestRuntimeError(SEGV, detail={detail!r})")

    @staticmethod
    def stable(s: str) -> bool:
        """Unaffected by code that runs after it is produced."""
        return _STABLE.fullmatch(s) is not None

    @staticmethod
    def kept(s: str, lines: List[str]) -> bool:
        """``s`` is a guest local that none of ``lines`` assigns (a call
        cannot assign the caller's Python locals)."""
        return _LOCAL.fullmatch(s) is not None and all(
            s not in _ASSIGNS.findall(line) for line in lines)

    def spill(self, s: str) -> str:
        if self.stable(s):
            return s
        t = self.tmp()
        self.emit(f"{t} = {s}")
        return t

    def ordered(self, exprs: List[ast.Expr]) -> List[str]:
        """Emit ``exprs`` left to right, spilling earlier values into temps
        whenever a later one has to run statements first."""
        out: List[str] = []
        for e in exprs:
            with self.capture() as cap:
                s = self.expr(e)
            if cap["lines"]:
                out = [x if self.kept(x, cap["lines"]) else self.spill(x) for x in out]
                self.lines.extend(cap["lines"])
            out.append(s)
        return out

    # -- static facts --------------------------------------------------------
    def arith(self, e: ast.Expr) -> bool:
        t = expr_type(e)
        return self.prog.typed and t is not None and t.is_numeric

    def is_ptr(self, e: ast.Expr) -> bool:
        t = expr_type(e)
        return self.prog.typed and t is not None and t.is_pointer

    def is_int(self, e: ast.Expr) -> bool:
        return self.prog.is_int(e)

    def is_float(self, e: ast.Expr) -> bool:
        return self.prog.is_float(e)

    def local(self, sym: Optional[ast.Symbol]) -> Optional[str]:
        """Python lvalue of a guest variable (None: not a variable)."""
        if sym is None:
            return None
        if sym in self.prog.addressed:
            return f"{self.cell(sym)}.cells[0]"
        return f"G[{sym.name!r}]" if sym.is_global else f"v_{_key(sym)}"

    @staticmethod
    def cell(sym: ast.Symbol) -> str:
        """The buffer holding a variable whose storage is one cell of guest
        memory (``m_``: no other name in generated code starts so)."""
        return f"G[{sym.name!r}]" if sym.is_global else f"m_{_key(sym)}"

    def declare_cell(self, sym: ast.Symbol, emit=None) -> None:
        """Allocate a variable's cell, in this code's address space."""
        self.fault()
        (emit or self.emit)(
            f"{self.cell(sym)} = mem.declare({sym.type.size}, "
            f"{self.mod.const(sym.type, 'T')}, {self.space_expr()}, {sym.name!r}).buf"
        )

    def param_cells(self, params: List[str]) -> None:
        """Move each parameter whose address is taken into its cell."""
        for p, py in zip(self.fn.params, params):
            if p.symbol in self.prog.addressed and py == p.name:
                self.declare_cell(p.symbol)
                self.emit(f"{self.local(p.symbol)} = v_{py}")

    def space_expr(self) -> str:
        if self.space == "dyn":
            self.dynamic = True
            return "SP"
        return "'host'" if self.space == "host" else "'device'"

    # ==================================================================
    # Expressions
    # ==================================================================
    def expr(self, e: ast.Expr) -> str:
        if isinstance(e, ast.IntLit):
            return repr(e.value) if e.value >= 0 else f"({e.value!r})"
        if isinstance(e, ast.FloatLit):
            if math.isfinite(e.value) and e.value >= 0:
                return repr(e.value)
            return self.mod.const(e.value)
        if isinstance(e, ast.StrLit):
            return repr(e.value)
        if isinstance(e, ast.CharLit):
            return repr(ord(e.value) if e.value else 0)
        if isinstance(e, ast.BoolLit):
            return "1" if e.value else "0"
        if isinstance(e, ast.NullLit):
            return "None"
        if isinstance(e, ast.SizeOf):
            return repr(e.type.size)
        if isinstance(e, ast.Ident):
            return self.ident(e)
        if isinstance(e, ast.Member):
            if isinstance(e.obj, ast.Ident) and e.obj.name in GEOMETRY_BUILTINS:
                return self.geom(e.obj.name, e.field_name)
            raise _Unsupported("member access on non-geometry object")
        if isinstance(e, ast.Index):
            return self.load(e.base, e.index)
        if isinstance(e, ast.Unary):
            return self.unary(e)
        if isinstance(e, ast.Postfix):
            return self.rmw(e.operand, 1 if e.op == "++" else -1, want="old")
        if isinstance(e, ast.Binary):
            return self.binary(e)
        if isinstance(e, ast.Assign):
            return self.assign(e, want=True)
        if isinstance(e, ast.Ternary):
            return self.ternary(e)
        if isinstance(e, ast.Call):
            return self.call(e)
        if isinstance(e, ast.Launch):
            return self.launch(e)
        if isinstance(e, ast.Cast):
            return self.cast(e)
        raise _Unsupported(f"cannot compile expression {type(e).__name__}")

    def truth(self, e: ast.Expr) -> str:
        """``e`` where only its truth value matters (conditions)."""
        if isinstance(e, ast.Binary) and e.op in ("<", ">", "<=", ">=", "==", "!="):
            self.pending += 1
            a, b = self.ordered([e.left, e.right])
            return f"{a} {e.op} {b}"
        if isinstance(e, ast.Binary) and e.op in ("&&", "||"):
            return self.logical(e, as_truth=True)
        if isinstance(e, ast.Unary) and e.op == "!":
            return f"not ({self.truth(e.operand)})"
        return self.expr(e)

    def ident(self, e: ast.Ident) -> str:
        name = e.name
        lv = self.local(e.symbol)
        if lv is not None:
            return lv
        if name in CONSTANTS:
            v = CONSTANTS[name][0]
            return repr(v) if v >= 0 else f"({v!r})"
        if name in GEOMETRY_BUILTINS:
            return self.geom(name, "x")
        self.fault()
        self.raise_segv(f"use of unbound identifier '{name}'")
        return "None"

    def geom(self, name: str, field: str) -> str:
        if field == "x":
            if self.geom_local:
                return _GEOM_LOCAL[name]
            return f"ctx.geom[{_GEOM_INDEX[name]}]"
        return "1" if name in ("blockDim", "gridDim") else "0"

    # -- memory (accesses themselves: repro.interp.access) -------------------
    @staticmethod
    def deref(target: ast.Expr) -> ast.Expr:
        """``*p`` as ``p[0]``, typed as the ``*p`` it stands for."""
        if isinstance(target, ast.Unary) and target.op == "*":
            return _typed(ast.Index(base=target.operand, index=_ZERO),
                          expr_type(target))
        return target

    def pure(self, e: ast.Expr) -> bool:
        """No side effects and no faults: re-evaluating it changes nothing."""
        return not any(
            isinstance(x, (ast.Assign, ast.Call, ast.Launch, ast.Postfix, ast.Index))
            or (isinstance(x, ast.Unary) and x.op in ("++", "--", "*"))
            or (isinstance(x, ast.Binary) and x.op in ("/", "%"))
            or (isinstance(x, ast.Ident) and x.symbol is None
                and x.name not in CONSTANTS and x.name not in GEOMETRY_BUILTINS)
            for x in ast.walk_exprs(e)
        )

    # -- operators ---------------------------------------------------------
    def unary(self, e: ast.Unary) -> str:
        op = e.op
        if op == "&":
            return self.address_of(e.operand)
        if op == "*":
            return self.load(e.operand, _ZERO)
        if op in ("++", "--"):
            return self.rmw(e.operand, 1 if op == "++" else -1, want="new")
        if op == "-":
            self.pending += 1
            return f"(-{self.expr(e.operand)})"
        if op == "!":
            return f"(0 if {self.truth(e.operand)} else 1)"
        if op == "~":
            self.pending += 1
            x = self.expr(e.operand)
            return f"(~{x})" if self.is_int(e.operand) else f"(~int({x}))"
        raise _Unsupported(f"cannot compile unary op {op}")

    def address_of(self, operand: ast.Expr) -> str:
        if isinstance(operand, ast.Ident) and operand.symbol is not None:
            return f"Pointer({self.cell(operand.symbol)}, 0)"
        if isinstance(operand, ast.Index):
            return self.elem_ref(operand)
        if isinstance(operand, ast.Unary) and operand.op == "*":
            return self.expr(operand.operand)
        raise _Unsupported("unsupported operand of '&'")

    def logical(self, e: ast.Binary, as_truth: bool = False) -> str:
        left = self.truth(e.left)
        with self.capture(reset=True, deeper=1) as cap:
            right = self.truth(e.right)
        word = "and" if e.op == "&&" else "or"
        if not cap["lines"] and not cap["pending"]:
            inner = f"({left}) {word} ({right})"
            return f"({inner})" if as_truth else f"(1 if {inner} else 0)"
        t = self.tmp()
        self.emit(f"{t} = {'1' if e.op == '||' else '0'}")
        self.split()
        self.emit(f"if {left}:" if e.op == "&&" else f"if not ({left}):")
        self.lines.extend(cap["lines"])
        self.ind += 1
        for line in self.charging(cap["pending"], cap["tally"]):
            self.emit(line)
        self.emit(f"{t} = 1 if {right} else 0")
        self.ind -= 1
        return t

    def binary(self, e: ast.Binary) -> str:
        op = e.op
        if op in ("&&", "||"):
            return self.logical(e)
        self.pending += 1
        # Long operands go to temps: Python caps how deeply parentheses nest.
        a, b = [x if len(x) < 400 else self.spill(x)
                for x in self.ordered([e.left, e.right])]
        if op in ("==", "!=", "<", ">", "<=", ">="):
            return f"(1 if {a} {op} {b} else 0)"
        typed = self.arith(e.left) and self.arith(e.right)
        if op == "+":
            if typed:
                return f"({a} + {b})"
            if self.is_ptr(e.left) and self.arith(e.right):
                return f"{a}.offset_by({b})"
            if self.arith(e.left) and self.is_ptr(e.right):
                return f"{b}.offset_by({a})"
            return f"_add({a}, {b})"
        if op == "-":
            if typed:
                return f"({a} - {b})"
            if self.is_ptr(e.left) and self.arith(e.right):
                return f"{a}.offset_by(-int({b}))"
            return f"_sub({a}, {b})"
        if op == "*":
            return f"({a} * {b})"
        if op in ("/", "%"):
            return self.divide(e, a, b)
        if op in ("&", "|", "^", "<<", ">>"):
            if not self.is_int(e.left):
                a = f"int({a})"
            if not self.is_int(e.right):
                b = f"int({b})"
            return f"({a} {op} {b})"
        raise _Unsupported(f"cannot compile binary op {op}")

    def divide(self, e: ast.Binary, a: str, b: str) -> str:
        fn, pyop = ("c_div", "//") if e.op == "/" else ("c_mod", "%")
        if self.is_int(e.left) and self.is_int(e.right):
            a, b = self.spill_atom(a), self.spill_atom(b)
            positive = f"{a} >= 0" if b.isdigit() and int(b) else f"{a} >= 0 and {b} > 0"
            fast = f"{a} {pyop} {b} if {positive} else {fn}({a}, {b})"
        elif e.op == "/" and (self.is_float(e.left) or self.is_float(e.right)) and (
            self.arith(e.left) and self.arith(e.right)
        ):
            # A float operand: IEEE division, c_div only for a zero divisor.
            a, b = self.spill_atom(a), self.spill_atom(b)
            return f"({a} / {b} if {b} else c_div({a}, {b}))"
        else:
            fast = f"{fn}({a}, {b})"
        # An integer division can fault (by zero): settle counts first.
        self.fault()
        t = self.tmp()
        self.emit(f"{t} = {fast}")
        return t

    def spill_atom(self, s: str) -> str:
        """A name (or literal) that can be read twice."""
        if s.isidentifier() or self.stable(s):
            return s
        t = self.tmp()
        self.emit(f"{t} = {s}")
        return t

    def ternary(self, e: ast.Ternary) -> str:
        c = self.truth(e.cond)
        with self.capture(reset=True, deeper=1) as then_cap:
            a = self.expr(e.then)
        with self.capture(reset=True, deeper=1) as other_cap:
            b = self.expr(e.other)
        if not (then_cap["lines"] or then_cap["pending"] or other_cap["lines"]
                or other_cap["pending"]):
            return f"({a} if {c} else {b})"
        t = self.tmp()
        self.split()
        self.emit(f"if {c}:")
        for cap, v in ((then_cap, a), (other_cap, b)):
            self.lines.extend(cap["lines"])
            self.ind += 1
            for line in self.charging(cap["pending"], cap["tally"]):
                self.emit(line)
            self.emit(f"{t} = {v}")
            self.ind -= 1
            if cap is then_cap:
                self.emit("else:")
        return t

    # -- assignment ----------------------------------------------------------
    def value_for(self, target_type: Optional[ty.Type], value: ast.Expr) -> str:
        alloc = self.alloc(value, target_type)
        return alloc if alloc is not None else self.expr(value)

    def alloc(self, value: ast.Expr, target_type: Optional[ty.Type]) -> Optional[str]:
        """``(T*)malloc(n)`` / ``malloc(n)`` / ``calloc(n, s)``."""
        inner, cast_type = value, None
        if isinstance(inner, ast.Cast):
            cast_type, inner = inner.type, inner.operand
        if not isinstance(inner, ast.Call) or inner.callee not in ("malloc", "calloc"):
            return None
        elem = None
        if cast_type is not None and cast_type.is_pointer:
            elem = cast_type.pointee()
        elif target_type is not None and target_type.is_pointer:
            elem = target_type.pointee()
        if elem is None or elem.is_pointer:
            elem = ty.CHAR
        if inner.callee == "malloc":
            (n,) = self.ordered(inner.args[:1])
            nbytes = f"int({n})"
        else:
            n, s = self.ordered(inner.args[:2])
            nbytes = f"int({n}) * int({s})"
        self.fault()
        t = self.tmp()
        self.emit(f"{t} = mem.alloc({nbytes}, {self.mod.const(elem, 'T')}, 'host')")
        return t

    def truncate(self, v: str, value: ast.Expr, integer: bool) -> str:
        """Integer targets drop a float's fraction (other values pass)."""
        if not integer or self.is_int(value):
            return v
        if self.is_float(value):
            return f"int({v})"
        if not (v.startswith("_t") and v[2:].isdigit()):
            t = self.tmp()
            self.emit(f"{t} = {v}")
            v = t
        self.emit(f"if {v}.__class__ is float: {v} = int({v})")
        return v

    def assign(self, e: ast.Assign, want: bool) -> str:
        op, target = e.op, e.target
        if isinstance(target, ast.Ident):
            t = target.symbol and target.symbol.type
            lv = self.local(target.symbol) or f"v_{target.name}"
            integer = t is not None and t.is_integer
            if op == "=":
                v = self.value_for(t, e.value)
                v = self.truncate(v, e.value, integer)
                if want and not self.stable(v):
                    v = self.spill(v)
                self.emit(f"{lv} = {v}")
                return v
            return self.update_ident(e, lv, t, integer, want)
        target = self.deref(target)
        if isinstance(target, ast.Index):
            if op == "=":
                v = self.value_for(expr_type(target), e.value)
                self.store(target, v, e.value)
                return v
            self.pending += 1
            old = self.load(target.base, target.index)
            el = self.last_access
            v = self.expr(e.value)
            new = self.combine(op[:-1], old, v, e.value, target, typed=self.arith(target))
            new = self.spill(new) if not self.stable(new) else new
            el = self.reaccess(target, el)
            self.put(el, new, _typed(ast.Binary(op=op[:-1], left=target, right=e.value),
                                     expr_type(e)))
            return new
        raise _Unsupported(f"unsupported assignment target {type(target).__name__}")

    def combine(self, op: str, old: str, v: str, value: ast.Expr,
                target: ast.Expr, typed: bool) -> str:
        """``old op v`` as a compound assignment computes it."""
        if typed and self.arith(value) and op in ("+", "-", "*"):
            return f"({old} {op} {v})"
        if op in ("/", "%"):
            return self.divide(ast.Binary(op=op, left=target, right=value), old, v)
        if op in ("<<", ">>", "&", "|", "^"):
            a = old if (typed and self.is_int(target)) else f"int({old})"
            b = v if self.is_int(value) else f"int({v})"
            return f"({a} {op} {b})"
        return f"_update({op!r}, {old}, {v})"

    def update_ident(self, e: ast.Assign, lv: str, t, integer: bool, want: bool) -> str:
        self.pending += 1
        base_op = e.op[:-1]
        # The old value is read before the right-hand side runs.
        with self.capture() as cap:
            v = self.expr(e.value)
        old = lv
        if cap["lines"] and not self.kept(lv, cap["lines"]):
            old = self.tmp()
            self.emit(f"{old} = {lv}")
        self.lines.extend(cap["lines"])
        if self.prog.typed and t is not None and t.is_numeric:
            new = self.combine(base_op, old, v, e.value, e.target, typed=True)
        elif self.prog.typed and t is not None and t.is_pointer:
            new = (f"{old}.offset_by(int({v}))" if base_op == "+"
                   else f"{old}.offset_by(-int({v}))")
        else:
            v = self.spill_atom(v) if not self.stable(v) else v
            new = f"_update({base_op!r}, {old}, {v})"
        if integer and not (
            base_op in ("<<", ">>", "&", "|", "^")
            or (self.is_int(e.target) and self.is_int(e.value))
        ):
            t2 = self.tmp()
            self.emit(f"{t2} = {new}")
            self.emit(f"if {t2}.__class__ is float: {t2} = int({t2})")
            new = t2
        if want:
            if not self.stable(new):
                new = self.spill(new)
            self.emit(f"{lv} = {new}")
            return new
        self.emit(f"{lv} = {new}")
        return lv

    def rmw(self, target: ast.Expr, delta: int, want: str) -> str:
        """``++``/``--``; ``want`` is old | new | none."""
        if isinstance(target, ast.Ident):
            t = target.symbol and target.symbol.type
            lv = self.local(target.symbol) or f"v_{target.name}"
            self.pending += 1
            sign = "+" if delta > 0 else "-"
            if self.prog.typed and t is not None and t.is_numeric:
                if want == "none":
                    self.emit(f"{lv} {sign}= 1")
                    return "None"
                if want == "old":
                    o = self.tmp()
                    self.emit(f"{o} = {lv}")
                    self.emit(f"{lv} = {o} {sign} 1")
                    return o
                self.emit(f"{lv} {sign}= 1")
                return self.spill(lv)
            o = self.tmp()
            self.emit(f"{o} = {lv}")
            self.emit(f"{lv} = {self.stepped(o, delta, t)}")
            return o if want == "old" else self.spill(lv)
        target = self.deref(target)
        if isinstance(target, ast.Index):
            self.pending += 1
            old = self.load(target.base, target.index)
            el = self.last_access
            new = self.tmp()
            self.emit(f"{new} = {self.stepped(old, delta, expr_type(target))}")
            el = self.reaccess(target, el)
            self.put(el, new, _typed(ast.Binary(op="+", left=target, right=_ONE),
                                     expr_type(target)))
            return old if want == "old" else new
        raise _Unsupported("unsupported increment/decrement target")

    def stepped(self, old: str, delta: int, t: Optional[ty.Type]) -> str:
        """``old`` moved by ``delta`` (``++``/``--``) in a slot of type ``t``,
        which may hold a pointer unless typed code proves it numeric."""
        if self.prog.typed and t is not None and t.is_numeric:
            return f"{old} {'+' if delta > 0 else '-'} 1"
        if self.prog.typed and t is not None and t.is_pointer:
            return f"{old}.offset_by({delta})"
        return f"_step({old}, {delta})"

    # -- calls -----------------------------------------------------------------
    def call(self, e: ast.Call) -> str:
        name = e.callee
        fn = self.prog.functions.get(name)
        if fn is not None:
            return self.user_call(e, fn)
        b = BUILTINS.get(name)
        if b is None:
            self.fault()
            self.raise_segv(f"call to unknown function '{name}'")
            return "None"
        if self.prog.is_math_call(e):
            return self.math_call(e, b)
        return self.builtin(e)

    def user_call(self, e: ast.Call, fn: ast.FuncDef) -> str:
        self.fault()
        self.steps()
        params = fn.params
        args = self.ordered(e.args[:len(params)])
        out = []
        for p, a, ae in zip(params, args, e.args):
            if p.type.is_integer and not self.is_int(ae):
                if self.is_float(ae):
                    a = f"int({a})"
                else:
                    a = self.spill_atom(a)
                    a = f"({a} if {a}.__class__ is not float else int({a}))"
            out.append(a)
        self.fault()
        t = self.tmp()
        callee = f"f_{e.callee}"
        if fn.is_kernel and self.prog.barrier_path(e.callee):
            callee = "_barrier_call"
            self.mod.barrier_call = True
        self.calling(f"{t} = {callee}({', '.join(out)})")
        return t

    def math_call(self, e: ast.Call, b) -> str:
        name = e.callee
        count = 4 if b.min_args == 1 and name not in ("abs", "fabsf", "fabs") else 1
        self.pending += count
        fn = {"abs": "abs", "fabs": "abs", "fabsf": "abs", "min": "min",
              "max": "max", "fmin": "min", "fmax": "max", "fminf": "min",
              "fmaxf": "max"}.get(name) or self.mod.const(b.py, "M")
        # A ValueError/OverflowError raised while evaluating the call, its
        # arguments included, makes the result NaN.  The code around the
        # ``try`` counts as it would without one; the arguments' counts are
        # settled before the call (they count even when it raises) unless
        # nothing runs before it.
        t = self.tmp()
        self.split()
        self.emit("try:")
        self.ind += 1
        handoffs = self.handoffs
        start = len(self.lines)
        with self.scope():
            self.guard += 1
            args = self.ordered(e.args)
            self.guard -= 1
            if self.guard or len(self.lines) > start:
                self.flush()
            ops, tally = self.pending, self.tally
        self.pending += ops
        for name, n in tally.items():
            self.tally[name] = self.tally.get(name, 0) + n
        self.emit(f"{t} = {fn}({', '.join(args)})")
        self.ind -= 1
        self.emit("except (ValueError, OverflowError):")
        self.emit(f"    {t} = nan")
        if self.handoffs != handoffs:
            # A call in the arguments raised before taking its budget back.
            self.emit(f"    {self.budget} = min({self.budget}, ctx.steps_left)")
        self.nonnull.clear()
        return t

    def builtin(self, e: ast.Call) -> str:
        name = e.callee
        first = e.args[0] if e.args else None
        if name.startswith("atomic") and isinstance(first, ast.Unary) and (
            first.op == "&" and isinstance(first.operand, ast.Index)
        ) and (name in ATOMIC_UPDATE or name == "atomicCAS"):
            return self.atomic_elem(e, first.operand)
        args = self.ordered(e.args)
        if name in OMP_CONSTANT:
            for a in args:
                if not self.stable(a) and not a.isidentifier():
                    self.emit(a)
            return OMP_CONSTANT[name]
        if name in ("cudaDeviceSynchronize", "cudaGetLastError", "cudaGetErrorString"):
            for a in args:
                if not self.stable(a) and not a.isidentifier():
                    self.emit(a)
            return "'no error'" if name == "cudaGetErrorString" else "0"
        if name.startswith("atomic"):
            return self.atomic(name, args)
        self.fault()
        if name == "exit":
            self.emit(f"raise GuestExit(int({args[0]}))")
            return "None"
        if name == "assert":
            self.emit(
                f"if not {args[0]}: raise GuestRuntimeError("
                f"'Assertion failed\\nAborted (core dumped)', detail='assert() failed')"
            )
            return "None"
        if name in ("rand", "srand"):
            call = "ctx.c_rand()" if name == "rand" else f"ctx.c_srand(int({args[0]}))"
        elif name == "cudaMalloc":
            hint = self.cuda_malloc_hint(e)
            extra = [self.mod.const(hint, "T") if hint is not None else "None"]
            call = f"{self.mod.bind('B_cudaMalloc', '_cuda_malloc')}({', '.join(args + extra)})"
        else:
            attr = {
                "printf": "_printf", "fprintf": "_fprintf", "malloc": "_malloc",
                "calloc": "_calloc", "free": "_free", "memset": "_memset",
                "memcpy": "_memcpy", "atoi": "_atoi", "atof": "_atof",
                "cudaFree": "_cuda_free", "cudaMemcpy": "_cuda_memcpy",
                "cudaMemset": "_cuda_memset",
            }.get(name)
            if attr is None:
                self.emit(f"raise InterpreterError({f'builtin {name!r} not implemented'!r})")
                return "None"
            call = f"{self.mod.bind('B_' + name, attr)}({', '.join(args)})"
        t = self.tmp()
        self.emit(f"{t} = {call}")
        return t

    def cuda_malloc_hint(self, e: ast.Call) -> Optional[ty.Type]:
        arg = strip_cast(e.args[0]) if e.args else None
        if isinstance(arg, ast.Unary) and arg.op == "&":
            t = expr_type(arg.operand)
            if t is not None and t.is_pointer:
                return t.pointee()
        return None

    def launch(self, e: ast.Launch) -> str:
        grid, block, *args = self.ordered([e.grid, e.block] + list(e.args))
        self.fault()
        self.calling(f"launch({e.kernel!r}, int({grid}), int({block}), [{', '.join(args)}])")
        return "None"

    def cast(self, e: ast.Cast) -> str:
        alloc = self.alloc(e, None)
        if alloc is not None:
            return alloc
        x = self.expr(e.operand)
        t = e.type
        if t.is_pointer:
            return x
        if t.is_integer:
            if self.is_int(e.operand):
                return x
            if self.arith(e.operand):
                return f"int({x})"
            return f"_cast_int({x})"
        if t.is_real:
            return f"float({x})"
        return x

    # ==================================================================
    # Statements
    # ==================================================================
    def stmt(self, s: ast.Stmt) -> None:
        if isinstance(s, ast.Block):
            for x in s.stmts:
                self.stmt(x)
        elif isinstance(s, ast.VarDecl):
            self.vardecl(s)
        elif isinstance(s, ast.ExprStmt):
            self.expr_stmt(s.expr)
        elif isinstance(s, ast.If):
            self.if_stmt(s)
        elif isinstance(s, ast.For):
            self.for_stmt(s)
        elif isinstance(s, ast.While):
            self.while_stmt(s)
        elif isinstance(s, ast.DoWhile):
            self.do_while(s)
        elif isinstance(s, ast.Return):
            self.return_stmt(s)
        elif isinstance(s, ast.Break):
            self.jump("break")
        elif isinstance(s, ast.Continue):
            self.jump("continue")
        elif isinstance(s, ast.Pragma):
            self.pragma(s)
        elif isinstance(s, ast.SyncThreads):
            if self.gen:
                self.split()
                self.emit("yield BARRIER")
            else:
                self.fault()
                self.emit(
                    "raise GuestRuntimeError('CUDA error: unspecified launch failure', "
                    "detail='__syncthreads() outside a kernel body')"
                )
        else:
            raise _Unsupported(f"cannot compile statement {type(s).__name__}")

    def expr_stmt(self, e: ast.Expr) -> None:
        if isinstance(e, ast.Assign):
            self.assign(e, want=False)
            return
        if isinstance(e, (ast.Postfix, ast.Unary)) and e.op in ("++", "--"):
            self.rmw(e.operand, 1 if e.op == "++" else -1, want="none")
            return
        s = self.expr(e)
        if not (self.stable(s) or s.isidentifier() or _READ.fullmatch(s)):
            self.emit(s)

    def vardecl(self, s: ast.VarDecl) -> None:
        if s.shared:
            return
        if s.symbol in self.prog.addressed:
            self.declare_cell(s.symbol)
        lv = self.local(s.symbol)
        if s.array_size is not None:
            n = self.expr(s.array_size)
            self.fault()
            elem = self.mod.const(s.type, "T")
            self.emit(
                f"{lv} = mem.declare(int({n}) * {max(1, s.type.size)}, {elem}, "
                f"{self.space_expr()}, {s.name!r})"
            )
            return
        if s.init is not None:
            v = self.value_for(s.type, s.init)
            v = self.truncate(v, s.init, s.type.is_integer)
            self.emit(f"{lv} = {v}")
            return
        self.emit(f"{lv} = {'0.0' if s.type.is_real else ('None' if s.type.is_pointer else '0')}")

    def if_stmt(self, s: ast.If) -> None:
        c = self.truth(s.cond)
        self.split(s)
        with self.scope():
            self.block(f"if {c}:", lambda: self.stmt(s.then))
        if s.other is not None:
            with self.scope():
                self.block("else:", lambda: self.stmt(s.other))

    def loop(self, s: ast.Stmt, cont, body) -> None:
        """A ``while True`` loop whose body is emitted by ``body()``.

        A loop of a generated function first resolves each pointer its
        body only reads through (:meth:`hoistable`) that no enclosing loop
        resolved, in the address space of the code around it.
        """
        self.split(s)
        saved = self.hoisted
        facts = self.prog.loop_bodies.get(id(s))
        if facts is not None:
            dev = "DEV" if self.space == "dyn" else ""
            hoisted, resolve = self.hoist(
                [sym for sym in self.hoistable(facts) if sym not in saved], dev)
            if hoisted:
                self.dynamic |= dev == "DEV"
                self.hoisted = {**saved, **hoisted}
            for line in resolve:
                self.emit(line)
        self.frames.append(Frame("loop", cont))
        with self.scope():
            self.block("while True:", body)
        self.frames.pop()
        self.hoisted = saved

    def exit_unless(self, cond: Optional[ast.Expr]) -> None:
        """Leave the loop unless ``cond``: the condition's counts are paid
        on the way out and carried into the iteration that goes on."""
        if cond is None:
            return
        c = self.truth(cond)
        if self.guard:
            self.flush()
        self.emit(f"if not ({c}): {self.paying()}break")

    def for_stmt(self, s: ast.For) -> None:
        if s.init is not None:
            self.stmt(s.init)

        def step():
            if s.step is not None:
                self.expr_stmt(s.step)

        def cont():
            step()
            self.flush()
            self.emit("continue")

        def body():
            self.exit_unless(s.cond)
            self.steps()
            self.stmt(s.body)
            step()

        self.loop(s, cont, body)

    def while_stmt(self, s: ast.While) -> None:
        def cont():
            self.flush()
            self.emit("continue")

        def body():
            self.exit_unless(s.cond)
            self.steps()
            self.stmt(s.body)

        self.loop(s, cont, body)

    def do_while(self, s: ast.DoWhile) -> None:
        def cont():
            self.exit_unless(s.cond)
            self.flush()
            self.emit("continue")

        def body():
            self.steps()
            self.stmt(s.body)
            self.exit_unless(s.cond)

        self.loop(s, cont, body)

    # -- jumps -------------------------------------------------------------------
    def target_frame(self) -> Tuple[Frame, bool]:
        """The frame a return lands in, and whether loops lie between."""
        looped = False
        for f in reversed(self.frames):
            if f.kind == "loop":
                looped = True
            elif f.kind != "try":
                return f, looped
        raise AssertionError("no function frame")  # pragma: no cover

    def return_stmt(self, s: ast.Return) -> None:
        v = "None"
        if s.value is not None:
            v = self.expr(s.value)
            v = self.truncate(v, s.value, self.fn.return_type.is_integer)
        self.do_return(v)

    def do_return(self, v: str) -> None:
        frame, looped = self.target_frame()
        self.flush()
        if frame.kind in ("func", "gen"):
            self.emit("return" if frame.kind == "gen" else f"return {v}")
        elif frame.kind == "thread":
            if looped:
                frame.exits.add("return")
                self.emit("raise _ThreadReturn()")
            else:
                self.emit("continue")
        elif frame.kind == "nest":
            if looped:
                frame.exits.add("return")
                self.emit("raise _NestExit()")
            else:
                self.emit("break")
        else:  # region
            frame.exits.add("return")
            self.emit(f"raise _RegionExit('return', {v})")

    def jump(self, kind: str) -> None:
        self.flush()
        for f in reversed(self.frames):
            if f.kind == "try":
                continue
            if f.kind == "loop" or (f.kind == "nest" and f.cont is not None):
                if kind == "break":
                    self.emit("break")
                else:
                    f.cont()
                return
            if f.kind == "region":
                f.exits.add(kind)
                self.emit(f"raise _RegionExit({kind!r})")
                return
            # Thread, generic nest and function tops end like a return.
            self.do_return(self.default_value())
            return

    def default_value(self) -> str:
        rt = self.fn.return_type
        return "0.0" if rt.is_real else ("None" if rt.is_pointer else "0")

    def catching(self, frame: Frame, exc: str, body, on_exit: str = "pass") -> None:
        """Emit ``body``; wrap it in ``try/except exc`` if it raised one."""
        start = len(self.lines)
        self.ind += 1
        self.nonnull.clear()
        body()
        self.flush()
        self.nonnull.clear()
        self.ind -= 1
        inner = self.lines[start:]
        del self.lines[start:]
        if "return" in frame.exits:
            self.emit("try:")
            self.lines.extend(inner if inner else ["    " * (self.ind + 1) + "pass"])
            self.emit(f"except {exc}:")
            self.emit(f"    {on_exit}")
        else:
            self.lines.extend(line[4:] for line in inner)


def _key(sym: ast.Symbol) -> str:
    """A guest local's name in generated code (after ``v_``, or in ``E``)."""
    return f"{sym.depth}_{sym.name}" if sym.depth else sym.name


def _param_names(fn: ast.FuncDef) -> List[str]:
    """Python parameter names; unnamed or repeated guest params get dummies
    (a later guest param of the same name wins, as in a dict)."""
    names = []
    for i, p in enumerate(fn.params):
        later = [q.name for q in fn.params[i + 1:]]
        if not p.name or p.name in later:
            names.append(f"_p{i}")
        else:
            names.append(p.name)
    return names


_NESTS_TOO_DEEPLY = "interpreter limit exceeded: program nests too deeply"


class ProgramCode:
    """One program's generated interpreter code, compiled once.

    ``bind(runner)`` returns ``(functions, kernels, shared_sizes,
    init_globals)``, functions that run against that runner.  Kernel facts
    the executor needs (dispatch path, shared declarations) are plain
    attributes.
    """

    def __init__(self, program: ast.Program, dialect: Dialect) -> None:
        prog = ProgramFacts(program, dialect)
        self.functions = prog.functions
        #: kernel name -> "flat" | "barrier" | "slow"
        self.paths: Dict[str, str] = {}
        #: barrier kernel name -> its ``__shared__`` declarations
        self.shared: Dict[str, List[ast.VarDecl]] = {}
        mod = _Module(prog)
        parts: List[str] = []
        names: List[str] = []
        kernels: List[str] = []
        exprs = [e for body in prog.exprs.values() for e in body]
        called = {e.callee for e in exprs if isinstance(e, ast.Call)}
        launched = {e.kernel for e in exprs if isinstance(e, ast.Launch)}
        for name, fn in prog.functions.items():
            if fn.is_kernel:
                barrier = prog.barrier_path(name)
                atomics = any(
                    isinstance(e, ast.Call) and e.callee.startswith("atomic")
                    for e in prog.exprs[name]
                )
                path = "barrier" if barrier else ("slow" if atomics else "flat")
                self.paths[name] = path
                if barrier:
                    self.shared[name] = [
                        s for s in prog.stmts[name]
                        if isinstance(s, ast.VarDecl) and s.shared
                    ]
                if name in launched:
                    parts.append(self._kernel(mod, name, fn, path))
                    kernels.append(name)
                if name not in called or barrier:
                    continue
            elif name not in called and name != "main":
                continue
            parts.append(self._function(mod, name, fn))
            names.append(name)
        parts.append(self._globals(mod, prog))
        head = ["def bind(R):", "    ctx = R.ctx", "    G = R.global_env",
                "    mem = ctx.memory", "    launch = R.launch",
                "    ev = ctx.profile.events.append"]
        head += [f"    {local} = R.{attr}" for local, attr in sorted(mod.bound.items())]
        if mod.barrier_call:
            head.append(
                "    def _barrier_call(*args): raise InterpreterError("
                "'kernel with barriers must go through launch()')"
            )
        tail = [
            "    return ({" + ", ".join(f"{n!r}: f_{n}" for n in names) + "}, {"
            + ", ".join(f"{k!r}: k_{k}" for k in kernels) + "}, {"
            + ", ".join(f"{k!r}: s_{k}" for k in kernels if k in self.shared)
            + "}, init_globals)"
        ]
        source = "\n".join(head + parts + tail) + "\n"
        namespace = dict(_RUNTIME)
        namespace.update(mod.consts)
        exec(compile(source, "<guest program>", "exec"), namespace)
        self.bind = namespace["bind"]

    @classmethod
    def of(cls, program: ast.Program, dialect: Dialect) -> "ProgramCode":
        """The program's code for ``dialect``, generated on first use.

        The code reads the types semantic analysis left on the program; a
        program not analysed for ``dialect`` is analysed here first.  A
        program nested past what the generated Python can express (20
        nested loops, 100 levels of indentation) or the generator can walk
        fails the run with an interpreter-limit error, not an exception.
        """
        code = program.generated.get(dialect)
        if code is None:
            if program.analyzed_for is not dialect:
                analyze(program, dialect)
            try:
                code = cls(program, dialect)
            except SyntaxError as exc:
                raise ResourceLimitExceeded(_NESTS_TOO_DEEPLY, detail=exc.msg) from None
            except RecursionError:
                raise ResourceLimitExceeded(
                    _NESTS_TOO_DEEPLY, detail="code generator recursion limit"
                ) from None
            program.generated[dialect] = code
        return code

    # -- functions ---------------------------------------------------------------
    @staticmethod
    def _stub(header: str, err: Exception, gen: bool = False) -> str:
        lines = [f"    {header}",
                 f"        raise InterpreterError({str(err)!r})"]
        if gen:
            lines.append("        yield")
        return "\n".join(lines)

    def _function(self, mod: _Module, name: str, fn: ast.FuncDef) -> str:
        params = _param_names(fn)
        header = f"def f_{name}({', '.join('v_' + p for p in params)}):"
        device = fn.qualifier == "__device__"
        em = _Emitter(mod, name, fn, exact=not device, space="dyn")
        em.guard = int(name in mod.prog.guarded)
        if em.blocked:
            em.known = "1"  # the leading block runs once a call
        if any(type(s) in LOOPS for s in mod.prog.stmts[name]):
            em.budget = "st"
        try:
            em.frames.append(Frame("func"))
            em.param_cells(params)
            em.stmt(fn.body)
            em.flush()
            em.emit(f"return {em.default_value()}")
        except _Unsupported as exc:
            return self._stub(header, exc)
        prologue = ["C = ctx.counters"]
        if em.dynamic:
            prologue += ["SP = ctx.space", "DEV = SP == 'device'"]
        final = None
        if em.budget_used:
            prologue.append("st = ctx.steps_left")
            # The budget only falls, so the lower of the two is the later.
            final = "ctx.steps_left = min(ctx.steps_left, st)"
        return self._wrap(header, prologue, em, "C", final)

    @staticmethod
    def _wrap(header: str, prologue: List[str], em: _Emitter, counters: str,
              final: Optional[str] = None) -> str:
        """The function: ``prologue``, then its body in a ``try`` whose
        ``finally`` settles its accumulators and runs ``final``."""
        pad = "        "
        lines = ["    " + header] + [pad + line for line in prologue]
        settle = em.charges(counters)
        zeroed = em.zeroed()
        if zeroed:
            lines.append(pad + " = ".join(zeroed) + " = 0")
        if final is not None:
            settle.append(final)
        if not settle:
            return "\n".join(lines + em.lines)
        lines.append(pad + "try:")
        lines += ["    " + line for line in em.lines]
        lines.append(pad + "finally:")
        lines += [pad + "    " + line for line in settle]
        return "\n".join(lines)

    def _kernel(self, mod: _Module, name: str, fn: ast.FuncDef, path: str) -> str:
        params = _param_names(fn)
        pvars = ", ".join("v_" + p for p in params)
        unpack = f"{pvars}{',' if len(params) == 1 else ''} = args" if params else ""
        if path == "barrier":
            header = f"def k_{name}(tid, bid, block, grid, args, shared):"
            em = _Emitter(mod, name, fn, exact=False, space="device",
                          geom_local=True, gen=True)
            em.known = "1"  # each thread settles its own counts
            try:
                em.frames.append(Frame("gen"))
                em.param_cells(params)
                em.stmt(fn.body)
                em.flush()
                if not any(type(s) is ast.SyncThreads for s in mod.prog.stmts[name]):
                    em.emit("if 0: yield")  # a generator all the same
            except _Unsupported as exc:
                return self._stub(header, exc, gen=True)
            prologue = ["C = ctx.counters"]
            if unpack:
                prologue.append(unpack)
            for i, decl in enumerate(self.shared[name]):
                sym = decl.symbol
                if decl.array_size is None:  # a scalar: its block's cell
                    prologue.append(f"{em.cell(sym)} = shared[{i}].buf")
                    continue
                if sym in mod.prog.addressed:  # ``&t``: the array pointer in a cell
                    em.declare_cell(sym, prologue.append)
                prologue.append(f"{em.local(sym)} = shared[{i}]")
            body = self._wrap(header, prologue, em, "C")
            sizes = self._shared_sizes(mod, name, fn)
            return body + "\n" + sizes
        header = f"def k_{name}(grid, block, args, C):"
        em = _Emitter(mod, name, fn, exact=False, space="device", geom_local=True,
                      indent=4)
        em.budget = "st"
        em.known = "grid * block"  # the leading block runs once a thread
        frame = Frame("thread")
        exprs = mod.prog.exprs[name]
        facts = mod.prog.bodies[name]
        rebind = unpack and any(p.symbol in facts.written for p in fn.params)
        em.hoisted, resolve = em.hoist([
            p.symbol for p, py in zip(fn.params, params)
            if facts.stable and p.type.is_pointer and py == p.name
            and p.symbol in facts.accessed and p.symbol not in facts.written
        ])
        try:
            em.frames.append(Frame("func"))
            em.frames.append(frame)
            if path == "slow" or any(
                isinstance(e, ast.Call) and e.callee in mod.prog.functions
                for e in exprs
            ):
                em.emit("ctx.geom = (tid, bid, block, grid)")
            if path == "slow":
                em.steps()
            if rebind:
                em.emit(unpack)
            em.param_cells(params)
            em.catching(frame, "_ThreadReturn", lambda: em.stmt(fn.body))
            em.flush()
        except _Unsupported as exc:
            return self._stub(header, exc)
        pad = "        "
        loop = ["for bid in range(grid):", "    for tid in range(block):"]
        body = [pad + line for line in loop] + (em.lines or [pad + "        pass"])
        if em.budget_used:
            # The budget only falls, so the lower of the two is the later.
            body = ([pad + "st = ctx.steps_left", pad + "try:"]
                    + ["    " + line for line in body]
                    + [pad + "finally:", pad + "    ctx.steps_left = min(ctx.steps_left, st)"])
        zeroed = em.zeroed(hoisted=em.hoisted.values())
        head = [" = ".join(zeroed) + " = 0"] if zeroed else []
        if unpack and (resolve or not rebind):
            head.append(unpack)
        tail = em.charges("C", hoisted=em.hoisted.values())
        return "\n".join(["    " + header] + [pad + line for line in head + resolve]
                         + body + [pad + line for line in tail])

    def _shared_sizes(self, mod: _Module, name: str, fn: ast.FuncDef) -> str:
        header = f"def s_{name}():"
        em = _Emitter(mod, name, fn, exact=False, space="device")
        em.known = "1"
        em.frames.append(Frame("func"))
        try:
            sizes = []
            for decl in self.shared[name]:
                if decl.array_size is None:
                    sizes.append("1")
                else:
                    sizes.append(f"int({em.spill(em.expr(decl.array_size))})")
            em.flush()
            em.emit(f"return [{', '.join(sizes)}]")
        except _Unsupported as exc:
            return self._stub(header, exc)
        return self._wrap(header, ["C = ctx.counters"], em, "C")

    def _globals(self, mod: _Module, prog: ProgramFacts) -> str:
        header = "def init_globals():"
        fake = ast.FuncDef(ty.VOID, "<globals>", [], ast.Block())
        em = _Emitter(mod, "", fake, exact=True, space="host")
        em.frames.append(Frame("func"))
        try:
            for decl in prog.global_decls:
                em.vardecl(decl)
            em.flush()
        except _Unsupported as exc:
            return self._stub(header, exc)
        return self._wrap(header, ["C = ctx.counters"], em, "C")

