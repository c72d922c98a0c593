"""Element accesses in generated guest code.

The mixin :class:`AccessEmitter` writes loads, stores and atomics through
pointers.  An access tests its pointer for NULL, reads its buffer and
offset, and checks space, liveness and bounds (``chk`` raises the fault),
then charges the buffer's ``elem_bytes``.

Flat and slow kernel launchers, ``target`` loop nests and the loops of a
generated function hoist that work where nothing can change it during the
launch or loop (:meth:`AccessEmitter.hoist`, gated by
:class:`repro.interp.analysis.BodyFacts`): each such pointer is resolved
once (:meth:`repro.interp.memory.MemoryManager.view`), and an access
through it is ``k = off + i`` and one chained bounds test, whose failure
raises the per-access check's fault.  A launch counts its loads and stores
in its blocks' vectors and charges them once, as count x ``elem_bytes``.
A loop resolves in its function's address space (``DEV``) and charges
each access's bytes where the per-access form does; in exact (host) code
it settles pending ops inside the branch of the NULL and bounds tests that
always faults, and keeps the NULL test in front of an index that charges
ops, so each host counter reads what the per-access form's would at any
fault.  A store through an access that assigns no guest local stores the
local itself, with no spill.  It relies on the expression emission of
:class:`repro.interp.codegen._Emitter`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.interp.analysis import BodyFacts
from repro.minilang import ast
from repro.minilang.semantics import expr_type

NULL_DEREF = "NULL pointer dereference"
NULL_ELEM = "NULL pointer dereference in '&expr[i]'"

ATOMIC_UPDATE = {
    "atomicAdd": "{old} + {v}",
    "atomicSub": "{old} - {v}",
    "atomicMax": "max({old}, {v})",
    "atomicMin": "min({old}, {v})",
    "atomicExch": "{v}",
}


class Hoisted(NamedTuple):
    """Temps of a pointer resolved once per launch or loop (``_view``).

    A launch counts its loads and stores under the names ``loads`` and
    ``stores`` in its blocks' vectors and charges them at the end as count
    x ``elem_bytes``; a loop leaves both empty and charges ``eb`` at each
    access, as the per-access form does.
    ``dev`` names the address space of a loop in a function (``DEV``);
    empty, the view and faults are device code's."""

    ptr: str
    cells: str
    off: str
    n: str
    eb: str
    is_float: str
    loads: str
    stores: str
    dev: str

    def fault_call(self, k: str, detail: str = "") -> str:
        """The call that raises the fault of an access at ``k`` out of range."""
        args = [self.ptr, k] + ([repr(detail)] if detail else [])
        if self.dev:
            args.append(f"device={self.dev}")
        return f"_fault({', '.join(args)})"


class Elem(NamedTuple):
    """A checked element access: ``cells[k]``, the buffer's float flag, the
    expression its bytes are charged per access with (``eb``), unless
    ``hoisted`` is the launch-resolved pointer whose counts it adds to."""

    cells: str
    k: str
    is_float: str
    eb: str
    hoisted: Optional[Hoisted]


class AccessEmitter:
    """Pointer access emission, mixed into the statement emitter."""

    def hoist(self, pointers: List[ast.Symbol],
              dev: Optional[str] = None) -> Tuple[Dict[ast.Symbol, Hoisted], List[str]]:
        """Resolve the pointer locals ``pointers`` once: their records and
        the lines that resolve them.  A launch (``dev`` None) names each
        pointer's load and store counts; a loop (``dev``, see
        :class:`Hoisted`) counts nothing."""
        hoisted: Dict[ast.Symbol, Hoisted] = {}
        lines = []
        for sym in pointers:
            ptr = self.local(sym)
            if dev is None:
                h = Hoisted(ptr, *(self.tmp() for _ in range(7)), "")
            else:
                h = Hoisted(ptr, *(self.tmp() for _ in range(5)), "", "", dev)
            hoisted[sym] = h
            view = f"_view({ptr}, {dev})" if dev else f"_view({ptr})"
            lines.append(f"{h.cells}, {h.off}, {h.n}, {h.eb}, {h.is_float} = {view}")
        return hoisted, lines

    def hoistable(self, facts: BodyFacts) -> List[ast.Symbol]:
        """The pointer locals a body dereferences and never writes, declares
        or takes the address of, if nothing in it can free or remap a
        buffer (in order of their generated names)."""
        if not facts.stable:
            return []
        return sorted((
            sym for sym in facts.accessed - facts.written
            if not sym.is_global and sym not in self.prog.addressed and sym.type.is_pointer
        ), key=self.local)

    def pointer(self, base: ast.Expr, detail: str) -> str:
        """Evaluate a pointer operand and fault on NULL."""
        p = self.expr(base)
        if not (p.startswith("v_") or self.stable(p)):
            p = self.spill(p)
        if p in self.nonnull:
            return p
        self.faulting(f"{p} is None", f"raise GuestRuntimeError(SEGV, detail={detail!r})")
        self.nonnull.add(p)
        return p

    def index(self, p: str, index: ast.Expr) -> Tuple[str, str]:
        with self.capture() as cap:
            i = self.expr(index)
        if cap["lines"] and not (self.stable(p) or self.kept(p, cap["lines"])):
            t = self.tmp()
            self.emit(f"{t} = {p}")
            p = t
        self.lines.extend(cap["lines"])
        if not self.is_int(index):
            i = f"int({i})"
        return p, i

    def resolved(self, base: ast.Expr, exprs: List[ast.Expr],
                 detail: str) -> Optional[Hoisted]:
        """The resolved pointer ``base`` names, if any.  A NULL one must
        fault before ``exprs`` (an index, then an atomic's operands) can,
        as it did when each access tested it: keep that test unless they
        are pure and the index an integer.  Exact code keeps it unless
        they are names and literals, which charge no ops, so a NULL
        pointer faults with the same ops charged."""
        h = self.hoisted.get(base.symbol) if isinstance(base, ast.Ident) else None
        if h is None:
            return None
        plain = self.is_int(exprs[0]) and all(self.pure(e) for e in exprs)
        if self.exact:
            plain = plain and all(isinstance(e, (ast.Ident, ast.IntLit)) for e in exprs)
        if not plain:
            self.pointer(base, detail)
        return h

    def hoisted_index(self, h: Hoisted, index: ast.Expr) -> str:
        i = self.expr(index)
        k = self.tmp()
        self.emit(f"{k} = {h.off} + {i if self.is_int(index) else f'int({i})'}")
        return k

    def access(self, base: ast.Expr, index: ast.Expr) -> Elem:
        """Checked element access."""
        h = self.resolved(base, [index], NULL_DEREF)
        if h is not None:
            k = self.hoisted_index(h, index)
            self.faulting(f"not 0 <= {k} < {h.n}", h.fault_call(k))
            return Elem(h.cells, k, h.is_float, h.eb, h if h.loads else None)
        p = self.pointer(base, NULL_DEREF)
        p, i = self.index(p, index)
        self.fault()
        b, k = self.tmp(), self.tmp()
        self.emit(f"{b} = {p}.buf")
        self.emit(f"{k} = {p}.off + {i}")
        if self.space == "omp":
            self.emit(
                f"if {b}.space == 'host' and {b}.shadow is not None and not {b}.freed "
                f"and 0 <= {k} < {b}.shadow.length: {b} = {b}.shadow"
            )
            self.emit(
                f"elif {b}.space != 'device' or {b}.freed or {k} < 0 or {k} >= {b}.length: "
                f"{b} = chk({b}, {k}, True)"
            )
        else:
            self.dynamic |= self.space == "dyn"
            sp, dev = {
                "host": ("'host'", "False"), "device": ("'device'", "True"),
            }.get(self.space, ("SP", "DEV"))
            self.emit(
                f"if {b}.space != {sp} or {b}.freed or {k} < 0 or {k} >= {b}.length: "
                f"{b} = chk({b}, {k}, {dev})"
            )
        return Elem(f"{b}.cells", k, f"{b}.is_float", f"{b}.elem_bytes", None)

    def charge(self, kind: str, el: Elem) -> None:
        """Charge one load (``lb``) or store (``sb``) of ``el``'s bytes."""
        if el.hoisted is None:
            self.count(kind, el.eb)
        else:
            n = el.hoisted.loads if kind == "lb" else el.hoisted.stores
            self.tally[n] = self.tally.get(n, 0) + 1

    def load(self, base: ast.Expr, index: ast.Expr) -> str:
        el = self.last_access = self.access(base, index)
        r = self.tmp()
        self.emit(f"{r} = {el.cells}[{el.k}]")
        self.charge("lb", el)
        self.pending += 1
        return r

    def put(self, el: Elem, v: str, value: ast.Expr) -> None:
        self.charge("sb", el)
        f = el.is_float
        t = expr_type(value)
        if t is not None and t.is_pointer:
            conv = v
        elif self.is_float(value):
            conv = f"{v} if {f} else int({v})"
        elif self.is_int(value):
            conv = f"float({v}) if {f} else {v}"
        else:
            conv = f"float({v}) if {f} else int({v})"
        self.emit(f"{el.cells}[{el.k}] = {conv}")

    def store(self, target: ast.Index, v: str, value: ast.Expr) -> None:
        """``target = v`` where ``v`` was already evaluated."""
        with self.capture() as cap:
            el = self.access(target.base, target.index)
        if cap["lines"] and not (self.stable(v) or self.kept(v, cap["lines"])):
            v = self.spill(v)
        self.lines.extend(cap["lines"])
        self.put(el, v, value)

    def reaccess(self, target: ast.Index, el: Elem) -> Elem:
        """The store half of a read-modify-write evaluates base and index
        again; when both are pure only their op counts repeat and the
        checked access is reused."""
        if self.pure(target.base) and self.pure(target.index):
            pending = self.pending
            with self.capture() as cap:
                self.expr(target.base)
                self.expr(target.index)
            if not cap["lines"]:
                return el
            self.pending = pending  # the code above is discarded
        return self.access(target.base, target.index)

    def elem_ref(self, operand: ast.Index) -> str:
        p = self.pointer(operand.base, NULL_ELEM)
        p, i = self.index(p, operand.index)
        return f"{p}.offset_by({i})"

    def atomic(self, name: str, args: List[str]) -> str:
        ref = self.spill_atom(args[0]) if args else "None"
        value = args[1] if len(args) > 1 else "0"
        if name not in ATOMIC_UPDATE and name != "atomicCAS":
            self.emit(f"raise InterpreterError({f'atomic {name!r} not implemented'!r})")
            return "None"
        fn = self.mod.bind("B_atomic", "_atomic_cell")
        old, cell = self.tmp(), self.tmp()
        self.emit(f"{cell} = {fn}({ref}, {name!r})")
        self.emit(f"{old} = {cell}[0]")
        self.count("at", "1")
        self.count("sb", "4")
        if name == "atomicCAS":
            cmp_, val = args[1], args[2]
            self.emit(f"if {old} == {cmp_}: {cell}[1]({val})")
        else:
            new = ATOMIC_UPDATE[name].format(old=old, v=value)
            self.emit(f"{cell}[1]({new})")
        return old

    def atomic_elem(self, e: ast.Call, target: ast.Index) -> str:
        """``atomicOp(&a[i], ...)`` on the element directly."""
        h = self.resolved(target.base, [target.index] + e.args[1:], NULL_ELEM)
        if h is not None:
            k = self.hoisted_index(h, target.index)
            args = self.ordered(e.args[1:])
            self.faulting(f"not 0 <= {k} < {h.n}", h.fault_call(k, NULL_ELEM))
            cells, f = h.cells, h.is_float
        else:
            p = self.pointer(target.base, NULL_ELEM)
            p, i = self.index(p, target.index)
            b, k = self.tmp(), self.tmp()
            self.emit(f"{b} = {p}.buf")
            self.emit(f"{k} = {p}.off + {i}")
            args = self.ordered(e.args[1:])
            self.fault()
            if self.space == "dyn":
                self.dynamic = True
                sp, dev = "SP", "DEV"
            else:
                sp, dev = "'device'", "True"
            self.emit(
                f"if {b}.space != {sp} or {b}.freed or {k} < 0 or {k} >= {b}.length: "
                f"{b} = chk({b}, {k}, {dev})"
            )
            cells, f = f"{b}.cells", f"{b}.is_float"
        old = self.tmp()
        self.emit(f"{old} = {cells}[{k}]")
        self.count("at", "1")
        self.count("sb", "4")
        if e.callee == "atomicCAS":
            new = args[1]
            self.emit(f"if {old} == {args[0]}: "
                      f"{cells}[{k}] = float({new}) if {f} else int({new})")
        else:
            new = ATOMIC_UPDATE[e.callee].format(old=old, v=args[0] if args else "0")
            self.emit(f"{cells}[{k}] = float({new}) if {f} else int({new})")
        return old
