"""OpenMP regions in generated guest code.

The mixin :class:`RegionEmitter` writes the code for ``#pragma omp``
statements into the function that holds them: ``target data`` and serial
``target`` regions (maps entered and left, counters recorded on the way
out), ``target`` loops whose canonical nest runs as Python ``while``
loops, and host ``parallel`` regions.  It relies on the expression and
statement emission of :class:`repro.interp.codegen._Emitter`.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.interp.analysis import is_target_loop, loop_symbol, nest_levels
from repro.minilang import ast
from repro.minilang.source import Dialect

#: Default parallel widths for OpenMP offload directives that do not spell
#: out full ``teams distribute parallel for`` parallelism.
OMP_DIRECTIVE_WIDTH = {
    "target teams distribute parallel for": None,  # full width
    "target parallel for": 1024,                   # one team
    "target teams distribute": 216,                # one thread per team
    "target": 1,                                   # serial on device
}


class Frame:
    """One control-flow construct the emitter is inside of."""

    __slots__ = ("kind", "cont", "exits")

    def __init__(self, kind: str, cont=None) -> None:
        #: loop | thread | nest | region | try | func | gen
        self.kind = kind
        #: emits a guest ``continue`` of this loop (step, then ``continue``)
        self.cont = cont
        #: exits raised through this frame (thread/nest/region catch them)
        self.exits: Set[str] = set()


class RegionEmitter:
    """``#pragma omp`` emission, mixed into the statement emitter."""

    def pragma(self, s: ast.Pragma) -> None:
        pragma = s.pragma
        if self.prog.dialect is Dialect.CUDA:
            if s.body is not None:
                self.stmt(s.body)
            return
        d = pragma.directive
        if d == "target data":
            self.target_data(s)
        elif is_target_loop(s):
            self.target_loop(s)
        elif d == "target":
            self.target_serial(s)
        elif d in ("parallel for", "parallel"):
            self.host_parallel(s)
        elif d == "atomic":
            self.count("at", "1")
            self.stmt(s.body)
        elif s.body is not None and d != "barrier":
            self.stmt(s.body)

    def maps_enter(self, pragma: ast.OmpPragma) -> List[Tuple[str, ast.MapClause]]:
        entered = []
        for mc in pragma.maps:
            if mc.symbol is None or not mc.symbol.type.is_pointer:
                continue  # scalar maps are firstprivate-ish: no transfer cost
            p = self.spill(self.local(mc.symbol))
            self.fault()
            self.emit(
                f"if {p} is None: raise GuestRuntimeError(SEGV, "
                f"detail={f'map clause names NULL pointer {mc.name!r}'!r})"
            )
            m = self.tmp()
            self.emit(f"{m} = {p}.buf if {p}.__class__ is Pointer else None")
            self.emit(f"if {m} is not None:")
            self.ind += 1
            mv = self.tmp()
            self.emit(f"{mv} = mem.map_enter({m}, {mc.kind!r})")
            self.block(f"if {mv}:", lambda m=m, mv=mv, mc=mc: self.transfer(m, mv, mc, "h2d"))
            self.ind -= 1
            entered.append((m, mc))
        return entered

    def transfer(self, m: str, mv: str, mc: ast.MapClause, direction: str) -> None:
        if mc.length is not None:
            n = self.expr(mc.length)
            sec = f"int({n}) * {m}.elem_bytes"
        else:
            sec = f"{m}.nbytes"
        s = self.tmp()
        self.emit(f"{s} = {sec}")
        self.emit(
            f"ev(TransferEvent(bytes=min({mv}, {s}) if {s} else {mv}, "
            f"direction={direction!r}, api='omp'))"
        )

    def maps_exit(self, entered) -> None:
        for m, mc in reversed(entered):
            mv = self.tmp()

            def body(m=m, mv=mv, mc=mc):
                self.emit(f"{mv} = mem.map_exit({m})")
                self.block(f"if {mv}:", lambda: self.transfer(m, mv, mc, "d2h"))

            self.block(f"if {m} is not None:", body)

    def region(self, exact: bool, space: Optional[str]):
        """Open a region with its own counters and accumulators.

        Returns the counters temp and four emission callbacks: ``enter``
        and ``leave`` switch the emitter into and out of the region (whose
        accesses hoist nothing of an enclosing launch's, and whose body's
        leading block runs once), ``restore`` puts back the ambient
        counters (and space), ``settle`` adds the region's accumulators and
        blocks, and the access counts of the pointers it hoisted, to its
        counters, and zeroes what they read where the region opens.
        """
        self.flush()
        self.nacc += 1
        acc = str(self.nacc)
        c, pc, ps = self.tmp(), self.tmp(), self.tmp()
        self.emit(f"{c} = OpCounters()")
        # The locals its counts go to start at 0 here (once they are known).
        zero = (self.lines, len(self.lines), "    " * self.ind)
        self.emit(f"{pc} = ctx.counters")
        saved = (self.acc, self.exact, self.space, self.hoisted)
        if space is not None:
            self.emit(f"{ps} = ctx.space")
        self.emit(f"ctx.counters = {c}")
        if space is not None:
            self.emit("ctx.space = 'device'")

        def enter():
            self.acc, self.exact, self.hoisted = acc, exact, {}
            if space is not None:
                self.space = space
            if self.blocked:
                self.known = "1"  # the body's leading block runs once

        def leave():
            self.flush()
            self.acc, self.exact, self.space, self.hoisted = saved

        def restore():
            self.emit(f"ctx.counters = {pc}")
            if space is not None:
                self.emit(f"ctx.space = {ps}")

        def settle(hoisted=()):
            lines, at, pad = zero
            zeroed = self.zeroed(acc, hoisted)
            if zeroed:
                lines.insert(at, pad + " = ".join(zeroed) + " = 0")
            for line in self.charges(c, acc, hoisted):
                self.emit(line)

        return c, enter, leave, restore, settle

    def target_data(self, s: ast.Pragma) -> None:
        entered = self.maps_enter(s.pragma)
        self.flush()
        self.frames.append(Frame("try"))
        self.block("try:", lambda: self.stmt(s.body) if s.body is not None else None)
        self.frames.pop()
        self.block("finally:", lambda: self.maps_exit(entered))

    def target_serial(self, s: ast.Pragma) -> None:
        entered = self.maps_enter(s.pragma)
        c, enter, leave, restore, settle = self.region(exact=True, space="omp")
        self.frames.append(Frame("try"))

        def body():
            enter()
            if s.body is not None:
                self.stmt(s.body)
            leave()

        self.block("try:", body)
        self.frames.pop()

        def final():
            restore()
            settle()
            self.emit(
                f"ev(KernelEvent(name='<target>', total_threads=1, block_size=1, "
                f"counters={c}, api='omp', parallel_limit=1, path='omp'))"
            )
            self.maps_exit(entered)

        self.block("finally:", final)

    def reduction_enter(self, pragma: ast.OmpPragma) -> List[Tuple[str, str]]:
        red = pragma.reduction
        saved = []
        if red is None:
            return saved
        ident = self.mod.const(red.op, "R")
        for sym in red.symbols:
            if sym is None or sym.is_global:
                continue  # a non-local reduces into a slot nothing reads
            lv = self.local(sym)
            sv = self.tmp()
            self.emit(f"{sv} = {lv}")
            self.emit(f"{lv} = _IDENTITY[{ident}]")
            saved.append((lv, sv))
        return saved

    def target_loop(self, s: ast.Pragma) -> None:
        """A ``target`` loop nest.  Where no map clause or call in it can
        free or remap a buffer, each pointer local it dereferences but
        never writes is resolved once, before the nest.  The nest charges
        its steps to the step budget local of the function that holds it."""
        pragma = s.pragma
        entered = self.maps_enter(pragma)
        c, enter, leave, restore, settle = self.region(exact=False, space="omp")
        saved = self.reduction_enter(pragma)
        cnt = self.tmp()
        hoisted, resolve = self.hoist(self.hoistable(self.prog.loop_bodies[id(s.body)]))
        for line in resolve:
            self.emit(line)

        def body():
            enter()
            self.hoisted = hoisted
            self.emit(f"{cnt} = 0")
            self.nest(s.body, pragma.collapse, cnt)
            leave()

        self.frames.append(Frame("try"))
        self.block("try:", body)
        self.frames.pop()
        self.block("finally:", restore)
        settle(hoisted.values())
        red = pragma.reduction
        for lv, sv in saved:
            self.emit(f"{lv} = _reduce_target({red.op!r}, {sv}, {lv})")
        limit = OMP_DIRECTIVE_WIDTH.get(pragma.directive)
        lim = repr(limit)
        for clause in (pragma.num_threads, pragma.thread_limit):
            if clause is not None:
                v = self.tmp()
                self.emit(f"{v} = int({self.expr(clause)})")
                if lim == "None":
                    lim = v
                else:
                    self.emit(f"{v} = min({lim}, {v})")
                    lim = v
        self.emit(
            f"ev(KernelEvent(name={f'<{pragma.directive}>'!r}, "
            f"total_threads=max(1, {cnt}), block_size=min(256, max(1, {cnt})), "
            f"counters={c}, api='omp', parallel_limit={lim}, path='omp'))"
        )
        self.maps_exit(entered)

    def nest(self, loop: ast.For, collapse: int, cnt: str) -> None:
        levels = nest_levels(loop, collapse)
        if not levels:
            # Non-canonical (should have been rejected): run it plainly.
            frame = Frame("nest")
            self.frames.append(frame)
            self.catching(frame, "_NestExit", lambda: self.stmt(loop))
            self.frames.pop()
            self.emit(f"{cnt} = 1")
            return
        self.level(levels, 0, cnt)

    def level(self, levels, depth: int, cnt: str) -> None:
        loop, (_var, start, cmp, bound, (sign, dexpr)) = levels[depth]
        n, bnd, d = self.tmp(), self.tmp(), self.tmp()
        self.emit(f"{n} = {self.expr(start)}")
        self.emit(f"{bnd} = {self.expr(bound)}")
        if dexpr is None:
            d = str(sign)
        else:
            x = self.expr(dexpr)
            self.emit(f"{d} = {'' if sign > 0 else '-'}int({x})")
        self.split()
        sym = loop_symbol(loop)
        if isinstance(loop.init, ast.VarDecl) and sym in self.prog.addressed:
            self.declare_cell(sym)
        lv = self.local(sym)
        innermost = depth + 1 == len(levels)

        def advance():
            if innermost:
                self.emit(f"{cnt} += 1")
            self.emit(f"{n} += {d}")

        def cont():
            self.flush()
            advance()
            self.emit("continue")

        def body():
            self.steps()
            if lv is not None:
                self.emit(f"{lv} = {n}")
            if innermost:
                if self.blocked and self.prog.exits(loop.body) <= {"continue"}:
                    # The iteration's leading block runs once per count.
                    self.known = cnt
                frame = Frame("nest", cont)
                self.frames.append(frame)
                self.catching(frame, "_NestExit", lambda: self.stmt(loop.body),
                              on_exit="break")
                self.frames.pop()
            else:
                self.level(levels, depth + 1, cnt)
            self.flush()
            advance()

        with self.scope():
            self.block(f"while {n} {cmp} {bnd}:", body)

    def host_parallel(self, s: ast.Pragma) -> None:
        pragma = s.pragma
        c, enter, leave, restore, settle = self.region(exact=False, space=None)
        saved = self.reduction_enter(pragma)
        frame = Frame("region")
        x = self.tmp()
        self.emit(f"{x} = None")

        def body():
            enter()
            if s.body is not None:
                self.stmt(s.body)
            leave()

        self.frames.append(frame)
        self.block("try:", body)
        self.frames.pop()
        if frame.exits:
            self.emit("except _RegionExit as _e:")
            self.emit(f"    {x} = _e")
        self.block("finally:", restore)
        settle()
        red = pragma.reduction
        for lv, sv in saved:
            self.emit(f"{lv} = _reduce_host({red.op!r}, {sv}, {lv})")
        threads = "64"
        if pragma.num_threads is not None:
            threads = self.tmp()
            self.emit(f"{threads} = max(1, int({self.expr(pragma.num_threads)}))")
        self.emit(f"ev(HostParallelEvent(counters={c}, num_threads={threads}))")
        self.flush()
        for kind in sorted(frame.exits):
            if kind == "return":
                self.block(f"if {x} is not None and {x}.kind == 'return':",
                           lambda: self.do_return(f"{x}.value"))
            else:
                self.block(f"if {x} is not None and {x}.kind == {kind!r}:",
                           lambda kind=kind: self.jump(kind))
