"""Rule-based bi-directional CUDA <-> OpenMP-offload transpiler.

This is the "competence" inside :class:`repro.llm.simulated.SimulatedLLM`:
a genuine source-to-source translator over the mini-language, built from the
same patterns an LLM applies when translating HeCBench codes —

* OpenMP -> CUDA: ``target teams distribute parallel for`` loops become
  ``__global__`` kernels with a guarded thread-index body; map clauses and
  data regions become ``cudaMalloc``/``cudaMemcpy`` staging (hoisted out of
  loops, the way competent translations in the paper behave); reductions
  become atomicAdd accumulator buffers.
* CUDA -> OpenMP: kernels matching the canonical ``int i = blockIdx.x *
  blockDim.x + threadIdx.x; if (i < n) {...}`` shape are folded back into
  parallel loops; staging collapses into a ``target data`` region (smart
  style) or per-loop map clauses (literal style); every one-cell buffer a
  launch only ``atomicAdd``s into becomes a scalar, all of a launch's listed
  in one ``reduction(+: ...)`` clause, and the host pointers each cell is
  copied back into read its scalar instead.

:class:`TranspileOptions` carries the per-model style knobs (naming, block
size, data-region usage, loop-invariant hoisting, formatting) that make
different "LLMs" produce visibly different — yet equivalent — translations,
which is what spreads the paper's Sim-T/Sim-L similarity and runtime-Ratio
metrics across models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.errors import ReproError
from repro.llm.analysis import (
    AccessInfo,
    collect_identifiers,
    collect_local_types,
    declared_names,
    pointer_access_kinds,
    substitute,
)
from repro.minilang import ast
from repro.minilang import types as ty
from repro.minilang.builtins import BUILTINS, CONSTANTS, GEOMETRY_BUILTINS
from repro.minilang.codegen import CodegenStyle, generate
from repro.minilang.semantics import canonical, sole_inner_for
from repro.minilang.source import Dialect, SourceFile
from repro.toolchain.compiler import parse_once


class TranspileError(ReproError):
    """The source is outside the transpiler's supported pattern set."""


@dataclass(frozen=True)
class TranspileOptions:
    """Style knobs; each simulated model carries its own combination."""

    #: Prefix for synthesized device pointers in OMP->CUDA output.
    device_prefix: str = "d_"
    #: Kernel naming scheme: "{stem}_kernel", "kernel_{i}", "k_{stem}".
    kernel_name_template: str = "{stem}_kernel"
    #: Thread-block size used for generated launches.
    block_size: int = 256
    #: CUDA->OMP: wrap the device phase in one `target data` region instead
    #: of per-loop map clauses.  OMP->CUDA translation ignores it.
    use_data_region: bool = True
    #: Hoist a loop whose body is loop-invariant (idempotent re-launch) out
    #: of its repetition loop.  Mirrors LLM translations that drop
    #: benchmark-timing repetitions.
    hoist_invariant_repeat: bool = False
    #: Name used for generated flat loop indices.
    loop_var: str = "i"
    #: CUDA->OMP: privatize array atomics — each device iteration handles a
    #: chunk with a local histogram merged with few atomics.  Mirrors the
    #: paper's §V-D DeepSeek/atomicCost anecdote ("fewer atomic operations",
    #: large speedup with identical output).
    privatize_atomics: bool = False
    #: Systematic identifier renaming ("suffix" | "verbose" | None).  Models
    #: with a renaming scheme produce structurally identical but lexically
    #: divergent code — the dominant driver of low Sim-T/Sim-L scores.
    rename_scheme: Optional[str] = None
    #: C89-style restructuring: hoist top-level declarations of each host
    #: function to the top of the body, leaving assignments in place.  A
    #: common LLM "house style" that lowers similarity without changing
    #: semantics.
    hoist_decls: bool = False
    #: Code formatting.
    codegen: CodegenStyle = field(default_factory=CodegenStyle)


#: Iterations per device iteration in the privatized-atomics rewrite.
_PRIVATIZE_CHUNK = 64


def _int_lit(v: int) -> ast.IntLit:
    return ast.IntLit(value=v, text=str(v))


def _ident(name: str) -> ast.Ident:
    return ast.Ident(name=name)


def _mul(a: ast.Expr, b: ast.Expr) -> ast.Expr:
    return ast.Binary(op="*", left=a, right=b)


def _sizeof(t: ty.Type) -> ast.SizeOf:
    return ast.SizeOf(type=ty.Type(t.kind, 0))


def _call(name: str, *args: ast.Expr) -> ast.Call:
    return ast.Call(callee=name, args=list(args))


def _expr_stmt(e: ast.Expr) -> ast.ExprStmt:
    return ast.ExprStmt(expr=e)


def _parse_source(text: str, dialect: Dialect) -> ast.Program:
    """The program of ``text``, from the compiler's parse memo.

    The baseline build has usually parsed this text already; the program is
    shared with the compiler, so every pass below copies what it rewrites.
    """
    program, diags = parse_once(SourceFile("input", text, dialect))
    if diags.has_errors:
        raise TranspileError(
            "source program does not parse:\n" + diags.render()
        )
    return program


def _counting_loop(var: str, bound: ast.Expr, body: List[ast.Stmt]) -> ast.For:
    """``for (int var = 0; var < bound; var++) { body }``."""
    return ast.For(
        init=ast.VarDecl(type=ty.INT, name=var, init=_int_lit(0)),
        cond=ast.Binary(op="<", left=_ident(var), right=bound),
        step=ast.Postfix(op="++", operand=_ident(var)),
        body=ast.Block(stmts=body),
    )


#: What a ``_rewrite_stmts`` callback returns: a statement, a list of them,
#: or None.
_Rewritten = Union[None, ast.Stmt, List[ast.Stmt]]


def _rewrite_stmts(
    body: ast.Stmt, rewrite: Callable[[ast.Stmt], _Rewritten]
) -> ast.Block:
    """Replace statements under ``body`` in place, and return it as a block.

    ``rewrite(stmt)`` returns a replacement statement or list of statements,
    or None to keep ``stmt`` and visit what it holds.  A list is spliced into
    the enclosing statement list, and braced when it fills an arm.  Every
    statement list and every arm of an ``if`` or a loop is visited, braced or
    not, ``else if`` included; pragma bodies, ``for`` initialisers and
    replacements are not.
    """

    def visit(stmt: ast.Stmt) -> Union[ast.Stmt, List[ast.Stmt]]:
        new = rewrite(stmt)
        if new is not None:
            return new
        if isinstance(stmt, ast.Block):
            stmts: List[ast.Stmt] = []
            for s in stmt.stmts:
                new = visit(s)
                if isinstance(new, list):
                    stmts.extend(new)
                else:
                    stmts.append(new)
            stmt.stmts = stmts
        elif isinstance(stmt, ast.If):
            stmt.then = arm(stmt.then)
            if stmt.other is not None:
                stmt.other = arm(stmt.other)
        elif isinstance(stmt, (ast.For, ast.While, ast.DoWhile)):
            stmt.body = arm(stmt.body)
        return stmt

    def arm(stmt: ast.Stmt) -> ast.Stmt:
        new = visit(stmt)
        return ast.Block(stmts=new) if isinstance(new, list) else new

    block = body if isinstance(body, ast.Block) else ast.Block(stmts=[body])
    visit(block)
    return block


def _rewrite_clone(
    stmt: ast.Stmt, rewrite: Callable[[ast.Stmt], _Rewritten]
) -> List[ast.Stmt]:
    """The statements replacing ``stmt``: a clone of it, rewritten in place
    by ``_rewrite_stmts``.  ``stmt`` itself, which the parse memo shares,
    is left as it is."""
    return _rewrite_stmts(ast.Block(stmts=[ast.clone(stmt)]), rewrite).stmts


def _rename_head(stmt: ast.Stmt, rename: Dict[str, str]) -> None:
    """Rename in the parts of ``stmt`` that ``_rewrite_stmts`` does not
    visit: an ``if``'s condition, a loop's header, nothing of a block, and
    all of any other statement."""
    if isinstance(stmt, ast.For):
        parts = (stmt.init, stmt.cond, stmt.step)
    elif isinstance(stmt, (ast.If, ast.While, ast.DoWhile)):
        parts = (stmt.cond,)
    elif isinstance(stmt, ast.Block):
        parts = ()
    else:
        parts = (stmt,)
    for part in parts:
        if part is not None:
            substitute(part, rename)


def _device_span(top: List[ast.Stmt], offloads: Callable[[ast.Stmt], bool],
                 missing: str) -> Tuple[int, int]:
    """Indices of the first and last statement of ``top`` that ``offloads``;
    raises ``TranspileError(missing)`` when none does."""
    hits = [i for i, stmt in enumerate(top) if offloads(stmt)]
    if not hits:
        raise TranspileError(missing)
    return hits[0], hits[-1]


def _malloc_target(call: ast.Call) -> Optional[str]:
    """The pointer ``cudaMalloc(&p, ...)`` (or ``(void**)&p``) allocates."""
    target = call.args[0]
    if isinstance(target, ast.Cast):
        target = target.operand
    if isinstance(target, ast.Unary) and target.op == "&" and isinstance(
        target.operand, ast.Ident
    ):
        return target.operand.name
    return None


def _unit_loop(loop: ast.For) -> Optional[Tuple[str, ast.Expr, ast.Expr]]:
    """(var, start, bound) of ``for (int v = start; v < bound; v++)``.

    The step may also be ``++v`` or ``v += 1``; every other canonical form
    (another bound test or step, an assignment initialiser) is refused.
    """
    parts = canonical(loop)
    if parts is None or not isinstance(loop.init, ast.VarDecl):
        return None
    var, start, cmp, bound, (sign, step) = parts
    unit = step is None or (
        loop.step.op == "+=" and isinstance(step, ast.IntLit) and step.value == 1
    )
    if cmp != "<" or sign != 1 or not unit:
        return None
    return var, start, bound


# =====================================================================
# OMP -> CUDA
# =====================================================================


@dataclass
class _ArrayRecord:
    name: str
    elem: ty.Type
    length: Optional[ast.Expr]
    to: bool = False
    frm: bool = False


class _Omp2Cuda:
    def __init__(self, program: ast.Program, options: TranspileOptions) -> None:
        self.src = program
        self.opt = options
        self.kernels: List[ast.FuncDef] = []
        self.kernel_count = 0

    # ------------------------------------------------------------------
    def run(self) -> ast.Program:
        out = ast.Program()
        for gv in self.src.globals:
            out.globals.append(ast.clone(gv))
        for fn in self.src.functions:
            new_fn = self._transform_function(fn)
            out.functions.append(new_fn)
        # Kernels go first, C-style.
        out.functions = self.kernels + out.functions
        return out

    # ------------------------------------------------------------------
    def _transform_function(self, fn: ast.FuncDef) -> ast.FuncDef:
        self.var_types = collect_local_types(fn)
        body = fn.body

        # Phase A: find device arrays (from map clauses anywhere within).
        targets = [
            s for s in ast.walk_stmts(body)
            if isinstance(s, ast.Pragma) and s.pragma.is_target
        ]
        if not targets:
            return ast.clone(fn)
        records: Dict[str, _ArrayRecord] = {}
        for stmt in targets:
            for mc in stmt.pragma.maps:
                t = self.var_types.get(mc.name)
                if t is None or not t.is_pointer or mc.length is None:
                    continue
                rec = records.get(mc.name)
                if rec is None:
                    rec = _ArrayRecord(
                        name=mc.name, elem=t.pointee(), length=ast.clone(mc.length)
                    )
                    records[mc.name] = rec
                if mc.kind in ("to", "tofrom"):
                    rec.to = True
                if mc.kind in ("from", "tofrom"):
                    rec.frm = True
        # Arrays touched inside device loops without explicit maps (data
        # region case covers them; keep union of kinds from access analysis).
        for stmt in targets:
            if stmt.body is not None:
                for name, acc in pointer_access_kinds(stmt.body).items():
                    t = self.var_types.get(name)
                    if t is None or not t.is_pointer:
                        continue
                    rec = records.get(name)
                    if rec is None:
                        continue  # length unknown: must come from a map
                    if acc.read:
                        rec.to = True
                    if acc.written:
                        rec.frm = True

        self.records = records
        self.rename = {name: self.opt.device_prefix + name for name in records}
        self.fn_stem = fn.name

        new_body = ast.Block()
        top = list(body.stmts)
        first, last = _device_span(top, self._offloads, "no target construct found")
        for i, stmt in enumerate(top):
            if i == first:
                new_body.stmts.extend(self._staging_prologue())
            if first <= i <= last:
                new_body.stmts.extend(_rewrite_clone(stmt, self._device_phase_stmt))
            else:
                new_body.stmts.append(ast.clone(stmt))
            if i == last:
                new_body.stmts.extend(self._staging_epilogue())
        return ast.FuncDef(
            return_type=fn.return_type,
            name=fn.name,
            params=[ast.clone(p) for p in fn.params],
            body=new_body,
            qualifier=None,
        )

    @staticmethod
    def _offloads(stmt: ast.Stmt) -> bool:
        """Does ``stmt`` hold a target construct?"""
        return any(
            isinstance(s, ast.Pragma) and s.pragma.is_target
            for s in ast.walk_stmts(stmt)
        )

    def _staging_prologue(self) -> List[ast.Stmt]:
        out: List[ast.Stmt] = []
        for rec in self.records.values():
            dname = self.rename[rec.name]
            decl = ast.VarDecl(type=rec.elem.pointer_to(), name=dname)
            out.append(decl)
            size = _mul(ast.clone(rec.length), _sizeof(rec.elem))
            out.append(_expr_stmt(_call(
                "cudaMalloc",
                ast.Unary(op="&", operand=_ident(dname)),
                size,
            )))
            if rec.to:
                out.append(_expr_stmt(_call(
                    "cudaMemcpy",
                    _ident(dname),
                    _ident(rec.name),
                    _mul(ast.clone(rec.length), _sizeof(rec.elem)),
                    _ident("cudaMemcpyHostToDevice"),
                )))
        return out

    def _staging_epilogue(self) -> List[ast.Stmt]:
        out: List[ast.Stmt] = []
        for rec in self.records.values():
            dname = self.rename[rec.name]
            if rec.frm:
                out.append(_expr_stmt(_call(
                    "cudaMemcpy",
                    _ident(rec.name),
                    _ident(dname),
                    _mul(ast.clone(rec.length), _sizeof(rec.elem)),
                    _ident("cudaMemcpyDeviceToHost"),
                )))
        out.append(_expr_stmt(_call("cudaDeviceSynchronize")))
        for rec in self.records.values():
            out.append(_expr_stmt(_call("cudaFree", _ident(self.rename[rec.name]))))
        return out

    # ------------------------------------------------------------------
    def _device_phase_stmt(self, stmt: ast.Stmt) -> _Rewritten:
        """``_rewrite_stmts`` callback over the device phase: target loops
        become launches, data regions are unwrapped, host pragmas dropped."""
        if isinstance(stmt, ast.Pragma):
            pragma = stmt.pragma
            if pragma.directive == "target data":
                return _rewrite_stmts(stmt.body, self._device_phase_stmt).stmts
            if pragma.is_target and pragma.is_loop and isinstance(stmt.body, ast.For):
                return self._emit_launch(pragma, stmt.body)
            if pragma.is_target:
                raise TranspileError(
                    f"unsupported target construct '{pragma.directive}'"
                )
            # Host pragma: drop the pragma, keep the statement.
            return stmt.body if stmt.body is not None else []
        # Host statements inside the device phase: pointer swaps and
        # friends must act on the device pointers.
        _rename_head(stmt, self.rename)
        return None

    # ------------------------------------------------------------------
    def _emit_launch(self, pragma: ast.OmpPragma, loop: ast.For) -> List[ast.Stmt]:
        outer = _unit_loop(loop)
        if outer is None:
            raise TranspileError("loop after target directive is not canonical")
        var, start, bound = outer
        inner = None
        body = loop.body
        if pragma.collapse >= 2:
            inner_for = sole_inner_for(loop.body)
            if inner_for is None:
                raise TranspileError("collapse(2) without a perfect nest")
            inner = _unit_loop(inner_for)
            if inner is None:
                raise TranspileError("inner collapsed loop is not canonical")
            body = inner_for.body

        # Reduction handling: rewrite `s += e;` into atomicAdd on a buffer.
        reduction_names: List[str] = []
        red_types: Dict[str, ty.Type] = {}
        if pragma.reduction is not None:
            if pragma.reduction.op != "+":
                raise TranspileError(
                    f"unsupported reduction operator '{pragma.reduction.op}'"
                )
            reduction_names = list(pragma.reduction.names)
            for rname in reduction_names:
                red_types[rname] = self.var_types.get(rname, ty.DOUBLE)
            body = self._rewrite_reduction_body(body, reduction_names)

        # `#pragma omp atomic` -> atomicAdd
        body = self._rewrite_atomics(body)

        # Parameters: free identifiers minus locals/builtins/loop vars.
        free = collect_identifiers(body)
        levels = [outer] + ([inner] if inner else [])
        for _, level_start, level_bound in levels:
            free |= collect_identifiers(level_start) | collect_identifiers(level_bound)
        local = declared_names(body)
        loop_vars = {level_var for level_var, _, _ in levels}
        params: List[str] = []
        for name in sorted(free):
            if name in local or name in loop_vars:
                continue
            if name in BUILTINS or name in CONSTANTS or name in GEOMETRY_BUILTINS:
                continue
            if self.src.function(name) is not None:
                continue
            if name in self.var_types:
                params.append(name)

        kname = self._kernel_name()
        kparams = []
        args: List[ast.Expr] = []
        for name in params:
            t = self.var_types[name]
            kparams.append(ast.Param(type=t, name=name))
            args.append(_ident(self.rename.get(name, name)))
        # Reduction buffers become extra pointer params.
        for rname in reduction_names:
            kparams.append(ast.Param(type=red_types[rname].pointer_to(), name=rname + "_sum"))

        # Kernel body: flat index + guard.
        lv = self.opt.loop_var
        kbody = ast.Block()
        idx_expr = ast.Binary(
            op="+",
            left=_mul(
                ast.Member(obj=_ident("blockIdx"), field_name="x"),
                ast.Member(obj=_ident("blockDim"), field_name="x"),
            ),
            right=ast.Member(obj=_ident("threadIdx"), field_name="x"),
        )
        if inner is None:
            start_is_zero = isinstance(start, ast.IntLit) and start.value == 0
            if not start_is_zero:
                idx_expr = ast.Binary(op="+", left=idx_expr, right=ast.clone(start))
            kbody.stmts.append(ast.VarDecl(type=ty.INT, name=lv, init=idx_expr))
            guard = ast.Binary(op="<", left=_ident(lv), right=ast.clone(bound))
            mapping = {var: lv}
            substitute(body, mapping)
            total_expr: ast.Expr = (
                ast.clone(bound)
                if start_is_zero
                else ast.Binary(op="-", left=ast.clone(bound), right=ast.clone(start))
            )
        else:
            inner_var, _, inner_bound = inner
            kbody.stmts.append(ast.VarDecl(type=ty.INT, name=lv, init=idx_expr))
            n2 = ast.clone(inner_bound)
            kbody.stmts.append(ast.VarDecl(
                type=ty.INT, name=var,
                init=ast.Binary(op="/", left=_ident(lv), right=ast.clone(n2)),
            ))
            kbody.stmts.append(ast.VarDecl(
                type=ty.INT, name=inner_var,
                init=ast.Binary(op="%", left=_ident(lv), right=ast.clone(n2)),
            ))
            total_expr = _mul(ast.clone(bound), ast.clone(inner_bound))
            guard = ast.Binary(op="<", left=_ident(lv), right=ast.clone(total_expr))
        kbody.stmts.append(ast.If(cond=guard, then=body))

        kernel = ast.FuncDef(
            return_type=ty.VOID, name=kname, params=kparams, body=kbody,
            qualifier="__global__",
        )
        self.kernels.append(kernel)

        # Launch site (+ reduction staging).
        out: List[ast.Stmt] = []
        block = _int_lit(self.opt.block_size)
        grid = ast.Binary(
            op="/",
            left=ast.Binary(
                op="+", left=ast.clone(total_expr),
                right=_int_lit(self.opt.block_size - 1),
            ),
            right=_int_lit(self.opt.block_size),
        )
        launch_args = list(args)
        for rname in reduction_names:
            rtype = red_types[rname]
            dbuf = self.opt.device_prefix + rname + "_sum"
            out.append(ast.VarDecl(type=rtype.pointer_to(), name=dbuf))
            out.append(_expr_stmt(_call(
                "cudaMalloc", ast.Unary(op="&", operand=_ident(dbuf)), _sizeof(rtype)
            )))
            out.append(_expr_stmt(_call(
                "cudaMemset", _ident(dbuf), _int_lit(0), _sizeof(rtype)
            )))
            launch_args.append(_ident(dbuf))
        out.append(_expr_stmt(ast.Launch(
            kernel=kname, grid=grid, block=block, args=launch_args
        )))
        for rname in reduction_names:
            rtype = red_types[rname]
            dbuf = self.opt.device_prefix + rname + "_sum"
            hbuf = rname + "_host"
            out.append(ast.VarDecl(
                type=rtype.pointer_to(), name=hbuf,
                init=ast.Cast(
                    type=rtype.pointer_to(),
                    operand=_call("malloc", _sizeof(rtype)),
                ),
            ))
            out.append(_expr_stmt(_call(
                "cudaMemcpy", _ident(hbuf), _ident(dbuf), _sizeof(rtype),
                _ident("cudaMemcpyDeviceToHost"),
            )))
            out.append(_expr_stmt(ast.Assign(
                op="+=", target=_ident(rname),
                value=ast.Index(base=_ident(hbuf), index=_int_lit(0)),
            )))
            out.append(_expr_stmt(_call("cudaFree", _ident(dbuf))))
            out.append(_expr_stmt(_call("free", _ident(hbuf))))
        return out

    @staticmethod
    def _rewrite_reduction_body(body: ast.Stmt, names: List[str]) -> ast.Block:
        """Turn ``s += e;`` into ``atomicAdd(&s_sum[0], e);``."""

        def rewrite(s: ast.Stmt) -> Optional[ast.Stmt]:
            if not (
                isinstance(s, ast.ExprStmt)
                and isinstance(s.expr, ast.Assign)
                and isinstance(s.expr.target, ast.Ident)
                and s.expr.target.name in names
            ):
                return None
            rname = s.expr.target.name
            if s.expr.op == "+=":
                value = s.expr.value
            elif s.expr.op == "=" and (
                isinstance(s.expr.value, ast.Binary)
                and s.expr.value.op == "+"
                and isinstance(s.expr.value.left, ast.Ident)
                and s.expr.value.left.name == rname
            ):
                value = s.expr.value.right
            else:
                raise TranspileError(
                    f"reduction variable '{rname}' updated in an "
                    f"unsupported way"
                )
            return _expr_stmt(_call(
                "atomicAdd",
                ast.Unary(op="&", operand=ast.Index(
                    base=_ident(rname + "_sum"), index=_int_lit(0)
                )),
                value,
            ))

        return _rewrite_stmts(body, rewrite)

    @staticmethod
    def _rewrite_atomics(body: ast.Stmt) -> ast.Block:
        """Turn ``#pragma omp atomic`` + update into a CUDA atomic call."""

        def rewrite(s: ast.Stmt) -> Optional[ast.Stmt]:
            if not (isinstance(s, ast.Pragma) and s.pragma.directive == "atomic"):
                return None
            upd = s.body
            if not (
                isinstance(upd, ast.ExprStmt)
                and isinstance(upd.expr, ast.Assign)
                and upd.expr.op in ("+=", "-=")
                and isinstance(upd.expr.target, ast.Index)
            ):
                raise TranspileError("unsupported atomic update form")
            fn = "atomicAdd" if upd.expr.op == "+=" else "atomicSub"
            return _expr_stmt(_call(
                fn,
                ast.Unary(op="&", operand=ast.clone(upd.expr.target)),
                ast.clone(upd.expr.value),
            ))

        return _rewrite_stmts(body, rewrite)

    def _kernel_name(self) -> str:
        name = self.opt.kernel_name_template.format(
            stem=self.fn_stem if self.fn_stem != "main" else "compute",
            i=self.kernel_count,
        )
        if self.kernel_count and "{i}" not in self.opt.kernel_name_template:
            name = f"{name}{self.kernel_count + 1}"
        self.kernel_count += 1
        return name


# =====================================================================
# CUDA -> OMP
# =====================================================================


@dataclass
class _DeviceBuf:
    dname: str
    elem: ty.Type
    bytes_expr: ast.Expr
    host_alias: Optional[str] = None
    synth_name: Optional[str] = None
    h2d: bool = False
    d2h: bool = False
    read: bool = False
    #: single-cell accumulator recognized for reduction rewriting
    reduction_scalar: Optional[str] = None
    #: host pointers a device-to-host copy of this buffer fills
    host_copies: List[str] = field(default_factory=list)

    @property
    def host_name(self) -> str:
        return self.host_alias or self.synth_name or self.dname

    def length_expr(self) -> ast.Expr:
        """Element count from the byte-size expression."""
        e = self.bytes_expr
        if isinstance(e, ast.Binary) and e.op == "*":
            if isinstance(e.right, ast.SizeOf):
                return ast.clone(e.left)
            if isinstance(e.left, ast.SizeOf):
                return ast.clone(e.right)
        if isinstance(e, ast.SizeOf):
            return _int_lit(1)
        return ast.Binary(op="/", left=ast.clone(e), right=_sizeof(self.elem))

    @property
    def map_kind(self) -> str:
        to = self.h2d or (self.read and self.host_alias is not None)
        frm = self.d2h
        if to and frm:
            return "tofrom"
        if frm:
            return "from"
        if to:
            return "to"
        return "alloc"


class _Cuda2Omp:
    def __init__(self, program: ast.Program, options: TranspileOptions) -> None:
        self.src = program
        self.opt = options
        self.kernels = {f.name: f for f in program.functions if f.is_kernel}

    def run(self) -> ast.Program:
        out = ast.Program()
        for gv in self.src.globals:
            out.globals.append(ast.clone(gv))
        for fn in self.src.functions:
            if fn.is_kernel or fn.is_device:
                if fn.is_device:
                    plain = ast.clone(fn)
                    plain.qualifier = None
                    out.functions.append(plain)
                continue
            out.functions.append(self._transform_function(fn))
        return out

    # ------------------------------------------------------------------
    def _transform_function(self, fn: ast.FuncDef) -> ast.FuncDef:
        self.var_types = collect_local_types(fn)
        body = fn.body
        self.bufs: Dict[str, _DeviceBuf] = {}
        self._collect_buffers(body)
        if not self.bufs:
            return ast.clone(fn)
        top = body.stmts
        # Staging calls (cudaMalloc, cudaMemcpy, cudaFree, synchronize) do
        # not extend the span: the data region's entry and exit transfers
        # subsume them, and host reads of the results (checksum loops,
        # printf) stay outside the region, after its copy-back.
        first, last = _device_span(top, self._offloads, "no device phase found")
        exprs = ast.walk_exprs(body)
        self._fix_aliases(top, first, exprs)
        self._analyze_launches([e for e in exprs if isinstance(e, ast.Launch)])
        self._build_names()

        new_stmts: List[ast.Stmt] = []
        device_stmts: List[ast.Stmt] = []
        for i, stmt in enumerate(top):
            inside = first <= i <= last
            (device_stmts if inside else new_stmts).extend(
                self._translate_host(stmt, inside)
            )
            if i == last:
                new_stmts.extend(self._wrap_device_phase(device_stmts))
        new_body = ast.Block(stmts=new_stmts)
        return ast.FuncDef(
            return_type=fn.return_type, name=fn.name,
            params=[ast.clone(p) for p in fn.params], body=new_body, qualifier=None,
        )

    # -- phase A -----------------------------------------------------------
    def _collect_buffers(self, body: ast.Block) -> None:
        calls = [
            s.expr for s in ast.walk_stmts(body)
            if isinstance(s, ast.ExprStmt) and isinstance(s.expr, ast.Call)
        ]
        for e in calls:
            if e.callee == "cudaMalloc" and len(e.args) == 2:
                dname = _malloc_target(e)
                if dname is not None:
                    t = self.var_types.get(dname)
                    if t is None or not t.is_pointer:
                        raise TranspileError(
                            f"cudaMalloc target '{dname}' has no pointer type"
                        )
                    self.bufs[dname] = _DeviceBuf(
                        dname=dname, elem=t.pointee(), bytes_expr=ast.clone(e.args[1])
                    )
        for e in calls:
            if e.callee == "cudaMemcpy" and len(e.args) == 4:
                dst, src, _, kind = e.args
                kname = kind.name if isinstance(kind, ast.Ident) else ""
                if kname == "cudaMemcpyHostToDevice" and isinstance(dst, ast.Ident):
                    buf = self.bufs.get(dst.name)
                    if buf is not None:
                        buf.h2d = True
                        if isinstance(src, ast.Ident) and buf.host_alias is None:
                            buf.host_alias = src.name
                elif kname == "cudaMemcpyDeviceToHost" and isinstance(src, ast.Ident):
                    buf = self.bufs.get(src.name)
                    if buf is not None:
                        buf.d2h = True
                        if isinstance(dst, ast.Ident):
                            buf.host_copies.append(dst.name)
                            if buf.host_alias is None:
                                buf.host_alias = dst.name

    def _fix_aliases(
        self, top: List[ast.Stmt], first: int, exprs: List[ast.Expr]
    ) -> None:
        """Validate host aliases and widen map kinds for swapped pointers.

        * A host array can alias at most one device buffer, and must be
          declared before the device phase begins at ``top[first]``
          (otherwise the ``target data`` map clause would reference an
          undeclared name) — late or duplicate partners get synthesized
          host arrays instead.
        * Device pointer variables that are *reassigned* (the ping-pong swap
          idiom) must be mapped ``tofrom``: the final results may live in
          either physical buffer, so both need copy-back.  ``exprs`` are
          the function's expressions.
        """
        decl_pos: Dict[str, int] = {}
        for i, stmt in enumerate(top):
            for s in ast.walk_stmts(stmt):
                if isinstance(s, ast.VarDecl):
                    decl_pos.setdefault(s.name, i)
        claimed: Set[str] = set()
        for buf in self.bufs.values():
            alias = buf.host_alias
            if alias is None:
                continue
            if alias in claimed or decl_pos.get(alias, -1) >= first:
                buf.host_alias = None
            else:
                claimed.add(alias)
        # Swap idiom: any assignment to a device-pointer variable.
        reassigned: Set[str] = set()
        for e in exprs:
            if isinstance(e, ast.Assign) and isinstance(e.target, ast.Ident) and (
                e.target.name in self.bufs
            ):
                reassigned.add(e.target.name)
                if isinstance(e.value, ast.Ident) and e.value.name in self.bufs:
                    reassigned.add(e.value.name)
        for name in reassigned:
            buf = self.bufs[name]
            buf.h2d = True
            buf.d2h = True

    def _analyze_launches(self, launches: List[ast.Launch]) -> None:
        """Mark each buffer read where a kernel it is passed to reads it
        (classifying each kernel's accesses once), and find the single-cell
        atomicAdd accumulators: one-cell buffers that every launch passing
        one uses only through ``atomicAdd`` on cell 0."""
        kinds: Dict[str, Dict[str, AccessInfo]] = {}
        accumulates: Dict[str, bool] = {}
        for e in launches:
            kernel = self.kernels.get(e.kernel)
            if kernel is None:
                continue
            if e.kernel not in kinds:
                kinds[e.kernel] = pointer_access_kinds(kernel.body)
            for param, arg in zip(kernel.params, e.args):
                buf = self.bufs.get(arg.name) if isinstance(arg, ast.Ident) else None
                if buf is None:
                    continue
                info = kinds[e.kernel].get(param.name)
                if info is not None and info.read:
                    buf.read = True
                if isinstance(buf.bytes_expr, ast.SizeOf):
                    accumulates[arg.name] = accumulates.get(arg.name, True) and (
                        self._only_atomic_add_cell0(kernel.body, param.name)
                    )
        for dname, ok in accumulates.items():
            if ok:
                self.bufs[dname].reduction_scalar = self._strip_prefix(dname)

    @staticmethod
    def _only_atomic_add_cell0(body: ast.Stmt, pname: str) -> bool:
        """Does ``body`` use ``pname`` only as ``atomicAdd(&pname[0], v)``,
        and at least once?"""
        cells: Set[int] = set()  # the pointer's uses inside those atomics
        for e in ast.walk_exprs(body):
            if isinstance(e, ast.Call) and e.callee == "atomicAdd":
                tgt = e.args[0]
                if (
                    isinstance(tgt, ast.Unary) and tgt.op == "&"
                    and isinstance(tgt.operand, ast.Index)
                    and isinstance(tgt.operand.base, ast.Ident)
                    and tgt.operand.base.name == pname
                    and isinstance(tgt.operand.index, ast.IntLit)
                    and tgt.operand.index.value == 0
                ):
                    cells.add(id(tgt.operand.base))
            elif isinstance(e, ast.Ident) and e.name == pname and id(e) not in cells:
                return False  # any other use of the pointer
        return bool(cells)

    def _strip_prefix(self, dname: str) -> str:
        for prefix in ("d_", "dev_", "gpu_"):
            if dname.startswith(prefix) and len(dname) > len(prefix):
                return dname[len(prefix):]
        return dname + "_v"

    def _build_names(self) -> None:
        taken = set(self.var_types)
        for buf in self.bufs.values():
            if buf.host_alias is not None or buf.reduction_scalar is not None:
                continue
            cand = self._strip_prefix(buf.dname)
            while cand in taken:
                cand += "_buf"
            buf.synth_name = cand
            taken.add(cand)
        # Reduction scalars may also collide.
        for buf in self.bufs.values():
            if buf.reduction_scalar is not None:
                cand = buf.reduction_scalar
                while cand in taken:
                    cand += "_v"
                buf.reduction_scalar = cand
                taken.add(cand)
        self.rename = {
            b.dname: (b.reduction_scalar or b.host_name) for b in self.bufs.values()
        }
        # Host pointers a reduction cell is copied back into (``h_res``)
        # read the cell's scalar instead.
        self.mirrors = {
            host: b.reduction_scalar
            for b in self.bufs.values() if b.reduction_scalar is not None
            for host in b.host_copies
        }

    @staticmethod
    def _offloads(stmt: ast.Stmt) -> bool:
        """Does ``stmt`` hold a launch or a device-side memset?"""
        return any(
            isinstance(e, ast.Launch)
            or (isinstance(e, ast.Call) and e.callee == "cudaMemset")
            for e in ast.walk_exprs(stmt)
        )

    # -- phase B -----------------------------------------------------------
    def _wrap_device_phase(self, stmts: List[ast.Stmt]) -> List[ast.Stmt]:
        if not self.opt.use_data_region:
            return stmts
        pragma = ast.OmpPragma(directive="target data")
        for buf in self.bufs.values():
            if buf.reduction_scalar is not None:
                continue
            pragma.maps.append(ast.MapClause(
                kind=buf.map_kind, name=buf.host_name,
                lower=_int_lit(0), length=buf.length_expr(),
            ))
        return [ast.Pragma(pragma=pragma, body=ast.Block(stmts=stmts))]

    def _translate_host(self, stmt: ast.Stmt, device: bool) -> List[ast.Stmt]:
        """The statements replacing the top-level host statement ``stmt``;
        ``device`` says whether it lies in the device phase."""

        def rewrite(s: ast.Stmt) -> _Rewritten:
            if isinstance(s, ast.VarDecl) and (
                s.name in self.bufs or self._is_red_mirror_decl(s)
            ):
                return []  # device pointers and reduction mirrors disappear
            if isinstance(s, ast.ExprStmt):
                new = self._translate_call(s.expr)
                if new is not None:
                    return new
            if not device:
                return None
            _rename_head(s, self.rename)
            if self.opt.hoist_invariant_repeat and isinstance(s, ast.For):
                body = _rewrite_stmts(s.body, rewrite).stmts
                if self._is_invariant_repeat(s, body):
                    return body
                s.body = ast.Block(stmts=body)
                return s
            return None

        out = _rewrite_clone(stmt, rewrite)
        if self.mirrors:
            for s in out:
                self._read_mirrors(s)
        return out

    def _is_red_mirror_decl(self, decl: ast.VarDecl) -> bool:
        """Is ``decl`` a reduction mirror's one-cell allocation, like
        ``double* h_res = (double*)malloc(sizeof(double));``?"""
        init = decl.init.operand if isinstance(decl.init, ast.Cast) else decl.init
        return (
            decl.name in self.mirrors
            and isinstance(init, ast.Call) and init.callee == "malloc"
            and len(init.args) == 1 and isinstance(init.args[0], ast.SizeOf)
        )

    def _is_invariant_repeat(self, loop: ast.For, body_stmts: List[ast.Stmt]) -> bool:
        """True when re-executing the body is idempotent w.r.t. outputs."""
        canon = _unit_loop(loop)
        if canon is None:
            return False
        var = canon[0]
        for s in body_stmts:
            names = collect_identifiers(s)
            if var in names:
                return False
            # Top-level declarations or scalar/pointer mutations in the loop
            # body (the ping-pong swap idiom) make the repeat loop-carried.
            # Declarations nested inside offloaded loops are fine — they are
            # per-iteration device locals.
            if isinstance(s, ast.VarDecl):
                return False
            if isinstance(s, ast.ExprStmt) and isinstance(s.expr, ast.Assign):
                if isinstance(s.expr.target, ast.Ident):
                    return False
        return True

    def _translate_call(self, e: ast.Expr) -> Optional[List[ast.Stmt]]:
        """The statements replacing the launch or CUDA runtime call ``e``, an
        expression statement's expression, or None to keep it."""
        if isinstance(e, ast.Call):
            if e.callee == "cudaMalloc":
                # Synthesized host partners and reduction scalars materialize
                # at the allocation site, so later references see them.
                buf = self.bufs.get(_malloc_target(e))
                if buf is not None and buf.reduction_scalar is not None:
                    init = (
                        ast.FloatLit(value=0.0, text="0.0")
                        if buf.elem.is_real else _int_lit(0)
                    )
                    return [ast.VarDecl(
                        type=buf.elem, name=buf.reduction_scalar, init=init
                    )]
                if buf is not None and buf.synth_name is not None:
                    return [ast.VarDecl(
                        type=buf.elem.pointer_to(), name=buf.synth_name,
                        init=ast.Cast(
                            type=buf.elem.pointer_to(),
                            operand=_call("malloc", ast.clone(buf.bytes_expr)),
                        ),
                    )]
                return []
            if e.callee in ("cudaFree", "cudaDeviceSynchronize",
                            "cudaGetLastError"):
                return []
            if e.callee == "cudaMemcpy":
                return self._transform_memcpy(e)
            if e.callee == "cudaMemset":
                return self._transform_memset(e)
            if e.callee == "free" and e.args and isinstance(e.args[0], ast.Ident) and (
                e.args[0].name in self.mirrors
            ):
                return []
        if isinstance(e, ast.Launch):
            return self._transform_launch(e)
        return None

    def _read_mirrors(self, stmt: ast.Stmt) -> None:
        """Replace each read of a reduction mirror's cell under ``stmt``,
        ``h_res[0]``, with the cell's scalar, in place."""

        def scalar(e: object) -> Optional[ast.Ident]:
            if isinstance(e, ast.Index) and isinstance(e.base, ast.Ident) and (
                e.base.name in self.mirrors
            ):
                return _ident(self.mirrors[e.base.name])
            return None

        for node in (*ast.walk_stmts(stmt), *ast.walk_exprs(stmt)):
            for name, child in vars(node).items():
                if isinstance(child, list):
                    child[:] = [scalar(c) or c for c in child]
                else:
                    new = scalar(child)
                    if new is not None:
                        setattr(node, name, new)

    def _transform_memcpy(self, e: ast.Call) -> List[ast.Stmt]:
        dst, src, nbytes, kind = e.args
        kname = kind.name if isinstance(kind, ast.Ident) else ""
        if self.opt.use_data_region:
            # Data region keeps everything coherent; copies between a buffer
            # and its own alias vanish.  Copies from a *different* host
            # array materialize as host loops before/after the region — for
            # the supported apps the alias case always applies, except
            # distinct staging arrays which become plain memcpy.
            if kname == "cudaMemcpyHostToDevice" and isinstance(dst, ast.Ident):
                buf = self.bufs.get(dst.name)
                if buf is not None and isinstance(src, ast.Ident) and (
                    src.name == buf.host_name
                ):
                    return []
                if buf is not None:
                    return [_expr_stmt(_call(
                        "memcpy", _ident(buf.host_name), ast.clone(src), ast.clone(nbytes)
                    ))]
            if kname == "cudaMemcpyDeviceToHost" and isinstance(src, ast.Ident):
                buf = self.bufs.get(src.name)
                if buf is not None:
                    if buf.reduction_scalar is not None:
                        return []
                    if isinstance(dst, ast.Ident) and dst.name == buf.host_name:
                        return []
                    return [_expr_stmt(_call(
                        "memcpy", ast.clone(dst), _ident(buf.host_name), ast.clone(nbytes)
                    ))]
            return []
        # Literal style: copies become memcpy between host arrays (the map
        # clauses on each loop do the actual device movement).
        red_scalars = {
            b.dname for b in self.bufs.values() if b.reduction_scalar is not None
        }
        for end in (dst, src):
            if isinstance(end, ast.Ident) and (
                end.name in red_scalars or end.name in self.mirrors
            ):
                return []
        new_args = [ast.clone(dst), ast.clone(src), ast.clone(nbytes)]
        for a in new_args:
            substitute(a, self.rename)
        if kname in ("cudaMemcpyHostToDevice", "cudaMemcpyDeviceToHost"):
            if (
                isinstance(new_args[0], ast.Ident)
                and isinstance(new_args[1], ast.Ident)
                and new_args[0].name == new_args[1].name
            ):
                return []
            return [_expr_stmt(_call("memcpy", *new_args))]
        return []

    def _transform_memset(self, e: ast.Call) -> List[ast.Stmt]:
        ptr, value, nbytes = e.args
        if not isinstance(ptr, ast.Ident) or ptr.name not in self.bufs:
            new = ast.clone(e)
            substitute(new, self.rename)
            return [_expr_stmt(new)]
        buf = self.bufs[ptr.name]
        if buf.reduction_scalar is not None:
            return [_expr_stmt(ast.Assign(
                op="=", target=_ident(buf.reduction_scalar),
                value=ast.FloatLit(value=0.0, text="0.0") if buf.elem.is_real else _int_lit(0),
            ))]
        # Zero on the device with a target loop (like hand-written ports).
        lv = self.opt.loop_var
        zero = ast.FloatLit(value=0.0, text="0.0f") if buf.elem.is_real else _int_lit(0)
        loop = _counting_loop(lv, buf.length_expr(), [_expr_stmt(ast.Assign(
            op="=", target=ast.Index(base=_ident(buf.host_name), index=_ident(lv)),
            value=zero,
        ))])
        pragma = ast.OmpPragma(directive="target teams distribute parallel for")
        if not self.opt.use_data_region:
            pragma.maps.append(ast.MapClause(
                kind="tofrom", name=buf.host_name,
                lower=_int_lit(0), length=buf.length_expr(),
            ))
        return [ast.Pragma(pragma=pragma, body=loop)]

    def _transform_launch(self, e: ast.Launch) -> List[ast.Stmt]:
        kernel = self.kernels.get(e.kernel)
        if kernel is None:
            raise TranspileError(f"launch of unknown kernel '{e.kernel}'")
        if len(e.args) != len(kernel.params):
            raise TranspileError(f"launch arity mismatch for '{e.kernel}'")

        body, idx_var, bound = self._extract_kernel_loop(kernel)

        # Substitute params with argument expressions (args first renamed to
        # host aliases).
        mapping: Dict[str, str] = {}
        pre_stmts: List[ast.Stmt] = []
        red_scalars: List[str] = []
        for param, arg in zip(kernel.params, e.args):
            if isinstance(arg, ast.Ident):
                buf = self.bufs.get(arg.name)
                if buf is not None and buf.reduction_scalar is not None:
                    red_scalars.append(buf.reduction_scalar)
                    mapping[param.name] = "__red__" + buf.reduction_scalar
                else:
                    mapping[param.name] = self.rename.get(arg.name, arg.name)
            elif isinstance(arg, (ast.IntLit, ast.FloatLit)):
                # Literal argument: bind via a fresh const-ish local.
                mapping[param.name] = param.name
                pre_stmts.append(ast.VarDecl(
                    type=param.type, name=param.name, init=ast.clone(arg)
                ))
            else:
                # Expression argument: bind to a local of the param name.
                mapping[param.name] = param.name
                bound_expr = ast.clone(arg)
                substitute(bound_expr, self.rename)
                pre_stmts.append(ast.VarDecl(
                    type=param.type, name=param.name, init=bound_expr
                ))

        new_body = ast.clone(body)
        new_bound = ast.clone(bound)
        substitute(new_body, mapping)
        substitute(new_bound, mapping)

        if self.opt.privatize_atomics and not red_scalars:
            privatized = self._privatized_atomic_loop(new_body, idx_var, new_bound)
            if privatized is not None:
                return pre_stmts + privatized

        # Rewrite atomics.
        new_body, used = self._rewrite_kernel_atomics(new_body, red_scalars)

        pragma = self._loop_pragma(new_body)
        if used:
            pragma.reduction = ast.ReductionClause(
                op="+", names=[name for name in red_scalars if name in used]
            )
        loop = _counting_loop(idx_var, new_bound, new_body.stmts)
        return pre_stmts + [ast.Pragma(pragma=pragma, body=loop)]

    def _loop_pragma(self, body: ast.Stmt) -> ast.OmpPragma:
        """The offload pragma of a loop over ``body``, with one map clause
        per device buffer it touches unless a data region holds them."""
        pragma = ast.OmpPragma(directive="target teams distribute parallel for")
        if self.opt.use_data_region:
            return pragma
        for name, info in sorted(pointer_access_kinds(body).items()):
            for buf in self.bufs.values():
                if buf.host_name == name and buf.reduction_scalar is None:
                    pragma.maps.append(ast.MapClause(
                        kind=info.map_kind, name=name,
                        lower=_int_lit(0), length=buf.length_expr(),
                    ))
                    break
        return pragma

    def _privatized_atomic_loop(
        self, body: ast.Stmt, idx_var: str, bound: ast.Expr
    ) -> Optional[List[ast.Stmt]]:
        """Rewrite an atomic-histogram body into a chunk-privatized loop.

        Applies when every atomicAdd in the body targets the *same* integer
        array: each device iteration then processes a chunk of the index
        space into a local histogram and merges it with one atomic per bin —
        identical output, a fraction of the atomic traffic (§V-D DeepSeek
        anecdote).
        """
        hist_name: Optional[str] = None
        for e in ast.walk_exprs(body):
            if isinstance(e, ast.Call) and e.callee in ("atomicAdd", "atomicSub"):
                tgt = e.args[0]
                if not (
                    isinstance(tgt, ast.Unary) and tgt.op == "&"
                    and isinstance(tgt.operand, ast.Index)
                    and isinstance(tgt.operand.base, ast.Ident)
                ):
                    return None
                name = tgt.operand.base.name
                if hist_name is None:
                    hist_name = name
                elif hist_name != name:
                    return None
            elif isinstance(e, ast.Assign) and isinstance(e.target, ast.Index):
                return None  # other array writes: not a pure histogram
        if hist_name is None:
            return None
        hist_buf = None
        for buf in self.bufs.values():
            if buf.host_name == hist_name:
                hist_buf = buf
        if hist_buf is None or hist_buf.elem.is_real:
            return None
        nbins = hist_buf.length_expr()
        chunk = _PRIVATIZE_CHUNK
        local = "local_" + hist_name

        def rewrite(s: ast.Stmt) -> Optional[ast.Stmt]:
            """atomicAdd(&hist[E], V) -> local[E] += V."""
            if not (isinstance(s, ast.ExprStmt) and isinstance(s.expr, ast.Call) and (
                s.expr.callee in ("atomicAdd", "atomicSub")
            )):
                return None
            tgt = s.expr.args[0].operand  # Index, validated above
            op = "+=" if s.expr.callee == "atomicAdd" else "-="
            return _expr_stmt(ast.Assign(
                op=op,
                target=ast.Index(base=_ident(local), index=ast.clone(tgt.index)),
                value=ast.clone(s.expr.args[1]),
            ))

        inner_body = _rewrite_stmts(ast.clone(body), rewrite)
        chunk_body = ast.Block(stmts=[
            ast.VarDecl(type=ty.INT, name=local, array_size=ast.clone(nbins)),
            _counting_loop("v", ast.clone(nbins), [
                _expr_stmt(ast.Assign(
                    op="=", target=ast.Index(base=_ident(local), index=_ident("v")),
                    value=_int_lit(0),
                )),
            ]),
            _counting_loop("k", _int_lit(chunk), [
                ast.VarDecl(
                    type=ty.INT, name=idx_var,
                    init=ast.Binary(
                        op="+",
                        left=_mul(_ident("chunk_i"), _int_lit(chunk)),
                        right=_ident("k"),
                    ),
                ),
                ast.If(
                    cond=ast.Binary(op="<", left=_ident(idx_var), right=ast.clone(bound)),
                    then=inner_body,
                ),
            ]),
            _counting_loop("v", ast.clone(nbins), [
                ast.If(
                    cond=ast.Binary(
                        op=">",
                        left=ast.Index(base=_ident(local), index=_ident("v")),
                        right=_int_lit(0),
                    ),
                    then=ast.Block(stmts=[
                        ast.Pragma(
                            pragma=ast.OmpPragma(directive="atomic"),
                            body=_expr_stmt(ast.Assign(
                                op="+=",
                                target=ast.Index(
                                    base=_ident(hist_name), index=_ident("v")
                                ),
                                value=ast.Index(base=_ident(local), index=_ident("v")),
                            )),
                        ),
                    ]),
                ),
            ]),
        ])

        nchunks = ast.Binary(
            op="/",
            left=ast.Binary(op="+", left=ast.clone(bound), right=_int_lit(chunk - 1)),
            right=_int_lit(chunk),
        )
        loop = _counting_loop("chunk_i", nchunks, chunk_body.stmts)
        return [ast.Pragma(pragma=self._loop_pragma(chunk_body), body=loop)]

    def _extract_kernel_loop(self, kernel: ast.FuncDef):
        """Match the canonical guarded-thread-index kernel shape."""
        stmts = kernel.body.stmts
        if not stmts:
            raise TranspileError(f"kernel '{kernel.name}' has an empty body")
        first = stmts[0]
        if not (isinstance(first, ast.VarDecl) and first.init is not None):
            raise TranspileError(
                f"kernel '{kernel.name}' does not start with an index computation"
            )
        idx_var = first.name
        if not self._is_thread_index(first.init):
            raise TranspileError(
                f"kernel '{kernel.name}' index is not blockIdx*blockDim+threadIdx"
            )
        rest = stmts[1:]
        if len(rest) == 1 and isinstance(rest[0], ast.If) and rest[0].other is None:
            guard = rest[0]
            cond = guard.cond
            if (
                isinstance(cond, ast.Binary) and cond.op == "<"
                and isinstance(cond.left, ast.Ident) and cond.left.name == idx_var
            ):
                return guard.then, idx_var, cond.right
        raise TranspileError(
            f"kernel '{kernel.name}' body is not a guarded canonical form"
        )

    @staticmethod
    def _is_thread_index(expr: ast.Expr) -> bool:
        if not (isinstance(expr, ast.Binary) and expr.op == "+"):
            return False

        def is_geom(e: ast.Expr, name: str) -> bool:
            return (
                isinstance(e, ast.Member)
                and isinstance(e.obj, ast.Ident)
                and e.obj.name == name
                and e.field_name == "x"
            )

        for tid, prod in ((expr.right, expr.left), (expr.left, expr.right)):
            if is_geom(tid, "threadIdx") and isinstance(prod, ast.Binary) and (
                prod.op == "*"
            ):
                a, b = prod.left, prod.right
                return (is_geom(a, "blockIdx") and is_geom(b, "blockDim")) or (
                    is_geom(a, "blockDim") and is_geom(b, "blockIdx")
                )
        return False

    @staticmethod
    def _rewrite_kernel_atomics(
        body: ast.Stmt, red_scalars: List[str]
    ) -> Tuple[ast.Block, Set[str]]:
        """atomicAdd -> `#pragma omp atomic`, or accumulation into one of
        ``red_scalars``; also returns the scalars accumulated into."""
        accumulators = {"__red__" + name: name for name in red_scalars}
        used: Set[str] = set()

        def rewrite(s: ast.Stmt) -> Optional[ast.Stmt]:
            if not (isinstance(s, ast.ExprStmt) and isinstance(s.expr, ast.Call) and (
                s.expr.callee in ("atomicAdd", "atomicSub")
            )):
                return None
            tgt, val = s.expr.args[0], s.expr.args[1]
            op = "+=" if s.expr.callee == "atomicAdd" else "-="
            if not (isinstance(tgt, ast.Unary) and tgt.op == "&" and isinstance(
                tgt.operand, ast.Index
            )):
                raise TranspileError("unsupported atomic target in kernel")
            base = tgt.operand.base
            scalar = accumulators.get(base.name) if isinstance(base, ast.Ident) else None
            if scalar is not None:
                used.add(scalar)
                return _expr_stmt(ast.Assign(op=op, target=_ident(scalar), value=val))
            return ast.Pragma(
                pragma=ast.OmpPragma(directive="atomic"),
                body=_expr_stmt(ast.Assign(
                    op=op, target=ast.clone(tgt.operand), value=val
                )),
            )

        return _rewrite_stmts(body, rewrite), used


# =====================================================================
# Public interface
# =====================================================================


class Transpiler:
    """Bi-directional translator with per-model style options."""

    def __init__(self, options: Optional[TranspileOptions] = None) -> None:
        self.options = options or TranspileOptions()

    def translate(self, source_text: str, source_dialect: Dialect,
                  target_dialect: Dialect) -> str:
        """Translate ``source_text`` and render the target-dialect source."""
        if source_dialect is target_dialect:
            raise ValueError("source and target dialects must differ")
        program = _parse_source(source_text, source_dialect)
        if source_dialect is Dialect.OMP and target_dialect is Dialect.CUDA:
            out = _Omp2Cuda(program, self.options).run()
        elif source_dialect is Dialect.CUDA and target_dialect is Dialect.OMP:
            out = _Cuda2Omp(program, self.options).run()
        else:
            raise ValueError(
                f"unsupported translation {source_dialect} -> {target_dialect}"
            )
        if self.options.hoist_decls:
            self._hoist_decls(out)
        style = self.options.codegen
        if self.options.rename_scheme:
            mapping = self._rename_map(out, self.options.rename_scheme)
            style = replace(style, rename=mapping)
        return generate(out, style)

    @staticmethod
    def _hoist_decls(program: ast.Program) -> None:
        """Move top-level declarations of host functions to the body top."""
        for fn in program.functions:
            if fn.is_kernel or fn.is_device:
                continue
            decls: List[ast.Stmt] = []
            rest: List[ast.Stmt] = []
            for stmt in fn.body.stmts:
                if isinstance(stmt, ast.VarDecl) and stmt.array_size is None and (
                    not stmt.const
                ):
                    hoisted = ast.VarDecl(type=stmt.type, name=stmt.name)
                    hoisted.span = stmt.span
                    decls.append(hoisted)
                    if stmt.init is not None:
                        assign = ast.ExprStmt(expr=ast.Assign(
                            op="=",
                            target=ast.Ident(name=stmt.name),
                            value=stmt.init,
                        ))
                        assign.span = stmt.span
                        rest.append(assign)
                else:
                    rest.append(stmt)
            fn.body.stmts = decls + rest

    @staticmethod
    def _rename_map(program: ast.Program, scheme: str) -> Dict[str, str]:
        """Build a consistent variable-renaming map over the whole program."""
        names: Set[str] = set()
        for fn in program.functions:
            for p in fn.params:
                if p.name:
                    names.add(p.name)
            for s in ast.walk_stmts(fn.body):
                if isinstance(s, ast.VarDecl):
                    names.add(s.name)
        for gv in program.globals:
            names.add(gv.decl.name)
        fn_names = {fn.name for fn in program.functions}
        names -= fn_names

        def rename(name: str) -> str:
            if scheme == "suffix":
                return name + "_"
            if scheme == "verbose":
                return "v_" + name
            return name

        mapping = {n: rename(n) for n in sorted(names)}
        # Injectivity guard: schemes above are injective, but keep the
        # check so future schemes cannot silently merge variables.
        if len(set(mapping.values())) != len(mapping):
            raise ValueError(f"rename scheme {scheme!r} is not injective")
        return mapping
