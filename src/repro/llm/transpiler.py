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
  style) or per-loop map clauses (literal style); single-cell atomicAdd
  accumulators are recognized and rewritten as ``reduction(+:)`` scalars.

:class:`TranspileOptions` carries the per-model style knobs (naming, block
size, data-region usage, loop-invariant hoisting, reduction strategy,
formatting) that make different "LLMs" produce visibly different — yet
equivalent — translations, which is what spreads the paper's Sim-T/Sim-L
similarity and runtime-Ratio metrics across models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReproError
from repro.llm.analysis import (
    collect_identifiers,
    declared_names,
    pointer_access_kinds,
    substitute,
)
from repro.minilang import ast
from repro.minilang import types as ty
from repro.minilang.builtins import BUILTINS, CONSTANTS, GEOMETRY_BUILTINS
from repro.minilang.codegen import CodegenStyle, generate
from repro.minilang.semantics import canonical, collect_local_types, sole_inner_for
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
    #: CUDA->OMP: wrap device phase in one `target data` region instead of
    #: per-loop map clauses.  OMP->CUDA: hoist staging out of loops.
    use_data_region: bool = True
    #: Hoist a loop whose body is loop-invariant (idempotent re-launch) out
    #: of its repetition loop.  Mirrors LLM translations that drop
    #: benchmark-timing repetitions.
    hoist_invariant_repeat: bool = False
    #: CUDA->OMP handling of single-cell atomic accumulators:
    #: "reduction" rewrites to a reduction(+:) scalar, "atomic" keeps
    #: `#pragma omp atomic`.
    reduction_style: str = "reduction"
    #: Name used for generated flat loop indices.
    loop_var: str = "i"
    #: Emit num_threads(block_size) on generated OMP loop pragmas.
    emit_num_threads: bool = False
    #: CUDA->OMP: privatize array atomics — each device iteration handles a
    #: chunk with a local histogram merged with few atomics.  Mirrors the
    #: paper's §V-D DeepSeek/atomicCost anecdote ("fewer atomic operations",
    #: large speedup with identical output).
    privatize_atomics: bool = False
    #: Chunk length used by the privatized-atomics rewrite.
    privatize_chunk: int = 64
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
        records: Dict[str, _ArrayRecord] = {}
        has_device = False
        for stmt in ast.walk_stmts(body):
            if isinstance(stmt, ast.Pragma) and stmt.pragma.is_target:
                has_device = True
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
        if not has_device:
            return ast.clone(fn)
        # Arrays touched inside device loops without explicit maps (data
        # region case covers them; keep union of kinds from access analysis).
        for stmt in ast.walk_stmts(body):
            if isinstance(stmt, ast.Pragma) and stmt.pragma.is_target and (
                stmt.body is not None
            ):
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
        first, last = self._device_span(top)
        for i, stmt in enumerate(top):
            if i == first:
                new_body.stmts.extend(self._staging_prologue())
            if first <= i <= last:
                new_body.stmts.extend(self._transform_stmt(stmt))
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

    def _device_span(self, top: List[ast.Stmt]) -> Tuple[int, int]:
        first = last = -1
        for i, stmt in enumerate(top):
            uses = any(
                isinstance(s, ast.Pragma) and s.pragma.is_target
                for s in ast.walk_stmts(stmt)
            )
            if uses:
                if first == -1:
                    first = i
                last = i
        if first == -1:
            raise TranspileError("no target construct found")
        return first, last

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
    def _transform_stmt(self, stmt: ast.Stmt) -> List[ast.Stmt]:
        if isinstance(stmt, ast.Pragma):
            pragma = stmt.pragma
            if pragma.directive == "target data":
                inner: List[ast.Stmt] = []
                body = stmt.body
                stmts = body.stmts if isinstance(body, ast.Block) else [body]
                for s in stmts:
                    inner.extend(self._transform_stmt(s))
                return inner
            if pragma.is_target and pragma.is_loop and isinstance(stmt.body, ast.For):
                return self._emit_launch(pragma, stmt.body)
            if pragma.is_target:
                raise TranspileError(
                    f"unsupported target construct '{pragma.directive}'"
                )
            # Host pragma: drop the pragma, keep the statement.
            return [ast.clone(stmt.body)] if stmt.body is not None else []
        if isinstance(stmt, ast.Block):
            blk = ast.Block()
            for s in stmt.stmts:
                blk.stmts.extend(self._transform_stmt(s))
            return [blk]
        if isinstance(stmt, (ast.For, ast.While, ast.DoWhile)):
            new = ast.clone(stmt)
            body_stmts = self._transform_stmt(new.body)
            new.body = body_stmts[0] if len(body_stmts) == 1 else ast.Block(
                stmts=body_stmts
            )
            # Device-phase host statements reference device pointers.
            if isinstance(new, ast.For) and new.init is not None:
                substitute(new.init, self.rename)
            if new.cond is not None:
                substitute(new.cond, self.rename)
            if isinstance(new, ast.For) and new.step is not None:
                substitute(new.step, self.rename)
            return [new]
        if isinstance(stmt, ast.If):
            new = ast.clone(stmt)
            substitute(new, self.rename)
            return [new]
        # Plain host statement inside the device phase: pointer swaps and
        # friends must act on the device pointers.
        new = ast.clone(stmt)
        substitute(new, self.rename)
        return [new]

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
        body = ast.clone(body)

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
            if name in self.rename:
                args.append(_ident(self.rename[name]))
            else:
                args.append(_ident(name))
        # Reduction buffers become extra pointer params.
        red_buf_names: Dict[str, str] = {}
        for rname in reduction_names:
            buf_param = rname + "_sum"
            red_buf_names[rname] = buf_param
            kparams.append(ast.Param(type=red_types[rname].pointer_to(), name=buf_param))

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
            sub_body = body if isinstance(body, ast.Block) else ast.Block(stmts=[body])
            kbody.stmts.append(ast.If(cond=guard, then=sub_body))
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
            sub_body = body if isinstance(body, ast.Block) else ast.Block(stmts=[body])
            kbody.stmts.append(ast.If(cond=guard, then=sub_body))

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

    def _rewrite_reduction_body(self, body: ast.Stmt, names: List[str]) -> ast.Stmt:
        """Turn ``s += e;`` into ``atomicAdd(&s_sum[0], e);``."""
        wrapper = body if isinstance(body, ast.Block) else ast.Block(stmts=[body])

        def rewrite_block(block: ast.Block) -> None:
            for i, s in enumerate(block.stmts):
                if (
                    isinstance(s, ast.ExprStmt)
                    and isinstance(s.expr, ast.Assign)
                    and isinstance(s.expr.target, ast.Ident)
                    and s.expr.target.name in names
                ):
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
                    block.stmts[i] = _expr_stmt(_call(
                        "atomicAdd",
                        ast.Unary(op="&", operand=ast.Index(
                            base=_ident(rname + "_sum"), index=_int_lit(0)
                        )),
                        value,
                    ))
                elif isinstance(s, ast.Block):
                    rewrite_block(s)
                elif isinstance(s, ast.If):
                    for part in (s.then, s.other):
                        if isinstance(part, ast.Block):
                            rewrite_block(part)
                elif isinstance(s, (ast.For, ast.While, ast.DoWhile)):
                    if isinstance(s.body, ast.Block):
                        rewrite_block(s.body)
        rewrite_block(wrapper)
        return wrapper

    def _rewrite_atomics(self, body: ast.Stmt) -> ast.Stmt:
        """Turn ``#pragma omp atomic`` + update into a CUDA atomic call."""
        wrapper = body if isinstance(body, ast.Block) else ast.Block(stmts=[body])

        def rewrite_block(block: ast.Block) -> None:
            for i, s in enumerate(block.stmts):
                if isinstance(s, ast.Pragma) and s.pragma.directive == "atomic":
                    upd = s.body
                    if not (
                        isinstance(upd, ast.ExprStmt)
                        and isinstance(upd.expr, ast.Assign)
                        and upd.expr.op in ("+=", "-=")
                        and isinstance(upd.expr.target, ast.Index)
                    ):
                        raise TranspileError("unsupported atomic update form")
                    fn = "atomicAdd" if upd.expr.op == "+=" else "atomicSub"
                    block.stmts[i] = _expr_stmt(_call(
                        fn,
                        ast.Unary(op="&", operand=ast.clone(upd.expr.target)),
                        ast.clone(upd.expr.value),
                    ))
                elif isinstance(s, ast.Block):
                    rewrite_block(s)
                elif isinstance(s, ast.If):
                    for part in (s.then, s.other):
                        if isinstance(part, ast.Block):
                            rewrite_block(part)
                elif isinstance(s, (ast.For, ast.While, ast.DoWhile)):
                    if isinstance(s.body, ast.Block):
                        rewrite_block(s.body)
        rewrite_block(wrapper)
        return wrapper

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
    written: bool = False
    read: bool = False
    #: single-cell accumulator recognized for reduction rewriting
    reduction_scalar: Optional[str] = None

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
        to = self.h2d or (self.read and not self.h2d and self.host_alias is not None)
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
        self.device_fns = {
            f.name: f for f in program.functions if f.is_device
        }

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
        self._fix_aliases(body)
        self._analyze_kernel_accesses(body)
        self._detect_reduction_buffers(body)
        self._build_names(fn)

        top = list(body.stmts)
        first, last = self._device_span(top)
        new_stmts: List[ast.Stmt] = []
        device_stmts: List[ast.Stmt] = []
        for i, stmt in enumerate(top):
            if i < first or i > last:
                transformed = self._transform_host_stmt(stmt, in_device_phase=False)
                new_stmts.extend(transformed)
            else:
                device_stmts.extend(
                    self._transform_host_stmt(stmt, in_device_phase=True)
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
        for stmt in ast.walk_stmts(body):
            if not isinstance(stmt, ast.ExprStmt):
                continue
            e = stmt.expr
            if isinstance(e, ast.Call) and e.callee == "cudaMalloc" and len(e.args) == 2:
                target = e.args[0]
                if isinstance(target, ast.Cast):
                    target = target.operand
                if isinstance(target, ast.Unary) and target.op == "&" and isinstance(
                    target.operand, ast.Ident
                ):
                    dname = target.operand.name
                    t = self.var_types.get(dname)
                    if t is None or not t.is_pointer:
                        raise TranspileError(
                            f"cudaMalloc target '{dname}' has no pointer type"
                        )
                    self.bufs[dname] = _DeviceBuf(
                        dname=dname, elem=t.pointee(), bytes_expr=ast.clone(e.args[1])
                    )
        for stmt in ast.walk_stmts(body):
            if not isinstance(stmt, ast.ExprStmt):
                continue
            e = stmt.expr
            if isinstance(e, ast.Call) and e.callee == "cudaMemcpy" and len(e.args) == 4:
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
                        if isinstance(dst, ast.Ident) and buf.host_alias is None:
                            buf.host_alias = dst.name

    def _fix_aliases(self, body: ast.Block) -> None:
        """Validate host aliases and widen map kinds for swapped pointers.

        * A host array can alias at most one device buffer, and must be
          declared before the device phase begins (otherwise the ``target
          data`` map clause would reference an undeclared name) — late or
          duplicate partners get synthesized host arrays instead.
        * Device pointer variables that are *reassigned* (the ping-pong swap
          idiom) must be mapped ``tofrom``: the final results may live in
          either physical buffer, so both need copy-back.
        """
        decl_pos: Dict[str, int] = {}
        span_start = None
        for i, s in enumerate(ast.walk_stmts(body)):
            if isinstance(s, ast.VarDecl) and s.name not in decl_pos:
                decl_pos[s.name] = i
            if span_start is None:
                for e in ast.walk_exprs(s) if isinstance(
                    s, (ast.ExprStmt, ast.VarDecl, ast.If, ast.For, ast.While,
                        ast.DoWhile, ast.Return)
                ) else []:
                    if isinstance(e, ast.Launch) or (
                        isinstance(e, ast.Call) and e.callee == "cudaMemset"
                    ):
                        span_start = i
                        break
        claimed: Set[str] = set()
        for buf in self.bufs.values():
            alias = buf.host_alias
            if alias is None:
                continue
            pos = decl_pos.get(alias)
            late = pos is not None and span_start is not None and pos >= span_start
            if alias in claimed or late:
                buf.host_alias = None
            else:
                claimed.add(alias)
        # Swap idiom: any assignment to a device-pointer variable.
        reassigned: Set[str] = set()
        for s in ast.walk_stmts(body):
            for e in ast.walk_exprs(s):
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

    def _analyze_kernel_accesses(self, body: ast.Block) -> None:
        # Track pointer-swap aliasing: a swapped pair shares access kinds.
        alias_groups: Dict[str, Set[str]] = {}
        for stmt in ast.walk_stmts(body):
            for e in ast.walk_exprs(stmt) if not isinstance(stmt, ast.Pragma) else []:
                if isinstance(e, ast.Launch):
                    kernel = self.kernels.get(e.kernel)
                    if kernel is None:
                        continue
                    acc = pointer_access_kinds(kernel.body)
                    for param, arg in zip(kernel.params, e.args):
                        if isinstance(arg, ast.Ident) and arg.name in self.bufs:
                            info = acc.get(param.name)
                            if info is None:
                                continue
                            buf = self.bufs[arg.name]
                            buf.read = buf.read or info.read
                            buf.written = buf.written or info.written

    def _detect_reduction_buffers(self, body: ast.Block) -> None:
        """Find single-cell atomicAdd accumulators (the residual pattern)."""
        if self.opt.reduction_style != "reduction":
            return
        for dname, buf in self.bufs.items():
            size = buf.bytes_expr
            if not isinstance(size, ast.SizeOf):
                continue
            # Find the kernel param bound to this buffer and check its uses.
            used_ok = None
            for stmt in ast.walk_stmts(body):
                for e in ast.walk_exprs(stmt):
                    if isinstance(e, ast.Launch):
                        kernel = self.kernels.get(e.kernel)
                        if kernel is None:
                            continue
                        for param, arg in zip(kernel.params, e.args):
                            if isinstance(arg, ast.Ident) and arg.name == dname:
                                used_ok = self._only_atomic_add_cell0(
                                    kernel.body, param.name
                                )
            if used_ok:
                buf.reduction_scalar = self._strip_prefix(dname)

    @staticmethod
    def _only_atomic_add_cell0(body: ast.Stmt, pname: str) -> bool:
        ok = False
        matched_targets = set()
        exprs = ast.walk_exprs(body)
        for e in exprs:
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
                    ok = True
                    matched_targets.add(id(tgt.operand))
                    matched_targets.add(id(tgt.operand.base))
        for e in exprs:
            if id(e) in matched_targets:
                continue
            if isinstance(e, ast.Index) and isinstance(e.base, ast.Ident) and (
                e.base.name == pname
            ):
                return False  # read/written elsewhere in the kernel
            if isinstance(e, ast.Ident) and e.name == pname:
                return False  # bare use outside the accumulator pattern
        return ok

    def _strip_prefix(self, dname: str) -> str:
        for prefix in ("d_", "dev_", "gpu_"):
            if dname.startswith(prefix) and len(dname) > len(prefix):
                return dname[len(prefix):]
        return dname + "_v"

    def _build_names(self, fn: ast.FuncDef) -> None:
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
        # Host buffers that only mirror a reduction cell: h_res[0] -> scalar.
        self.red_host_mirrors: Dict[str, str] = {}

    def _device_span(self, top: List[ast.Stmt]) -> Tuple[int, int]:
        """Span of statements that must live inside the ``target data``
        region: launches and device-side memsets.

        Staging calls (cudaMalloc / cudaMemcpy / cudaFree / synchronize)
        deliberately do NOT extend the span — the data region's entry/exit
        transfers subsume them, and host-side reads of the results (checksum
        loops, printf) must stay *outside* the region so they observe the
        copied-back data.
        """

        def uses_device(stmt: ast.Stmt) -> bool:
            for s in ast.walk_stmts(stmt):
                for e in ast.walk_exprs(s):
                    if isinstance(e, ast.Launch):
                        return True
                    if isinstance(e, ast.Call) and e.callee == "cudaMemset":
                        return True
            return False

        first = last = -1
        for i, stmt in enumerate(top):
            if uses_device(stmt):
                if first == -1:
                    first = i
                last = i
        if first == -1:
            raise TranspileError("no device phase found")
        return first, last

    # -- phase B -----------------------------------------------------------
    def _wrap_device_phase(self, stmts: List[ast.Stmt]) -> List[ast.Stmt]:
        prologue: List[ast.Stmt] = []
        if not self.opt.use_data_region:
            return prologue + stmts
        pragma = ast.OmpPragma(directive="target data")
        for buf in self.bufs.values():
            if buf.reduction_scalar is not None:
                continue
            pragma.maps.append(ast.MapClause(
                kind=buf.map_kind, name=buf.host_name,
                lower=_int_lit(0), length=buf.length_expr(),
            ))
        node = ast.Pragma(pragma=pragma, body=ast.Block(stmts=stmts))
        return prologue + [node]

    def _transform_host_stmt(
        self, stmt: ast.Stmt, in_device_phase: bool
    ) -> List[ast.Stmt]:
        if isinstance(stmt, ast.VarDecl):
            if stmt.name in self.bufs:
                return []  # device pointer declarations disappear
            new = ast.clone(stmt)
            if in_device_phase:
                substitute(new, self.rename)
            if any(b.reduction_scalar is not None for b in self.bufs.values()):
                new2 = self._rewrite_red_mirror_decl(new)
                if new2 is None:
                    return []
                new = new2
            return [new]
        if isinstance(stmt, ast.ExprStmt):
            return self._transform_expr_stmt(stmt, in_device_phase)
        if isinstance(stmt, ast.Block):
            blk = ast.Block()
            for s in stmt.stmts:
                blk.stmts.extend(self._transform_host_stmt(s, in_device_phase))
            return [blk]
        if isinstance(stmt, (ast.For, ast.While, ast.DoWhile)):
            new_body_stmts: List[ast.Stmt] = []
            body = stmt.body if isinstance(stmt.body, ast.Block) else ast.Block(
                stmts=[stmt.body]
            )
            for s in body.stmts:
                new_body_stmts.extend(self._transform_host_stmt(s, in_device_phase))
            if (
                in_device_phase
                and self.opt.hoist_invariant_repeat
                and isinstance(stmt, ast.For)
                and self._is_invariant_repeat(stmt, new_body_stmts)
            ):
                return new_body_stmts
            new = ast.clone(stmt)
            new.body = ast.Block(stmts=new_body_stmts)
            if in_device_phase:
                if isinstance(new, ast.For):
                    for part in (new.init,):
                        if part is not None:
                            substitute(part, self.rename)
                    for part in (new.cond, new.step):
                        if part is not None:
                            substitute(part, self.rename)
                else:
                    substitute(new.cond, self.rename)
            return [new]
        if isinstance(stmt, ast.If):
            new = ast.clone(stmt)
            if in_device_phase:
                substitute(new, self.rename)
            return [new]
        new = ast.clone(stmt)
        if in_device_phase:
            substitute(new, self.rename)
        return [new]

    def _rewrite_red_mirror_decl(self, decl: ast.VarDecl):
        """Drop host mirror buffers of reduction scalars (h_res pattern)."""
        # A decl like `double* h_res = (double*)malloc(sizeof(double));`
        if decl.init is None:
            return decl
        init = decl.init
        if isinstance(init, ast.Cast):
            inner = init.operand
        else:
            inner = init
        if (
            isinstance(inner, ast.Call) and inner.callee == "malloc"
            and len(inner.args) == 1 and isinstance(inner.args[0], ast.SizeOf)
            and decl.type.is_pointer
        ):
            self.red_host_mirrors[decl.name] = ""
            return None
        return decl

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

    def _transform_expr_stmt(
        self, stmt: ast.ExprStmt, in_device_phase: bool
    ) -> List[ast.Stmt]:
        e = stmt.expr
        if isinstance(e, ast.Call):
            if e.callee == "cudaMalloc":
                # Synthesized host partners and reduction scalars materialize
                # at the allocation site, so later references see them.
                target = e.args[0]
                if isinstance(target, ast.Cast):
                    target = target.operand
                if isinstance(target, ast.Unary) and target.op == "&" and (
                    isinstance(target.operand, ast.Ident)
                ):
                    buf = self.bufs.get(target.operand.name)
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
                e.args[0].name in self.red_host_mirrors
            ):
                return []
        if isinstance(e, ast.Launch):
            return self._transform_launch(e)
        new = ast.clone(stmt)
        if in_device_phase:
            substitute(new, self.rename)
        # h_res[0] -> scalar rename for reduction mirrors.
        self._rewrite_mirror_reads(new)
        return [new]

    def _rewrite_mirror_reads(self, stmt: ast.Stmt) -> None:
        if not self.red_host_mirrors:
            return
        mirror_to_scalar = {}
        for buf in self.bufs.values():
            if buf.reduction_scalar is not None:
                for mirror in self.red_host_mirrors:
                    mirror_to_scalar[mirror] = buf.reduction_scalar
        for e in ast.walk_exprs(stmt):
            for sub in ast.walk_exprs(e):
                pass
        def fix(expr):
            for child_name in ("left", "right", "operand", "cond", "then",
                               "other", "value", "target", "base", "index"):
                child = getattr(expr, child_name, None)
                if isinstance(child, ast.Index) and isinstance(
                    child.base, ast.Ident
                ) and child.base.name in mirror_to_scalar:
                    setattr(expr, child_name, _ident(mirror_to_scalar[child.base.name]))
                elif isinstance(child, ast.Expr):
                    fix(child)
            if isinstance(expr, (ast.Call, ast.Launch)):
                for i, a in enumerate(expr.args):
                    if isinstance(a, ast.Index) and isinstance(a.base, ast.Ident) and (
                        a.base.name in mirror_to_scalar
                    ):
                        expr.args[i] = _ident(mirror_to_scalar[a.base.name])
                    else:
                        fix(a)
        if isinstance(stmt, ast.ExprStmt):
            fix(stmt.expr)
            if isinstance(stmt.expr, ast.Index) and isinstance(
                stmt.expr.base, ast.Ident
            ) and stmt.expr.base.name in mirror_to_scalar:
                stmt.expr = _ident(mirror_to_scalar[stmt.expr.base.name])

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
                end.name in red_scalars or end.name in self.red_host_mirrors
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
        loop = ast.For(
            init=ast.VarDecl(type=ty.INT, name=lv, init=_int_lit(0)),
            cond=ast.Binary(op="<", left=_ident(lv), right=buf.length_expr()),
            step=ast.Postfix(op="++", operand=_ident(lv)),
            body=ast.Block(stmts=[_expr_stmt(ast.Assign(
                op="=", target=ast.Index(base=_ident(buf.host_name), index=_ident(lv)),
                value=zero,
            ))]),
        )
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
        red_scalar: Optional[str] = None
        for param, arg in zip(kernel.params, e.args):
            if isinstance(arg, ast.Ident):
                target = self.rename.get(arg.name, arg.name)
                buf = self.bufs.get(arg.name)
                if buf is not None and buf.reduction_scalar is not None:
                    red_scalar = buf.reduction_scalar
                    mapping[param.name] = "__red__" + red_scalar
                else:
                    mapping[param.name] = target
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

        if self.opt.privatize_atomics and red_scalar is None:
            privatized = self._privatized_atomic_loop(new_body, idx_var, new_bound)
            if privatized is not None:
                return pre_stmts + privatized

        # Rewrite atomics.
        new_body, used_reduction = self._rewrite_kernel_atomics(new_body, red_scalar)

        pragma = ast.OmpPragma(directive="target teams distribute parallel for")
        if used_reduction and red_scalar is not None:
            pragma.reduction = ast.ReductionClause(op="+", names=[red_scalar])
        if self.opt.emit_num_threads:
            pragma.num_threads = _int_lit(self.opt.block_size)
        if not self.opt.use_data_region:
            # Per-loop maps from access analysis.
            acc = pointer_access_kinds(new_body)
            for name, info in sorted(acc.items()):
                for buf in self.bufs.values():
                    if buf.host_name == name and buf.reduction_scalar is None:
                        pragma.maps.append(ast.MapClause(
                            kind=info.map_kind, name=name,
                            lower=_int_lit(0), length=buf.length_expr(),
                        ))
                        break

        loop = ast.For(
            init=ast.VarDecl(type=ty.INT, name=idx_var, init=_int_lit(0)),
            cond=ast.Binary(op="<", left=_ident(idx_var), right=new_bound),
            step=ast.Postfix(op="++", operand=_ident(idx_var)),
            body=new_body if isinstance(new_body, ast.Block) else ast.Block(
                stmts=[new_body]
            ),
        )
        return pre_stmts + [ast.Pragma(pragma=pragma, body=loop)]

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
        wrapper = body if isinstance(body, ast.Block) else ast.Block(stmts=[body])
        hist_name: Optional[str] = None
        for e in ast.walk_exprs(wrapper):
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
        chunk = self.opt.privatize_chunk
        local = "local_" + hist_name

        # Body with atomicAdd(&hist[E], V) -> local[E] += V.
        inner_body = ast.clone(wrapper)

        def rewrite(block: ast.Block) -> None:
            for i, s in enumerate(block.stmts):
                if isinstance(s, ast.ExprStmt) and isinstance(s.expr, ast.Call) and (
                    s.expr.callee in ("atomicAdd", "atomicSub")
                ):
                    tgt = s.expr.args[0].operand  # Index, validated above
                    op = "+=" if s.expr.callee == "atomicAdd" else "-="
                    block.stmts[i] = _expr_stmt(ast.Assign(
                        op=op,
                        target=ast.Index(base=_ident(local), index=ast.clone(tgt.index)),
                        value=ast.clone(s.expr.args[1]),
                    ))
                elif isinstance(s, ast.Block):
                    rewrite(s)
                elif isinstance(s, ast.If):
                    for part in (s.then, s.other):
                        if isinstance(part, ast.Block):
                            rewrite(part)
                elif isinstance(s, (ast.For, ast.While, ast.DoWhile)):
                    if isinstance(s.body, ast.Block):
                        rewrite(s.body)
        rewrite(inner_body)

        def counting_loop(var: str, bound_expr: ast.Expr, body_stmts: List[ast.Stmt]) -> ast.For:
            return ast.For(
                init=ast.VarDecl(type=ty.INT, name=var, init=_int_lit(0)),
                cond=ast.Binary(op="<", left=_ident(var), right=bound_expr),
                step=ast.Postfix(op="++", operand=_ident(var)),
                body=ast.Block(stmts=body_stmts),
            )

        chunk_body = ast.Block(stmts=[
            ast.VarDecl(type=ty.INT, name=local, array_size=ast.clone(nbins)),
            counting_loop("v", ast.clone(nbins), [
                _expr_stmt(ast.Assign(
                    op="=", target=ast.Index(base=_ident(local), index=_ident("v")),
                    value=_int_lit(0),
                )),
            ]),
            counting_loop("k", _int_lit(chunk), [
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
            counting_loop("v", ast.clone(nbins), [
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
        pragma = ast.OmpPragma(directive="target teams distribute parallel for")
        if not self.opt.use_data_region:
            acc = pointer_access_kinds(chunk_body)
            for name, info in sorted(acc.items()):
                for buf in self.bufs.values():
                    if buf.host_name == name and buf.reduction_scalar is None:
                        pragma.maps.append(ast.MapClause(
                            kind=info.map_kind, name=name,
                            lower=_int_lit(0), length=buf.length_expr(),
                        ))
                        break
        loop = counting_loop("chunk_i", nchunks, chunk_body.stmts)
        return [ast.Pragma(pragma=pragma, body=loop)]

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

        left, right = expr.left, expr.right
        if is_geom(right, "threadIdx") and isinstance(left, ast.Binary) and (
            left.op == "*"
        ):
            a, b = left.left, left.right
            return (is_geom(a, "blockIdx") and is_geom(b, "blockDim")) or (
                is_geom(a, "blockDim") and is_geom(b, "blockIdx")
            )
        if is_geom(left, "threadIdx") and isinstance(right, ast.Binary) and (
            right.op == "*"
        ):
            a, b = right.left, right.right
            return (is_geom(a, "blockIdx") and is_geom(b, "blockDim")) or (
                is_geom(a, "blockDim") and is_geom(b, "blockIdx")
            )
        return False

    def _rewrite_kernel_atomics(self, body: ast.Stmt, red_scalar: Optional[str]):
        """atomicAdd -> `#pragma omp atomic` or reduction accumulation."""
        used_reduction = False
        wrapper = body if isinstance(body, ast.Block) else ast.Block(stmts=[body])

        def rewrite_block(block: ast.Block) -> None:
            nonlocal used_reduction
            new_stmts: List[ast.Stmt] = []
            for s in block.stmts:
                if isinstance(s, ast.ExprStmt) and isinstance(s.expr, ast.Call) and (
                    s.expr.callee in ("atomicAdd", "atomicSub")
                ):
                    tgt, val = s.expr.args[0], s.expr.args[1]
                    op = "+=" if s.expr.callee == "atomicAdd" else "-="
                    if (
                        red_scalar is not None
                        and isinstance(tgt, ast.Unary) and tgt.op == "&"
                        and isinstance(tgt.operand, ast.Index)
                        and isinstance(tgt.operand.base, ast.Ident)
                        and tgt.operand.base.name == "__red__" + red_scalar
                    ):
                        used_reduction = True
                        new_stmts.append(_expr_stmt(ast.Assign(
                            op=op, target=_ident(red_scalar), value=val
                        )))
                        continue
                    if isinstance(tgt, ast.Unary) and tgt.op == "&" and isinstance(
                        tgt.operand, ast.Index
                    ):
                        pragma = ast.OmpPragma(directive="atomic")
                        new_stmts.append(ast.Pragma(
                            pragma=pragma,
                            body=_expr_stmt(ast.Assign(
                                op=op, target=ast.clone(tgt.operand), value=val
                            )),
                        ))
                        continue
                    raise TranspileError("unsupported atomic target in kernel")
                if isinstance(s, ast.Block):
                    rewrite_block(s)
                elif isinstance(s, ast.If):
                    for part in (s.then, s.other):
                        if isinstance(part, ast.Block):
                            rewrite_block(part)
                elif isinstance(s, (ast.For, ast.While, ast.DoWhile)):
                    if isinstance(s.body, ast.Block):
                        rewrite_block(s.body)
                new_stmts.append(s)
            block.stmts = new_stmts
        rewrite_block(wrapper)
        return wrapper, used_reduction


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
