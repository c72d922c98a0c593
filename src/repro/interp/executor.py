"""Program runner: hosts compiled code, CUDA launches, OpenMP regions.

The runner is the "operating system + device driver" of the simulation.  It
owns the execution context, performs kernel launches (with barrier-aware
thread scheduling when ``__syncthreads`` is present), implements the CUDA
runtime API and the OpenMP target-mapping semantics, and records every
profile event the performance model consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import GuestRuntimeError, InterpreterError
from repro.gpu.stats import (
    ExecutionProfile,
    HostParallelEvent,
    KernelEvent,
    OpCounters,
    TransferEvent,
)
from repro.interp.compiler import (
    BARRIER,
    BREAK,
    CONTINUE,
    RETURN,
    FunctionCompiler,
    GuestExit,
)
from repro.interp.context import ExecContext, Limits
from repro.interp.memory import Buffer, ElemRef, MemoryManager, Pointer, ScalarRef
from repro.interp.values import c_printf
from repro.minilang import ast
from repro.minilang import types as ty
from repro.minilang.source import Dialect

_SEGFAULT = "Segmentation fault (core dumped)"
_ILLEGAL = "CUDA error: an illegal memory access was encountered"

#: Default parallel widths for OpenMP offload directives that do not spell
#: out full ``teams distribute parallel for`` parallelism.
_OMP_DIRECTIVE_WIDTH = {
    "target teams distribute parallel for": None,  # full width
    "target parallel for": 1024,                   # one team
    "target teams distribute": 216,                # one thread per team
    "target": 1,                                   # serial on device
}


@dataclass
class RunOutcome:
    """Result of executing a guest program."""

    stdout: str
    exit_code: int
    profile: ExecutionProfile
    error: Optional[str] = None
    error_detail: Optional[str] = None
    steps_used: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None and self.exit_code == 0


class ProgramRunner:
    """Compiles and runs one mini-language program."""

    def __init__(
        self,
        program: ast.Program,
        dialect: Dialect,
        limits: Optional[Limits] = None,
    ) -> None:
        self.program = program
        self.dialect = dialect
        self.ctx = ExecContext(limits)
        self.program_functions: Dict[str, ast.FuncDef] = {}
        for fn in program.functions:
            prev = self.program_functions.get(fn.name)
            if prev is None or fn.body.stmts:
                self.program_functions[fn.name] = fn
        self.global_types: Dict[str, ty.Type] = {}
        self.global_env: Dict[str, object] = {}
        self._global_decls: List[ast.VarDecl] = []
        for gv in program.globals:
            decl = gv.decl
            t = decl.type.pointer_to() if decl.array_size is not None else decl.type
            self.global_types[decl.name] = t
            self._global_decls.append(decl)
        self._compiled: Dict[str, Callable] = {}
        self._compilers: Dict[str, FunctionCompiler] = {}
        # (grid, block) -> flat thread-geometry schedule, reused across the
        # many same-shape launches an app performs (see _run_flat_kernel).
        self._geom_cache: Dict[Tuple[int, int], List[Tuple[int, int, int, int]]] = {}

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compiler_for(self, name: str) -> FunctionCompiler:
        fc = self._compilers.get(name)
        if fc is None:
            fn = self.program_functions.get(name)
            if fn is None:
                raise InterpreterError(f"no function named {name!r}")
            fc = FunctionCompiler(self, fn)
            self._compilers[name] = fc
        return fc

    def compiled(self, name: str) -> Callable:
        """Return a plain ``call(env) -> value`` for a non-kernel function."""
        fn_call = self._compiled.get(name)
        if fn_call is not None:
            return fn_call
        fc = self._compiler_for(name)
        body = fc.compile_body()
        fn_def = fc.fn
        default = 0.0 if fn_def.return_type.is_real else (
            None if fn_def.return_type.is_pointer else 0
        )

        if fc.barrier_mode:
            raise InterpreterError(
                f"kernel {name!r} with barriers must go through launch()"
            )

        def call(env):
            sig = body(env)
            if isinstance(sig, tuple) and sig[0] == RETURN:
                return sig[1]
            return default

        self._compiled[name] = call
        return call

    def release(self) -> None:
        """Drop the compiled closures once this runner will run no more.

        The closures capture the runner, so until they are dropped the
        runner and its guest buffers form a reference cycle that only the
        cyclic collector frees.
        """
        self._compiled.clear()
        self._compilers.clear()

    # ------------------------------------------------------------------
    # Program entry
    # ------------------------------------------------------------------
    def run(self, argv: Optional[List[str]] = None) -> RunOutcome:
        """Execute ``main(argc, argv)``; never raises for guest faults."""
        ctx = self.ctx
        argv = ["a.out"] + list(argv or [])
        error: Optional[str] = None
        detail: Optional[str] = None
        exit_code = 0
        try:
            self._init_globals()
            main = self.program_functions.get("main")
            if main is None:
                raise GuestRuntimeError(
                    "undefined reference to 'main'", detail="no entry point"
                )
            argv_buf = Buffer(len(argv), 8, False, "host", label="argv")
            argv_buf.cells[:] = list(argv)
            env: Dict[str, object] = {}
            if len(main.params) >= 1 and main.params[0].name:
                env[main.params[0].name] = len(argv)
            if len(main.params) >= 2 and main.params[1].name:
                env[main.params[1].name] = Pointer(argv_buf, 0)
            result = self.compiled("main")(env)
            exit_code = int(result) if result is not None else 0
        except GuestExit as exc:
            exit_code = exc.code
        except GuestRuntimeError as exc:
            error = exc.message
            detail = exc.detail
            exit_code = 139 if "Segmentation" in exc.message else 1
        except RecursionError:
            error = _SEGFAULT
            detail = "stack overflow (unbounded recursion)"
            exit_code = 139
        return RunOutcome(
            stdout=ctx.stdout,
            exit_code=exit_code,
            profile=ctx.profile,
            error=error,
            error_detail=detail,
            steps_used=ctx.limits.max_steps - ctx.steps_left,
        )

    def _init_globals(self) -> None:
        for decl in self._global_decls:
            if decl.array_size is not None:
                # Global arrays need main's compiler only for constant sizes.
                fc = FunctionCompiler(
                    self, ast.FuncDef(ty.VOID, "<globals>", [], ast.Block())
                )
                n = int(fc.compile_expr(decl.array_size)({}))
                self.global_env[decl.name] = self.stack_alloc(
                    n, decl.type, "host", label=decl.name
                )
            elif decl.init is not None:
                fc = FunctionCompiler(
                    self, ast.FuncDef(ty.VOID, "<globals>", [], ast.Block())
                )
                v = fc.compile_expr(decl.init)({})
                if decl.type.is_integer and isinstance(v, float):
                    v = int(v)
                self.global_env[decl.name] = v
            else:
                self.global_env[decl.name] = (
                    0.0 if decl.type.is_real
                    else (None if decl.type.is_pointer else 0)
                )

    # ------------------------------------------------------------------
    # Memory services
    # ------------------------------------------------------------------
    def host_alloc(self, nbytes: int, elem: ty.Type) -> Pointer:
        return self.ctx.memory.alloc(nbytes, elem, "host")

    def stack_alloc(
        self, count: int, elem: ty.Type, space: str, label: str = ""
    ) -> Pointer:
        return self.ctx.memory.alloc(count * max(1, elem.size), elem, space, label)

    # ------------------------------------------------------------------
    # Builtin dispatch (cold paths; math fast paths live in the compiler)
    # ------------------------------------------------------------------
    def call_builtin(self, name: str, args: List, elem_hint: Optional[ty.Type]):
        ctx = self.ctx

        if name == "printf":
            if not args or not isinstance(args[0], str):
                raise GuestRuntimeError(
                    _SEGFAULT, detail="printf format is not a string literal"
                )
            text = c_printf(args[0], args[1:])
            ctx.write_stdout(text)
            return len(text)
        if name == "fprintf":
            text = c_printf(args[1], args[2:]) if len(args) >= 2 else ""
            ctx.write_stdout(text)
            return len(text)

        if name in ("malloc", "calloc"):
            # Bare (uncast, unassigned) allocation: byte-granular buffer.
            nbytes = int(args[0]) if name == "malloc" else int(args[0]) * int(args[1])
            return self.host_alloc(nbytes, ty.CHAR)
        if name == "free":
            ctx.memory.free(args[0], "host")
            return None
        if name == "memset":
            ptr, value, nbytes = args
            self._require_pointer(ptr, "memset")
            count = int(nbytes) // ptr.buf.elem_bytes
            fill = float(value) if ptr.buf.is_float else int(value)
            if int(value) == 0:
                fill = 0.0 if ptr.buf.is_float else 0
            buf = MemoryManager.check_access(
                ptr.buf, ptr.off + max(0, count - 1), ctx.space == "device"
            ) if count > 0 else ptr.buf
            for i in range(ptr.off, ptr.off + count):
                buf.cells[i] = fill
            ctx.counters.store_bytes += count * ptr.buf.elem_bytes
            return ptr
        if name == "memcpy":
            dst, src, nbytes = args
            self._require_pointer(dst, "memcpy")
            self._require_pointer(src, "memcpy")
            count = int(nbytes) // dst.buf.elem_bytes
            if count > 0:
                MemoryManager.check_access(dst.buf, dst.off + count - 1, False)
                MemoryManager.check_access(src.buf, src.off + count - 1, False)
            dst.buf.cells[dst.off:dst.off + count] = (
                src.buf.cells[src.off:src.off + count]
            )
            ctx.counters.load_bytes += count * dst.buf.elem_bytes
            ctx.counters.store_bytes += count * dst.buf.elem_bytes
            return dst

        if name == "atoi":
            try:
                return int(str(args[0]).strip())
            except ValueError:
                return 0
        if name == "atof":
            try:
                return float(str(args[0]).strip())
            except ValueError:
                return 0.0
        if name == "rand":
            return ctx.c_rand()
        if name == "srand":
            ctx.c_srand(int(args[0]))
            return None
        if name == "exit":
            raise GuestExit(int(args[0]))
        if name == "assert":
            if not args[0]:
                raise GuestRuntimeError(
                    "Assertion failed\nAborted (core dumped)",
                    detail="assert() failed",
                )
            return None

        if name.startswith("cuda"):
            return self._cuda_api(name, args, elem_hint)
        if name.startswith("atomic"):
            return self._atomic(name, args)
        if name.startswith("omp_"):
            return self._omp_api(name, args)

        raise InterpreterError(f"builtin {name!r} not implemented")

    @staticmethod
    def _require_pointer(v, api: str) -> None:
        if not isinstance(v, Pointer):
            raise GuestRuntimeError(
                _SEGFAULT, detail=f"{api} called with a non-pointer argument"
            )

    # ------------------------------------------------------------------
    # CUDA runtime API
    # ------------------------------------------------------------------
    def _cuda_api(self, name: str, args: List, elem_hint: Optional[ty.Type]):
        ctx = self.ctx
        if name == "cudaMalloc":
            ref, nbytes = args
            if not isinstance(ref, (ScalarRef, ElemRef)):
                raise GuestRuntimeError(
                    _SEGFAULT, detail="cudaMalloc needs a pointer-to-pointer"
                )
            elem = elem_hint or ty.FLOAT
            ptr = ctx.memory.alloc(int(nbytes), elem, "device")
            if isinstance(ref, ScalarRef):
                ptr.buf.label = ref.name
                ref.set(ptr)
            else:
                ref.ptr.buf.cells[ref.ptr.off] = ptr
            return 0
        if name == "cudaFree":
            ctx.memory.free(args[0], "device")
            return 0
        if name == "cudaMemcpy":
            dst, src, nbytes, kind = args
            return self._cuda_memcpy(dst, src, int(nbytes), int(kind))
        if name == "cudaMemset":
            ptr, value, nbytes = args
            self._require_pointer(ptr, "cudaMemset")
            count = int(nbytes) // ptr.buf.elem_bytes
            fill = 0.0 if ptr.buf.is_float else 0
            if int(value) != 0:
                fill = float(value) if ptr.buf.is_float else int(value)
            for i in range(ptr.off, ptr.off + count):
                ptr.buf.cells[i] = fill
            return 0
        if name in ("cudaDeviceSynchronize", "cudaGetLastError"):
            return 0
        if name == "cudaGetErrorString":
            return "no error"
        raise InterpreterError(f"CUDA API {name!r} not implemented")

    def _cuda_memcpy(self, dst, src, nbytes: int, kind: int) -> int:
        ctx = self.ctx
        if not isinstance(dst, Pointer) or not isinstance(src, Pointer):
            raise GuestRuntimeError(
                _SEGFAULT, detail="cudaMemcpy with a non-pointer argument"
            )
        expected = {
            0: ("host", "host", None),
            1: ("host", "device", "h2d"),
            2: ("device", "host", "d2h"),
            3: ("device", "device", "d2d"),
        }.get(kind)
        if expected is None:
            return 1  # cudaErrorInvalidMemcpyDirection (unchecked by guests)
        src_space, dst_space, direction = expected
        if src.buf.space != src_space or dst.buf.space != dst_space:
            # Real CUDA returns cudaErrorInvalidValue and copies nothing; the
            # guest usually ignores the code and later prints garbage.
            return 1
        if dst.buf.freed or src.buf.freed:
            raise GuestRuntimeError(
                _ILLEGAL, detail="cudaMemcpy on a freed buffer"
            )
        count = nbytes // dst.buf.elem_bytes
        if count < 0 or src.off + count > src.buf.length or (
            dst.off + count > dst.buf.length
        ):
            raise GuestRuntimeError(
                _ILLEGAL,
                detail=(
                    f"cudaMemcpy of {nbytes} bytes overruns buffer "
                    f"(src len {src.buf.length}, dst len {dst.buf.length})"
                ),
            )
        dst.buf.cells[dst.off:dst.off + count] = src.buf.cells[src.off:src.off + count]
        if direction is not None:
            ctx.profile.events.append(
                TransferEvent(bytes=nbytes, direction=direction, api="cuda")
            )
        return 0

    # ------------------------------------------------------------------
    # Device atomics
    # ------------------------------------------------------------------
    def _atomic(self, name: str, args: List):
        ctx = self.ctx
        ref = args[0]
        value = args[1] if len(args) > 1 else 0
        if isinstance(ref, ElemRef):
            p = ref.ptr
            buf = MemoryManager.check_access(p.buf, p.off, ctx.space == "device")
            old = buf.cells[p.off]

            def write(v):
                buf.cells[p.off] = float(v) if buf.is_float else int(v)
        elif isinstance(ref, ScalarRef):
            old = ref.get()

            def write(v):
                ref.set(v)
        elif isinstance(ref, Pointer):
            buf = MemoryManager.check_access(ref.buf, ref.off, ctx.space == "device")
            old = buf.cells[ref.off]

            def write(v):
                buf.cells[ref.off] = float(v) if buf.is_float else int(v)
        else:
            raise GuestRuntimeError(
                _ILLEGAL, detail=f"{name} on a non-pointer argument"
            )

        c = ctx.counters
        c.atomics += 1
        c.store_bytes += 4
        if name == "atomicAdd":
            write(old + value)
        elif name == "atomicSub":
            write(old - value)
        elif name == "atomicMax":
            write(max(old, value))
        elif name == "atomicMin":
            write(min(old, value))
        elif name == "atomicExch":
            write(value)
        elif name == "atomicCAS":
            compare, val = args[1], args[2]
            if old == compare:
                write(val)
        else:
            raise InterpreterError(f"atomic {name!r} not implemented")
        return old

    # ------------------------------------------------------------------
    # OpenMP runtime library
    # ------------------------------------------------------------------
    def _omp_api(self, name: str, args: List):
        if name == "omp_get_num_threads":
            return 1
        if name == "omp_get_max_threads":
            return 64
        if name == "omp_get_thread_num":
            return 0
        if name == "omp_set_num_threads":
            return None
        if name == "omp_get_num_devices":
            return 1
        raise InterpreterError(f"OMP API {name!r} not implemented")

    # ------------------------------------------------------------------
    # CUDA kernel launch
    # ------------------------------------------------------------------
    def launch(self, name: str, grid: int, block: int, args: List) -> None:
        ctx = self.ctx
        fn_def = self.program_functions.get(name)
        if fn_def is None or not fn_def.is_kernel:
            raise GuestRuntimeError(
                "CUDA error: invalid device function",
                detail=f"launch of unknown or non-kernel function {name!r}",
            )
        if block <= 0 or block > 1024 or grid <= 0:
            raise GuestRuntimeError(
                "CUDA error: invalid configuration argument",
                detail=f"launch configuration <<<{grid}, {block}>>> is invalid",
            )
        fc = self._compiler_for(name)
        body = self._compiled.get(f"__kernel__{name}")
        if body is None:
            body = fc.compile_body()
            self._compiled[f"__kernel__{name}"] = body

        param_names = [p.name for p in fn_def.params]
        if len(args) != len(param_names):
            raise GuestRuntimeError(
                "CUDA error: invalid device function",
                detail=f"kernel {name!r} launched with wrong argument count",
            )
        base_env = dict(zip(param_names, args))

        counters = OpCounters()
        prev_counters = ctx.counters
        prev_space = ctx.space
        ctx.counters = counters
        ctx.space = "device"
        total = grid * block
        if fc.barrier_mode:
            path = "barrier"
        elif not fc.has_atomics:
            path = "flat"
        else:
            path = "slow"
        try:
            if fc.barrier_mode:
                self._run_barrier_kernel(fc, body, base_env, grid, block)
            elif not fc.has_atomics:
                self._run_flat_kernel(body, base_env, grid, block)
            else:
                for bid in range(grid):
                    for tid in range(block):
                        ctx.geom = (tid, bid, block, grid)
                        ctx.steps_left -= 1
                        if ctx.steps_left < 0:
                            ctx.consume_steps(0)
                        body(dict(base_env))
        finally:
            ctx.counters = prev_counters
            ctx.space = prev_space
            ctx.geom = (0, 0, 1, 1)
        ctx.profile.events.append(
            KernelEvent(
                name=name,
                total_threads=total,
                block_size=block,
                counters=counters,
                api="cuda",
                path=path,
            )
        )

    #: Largest grid*block for which the flat schedule is materialized and
    #: memoized; bigger launches fall back to the nested loops (a cached
    #: million-tuple schedule would cost more memory than it saves time).
    _GEOM_CACHE_MAX_THREADS = 65536

    def _run_flat_kernel(
        self, body: Callable, base_env: Dict, grid: int, block: int
    ) -> None:
        """Single-pass schedule for barrier-free, atomics-free kernels.

        Semantically identical to the nested block/thread loops — threads
        still execute serially in (block, thread) order — but the per-thread
        harness work is hoisted out of the loop: the whole launch's step
        budget is charged once up front, the per-thread environment copy is
        a single bound ``dict.copy`` call, and the geometry tuples are
        materialized once per (grid, block) shape and reused across the
        app's repeated same-shape launches.
        """
        ctx = self.ctx
        total = grid * block
        ctx.steps_left -= total
        if ctx.steps_left < 0:
            # Terminal state must match the nested path, which bottoms out
            # at steps_left == -1 (one over-decrement, then fault): clamp so
            # steps_used never reports beyond max_steps + 1.
            ctx.steps_left = -1
            ctx.consume_steps(0)
        make_env = base_env.copy
        if total <= self._GEOM_CACHE_MAX_THREADS:
            geoms = self._geom_cache.get((grid, block))
            if geoms is None:
                geoms = [
                    (tid, bid, block, grid)
                    for bid in range(grid)
                    for tid in range(block)
                ]
                self._geom_cache[(grid, block)] = geoms
            for geom in geoms:
                ctx.geom = geom
                body(make_env())
        else:
            for bid in range(grid):
                for tid in range(block):
                    ctx.geom = (tid, bid, block, grid)
                    body(make_env())

    def _run_barrier_kernel(
        self, fc: FunctionCompiler, body: Callable, base_env: Dict,
        grid: int, block: int,
    ) -> None:
        """Interleave a block's threads at __syncthreads granularity."""
        ctx = self.ctx
        shared_sizes = [
            (
                decl,
                fc.compile_expr(decl.array_size)
                if decl.array_size is not None else None,
            )
            for decl in fc.shared_decls
        ]
        for bid in range(grid):
            shared_env: Dict[str, object] = {}
            for decl, size_c in shared_sizes:
                n = int(size_c({})) if size_c is not None else 1
                shared_env[decl.name] = self.stack_alloc(
                    n, decl.type, "device", label=decl.name
                )
            # Hoist the merged per-thread environment template out of the
            # thread loop; each thread then needs only one dict copy.
            merged_env = {**base_env, **shared_env}
            make_env = merged_env.copy
            threads: List[Tuple[int, object]] = []
            for tid in range(block):
                ctx.geom = (tid, bid, block, grid)
                threads.append((tid, body(make_env())))
            live = list(threads)
            while live:
                next_live = []
                at_barrier = []
                finished = []
                for tid, gen in live:
                    ctx.geom = (tid, bid, block, grid)
                    ctx.steps_left -= 1
                    if ctx.steps_left < 0:
                        ctx.consume_steps(0)
                    try:
                        signal = next(gen)
                    except StopIteration:
                        finished.append(tid)
                        continue
                    if signal == BARRIER:
                        at_barrier.append((tid, gen))
                    else:  # pragma: no cover - defensive
                        raise InterpreterError(f"unexpected kernel yield {signal!r}")
                if at_barrier and finished:
                    # Divergent barrier: some threads exited while others
                    # wait.  Real hardware hangs; we fail deterministically.
                    raise GuestRuntimeError(
                        "CUDA error: the launch timed out and was terminated",
                        detail=(
                            f"barrier divergence in block {bid}: threads "
                            f"{finished[:4]} exited while others wait at "
                            f"__syncthreads()"
                        ),
                    )
                ctx.profile.barrier_waits += len(at_barrier)
                next_live = at_barrier
                live = next_live

    # ------------------------------------------------------------------
    # OpenMP pragma execution
    # ------------------------------------------------------------------
    def compile_pragma(self, fc: FunctionCompiler, stmt: ast.Pragma) -> Callable:
        pragma = stmt.pragma
        ctx = self.ctx

        if self.dialect is Dialect.CUDA:
            # nvcc ignored the pragma at compile time; run the body serially.
            if stmt.body is None:
                return lambda env: None
            return fc.compile_stmt(stmt.body)

        if pragma.directive == "target data":
            maps = self._compile_maps(fc, pragma)
            body = fc.compile_stmt(stmt.body) if stmt.body is not None else None

            def run_target_data(env):
                entered = self._maps_enter(maps, env)
                try:
                    if body is not None:
                        return body(env)
                    return None
                finally:
                    self._maps_exit(entered)
            return run_target_data

        if pragma.is_target and pragma.is_loop:
            return self._compile_target_loop(fc, stmt)

        if pragma.directive == "target":
            maps = self._compile_maps(fc, pragma)
            body = fc.compile_stmt(stmt.body) if stmt.body is not None else None

            def run_target_serial(env):
                entered = self._maps_enter(maps, env)
                counters = OpCounters()
                prev_counters, prev_space = ctx.counters, ctx.space
                ctx.counters, ctx.space = counters, "device"
                try:
                    sig = body(env) if body is not None else None
                finally:
                    ctx.counters, ctx.space = prev_counters, prev_space
                    ctx.profile.events.append(
                        KernelEvent(
                            name="<target>",
                            total_threads=1,
                            block_size=1,
                            counters=counters,
                            api="omp",
                            parallel_limit=1,
                            path="omp",
                        )
                    )
                    self._maps_exit(entered)
                return sig
            return run_target_serial

        if pragma.directive in ("parallel for", "parallel"):
            return self._compile_host_parallel(fc, stmt)

        if pragma.directive == "atomic":
            body = fc.compile_stmt(stmt.body)

            def run_atomic(env):
                ctx.counters.atomics += 1
                return body(env)
            return run_atomic

        if pragma.directive in ("critical", "simd"):
            return fc.compile_stmt(stmt.body) if stmt.body is not None else (lambda env: None)
        if pragma.directive == "barrier":
            return lambda env: None

        # Unhandled directive: execute the body plainly.
        if stmt.body is not None:
            return fc.compile_stmt(stmt.body)
        return lambda env: None

    # -- map clause helpers ------------------------------------------------
    def _compile_maps(self, fc: FunctionCompiler, pragma: ast.OmpPragma) -> List:
        compiled = []
        for mc in pragma.maps:
            ident = ast.Ident(name=mc.name)
            var_c = fc.compile_expr(ident)
            length_c = fc.compile_expr(mc.length) if mc.length is not None else None
            t = fc.static_type(ident)
            is_array = t is not None and t.is_pointer
            compiled.append((mc.kind, var_c, length_c, is_array, mc.name))
        return compiled

    def _maps_enter(self, maps: List, env) -> List:
        ctx = self.ctx
        entered = []
        for kind, var_c, length_c, is_array, name in maps:
            if not is_array:
                continue  # scalar maps are firstprivate-ish: no transfer cost
            value = var_c(env)
            if value is None:
                raise GuestRuntimeError(
                    _SEGFAULT, detail=f"map clause names NULL pointer '{name}'"
                )
            if not isinstance(value, Pointer):
                continue
            buf = value.buf
            moved = ctx.memory.map_enter(buf, kind)
            if moved:
                section = (
                    int(length_c(env)) * buf.elem_bytes
                    if length_c is not None else buf.nbytes
                )
                ctx.profile.events.append(
                    TransferEvent(bytes=min(moved, section) if section else moved,
                                  direction="h2d", api="omp")
                )
            entered.append((buf, length_c, env))
        return entered

    def _maps_exit(self, entered: List) -> None:
        ctx = self.ctx
        for buf, length_c, env in reversed(entered):
            moved = ctx.memory.map_exit(buf)
            if moved:
                section = (
                    int(length_c(env)) * buf.elem_bytes
                    if length_c is not None else buf.nbytes
                )
                ctx.profile.events.append(
                    TransferEvent(bytes=min(moved, section) if section else moved,
                                  direction="d2h", api="omp")
                )

    # -- device loop -------------------------------------------------------
    def _compile_target_loop(self, fc: FunctionCompiler, stmt: ast.Pragma) -> Callable:
        ctx = self.ctx
        pragma = stmt.pragma
        loop = stmt.body
        if not isinstance(loop, ast.For):  # pragma: no cover - sema enforces
            return fc.compile_stmt(stmt.body) if stmt.body else (lambda env: None)
        maps = self._compile_maps(fc, pragma)
        nest = self._compile_canonical_nest(fc, loop, pragma.collapse)
        reduction = pragma.reduction
        num_threads_c = (
            fc.compile_expr(pragma.num_threads) if pragma.num_threads is not None else None
        )
        thread_limit_c = (
            fc.compile_expr(pragma.thread_limit) if pragma.thread_limit is not None else None
        )
        directive_width = _OMP_DIRECTIVE_WIDTH.get(pragma.directive)

        def run_target_loop(env):
            entered = self._maps_enter(maps, env)
            counters = OpCounters()
            prev_counters, prev_space = ctx.counters, ctx.space
            saved_reduction = {}
            if reduction is not None:
                identity = {
                    "+": 0, "-": 0, "*": 1,
                    "max": -math.inf, "min": math.inf,
                    "&&": 1, "||": 0,
                }[reduction.op]
                for rname in reduction.names:
                    saved_reduction[rname] = env.get(rname)
                    env[rname] = identity
            ctx.counters, ctx.space = counters, "device"
            try:
                iterations = nest(env)
            finally:
                ctx.counters, ctx.space = prev_counters, prev_space
            if reduction is not None:
                combine = {
                    "+": lambda a, b: a + b,
                    "-": lambda a, b: a + b,
                    "*": lambda a, b: a * b,
                    "max": max, "min": min,
                    "&&": lambda a, b: 1 if (a and b) else 0,
                    "||": lambda a, b: 1 if (a or b) else 0,
                }[reduction.op]
                for rname, saved in saved_reduction.items():
                    acc = env[rname]
                    base = saved if saved is not None else (
                        0 if reduction.op in ("+", "-") else acc
                    )
                    combined = combine(base, acc)
                    if isinstance(saved, int) and not isinstance(saved, bool) and (
                        not isinstance(combined, int)
                    ) and combined not in (math.inf, -math.inf):
                        combined = type(saved)(combined) if isinstance(combined, float) and combined.is_integer() else combined
                    env[rname] = combined
            limit = directive_width
            if num_threads_c is not None:
                v = int(num_threads_c(env))
                limit = v if limit is None else min(limit, v)
            if thread_limit_c is not None:
                v = int(thread_limit_c(env))
                limit = v if limit is None else min(limit, v)
            ctx.profile.events.append(
                KernelEvent(
                    name=f"<{pragma.directive}>",
                    total_threads=max(1, iterations),
                    block_size=min(256, max(1, iterations)),
                    counters=counters,
                    api="omp",
                    parallel_limit=limit,
                    path="omp",
                )
            )
            self._maps_exit(entered)
            return None
        return run_target_loop

    def _compile_canonical_nest(
        self, fc: FunctionCompiler, loop: ast.For, collapse: int
    ) -> Callable:
        """Compile up to ``collapse`` canonical loop levels + innermost body.

        Returns ``run(env) -> iterations`` where iterations is the total
        number of (collapsed) parallel iterations executed.
        """
        levels = []
        cur: ast.For = loop
        for level in range(collapse):
            parts = self._canonical_parts(fc, cur)
            if parts is None:
                break
            levels.append(parts)
            if level + 1 < collapse:
                nxt = self._sole_inner_for(cur.body)
                if nxt is None:
                    break
                cur = nxt
        if not levels:
            # Non-canonical (should have been rejected); run generically.
            body = fc.compile_stmt(loop)

            def run_generic(env):
                body(env)
                return 1
            return run_generic

        innermost_body = fc.compile_stmt(levels[-1][4])
        ctx = self.ctx

        # The recursion comes in as ``nest`` rather than through the
        # closure's own name, which would be a reference cycle.
        def run_nest(env, depth, nest):
            var, start_c, cond_fn, bound_c, _body, delta_c = levels[depth]
            i = start_c(env)
            bound = bound_c(env)
            delta = delta_c(env)
            count = 0
            if depth + 1 < len(levels):
                while cond_fn(i, bound):
                    ctx.steps_left -= 1
                    if ctx.steps_left < 0:
                        ctx.consume_steps(0)
                    env[var] = i
                    count += nest(env, depth + 1, nest)
                    i += delta
            else:
                while cond_fn(i, bound):
                    ctx.steps_left -= 1
                    if ctx.steps_left < 0:
                        ctx.consume_steps(0)
                    env[var] = i
                    sig = innermost_body(env)
                    if sig is not None and sig is not CONTINUE:
                        if sig is BREAK:
                            break
                        # return inside an OpenMP loop is non-conforming;
                        # stop iterating like a break.
                        break
                    count += 1
                    i += delta
            return count

        def run(env):
            return run_nest(env, 0, run_nest)
        return run

    def _sole_inner_for(self, body: ast.Stmt) -> Optional[ast.For]:
        if isinstance(body, ast.For):
            return body
        if isinstance(body, ast.Block):
            fors = [s for s in body.stmts if isinstance(s, ast.For)]
            if len(fors) == 1 and len(body.stmts) == 1:
                return fors[0]
        return None

    def _canonical_parts(self, fc: FunctionCompiler, loop: ast.For):
        """Extract (var, start_c, cond_fn, bound_c, body_ast, delta_c)."""
        import operator as _op

        init = loop.init
        if isinstance(init, ast.VarDecl) and init.init is not None:
            var = init.name
            start_c = fc.compile_expr(init.init)
        elif (
            isinstance(init, ast.ExprStmt)
            and isinstance(init.expr, ast.Assign)
            and init.expr.op == "="
            and isinstance(init.expr.target, ast.Ident)
        ):
            var = init.expr.target.name
            start_c = fc.compile_expr(init.expr.value)
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
        cond_fn = {"<": _op.lt, "<=": _op.le, ">": _op.gt, ">=": _op.ge}[cond.op]
        bound_c = fc.compile_expr(cond.right)

        step = loop.step
        delta_c = None
        if isinstance(step, (ast.Postfix, ast.Unary)) and step.op in ("++", "--"):
            target = step.operand
            if isinstance(target, ast.Ident) and target.name == var:
                d = 1 if step.op == "++" else -1
                delta_c = lambda env, _d=d: _d
        elif isinstance(step, ast.Assign) and isinstance(step.target, ast.Ident) and (
            step.target.name == var
        ):
            if step.op == "+=":
                inner = fc.compile_expr(step.value)
                delta_c = lambda env: int(inner(env))
            elif step.op == "-=":
                inner = fc.compile_expr(step.value)
                delta_c = lambda env: -int(inner(env))
            elif step.op == "=" and isinstance(step.value, ast.Binary) and (
                step.value.op in ("+", "-")
                and isinstance(step.value.left, ast.Ident)
                and step.value.left.name == var
            ):
                inner = fc.compile_expr(step.value.right)
                sign = 1 if step.value.op == "+" else -1
                delta_c = lambda env, _s=sign: _s * int(inner(env))
        if delta_c is None:
            return None
        return (var, start_c, cond_fn, bound_c, loop.body, delta_c)

    # -- host parallel -------------------------------------------------------
    def _compile_host_parallel(self, fc: FunctionCompiler, stmt: ast.Pragma) -> Callable:
        ctx = self.ctx
        pragma = stmt.pragma
        body = fc.compile_stmt(stmt.body) if stmt.body is not None else None
        num_threads_c = (
            fc.compile_expr(pragma.num_threads) if pragma.num_threads is not None else None
        )
        reduction = pragma.reduction

        def run_host_parallel(env):
            counters = OpCounters()
            prev = ctx.counters
            ctx.counters = counters
            saved_reduction = {}
            if reduction is not None:
                identity = {
                    "+": 0, "-": 0, "*": 1,
                    "max": -math.inf, "min": math.inf,
                    "&&": 1, "||": 0,
                }[reduction.op]
                for rname in reduction.names:
                    saved_reduction[rname] = env.get(rname)
                    env[rname] = identity
            try:
                sig = body(env) if body is not None else None
            finally:
                ctx.counters = prev
            if reduction is not None:
                combine = {
                    "+": lambda a, b: a + b, "-": lambda a, b: a + b,
                    "*": lambda a, b: a * b, "max": max, "min": min,
                    "&&": lambda a, b: 1 if (a and b) else 0,
                    "||": lambda a, b: 1 if (a or b) else 0,
                }[reduction.op]
                for rname, saved in saved_reduction.items():
                    base = saved if saved is not None else 0
                    env[rname] = combine(base, env[rname])
            threads = 64
            if num_threads_c is not None:
                threads = max(1, int(num_threads_c(env)))
            ctx.profile.events.append(
                HostParallelEvent(counters=counters, num_threads=threads)
            )
            return sig
        return run_host_parallel
