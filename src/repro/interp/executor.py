"""Program runner: hosts generated code, CUDA launches and the runtime API.

The runner is the "operating system + device driver" of the simulation.  It
owns the execution context, binds the program's generated code
(:mod:`repro.interp.codegen`) to it, performs kernel launches (with
barrier-aware thread scheduling when ``__syncthreads`` is present),
implements the C library and CUDA runtime calls the generated code makes,
and records the kernel and transfer events the performance model consumes.
OpenMP regions run inside the generated code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import GuestRuntimeError, InterpreterError
from repro.gpu.stats import ExecutionProfile, KernelEvent, OpCounters, TransferEvent
from repro.interp.codegen import BARRIER, GuestExit, ProgramCode
from repro.interp.context import ExecContext, Limits
from repro.interp.memory import Buffer, MemoryManager, Pointer, ScalarRef
from repro.interp.values import c_printf
from repro.minilang import ast
from repro.minilang import types as ty
from repro.minilang.source import Dialect

_SEGFAULT = "Segmentation fault (core dumped)"
_ILLEGAL = "CUDA error: an illegal memory access was encountered"


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
    """Runs one mini-language program on its generated code."""

    def __init__(
        self,
        program: ast.Program,
        dialect: Dialect,
        limits: Optional[Limits] = None,
    ) -> None:
        self.program = program
        self.dialect = dialect
        self.ctx = ExecContext(limits)
        self.global_env: dict = {}
        #: The program's generated code (built, or reused, at the first run).
        self.code: Optional[ProgramCode] = None
        #: (functions, kernels, shared sizes, init_globals) bound to this run
        self._bound: Optional[Tuple] = None

    def release(self) -> None:
        """Drop the bound functions once this runner will run no more.

        They close over the runner, so until they are dropped the runner
        and its guest buffers form a reference cycle that only the cyclic
        collector frees.
        """
        self._bound = None

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
            if self._bound is None:
                self.code = ProgramCode.of(self.program, self.dialect)
                self._bound = self.code.bind(self)
            functions, _, _, init_globals = self._bound
            init_globals()
            main = self.code.functions.get("main")
            if main is None:
                raise GuestRuntimeError(
                    "undefined reference to 'main'", detail="no entry point"
                )
            argv_buf = Buffer(len(argv), 8, False, "host", label="argv")
            argv_buf.cells[:] = list(argv)
            args: List[object] = []
            if len(main.params) >= 1:
                args.append(len(argv))
            if len(main.params) >= 2:
                args.append(Pointer(argv_buf, 0))
            args += [None] * (len(main.params) - len(args))
            result = functions["main"](*args)
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
    # C library (the generated code binds each one by name)
    # ------------------------------------------------------------------
    def _printf(self, *args):
        if not args or not isinstance(args[0], str):
            raise GuestRuntimeError(
                _SEGFAULT, detail="printf format is not a string literal"
            )
        text = c_printf(args[0], list(args[1:]))
        self.ctx.write_stdout(text)
        return len(text)

    def _fprintf(self, *args):
        text = c_printf(args[1], list(args[2:])) if len(args) >= 2 else ""
        self.ctx.write_stdout(text)
        return len(text)

    def _malloc(self, nbytes):
        # Bare (uncast, unassigned) allocation: byte-granular buffer.
        return self.host_alloc(int(nbytes), ty.CHAR)

    def _calloc(self, count, size):
        return self.host_alloc(int(count) * int(size), ty.CHAR)

    def _free(self, ptr):
        self.ctx.memory.free(ptr, "host")
        return None

    def _memset(self, ptr, value, nbytes):
        ctx = self.ctx
        self._require_pointer(ptr, "memset")
        count = int(nbytes) // ptr.buf.elem_bytes
        fill = float(value) if ptr.buf.is_float else int(value)
        if int(value) == 0:
            fill = 0.0 if ptr.buf.is_float else 0
        buf = ptr.buf
        if count > 0:
            device = ctx.space == "device"
            MemoryManager.check_access(buf, ptr.off, device)
            buf = MemoryManager.check_access(buf, ptr.off + count - 1, device)
        for i in range(ptr.off, ptr.off + count):
            buf.cells[i] = fill
        ctx.counters.store_bytes += count * ptr.buf.elem_bytes
        return ptr

    def _memcpy(self, dst, src, nbytes):
        ctx = self.ctx
        self._require_pointer(dst, "memcpy")
        self._require_pointer(src, "memcpy")
        count = int(nbytes) // dst.buf.elem_bytes
        if count > 0:
            for ptr in (dst, src):
                MemoryManager.check_access(ptr.buf, ptr.off, False)
                MemoryManager.check_access(ptr.buf, ptr.off + count - 1, False)
        dst.buf.cells[dst.off:dst.off + count] = (
            src.buf.cells[src.off:src.off + count]
        )
        ctx.counters.load_bytes += count * dst.buf.elem_bytes
        ctx.counters.store_bytes += count * dst.buf.elem_bytes
        return dst

    @staticmethod
    def _atoi(text):
        try:
            return int(str(text).strip())
        except ValueError:
            return 0

    @staticmethod
    def _atof(text):
        try:
            return float(str(text).strip())
        except ValueError:
            return 0.0

    @staticmethod
    def _require_pointer(v, api: str) -> None:
        if not isinstance(v, Pointer):
            raise GuestRuntimeError(
                _SEGFAULT, detail=f"{api} called with a non-pointer argument"
            )

    # ------------------------------------------------------------------
    # CUDA runtime API
    # ------------------------------------------------------------------
    def _cuda_malloc(self, ref, nbytes, elem_hint: Optional[ty.Type]):
        if not isinstance(ref, (ScalarRef, Pointer)):
            raise GuestRuntimeError(
                _SEGFAULT, detail="cudaMalloc needs a pointer-to-pointer"
            )
        elem = elem_hint or ty.FLOAT
        ptr = self.ctx.memory.alloc(int(nbytes), elem, "device")
        if isinstance(ref, ScalarRef):
            ptr.buf.label = ref.name
            ref.set(ptr)
        else:
            ref.buf.cells[ref.off] = ptr
        return 0

    def _cuda_free(self, ptr):
        self.ctx.memory.free(ptr, "device")
        return 0

    def _cuda_memset(self, ptr, value, nbytes):
        self._require_pointer(ptr, "cudaMemset")
        buf = ptr.buf
        if buf.space != "device":
            # As for cudaMemcpy: cudaErrorInvalidValue, nothing written.
            return 1
        if buf.freed:
            raise GuestRuntimeError(
                _ILLEGAL, detail="cudaMemset on a freed buffer"
            )
        nbytes = int(nbytes)
        count = nbytes // buf.elem_bytes
        if count < 0 or ptr.off < 0 or ptr.off + count > buf.length:
            raise GuestRuntimeError(
                _ILLEGAL,
                detail=(
                    f"cudaMemset of {nbytes} bytes overruns buffer "
                    f"(len {buf.length})"
                ),
            )
        fill = 0.0 if buf.is_float else 0
        if int(value) != 0:
            fill = float(value) if buf.is_float else int(value)
        for i in range(ptr.off, ptr.off + count):
            buf.cells[i] = fill
        return 0

    def _cuda_memcpy(self, dst, src, nbytes, kind) -> int:
        nbytes, kind = int(nbytes), int(kind)
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
        if count < 0 or min(src.off, dst.off) < 0 or (
            src.off + count > src.buf.length or dst.off + count > dst.buf.length
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
            self.ctx.profile.events.append(
                TransferEvent(bytes=nbytes, direction=direction, api="cuda")
            )
        return 0

    # ------------------------------------------------------------------
    # Device atomics
    # ------------------------------------------------------------------
    def _atomic_cell(self, ref, name: str) -> Tuple[object, Callable]:
        """The current value at an atomic's target and a writer for it."""
        device = self.ctx.space == "device"
        if isinstance(ref, ScalarRef):
            return ref.get(), ref.set
        if isinstance(ref, Pointer):
            buf = MemoryManager.check_access(ref.buf, ref.off, device)
            off = ref.off
        else:
            raise GuestRuntimeError(
                _ILLEGAL, detail=f"{name} on a non-pointer argument"
            )

        def write(v):
            buf.cells[off] = float(v) if buf.is_float else int(v)
        return buf.cells[off], write

    # ------------------------------------------------------------------
    # CUDA kernel launch
    # ------------------------------------------------------------------
    def launch(self, name: str, grid: int, block: int, args: List) -> None:
        ctx = self.ctx
        fn_def = self.code.functions.get(name)
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
        if len(args) != len(fn_def.params):
            raise GuestRuntimeError(
                "CUDA error: invalid device function",
                detail=f"kernel {name!r} launched with wrong argument count",
            )
        _, kernels, shared_sizes, _ = self._bound
        kernel = kernels[name]
        path = self.code.paths[name]
        counters = OpCounters()
        prev_counters = ctx.counters
        prev_space = ctx.space
        ctx.counters = counters
        ctx.space = "device"
        try:
            if path == "barrier":
                self._run_barrier_kernel(
                    kernel, shared_sizes[name], self.code.shared[name],
                    args, grid, block,
                )
            else:
                if path == "flat":
                    # The whole launch's step budget is charged up front.
                    ctx.steps_left -= grid * block
                    if ctx.steps_left < 0:
                        # Bottom out where a per-thread charge would
                        # (steps_left == -1), so steps_used never reports
                        # beyond max_steps + 1.
                        ctx.steps_left = -1
                        ctx.consume_steps(0)
                kernel(grid, block, args, counters)
        finally:
            ctx.counters = prev_counters
            ctx.space = prev_space
            ctx.geom = (0, 0, 1, 1)
        ctx.profile.events.append(
            KernelEvent(
                name=name,
                total_threads=grid * block,
                block_size=block,
                counters=counters,
                api="cuda",
                path=path,
            )
        )

    def _run_barrier_kernel(
        self, thread: Callable, shared_sizes: Callable, shared: List[ast.VarDecl],
        args: List, grid: int, block: int,
    ) -> None:
        """Interleave a block's threads at __syncthreads granularity."""
        ctx = self.ctx
        for bid in range(grid):
            buffers = [
                self.stack_alloc(n, decl.type, "device", label=decl.name)
                for decl, n in zip(shared, shared_sizes())
            ]
            live: List[Tuple[int, object]] = []
            for tid in range(block):
                ctx.geom = (tid, bid, block, grid)
                live.append((tid, thread(tid, bid, block, grid, args, buffers)))
            while live:
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
                live = at_barrier
