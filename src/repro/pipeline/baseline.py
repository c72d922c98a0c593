"""Source-code preparation stage (§III-A of the paper).

Compiles and executes the original code in both the source and the target
language before any translation happens.  A failure **halts** the pipeline
(the paper: "LASSI halts and does not move forward with the translation
until the user corrects the code").  Successful runs are cached per
(source, dialect, args) so the 80-scenario experiment pays the baseline cost
once per app, not once per model.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import BaselineError
from repro.minilang.source import Dialect
from repro.toolchain import CompileResult, Executor, compiler_for
from repro.toolchain.executor import ExecutionResult


@dataclass
class Baseline:
    """A verified-working original program plus its captured behaviour."""

    dialect: Dialect
    source: str
    compile_result: CompileResult
    execution: ExecutionResult

    @property
    def stdout(self) -> str:
        return self.execution.stdout

    @property
    def runtime_seconds(self) -> float:
        return self.execution.runtime_seconds


#: Cache key: (source, dialect, args, work_scale, launch_scale).
BaselineKey = Tuple[str, str, Tuple[str, ...], float, float]


class BaselinePreparer:
    """Prepares and caches baselines (the §III-A stage).

    Safe to share across concurrent pipeline workers: a per-key lock
    serialises the compile+run of each distinct baseline so the grid pays
    for every (app, dialect) exactly once, while different baselines can
    still be prepared in parallel.  ``compile_count`` / ``hit_count`` expose
    how many baselines were actually built versus served from cache — the
    resume and dedup tests assert on them.
    """

    def __init__(self, executor: Optional[Executor] = None) -> None:
        self.executor = executor or Executor()
        self._cache: Dict[BaselineKey, Baseline] = {}
        self._lock = threading.Lock()
        self._key_locks: Dict[BaselineKey, threading.Lock] = {}
        #: Number of baselines actually compiled+run (cache misses).
        self.compile_count = 0
        #: Number of ``prepare`` calls served from the cache.
        self.hit_count = 0

    def prepare(
        self,
        source: str,
        dialect: Dialect,
        args: Sequence[str] = (),
        work_scale: float = 1.0,
        launch_scale: Optional[float] = None,
    ) -> Baseline:
        """Compile + run the original code; raises BaselineError on failure."""
        key = (
            source, dialect.value, tuple(args), work_scale,
            launch_scale if launch_scale is not None else work_scale,
        )
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.hit_count += 1
                return cached
            key_lock = self._key_locks.setdefault(key, threading.Lock())

        with key_lock:
            # Another worker may have built this baseline while we waited.
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self.hit_count += 1
                    return cached
            baseline = self._build(source, dialect, args, work_scale, launch_scale)
            with self._lock:
                self._cache[key] = baseline
                self.compile_count += 1
            return baseline

    def _build(
        self,
        source: str,
        dialect: Dialect,
        args: Sequence[str],
        work_scale: float,
        launch_scale: Optional[float],
    ) -> Baseline:
        compiler = compiler_for(dialect)
        compile_result = compiler.compile(source)
        if not compile_result.ok:
            raise BaselineError(
                f"original {dialect.display_name} code failed to compile; "
                f"LASSI halts until the user corrects it:\n"
                f"{compile_result.stderr}"
            )
        execution = self.executor.run(
            compile_result.program, dialect, args,
            work_scale=work_scale, launch_scale=launch_scale,
        )
        if not execution.ok:
            raise BaselineError(
                f"original {dialect.display_name} code failed to execute; "
                f"LASSI halts until the user corrects it:\n{execution.stderr}"
            )
        return Baseline(
            dialect=dialect,
            source=source,
            compile_result=compile_result,
            execution=execution,
        )
