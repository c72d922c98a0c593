"""Simulated compiler drivers ("nvcc" and "clang++ -fopenmp").

Compilation = lex + parse + semantic analysis of the mini-language.  The
driver renders accumulated diagnostics into conventional compiler stderr;
LASSI's compile self-correction loop (§III-D1 of the paper) splices exactly
this text into its correction prompt, so fidelity of the message text is a
functional requirement, not cosmetics.

Front-end results are memoized in a process-wide :class:`CompileCache`
keyed by ``(sha256(source), dialect, filename)``.  The experiment grid
compiles the same sources over and over — every model re-front-ends the
same app baselines, self-correction rounds frequently resubmit identical
code, and synthetic-suite regeneration replays known sources — so the memo
turns all of that into dictionary lookups.  Results are safe to share: the
returned :class:`CompileResult` (program AST included) is treated as
read-only by every consumer.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.minilang import analyze, parse
from repro.minilang.ast import Program
from repro.minilang.diagnostics import DiagnosticBag, Severity
from repro.minilang.source import Dialect, SourceFile


@dataclass
class CompileResult:
    """Outcome of one compiler invocation."""

    ok: bool
    stderr: str
    command: str
    source: SourceFile
    program: Optional[Program] = None
    diagnostics: Optional[DiagnosticBag] = None

    @property
    def error_codes(self):
        if self.diagnostics is None:
            return []
        return [d.code for d in self.diagnostics.errors]

    @property
    def warning_count(self) -> int:
        if self.diagnostics is None:
            return 0
        return sum(1 for d in self.diagnostics if d.severity is Severity.WARNING)


class CompileCache:
    """Content-addressed memo of front-end results.

    Entries are keyed by the SHA-256 of the source text plus the dialect
    and filename (the filename is part of the rendered compile command and
    of diagnostic locations, so it belongs to the identity).  The cache is
    a bounded LRU — sources are small, but a long campaign should not grow
    memory without bound — and is thread-safe so concurrent grid workers
    can share it.  ``hits`` / ``misses`` expose the traffic; the throughput
    benchmarks report them.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, str, str], CompileResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(source_text: str, dialect: Dialect, filename: str) -> Tuple[str, str, str]:
        digest = hashlib.sha256(source_text.encode("utf-8")).hexdigest()
        return (digest, dialect.value, filename)

    def get(self, key: Tuple[str, str, str]) -> Optional[CompileResult]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Tuple[str, str, str], result: CompileResult) -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, float]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / total) if total else 0.0,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: Process-wide front-end memo shared by every driver (one per worker
#: process under the process execution backend).
_COMPILE_CACHE = CompileCache()


def compile_cache_stats() -> Dict[str, float]:
    """Hit/miss counters of the process-wide compile cache."""
    return _COMPILE_CACHE.stats()


#: Per-thread outcome of the calling thread's latest
#: :meth:`CompilerDriver.compile` (see :func:`last_compile_cached`).
_LAST_COMPILE = threading.local()


def last_compile_cached() -> bool:
    """Whether this thread's latest compile was served by the memo.

    True when the in-memory memo returned the entry, so the front end
    did not run.  Per thread, so concurrent grid workers sharing the memo
    cannot see each other's hits.
    """
    return getattr(_LAST_COMPILE, "cached", False)


def clear_compile_cache() -> None:
    """Drop every memoized front-end result and reset the counters."""
    _COMPILE_CACHE.clear()


@dataclass(frozen=True)
class CompilerDriver:
    """One toolchain: a command template plus the dialect it accepts."""

    name: str
    dialect: Dialect
    command_template: str

    def command(self, filename: str) -> str:
        return self.command_template.format(src=filename, out=_binary_name(filename))

    def compile(self, source_text: str, filename: Optional[str] = None) -> CompileResult:
        """'Compile' source text; diagnostics become compiler stderr.

        Identical (source, dialect, filename) invocations are served from
        the process-wide :class:`CompileCache`; the returned result must be
        treated as read-only.  :func:`last_compile_cached` tells the
        calling thread whether this call was such a replay.
        """
        fname = filename or ("code" + self.dialect.file_extension)
        key = CompileCache.key(source_text, self.dialect, fname)
        cached = _COMPILE_CACHE.get(key)
        _LAST_COMPILE.cached = cached is not None
        if cached is not None:
            return cached
        result = self._front_end(source_text, fname)
        _COMPILE_CACHE.put(key, result)
        return result

    def _front_end(self, source_text: str, fname: str) -> CompileResult:
        source = SourceFile(fname, source_text, self.dialect)
        command = self.command(fname)

        program, parse_diags = parse(source)
        bag = DiagnosticBag()
        bag.extend(parse_diags)
        if not parse_diags.has_errors:
            sema = analyze(program, self.dialect)
            bag.extend(sema.diagnostics)

        ok = not bag.has_errors
        stderr = bag.render(source)
        return CompileResult(
            ok=ok,
            stderr=stderr,
            command=command,
            source=source,
            program=program if ok else None,
            diagnostics=bag,
        )


def _binary_name(filename: str) -> str:
    stem = filename.rsplit("/", 1)[-1]
    for ext in (".cu", ".cpp", ".c", ".cxx"):
        if stem.endswith(ext):
            return stem[: -len(ext)]
    return stem + ".out"


#: The paper compiles CUDA with nvcc on the A100 host.
CUDA_COMPILER = CompilerDriver(
    name="nvcc",
    dialect=Dialect.CUDA,
    command_template="nvcc -O3 -arch=sm_80 -o {out} {src}",
)

#: ...and OpenMP target offload with clang.
OMP_COMPILER = CompilerDriver(
    name="clang++",
    dialect=Dialect.OMP,
    command_template=(
        "clang++ -O3 -fopenmp -fopenmp-targets=nvptx64-nvidia-cuda -o {out} {src}"
    ),
)


def compiler_for(dialect: Dialect) -> CompilerDriver:
    """The platform compiler for a dialect (mirrors the paper's setup)."""
    if dialect is Dialect.CUDA:
        return CUDA_COMPILER
    if dialect is Dialect.OMP:
        return OMP_COMPILER
    return CompilerDriver(
        name="g++", dialect=Dialect.C, command_template="g++ -O3 -o {out} {src}"
    )
