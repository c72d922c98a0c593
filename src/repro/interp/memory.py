"""Guest memory model: list-backed buffers with space tagging.

Buffers are Python lists (fastest per-element access under CPython — NumPy
scalar indexing boxes on every read, which dominates an interpreter's hot
loop; see the profiling-first guidance the project follows).  Each buffer is
tagged with an address space:

* ``host``   — malloc'd memory; dereferencing it from device code raises the
  CUDA illegal-access error.
* ``device`` — cudaMalloc'd memory (or an OpenMP present-table shadow);
  dereferencing it from host code raises a segfault, exactly what happens on
  a real system when host code touches a device pointer.

A variable whose address is taken (or a ``__shared__`` scalar) lives in a
*cell*: a one-element buffer allocated where the variable is declared, in
that declaration's address space.  ``&x`` is then an ordinary
:class:`Pointer` to it, so every pointer consumer serves it.  Cells and
declared arrays are *declared* storage (:meth:`MemoryManager.declare`),
which ``free`` refuses as glibc does.

OpenMP ``map`` semantics attach a device *shadow* buffer to a host buffer
with reference counting (nested ``target data`` regions map once), matching
the OpenMP present-table model.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import GuestRuntimeError, InterpreterError
from repro.minilang import types as ty

_SEGFAULT = "Segmentation fault (core dumped)"
_ILLEGAL = "CUDA error: an illegal memory access was encountered"


class Buffer:
    """One allocation in the guest."""

    __slots__ = (
        "cells", "length", "elem_bytes", "is_float", "space", "freed",
        "shadow", "map_depth", "map_kinds", "label", "declared",
    )

    def __init__(
        self,
        length: int,
        elem_bytes: int,
        is_float: bool,
        space: str,
        label: str = "",
    ) -> None:
        fill = 0.0 if is_float else 0
        self.cells: List = [fill] * length
        self.length = length
        self.elem_bytes = elem_bytes
        self.is_float = is_float
        self.space = space
        self.freed = False
        self.shadow: Optional["Buffer"] = None
        self.map_depth = 0
        self.map_kinds: List[str] = []
        self.label = label
        #: a declaration owns it (a cell or an array), not an allocator
        self.declared = False

    @property
    def nbytes(self) -> int:
        return self.length * self.elem_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Buffer({self.label or '?'}, n={self.length}, "
            f"elem={self.elem_bytes}B, {self.space}{', freed' if self.freed else ''})"
        )


class Pointer:
    """A typed pointer: buffer + element offset."""

    __slots__ = ("buf", "off")

    def __init__(self, buf: Buffer, off: int = 0) -> None:
        self.buf = buf
        self.off = off

    def offset_by(self, delta: int) -> "Pointer":
        return Pointer(self.buf, self.off + int(delta))

    def read_string(self) -> str:
        """Interpret the pointed-to cells as a string (argv support)."""
        cell = self.buf.cells[self.off]
        if isinstance(cell, str):
            return cell
        chars = []
        for i in range(self.off, self.buf.length):
            v = self.buf.cells[i]
            if v == 0:
                break
            chars.append(chr(int(v) & 0xFF))
        return "".join(chars)

    def __eq__(self, other) -> bool:
        if other is None:
            return False
        return (
            isinstance(other, Pointer)
            and self.buf is other.buf
            and self.off == other.off
        )

    def __hash__(self) -> int:
        return hash((id(self.buf), self.off))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Pointer({self.buf!r}+{self.off})"


class MemoryManager:
    """Allocates a guest program run's buffers and counts their bytes."""

    def __init__(self) -> None:
        self.host_bytes = 0
        self.device_bytes = 0
        self.byte_limit = 1 << 30  # 1 GiB of simulated memory per space

    # ------------------------------------------------------------------
    def alloc(
        self,
        nbytes: int,
        elem_type: ty.Type,
        space: str,
        label: str = "",
    ) -> Pointer:
        nbytes = int(nbytes)
        if nbytes < 0:
            raise GuestRuntimeError(
                _SEGFAULT, detail=f"allocation of negative size {nbytes}"
            )
        elem_bytes = max(1, elem_type.size)
        length = max(0, nbytes // elem_bytes)
        is_float = elem_type.kind in (ty.Kind.FLOAT, ty.Kind.DOUBLE)
        if space == "host":
            self.host_bytes += nbytes
            if self.host_bytes > self.byte_limit:
                raise GuestRuntimeError(
                    "std::bad_alloc", detail="simulated host memory exhausted"
                )
        else:
            self.device_bytes += nbytes
            if self.device_bytes > self.byte_limit:
                raise GuestRuntimeError(
                    "CUDA error: out of memory",
                    detail="simulated device memory exhausted",
                )
        return Pointer(Buffer(length, elem_bytes, is_float, space, label), 0)

    def declare(self, nbytes: int, elem_type: ty.Type, space: str, label: str) -> Pointer:
        """Storage a declaration owns: an array, or the cell of a variable
        whose address is taken.  ``free`` refuses it."""
        ptr = self.alloc(nbytes, elem_type, space, label)
        ptr.buf.declared = True
        return ptr

    def free(self, ptr: Optional[Pointer], space: str) -> None:
        if ptr is None:
            return  # free(NULL) is a no-op
        if not isinstance(ptr, Pointer):
            raise GuestRuntimeError(_SEGFAULT, detail="free of a non-pointer value")
        buf = ptr.buf
        if buf.freed:
            raise GuestRuntimeError(
                "free(): double free detected in tcache 2\nAborted (core dumped)"
                if space == "host"
                else "CUDA error: invalid argument",
                detail=f"double free of buffer {buf.label or '?'}",
            )
        if buf.space != space:
            api = "free()" if space == "host" else "cudaFree()"
            raise GuestRuntimeError(
                _SEGFAULT if space == "host" else "CUDA error: invalid argument",
                detail=f"{api} called on a {buf.space} pointer",
            )
        if buf.declared:
            raise GuestRuntimeError(
                "free(): invalid pointer\nAborted (core dumped)",
                detail=f"free() called on the storage of variable {buf.label}",
            )
        buf.freed = True
        if space == "host":
            self.host_bytes -= buf.nbytes
        else:
            self.device_bytes -= buf.nbytes

    # ------------------------------------------------------------------
    # Access checking (the generated code inlines the in-bounds fast path)
    # ------------------------------------------------------------------
    @staticmethod
    def check_access(buf: Buffer, index: int, device: bool) -> Buffer:
        """Validate an element access; returns the buffer to actually touch.

        When ``device`` is true and the buffer is host memory with an active
        shadow (OpenMP mapping), accesses are redirected to the shadow.
        """
        if buf.freed:
            raise GuestRuntimeError(
                _ILLEGAL if device else _SEGFAULT,
                detail=f"use-after-free of buffer {buf.label or '?'}",
            )
        if device:
            if buf.space == "host":
                shadow = buf.shadow
                if shadow is not None:
                    buf = shadow
                else:
                    raise GuestRuntimeError(
                        _ILLEGAL,
                        detail=(
                            f"device code dereferenced unmapped host pointer "
                            f"{buf.label or '?'}"
                        ),
                    )
        else:
            if buf.space == "device":
                raise GuestRuntimeError(
                    _SEGFAULT,
                    detail=(
                        f"host code dereferenced device pointer {buf.label or '?'}"
                    ),
                )
        if index < 0 or index >= buf.length:
            raise GuestRuntimeError(
                _ILLEGAL if device else _SEGFAULT,
                detail=(
                    f"index {index} out of bounds for buffer "
                    f"{buf.label or '?'} of length {buf.length}"
                ),
            )
        return buf

    # ------------------------------------------------------------------
    # Pointers resolved once per launch or loop (the generated code's
    # hoisted form)
    # ------------------------------------------------------------------
    @staticmethod
    def view(ptr, device: bool = True) -> tuple:
        """``(cells, offset, length, elem_bytes, is_float)`` of what code
        reaches through ``ptr``: device code (``device``) a device buffer
        or the shadow of a mapped host buffer, host code a host buffer.

        Never raises.  A NULL, freed or non-pointer value, or a buffer of
        the other space, resolves to length 0, so each access through it
        takes :meth:`fault`.
        """
        if ptr.__class__ is Pointer:
            buf = ptr.buf
            if not device:
                if buf.space == "host" and not buf.freed:
                    return buf.cells, ptr.off, buf.length, buf.elem_bytes, buf.is_float
                return (), ptr.off, 0, 0, False
            if buf.space == "host" and not buf.freed:
                buf = buf.shadow
            if buf is not None and buf.space == "device" and not buf.freed:
                return buf.cells, ptr.off, buf.length, buf.elem_bytes, buf.is_float
            return (), ptr.off, 0, 0, False
        return (), 0, 0, 0, False

    @staticmethod
    def fault(ptr, index: int, detail: str = "NULL pointer dereference",
              device: bool = True) -> None:
        """Raise what the checked access to element ``index`` of ``ptr``
        raises when :meth:`view` puts it out of range."""
        if ptr is None:
            raise GuestRuntimeError(_SEGFAULT, detail=detail)
        MemoryManager.check_access(ptr.buf, index, device)
        raise InterpreterError(f"element {index} resolved out of range but is valid")

    # ------------------------------------------------------------------
    # OpenMP mapping
    # ------------------------------------------------------------------
    def map_enter(self, buf: Buffer, kind: str) -> int:
        """Enter a map for ``buf``; returns bytes transferred host->device."""
        if buf.freed:
            raise GuestRuntimeError(
                _SEGFAULT, detail="map clause names a freed buffer"
            )
        buf.map_depth += 1
        buf.map_kinds.append(kind)
        if buf.map_depth > 1:
            return 0  # already present: no transfer (present-table semantics)
        shadow = Buffer(buf.length, buf.elem_bytes, buf.is_float, "device",
                        label=f"{buf.label}@device")
        buf.shadow = shadow
        if kind in ("to", "tofrom"):
            shadow.cells[:] = buf.cells
            return buf.nbytes
        return 0

    def map_exit(self, buf: Buffer) -> int:
        """Exit a map for ``buf``; returns bytes transferred device->host."""
        if buf.map_depth <= 0:
            return 0
        kind = buf.map_kinds.pop()
        buf.map_depth -= 1
        if buf.map_depth > 0:
            return 0
        shadow = buf.shadow
        buf.shadow = None
        transferred = 0
        if shadow is not None and kind in ("from", "tofrom") and not buf.freed:
            buf.cells[:] = shadow.cells
            transferred = buf.nbytes
        return transferred
