"""Type system for the mini-language.

Small by design: scalar kinds plus pointer levels.  ``double`` is an alias of
``float`` at runtime (everything numeric-real is float64 inside the
interpreter for determinism) but retains its spelling for codegen and
similarity metrics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Kind(enum.Enum):
    INT = "int"
    LONG = "long"
    SIZE_T = "size_t"
    FLOAT = "float"
    DOUBLE = "double"
    CHAR = "char"
    BOOL = "bool"
    VOID = "void"


_INTEGERS = {Kind.INT, Kind.LONG, Kind.SIZE_T, Kind.CHAR, Kind.BOOL}
_REALS = {Kind.FLOAT, Kind.DOUBLE}


@dataclass(frozen=True)
class Type:
    """A scalar type with ``pointers`` levels of indirection."""

    kind: Kind
    pointers: int = 0

    # -- constructors ------------------------------------------------------
    def pointer_to(self) -> "Type":
        return Type(self.kind, self.pointers + 1)

    def pointee(self) -> "Type":
        if self.pointers == 0:
            raise ValueError(f"cannot dereference non-pointer type {self}")
        return Type(self.kind, self.pointers - 1)

    # -- predicates ---------------------------------------------------------
    @property
    def is_pointer(self) -> bool:
        return self.pointers > 0

    @property
    def is_void(self) -> bool:
        return self.kind is Kind.VOID and self.pointers == 0

    @property
    def is_integer(self) -> bool:
        return self.pointers == 0 and self.kind in _INTEGERS

    @property
    def is_real(self) -> bool:
        return self.pointers == 0 and self.kind in _REALS

    @property
    def is_numeric(self) -> bool:
        return self.is_integer or self.is_real

    # -- sizing (bytes, used by sizeof and the perf model) -------------------
    @property
    def size(self) -> int:
        if self.is_pointer:
            return 8
        return {
            Kind.INT: 4,
            Kind.LONG: 8,
            Kind.SIZE_T: 8,
            Kind.FLOAT: 4,
            Kind.DOUBLE: 8,
            Kind.CHAR: 1,
            Kind.BOOL: 1,
            Kind.VOID: 1,
        }[self.kind]

    def __str__(self) -> str:
        return self.kind.value + "*" * self.pointers


# Common singletons.
INT = Type(Kind.INT)
LONG = Type(Kind.LONG)
SIZE_T = Type(Kind.SIZE_T)
FLOAT = Type(Kind.FLOAT)
DOUBLE = Type(Kind.DOUBLE)
CHAR = Type(Kind.CHAR)
BOOL = Type(Kind.BOOL)
VOID = Type(Kind.VOID)

_BY_NAME = {
    "int": INT,
    "long": LONG,
    "size_t": SIZE_T,
    "unsigned": INT,
    "float": FLOAT,
    "double": DOUBLE,
    "char": CHAR,
    "bool": BOOL,
    "void": VOID,
}


def named(name: str) -> Type:
    """Look up a scalar type by keyword spelling."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown type name {name!r}") from None


def unify_arith(a: Type, b: Type) -> Type:
    """Result type of a binary arithmetic op on ``a`` and ``b`` (C-style)."""
    if a.is_pointer or b.is_pointer:
        # pointer +/- integer keeps the pointer type; caller validates the op.
        return a if a.is_pointer else b
    if Kind.DOUBLE in (a.kind, b.kind):
        return DOUBLE
    if Kind.FLOAT in (a.kind, b.kind):
        return FLOAT
    if Kind.SIZE_T in (a.kind, b.kind) or Kind.LONG in (a.kind, b.kind):
        return LONG
    return INT


def assignable(dst: Type, src: Type) -> bool:
    """May a value of ``src`` be assigned to an lvalue of ``dst``?

    Numeric conversions are implicit (as in C); pointers must match exactly
    except that ``void*`` inter-converts with any pointer (malloc idiom).
    """
    if dst == src:
        return True
    if dst.is_numeric and src.is_numeric:
        return True
    if dst.is_pointer and src.is_pointer:
        return dst.kind is Kind.VOID or src.kind is Kind.VOID
    return False
