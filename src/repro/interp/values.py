"""Runtime value helpers: C-style arithmetic and printf formatting."""

from __future__ import annotations

import math
import re
from typing import List

from repro.errors import GuestRuntimeError
from repro.interp.memory import Pointer


def c_div(a, b):
    """C division: trunc-toward-zero for ints, IEEE semantics for floats."""
    if isinstance(a, float) or isinstance(b, float):
        fb = float(b)
        if fb == 0.0:
            fa = float(a)
            if fa == 0.0:
                return math.nan
            return math.inf if fa > 0 else -math.inf
        return float(a) / fb
    if b == 0:
        raise GuestRuntimeError("Floating point exception (core dumped)",
                                detail="integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def c_mod(a, b):
    """C modulo: result takes the sign of the dividend."""
    if isinstance(a, float) or isinstance(b, float):
        if float(b) == 0.0:
            return math.nan
        return math.fmod(float(a), float(b))
    if b == 0:
        raise GuestRuntimeError("Floating point exception (core dumped)",
                                detail="integer modulo by zero")
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


# -- pointer-aware and compound arithmetic (the generated code's untyped forms)

def pointer_add(a, b):
    """``a + b`` where either side may be a pointer."""
    if isinstance(a, Pointer):
        return a.offset_by(int(b))
    if isinstance(b, Pointer):
        return b.offset_by(int(a))
    return a + b


def pointer_sub(a, b):
    """``a - b`` where ``a`` may be a pointer (pointer - pointer is a count)."""
    if isinstance(a, Pointer):
        if isinstance(b, Pointer):
            return a.off - b.off
        return a.offset_by(-int(b))
    return a - b


def pointer_step(old, delta):
    """``++``/``--`` on a variable that may hold a pointer."""
    if isinstance(old, Pointer):
        return old.offset_by(delta)
    return old + delta


def _bitop(fn):
    return lambda a, b: fn(int(a), int(b))


#: Compound-assignment combiners (``old op= v`` without pointer handling).
COMBINE = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
    "/": c_div, "%": c_mod,
    "<<": _bitop(lambda a, b: a << b), ">>": _bitop(lambda a, b: a >> b),
    "&": _bitop(lambda a, b: a & b), "|": _bitop(lambda a, b: a | b),
    "^": _bitop(lambda a, b: a ^ b),
}


def compound_update(op, old, v):
    """``old op= v`` for a variable that may hold a pointer."""
    if isinstance(old, Pointer):
        return old.offset_by(int(v) if op == "+" else -int(v))
    return COMBINE[op](old, v)


def int_cast(v):
    """``(int)v``: pointers and strings pass through unchanged."""
    return int(v) if not isinstance(v, (Pointer, str)) else v


# -- OpenMP reductions

REDUCTION_IDENTITY = {"+": 0, "-": 0, "*": 1, "max": -math.inf, "min": math.inf,
                      "&&": 1, "||": 0}

_REDUCE = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "max": max, "min": min,
    "&&": lambda a, b: 1 if (a and b) else 0,
    "||": lambda a, b: 1 if (a or b) else 0,
}


def reduce_target(op, saved, acc):
    """Fold a ``target`` loop's reduction result into the saved value."""
    combine = _REDUCE[op]
    base = saved if saved is not None else (0 if op in ("+", "-") else acc)
    combined = combine(base, acc)
    if isinstance(saved, int) and not isinstance(saved, bool) and (
        not isinstance(combined, int)
    ) and combined not in (math.inf, -math.inf):
        combined = type(saved)(combined) if isinstance(combined, float) and combined.is_integer() else combined
    return combined


def reduce_host(op, saved, acc):
    """Fold a host ``parallel`` region's reduction result."""
    return _REDUCE[op](saved if saved is not None else 0, acc)


def truthy(v) -> bool:
    if v is None:  # NULL pointer
        return False
    return bool(v)


_FMT_RE = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?(?:hh|h|ll|l|z)?[diufFeEgGxXoscp%]")


def c_printf(fmt: str, args: List) -> str:
    """Format ``fmt`` with ``args`` using C printf semantics (common subset).

    Raises :class:`GuestRuntimeError` when a conversion consumes a missing
    argument (real printf would read garbage; we fail loudly and
    deterministically, which shows up as an execution error).
    """
    out: List[str] = []
    pos = 0
    argi = 0
    for m in _FMT_RE.finditer(fmt):
        out.append(fmt[pos:m.start()])
        pos = m.end()
        spec = m.group(0)
        conv = spec[-1]
        if conv == "%":
            out.append("%")
            continue
        if argi >= len(args):
            raise GuestRuntimeError(
                "Segmentation fault (core dumped)",
                detail=f"printf: missing argument for conversion '{spec}'",
            )
        value = args[argi]
        argi += 1
        # Strip length modifiers; Python handles width/precision natively.
        body = spec[1:-1]
        for lm in ("hh", "ll", "h", "l", "z"):
            if body.endswith(lm):
                body = body[: -len(lm)]
                break
        try:
            if conv in "di":
                out.append(("%" + body + "d") % int(value))
            elif conv == "u":
                iv = int(value)
                out.append(("%" + body + "d") % (iv & 0xFFFFFFFF if iv < 0 else iv))
            elif conv in "fFeEgG":
                out.append(("%" + body + conv) % float(value))
            elif conv in "xXo":
                iv = int(value)
                out.append(("%" + body + conv) % (iv & 0xFFFFFFFF if iv < 0 else iv))
            elif conv == "s":
                if isinstance(value, Pointer):
                    value = value.read_string()
                out.append(("%" + body + "s") % (value,))
            elif conv == "c":
                if isinstance(value, int):
                    value = chr(value & 0xFF)
                out.append(("%" + body + "s") % (value,))
            elif conv == "p":
                out.append(hex(id(value) & 0xFFFFFFFFFFFF))
        except (TypeError, ValueError) as exc:
            raise GuestRuntimeError(
                "Segmentation fault (core dumped)",
                detail=f"printf: bad argument for conversion '{spec}': {exc}",
            ) from exc
    out.append(fmt[pos:])
    return "".join(out)
