"""AST node definitions for the mini-language.

Plain dataclasses; every node carries its source :class:`Span` so semantic
diagnostics and runtime faults can point at real locations — the error text
fed back into LASSI's correction prompt has to look like compiler output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.minilang.source import Dialect, Span, UNKNOWN_SPAN
from repro.minilang.types import Type


class Node:
    """Base class (for isinstance checks only)."""

    span: Span


@dataclass(frozen=True, eq=False)
class Symbol:
    """A declared variable (global, parameter or local), equal only to
    itself; ``depth`` counts the same-named locals of its function it hides."""

    name: str
    type: Type
    depth: int
    is_global: bool


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    span: Span = field(default=UNKNOWN_SPAN, init=False)
    #: The type semantic analysis gave this expression (None where it
    #: reported an error); read through ``semantics.expr_type``.  Unset
    #: until the program is analysed, and not part of the node's identity.
    static_type: Optional[Type] = field(init=False, repr=False, compare=False)

    def with_span(self, span: Span) -> "Expr":
        self.span = span
        return self


@dataclass
class IntLit(Expr):
    value: int
    text: str = ""  # original spelling, preserved for codegen fidelity


@dataclass
class FloatLit(Expr):
    value: float
    text: str = ""


@dataclass
class StrLit(Expr):
    value: str  # decoded value (no quotes)


@dataclass
class CharLit(Expr):
    value: str  # single decoded character


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class NullLit(Expr):
    spelling: str = "NULL"


@dataclass
class Ident(Expr):
    name: str
    #: the declaration analysis bound it to (None: not a variable); a field,
    #: not a later attribute, so node dicts keep sharing their keys
    symbol: Optional[Symbol] = field(default=None, repr=False, compare=False)


@dataclass
class Member(Expr):
    """``obj.field`` — used for the CUDA thread-geometry builtins."""

    obj: Expr
    field_name: str


@dataclass
class Unary(Expr):
    """Prefix unary: ``- ! ~ * & ++ --``."""

    op: str
    operand: Expr


@dataclass
class Postfix(Expr):
    """Postfix ``++``/``--``."""

    op: str
    operand: Expr


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Assign(Expr):
    """``target op value`` where op in ``= += -= *= /= %= &= |= ^=``."""

    op: str
    target: Expr
    value: Expr


@dataclass
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass
class Call(Expr):
    callee: str
    args: List[Expr]


@dataclass
class Index(Expr):
    base: Expr
    index: Expr


@dataclass
class Cast(Expr):
    type: Type
    operand: Expr


@dataclass
class SizeOf(Expr):
    type: Type


@dataclass
class Launch(Expr):
    """CUDA kernel launch ``kernel<<<grid, block>>>(args)`` (1-D)."""

    kernel: str
    grid: Expr
    block: Expr
    args: List[Expr]


# ---------------------------------------------------------------------------
# Pragmas (OpenMP)
# ---------------------------------------------------------------------------


@dataclass
class MapClause:
    """``map(kind: name[lo:len])``; ``length`` None means a scalar map."""

    kind: str  # "to" | "from" | "tofrom" | "alloc"
    name: str
    lower: Optional[Expr] = None
    length: Optional[Expr] = None
    symbol: Optional[Symbol] = field(default=None, repr=False, compare=False)


@dataclass
class ReductionClause:
    op: str  # "+", "*", "max", "min"
    names: List[str] = field(default_factory=list)
    symbols: List[Optional[Symbol]] = field(default_factory=list, repr=False, compare=False)


@dataclass
class OmpPragma(Node):
    """A parsed ``#pragma omp`` line.

    ``directive`` is the normalized directive phrase, e.g.
    ``"target teams distribute parallel for"``, ``"target data"``,
    ``"parallel for"``, ``"atomic"``.
    """

    directive: str
    maps: List[MapClause] = field(default_factory=list)
    reduction: Optional[ReductionClause] = None
    num_threads: Optional[Expr] = None
    thread_limit: Optional[Expr] = None
    num_teams: Optional[Expr] = None
    collapse: int = 1
    schedule: Optional[str] = None  # "static" | "dynamic" | "guided"
    schedule_chunk: Optional[Expr] = None
    private: List[str] = field(default_factory=list)
    firstprivate: List[str] = field(default_factory=list)
    shared: List[str] = field(default_factory=list)
    raw_text: str = ""
    span: Span = UNKNOWN_SPAN

    @property
    def is_target(self) -> bool:
        return self.directive.startswith("target")

    @property
    def is_loop(self) -> bool:
        return self.directive.endswith("for")


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    span: Span = field(default=UNKNOWN_SPAN, init=False)

    def with_span(self, span: Span) -> "Stmt":
        self.span = span
        return self


@dataclass
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class VarDecl(Stmt):
    """Scalar or fixed-size array declaration, optionally initialized.

    ``array_size`` non-None means ``type name[array_size];`` — the declared
    object is an array (the name then has pointer type).  ``shared`` marks
    CUDA ``__shared__`` storage.
    """

    type: Type
    name: str
    init: Optional[Expr] = None
    array_size: Optional[Expr] = None
    shared: bool = False
    const: bool = False
    symbol: Optional[Symbol] = field(default=None, repr=False, compare=False)


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    other: Optional[Stmt] = None


@dataclass
class For(Stmt):
    init: Optional[Stmt]  # VarDecl or ExprStmt
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Stmt = field(default_factory=Block)


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt = field(default_factory=Block)


@dataclass
class DoWhile(Stmt):
    body: Stmt
    cond: Expr


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Pragma(Stmt):
    """An OpenMP pragma attached to the statement that follows it.

    For ``atomic`` the body is the updated expression statement; for loop
    directives it is the ``for``; for ``target data`` it is a block.
    """

    pragma: OmpPragma
    body: Optional[Stmt] = None


@dataclass
class SyncThreads(Stmt):
    """CUDA ``__syncthreads();`` — recognized specially for barrier semantics."""


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Param(Node):
    type: Type
    name: str
    span: Span = UNKNOWN_SPAN
    restrict: bool = False
    symbol: Optional[Symbol] = field(default=None, repr=False, compare=False)


@dataclass
class FuncDef(Node):
    """Function definition.  ``qualifier`` in {None, "__global__", "__device__"}."""

    return_type: Type
    name: str
    params: List[Param]
    body: Block
    qualifier: Optional[str] = None
    span: Span = UNKNOWN_SPAN

    @property
    def is_kernel(self) -> bool:
        return self.qualifier == "__global__"

    @property
    def is_device(self) -> bool:
        return self.qualifier == "__device__"


@dataclass
class GlobalVar(Node):
    decl: VarDecl
    span: Span = UNKNOWN_SPAN


@dataclass
class Program(Node):
    """A whole translation unit."""

    functions: List[FuncDef] = field(default_factory=list)
    globals: List[GlobalVar] = field(default_factory=list)
    span: Span = UNKNOWN_SPAN
    #: The dialect whose semantic analysis typed this program's expressions
    #: (see ``Expr.static_type``); not part of its identity.
    analyzed_for: Optional[Dialect] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Interpreter code generated for this program, per dialect (see
    #: ``repro.interp.codegen.ProgramCode.of``); not part of its identity.
    generated: Dict[object, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def function(self, name: str) -> Optional[FuncDef]:
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None

    @property
    def kernels(self) -> List[FuncDef]:
        return [f for f in self.functions if f.is_kernel]


def walk_stmts(stmt: Stmt):
    """Yield ``stmt`` and all statements nested within it (pre-order)."""
    yield stmt
    if isinstance(stmt, Block):
        for s in stmt.stmts:
            yield from walk_stmts(s)
    elif isinstance(stmt, If):
        yield from walk_stmts(stmt.then)
        if stmt.other is not None:
            yield from walk_stmts(stmt.other)
    elif isinstance(stmt, For):
        if stmt.init is not None:
            yield from walk_stmts(stmt.init)
        yield from walk_stmts(stmt.body)
    elif isinstance(stmt, (While, DoWhile)):
        yield from walk_stmts(stmt.body)
    elif isinstance(stmt, Pragma):
        if stmt.body is not None:
            yield from walk_stmts(stmt.body)


def walk_exprs(node, clauses: bool = True) -> "list":
    """Collect every expression reachable from a statement or expression.

    ``clauses`` False leaves out the clause expressions of ``#pragma omp``
    statements (CUDA compilers ignore the pragma: they neither analyse nor
    run its clauses).
    """
    out: List[Expr] = []

    def visit_expr(e: Optional[Expr]) -> None:
        if e is None:
            return
        out.append(e)
        if isinstance(e, Unary):
            visit_expr(e.operand)
        elif isinstance(e, Postfix):
            visit_expr(e.operand)
        elif isinstance(e, Binary):
            visit_expr(e.left)
            visit_expr(e.right)
        elif isinstance(e, Assign):
            visit_expr(e.target)
            visit_expr(e.value)
        elif isinstance(e, Ternary):
            visit_expr(e.cond)
            visit_expr(e.then)
            visit_expr(e.other)
        elif isinstance(e, Call):
            for a in e.args:
                visit_expr(a)
        elif isinstance(e, Launch):
            visit_expr(e.grid)
            visit_expr(e.block)
            for a in e.args:
                visit_expr(a)
        elif isinstance(e, Index):
            visit_expr(e.base)
            visit_expr(e.index)
        elif isinstance(e, Cast):
            visit_expr(e.operand)
        elif isinstance(e, Member):
            visit_expr(e.obj)

    def visit_stmt(s: Stmt) -> None:
        if isinstance(s, ExprStmt):
            visit_expr(s.expr)
        elif isinstance(s, VarDecl):
            visit_expr(s.init)
            visit_expr(s.array_size)
        elif isinstance(s, If):
            visit_expr(s.cond)
        elif isinstance(s, For):
            visit_expr(s.cond)
            visit_expr(s.step)
        elif isinstance(s, (While, DoWhile)):
            visit_expr(s.cond)
        elif isinstance(s, Return):
            visit_expr(s.value)
        elif isinstance(s, Pragma) and clauses:
            p = s.pragma
            for mc in p.maps:
                visit_expr(mc.lower)
                visit_expr(mc.length)
            visit_expr(p.num_threads)
            visit_expr(p.thread_limit)
            visit_expr(p.num_teams)
            visit_expr(p.schedule_chunk)

    if isinstance(node, Expr):
        visit_expr(node)
    else:
        for s in walk_stmts(node):
            visit_stmt(s)
    return out


#: Immutable values an AST holds; a clone shares them.
_SHARED = frozenset({Span, Type, Dialect, Symbol, str, int, float, bool, type(None)})
#: Mutable records an AST is built from; a clone copies them.
_RECORDS = (Node, MapClause, ReductionClause)


def clone(value):
    """A copy of the AST ``value`` that shares no mutable object with it.

    Nodes and the clause records (:class:`MapClause`,
    :class:`ReductionClause`) are copied field by field, lists and dicts
    element by element, and the frozen leaves (spans, types, dialects,
    symbols, strings, numbers, booleans and ``None``) are shared.  Any
    other type raises :class:`TypeError`, so a mutable field type added
    later fails loudly instead of being aliased between the copies.
    """
    cls = type(value)
    if cls in _SHARED:
        return value
    if isinstance(value, _RECORDS):
        copy = object.__new__(cls)
        copy.__dict__ = {
            name: v if type(v) in _SHARED else clone(v)
            for name, v in value.__dict__.items()
        }
        return copy
    if cls is list:
        return [clone(v) for v in value]
    if cls is dict:
        return {k: clone(v) for k, v in value.items()}
    raise TypeError(f"cannot clone a {cls.__name__} held in an AST")
