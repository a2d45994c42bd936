"""AST for the supported Java subset.

Nodes use identity equality (eq=False) so they can key dicts and sets; use
:func:`threadlint.frontend.printer.to_source` for structural comparisons.
Every node carries a :class:`SourceSpan`: half-open character offsets into
the original file and the file's line table, for 1-based line/column.

:func:`children` is the one child relation of statements and expressions,
and :func:`walk` the one generic traversal built on it; every analysis that
does not need per-kind scoping or ordering walks through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

from threadlint.errors import SpanOutOfRange
from threadlint.frontend.lexer import LineTable


class SourceSpan(NamedTuple):
    """Half-open slice [start, end) of one source file.

    A ``NamedTuple`` rather than a frozen dataclass because the parser builds
    one per node: a tuple is several times cheaper to build, and it is just
    as immutable and hashable. Line and column are not stored: the
    properties below derive them from the file's :class:`LineTable`, and
    only reports, errors and alert messages ask.
    """

    file: str
    start: int
    end: int
    lines: LineTable

    start_line = property(lambda self: self.lines.line_col(self.start)[0])
    start_col = property(lambda self: self.lines.line_col(self.start)[1])
    end_line = property(lambda self: self.lines.line_col(self.end)[0])
    end_col = property(lambda self: self.lines.line_col(self.end)[1])

    def contains(self, other: "SourceSpan") -> bool:
        return self.start <= other.start and other.end <= self.end


@dataclass(eq=False, slots=True)
class Node:
    span: SourceSpan


# --- expressions -----------------------------------------------------------


@dataclass(eq=False, slots=True)
class Expr(Node):
    pass


@dataclass(eq=False, slots=True)
class Literal(Expr):
    kind: str  # int | long | float | double | boolean | char | string | null
    text: str  # raw source text, e.g. "0L", "'\\u0000'"


@dataclass(eq=False, slots=True)
class Name(Expr):
    identifier: str


@dataclass(eq=False, slots=True)
class This(Expr):
    pass


@dataclass(eq=False, slots=True)
class FieldSel(Expr):
    qualifier: Expr
    name: str


@dataclass(eq=False, slots=True)
class ClassLit(Expr):
    type_text: str  # "Foo" in Foo.class


@dataclass(eq=False, slots=True)
class Call(Expr):
    qualifier: Optional[Expr]
    name: str
    args: list[Expr]


@dataclass(eq=False, slots=True)
class New(Expr):
    type_text: str
    args: Optional[list[Expr]]  # constructor arguments, None for arrays
    dims: Optional[list[Expr]]  # array dimension expressions, None otherwise
    empty_dims: int = 0  # the ``[]`` after the sized dimensions


@dataclass(eq=False, slots=True)
class Index(Expr):
    base: Expr
    index: Expr


@dataclass(eq=False, slots=True)
class Unary(Expr):
    op: str
    operand: Expr
    prefix: bool


@dataclass(eq=False, slots=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(eq=False, slots=True)
class Assign(Expr):
    target: Expr
    op: str  # "=", "+=", ...
    value: Expr


@dataclass(eq=False, slots=True)
class Paren(Expr):
    inner: Expr


# --- statements ------------------------------------------------------------


@dataclass(eq=False, slots=True)
class Stmt(Node):
    pass


@dataclass(eq=False, slots=True)
class Block(Stmt):
    stmts: list[Stmt]


@dataclass(eq=False, slots=True)
class Declarator:
    name: str
    init: Optional[Expr]
    span: SourceSpan


@dataclass(eq=False, slots=True)
class LocalDecl(Stmt):
    type_text: str
    declarators: list[Declarator]
    is_final: bool = False


@dataclass(eq=False, slots=True)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(eq=False, slots=True)
class If(Stmt):
    cond: Expr
    then: Stmt
    els: Optional[Stmt]


@dataclass(eq=False, slots=True)
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass(eq=False, slots=True)
class For(Stmt):
    init: Optional[Stmt]  # LocalDecl or ExprStmt-like list lowered to Block
    cond: Optional[Expr]
    update: list[Expr]
    body: Stmt


@dataclass(eq=False, slots=True)
class ForEach(Stmt):
    type_text: str
    var: str
    iterable: Expr
    body: Stmt
    is_final: bool = False


@dataclass(eq=False, slots=True)
class Return(Stmt):
    value: Optional[Expr]


@dataclass(eq=False, slots=True)
class Throw(Stmt):
    value: Expr


@dataclass(eq=False, slots=True)
class Sync(Stmt):
    monitor: Expr
    body: Block


@dataclass(eq=False, slots=True)
class Catch:
    type_text: str
    var: str
    body: Block
    span: SourceSpan


@dataclass(eq=False, slots=True)
class Try(Stmt):
    body: Block
    catches: list[Catch]
    finally_block: Optional[Block]


@dataclass(eq=False, slots=True)
class Empty(Stmt):
    pass


# --- declarations ----------------------------------------------------------


@dataclass(eq=False, slots=True)
class Annotation:
    name: str  # as written: "ThreadSafe" or "javax.annotation.concurrent.ThreadSafe"
    args_src: Optional[str]  # raw "(...)" text, None when absent
    span: SourceSpan

    @property
    def simple_name(self) -> str:
        return self.name.rsplit(".", 1)[-1]


@dataclass(eq=False, slots=True)
class Param:
    type_text: str
    name: str
    span: SourceSpan
    is_final: bool = False


@dataclass(eq=False, slots=True)
class FieldDecl(Node):
    name: str
    declared_type: str  # normalized source form, e.g. "Map<String,Integer>"
    resolved_type: str  # qualified via imports when resolvable, else declared_type
    modifiers: frozenset[str]
    initializer: Optional[Expr]
    annotations: list[Annotation] = field(default_factory=list)

    @property
    def is_private(self) -> bool:
        return "private" in self.modifiers

    @property
    def is_final(self) -> bool:
        return "final" in self.modifiers

    @property
    def is_volatile(self) -> bool:
        return "volatile" in self.modifiers

    @property
    def is_static(self) -> bool:
        return "static" in self.modifiers


@dataclass(eq=False, slots=True)
class MethodDecl(Node):
    name: str
    visibility: str  # public | protected | package | private
    is_static: bool
    is_synchronized: bool
    params: list[Param]
    body: Optional[Block]
    return_type: Optional[str]  # None for constructors
    modifiers: frozenset[str] = frozenset()
    annotations: list[Annotation] = field(default_factory=list)
    is_constructor: bool = False
    throws: list[str] = field(default_factory=list)

    @property
    def is_public(self) -> bool:
        return self.visibility == "public"

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(eq=False, slots=True)
class ClassDecl(Node):
    name: str
    annotations: list[Annotation]
    fields: list[FieldDecl]
    methods: list[MethodDecl]
    constructors: list[MethodDecl]
    nested: list["ClassDecl"] = field(default_factory=list)
    modifiers: frozenset[str] = frozenset()
    extends: Optional[str] = None
    implements: list[str] = field(default_factory=list)
    qualified_name: str = ""

    def annotation_simple_names(self) -> set[str]:
        return {a.simple_name for a in self.annotations}


@dataclass(eq=False, slots=True)
class ImportDecl:
    qualified: str
    wildcard: bool
    is_static: bool
    span: SourceSpan

    @property
    def simple_name(self) -> str:
        return self.qualified.rsplit(".", 1)[-1]


@dataclass(eq=False, slots=True)
class Ast:
    path: str
    source: str
    package: Optional[str]
    imports: list[ImportDecl]
    classes: list[ClassDecl]

    def iter_classes(self) -> Iterator[ClassDecl]:
        """All classes, nested included, in file order."""
        stack = list(reversed(self.classes))
        while stack:
            c = stack.pop()
            yield c
            stack.extend(reversed(c.nested))


def _no_children(node) -> list:
    return []


# Keyed on the exact node type: one dict lookup per node instead of an
# isinstance chain, which matters because the CFG builder and the monitor
# analysis call this once for every expression of every method.
_CHILDREN: dict[type, Callable[[Node], list]] = {
    Literal: _no_children,
    Name: _no_children,
    This: _no_children,
    ClassLit: _no_children,
    FieldSel: lambda n: [n.qualifier],
    Call: lambda n: [*n.args] if n.qualifier is None else [n.qualifier, *n.args],
    New: lambda n: [*(n.args or ()), *(n.dims or ())],
    Index: lambda n: [n.base, n.index],
    Unary: lambda n: [n.operand],
    Binary: lambda n: [n.left, n.right],
    Assign: lambda n: [n.target, n.value],
    Paren: lambda n: [n.inner],
    Block: lambda n: [*n.stmts],
    LocalDecl: lambda n: [d.init for d in n.declarators if d.init is not None],
    ExprStmt: lambda n: [n.expr],
    If: lambda n: [n.cond, n.then] if n.els is None else [n.cond, n.then, n.els],
    While: lambda n: [n.cond, n.body],
    For: lambda n: [*(x for x in (n.init, n.cond) if x is not None), *n.update, n.body],
    ForEach: lambda n: [n.iterable, n.body],
    Return: lambda n: [] if n.value is None else [n.value],
    Throw: lambda n: [n.value],
    Sync: lambda n: [n.monitor, n.body],
    Try: lambda n: [n.body, *(c.body for c in n.catches),
                    *(() if n.finally_block is None else (n.finally_block,))],
    Empty: _no_children,
}


def children(node: Node) -> list:
    """Direct sub-statements and sub-expressions of ``node``, in source order.

    Declarators and catch clauses are not nodes: a declarator contributes its
    initializer and a catch clause its body. Absent optional parts are left
    out, so the list never holds None. Raises TypeError for anything that is
    not a statement or an expression.
    """
    try:
        kids = _CHILDREN[type(node)]
    except KeyError:
        raise TypeError(f"not a statement or expression: {type(node).__name__}") from None
    return kids(node)


def walk(node: Node) -> Iterator[Node]:
    """``node`` and all its descendants, pre-order in source order.

    Iterative, so depth is bounded by memory rather than the recursion limit.
    """
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(children(n)))


def strip_parens(e: Expr) -> Expr:
    """``e`` without its enclosing parentheses."""
    while isinstance(e, Paren):
        e = e.inner
    return e


def reconstruct_span(ast: Ast, span: SourceSpan) -> str:
    """Exact source slice covered by ``span``.

    Raises SpanOutOfRange when the span does not belong to this file.
    """
    if span.file != ast.path:
        raise SpanOutOfRange(f"span belongs to {span.file!r}, not {ast.path!r}")
    if not (0 <= span.start <= span.end <= len(ast.source)):
        raise SpanOutOfRange(f"span [{span.start},{span.end}) outside file of length {len(ast.source)}")
    return ast.source[span.start : span.end]


def annotated_as_thread_safe(ast: Ast, annotation_names: tuple[str, ...] = ("ThreadSafe",)) -> list[ClassDecl]:
    """Classes (nested included) carrying one of the configured annotations.

    Matching is by simple name: ``@ThreadSafe`` and
    ``@javax.annotation.concurrent.ThreadSafe`` both match the default set.
    """
    wanted = {n.rsplit(".", 1)[-1] for n in annotation_names}
    return [c for c in ast.iter_classes() if c.annotation_simple_names() & wanted]

