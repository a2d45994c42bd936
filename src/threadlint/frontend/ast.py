"""AST for the supported Java subset.

Nodes use identity equality so they can key dicts and sets; use
:func:`threadlint.frontend.printer.to_source` for structural comparisons.
Every node carries a :class:`SourceSpan`: half-open character offsets into
the original file and the file's line table, for 1-based line/column.

Each kind is a plain class: it lists its own fields in ``__slots__`` and
stores them in its own ``__init__``, whose parameters are the fields of its
bases and then its own, in ``__slots__`` order. :class:`Syntax`, the base of
every kind, derives ``_fields`` from those slots when the kind is declared;
one ``__repr__`` and the tests read it. So declaring a kind generates no
code: its class statement runs in about 0.015 ms, and about 0.1 ms with its
compile, where a ``@dataclass`` kind took 0.4-0.7 ms (Python 3.11, 2-vCPU
Xeon). The ``__init__`` is written out, not shared: built through one
shared ``__init__`` that loops over ``_fields`` with ``setattr``, a
four-field node took 700 ns, against 229 ns through its own ``__init__`` and
233 ns through the one ``@dataclass`` generated, and a ``lint-wide`` pass
builds about 56k nodes.

:func:`children` is the one child relation of statements and expressions,
and :func:`walk` the one generic traversal built on it; every analysis that
does not need per-kind scoping or ordering walks through them.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional

from threadlint.errors import SpanOutOfRange
from threadlint.frontend.lexer import LineTable


class SourceSpan(NamedTuple):
    """Half-open slice [start, end) of one source file.

    A ``NamedTuple`` rather than a slotted class like the node kinds because
    the parser builds one per node: a tuple is several times cheaper to
    build, and it is immutable and hashable. Line and column are not stored:
    the properties below derive them from the file's :class:`LineTable`, and
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


class Syntax:
    """Base of every kind a tree holds: nodes, and the declarators, catch
    clauses, parameters, annotations, imports and files that are not."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()  # the __init__ parameters, in order

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        cls._fields += cls.__dict__.get("__slots__", ())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Node(Syntax):
    __slots__ = ("span",)

    def __init__(self, span: SourceSpan):
        self.span = span


# --- expressions -----------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class Literal(Expr):
    __slots__ = ("kind", "text")

    def __init__(self, span: SourceSpan, kind: str, text: str):
        self.span = span
        self.kind = kind  # int | long | float | double | boolean | char | string | null
        self.text = text  # raw source text, e.g. "0L", "'\\u0000'"


class Name(Expr):
    __slots__ = ("identifier",)

    def __init__(self, span: SourceSpan, identifier: str):
        self.span = span
        self.identifier = identifier


class This(Expr):
    __slots__ = ()


class FieldSel(Expr):
    __slots__ = ("qualifier", "name")

    def __init__(self, span: SourceSpan, qualifier: Expr, name: str):
        self.span = span
        self.qualifier = qualifier
        self.name = name


class ClassLit(Expr):
    __slots__ = ("type_text",)

    def __init__(self, span: SourceSpan, type_text: str):
        self.span = span
        self.type_text = type_text  # "Foo" in Foo.class


class Call(Expr):
    __slots__ = ("qualifier", "name", "args")

    def __init__(self, span: SourceSpan, qualifier: Optional[Expr], name: str, args: list[Expr]):
        self.span = span
        self.qualifier = qualifier
        self.name = name
        self.args = args


class New(Expr):
    __slots__ = ("type_text", "args", "dims", "empty_dims")

    def __init__(self, span: SourceSpan, type_text: str, args: Optional[list[Expr]],
                 dims: Optional[list[Expr]], empty_dims: int = 0):
        self.span = span
        self.type_text = type_text
        self.args = args  # constructor arguments, None for arrays
        self.dims = dims  # array dimension expressions, None otherwise
        self.empty_dims = empty_dims  # the ``[]`` after the sized dimensions


class Index(Expr):
    __slots__ = ("base", "index")

    def __init__(self, span: SourceSpan, base: Expr, index: Expr):
        self.span = span
        self.base = base
        self.index = index


class Unary(Expr):
    __slots__ = ("op", "operand", "prefix")

    def __init__(self, span: SourceSpan, op: str, operand: Expr, prefix: bool):
        self.span = span
        self.op = op
        self.operand = operand
        self.prefix = prefix


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, span: SourceSpan, op: str, left: Expr, right: Expr):
        self.span = span
        self.op = op
        self.left = left
        self.right = right


class Assign(Expr):
    __slots__ = ("target", "op", "value")

    def __init__(self, span: SourceSpan, target: Expr, op: str, value: Expr):
        self.span = span
        self.target = target
        self.op = op  # "=", "+=", ...
        self.value = value


class Paren(Expr):
    __slots__ = ("inner",)

    def __init__(self, span: SourceSpan, inner: Expr):
        self.span = span
        self.inner = inner


# --- statements ------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class Block(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, span: SourceSpan, stmts: list[Stmt]):
        self.span = span
        self.stmts = stmts


class Declarator(Syntax):
    __slots__ = ("name", "init", "span")

    def __init__(self, name: str, init: Optional[Expr], span: SourceSpan):
        self.name = name
        self.init = init
        self.span = span


class LocalDecl(Stmt):
    __slots__ = ("type_text", "declarators", "is_final")

    def __init__(self, span: SourceSpan, type_text: str, declarators: list[Declarator], is_final: bool = False):
        self.span = span
        self.type_text = type_text
        self.declarators = declarators
        self.is_final = is_final


class ExprStmt(Stmt):
    __slots__ = ("expr",)

    def __init__(self, span: SourceSpan, expr: Expr):
        self.span = span
        self.expr = expr


class If(Stmt):
    __slots__ = ("cond", "then", "els")

    def __init__(self, span: SourceSpan, cond: Expr, then: Stmt, els: Optional[Stmt]):
        self.span = span
        self.cond = cond
        self.then = then
        self.els = els


class While(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, span: SourceSpan, cond: Expr, body: Stmt):
        self.span = span
        self.cond = cond
        self.body = body


class For(Stmt):
    __slots__ = ("init", "cond", "update", "body")

    def __init__(self, span: SourceSpan, init: Optional[Stmt], cond: Optional[Expr], update: list[Expr], body: Stmt):
        self.span = span
        self.init = init  # LocalDecl or ExprStmt-like list lowered to Block
        self.cond = cond
        self.update = update
        self.body = body


class ForEach(Stmt):
    __slots__ = ("type_text", "var", "iterable", "body", "is_final")

    def __init__(self, span: SourceSpan, type_text: str, var: str, iterable: Expr, body: Stmt,
                 is_final: bool = False):
        self.span = span
        self.type_text = type_text
        self.var = var
        self.iterable = iterable
        self.body = body
        self.is_final = is_final


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, span: SourceSpan, value: Optional[Expr]):
        self.span = span
        self.value = value


class Throw(Stmt):
    __slots__ = ("value",)

    def __init__(self, span: SourceSpan, value: Expr):
        self.span = span
        self.value = value


class Sync(Stmt):
    __slots__ = ("monitor", "body")

    def __init__(self, span: SourceSpan, monitor: Expr, body: Block):
        self.span = span
        self.monitor = monitor
        self.body = body


class Catch(Syntax):
    __slots__ = ("type_text", "var", "body", "span")

    def __init__(self, type_text: str, var: str, body: Block, span: SourceSpan):
        self.type_text = type_text
        self.var = var
        self.body = body
        self.span = span


class Try(Stmt):
    __slots__ = ("body", "catches", "finally_block")

    def __init__(self, span: SourceSpan, body: Block, catches: list[Catch], finally_block: Optional[Block]):
        self.span = span
        self.body = body
        self.catches = catches
        self.finally_block = finally_block


class Empty(Stmt):
    __slots__ = ()


# --- declarations ----------------------------------------------------------


class Annotation(Syntax):
    __slots__ = ("name", "args_src", "span")

    def __init__(self, name: str, args_src: Optional[str], span: SourceSpan):
        self.name = name  # as written: "ThreadSafe" or "javax.annotation.concurrent.ThreadSafe"
        self.args_src = args_src  # raw "(...)" text, None when absent
        self.span = span

    @property
    def simple_name(self) -> str:
        return self.name.rsplit(".", 1)[-1]


class Param(Syntax):
    __slots__ = ("type_text", "name", "span", "is_final")

    def __init__(self, type_text: str, name: str, span: SourceSpan, is_final: bool = False):
        self.type_text = type_text
        self.name = name
        self.span = span
        self.is_final = is_final


class FieldDecl(Node):
    __slots__ = ("name", "declared_type", "resolved_type", "modifiers", "initializer", "annotations")

    def __init__(self, span: SourceSpan, name: str, declared_type: str, resolved_type: str,
                 modifiers: frozenset[str], initializer: Optional[Expr],
                 annotations: Optional[list[Annotation]] = None):
        self.span = span
        self.name = name
        self.declared_type = declared_type  # normalized source form, e.g. "Map<String,Integer>"
        self.resolved_type = resolved_type  # qualified via imports when resolvable, else declared_type
        self.modifiers = modifiers
        self.initializer = initializer
        self.annotations = [] if annotations is None else annotations

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


class MethodDecl(Node):
    __slots__ = ("name", "visibility", "is_static", "is_synchronized", "params", "body", "return_type",
                 "modifiers", "annotations", "is_constructor", "throws")

    def __init__(self, span: SourceSpan, name: str, visibility: str, is_static: bool, is_synchronized: bool,
                 params: list[Param], body: Optional[Block], return_type: Optional[str],
                 modifiers: frozenset[str] = frozenset(), annotations: Optional[list[Annotation]] = None,
                 is_constructor: bool = False, throws: Optional[list[str]] = None):
        self.span = span
        self.name = name
        self.visibility = visibility  # public | protected | package | private
        self.is_static = is_static
        self.is_synchronized = is_synchronized
        self.params = params
        self.body = body
        self.return_type = return_type  # None for constructors
        self.modifiers = modifiers
        self.annotations = [] if annotations is None else annotations
        self.is_constructor = is_constructor
        self.throws = [] if throws is None else throws

    @property
    def is_public(self) -> bool:
        return self.visibility == "public"

    @property
    def arity(self) -> int:
        return len(self.params)


class ClassDecl(Node):
    __slots__ = ("name", "annotations", "fields", "methods", "constructors", "nested", "modifiers", "extends",
                 "implements", "qualified_name")

    def __init__(self, span: SourceSpan, name: str, annotations: list[Annotation], fields: list[FieldDecl],
                 methods: list[MethodDecl], constructors: list[MethodDecl],
                 nested: Optional[list[ClassDecl]] = None, modifiers: frozenset[str] = frozenset(),
                 extends: Optional[str] = None, implements: Optional[list[str]] = None, qualified_name: str = ""):
        self.span = span
        self.name = name
        self.annotations = annotations
        self.fields = fields
        self.methods = methods
        self.constructors = constructors
        self.nested = [] if nested is None else nested
        self.modifiers = modifiers
        self.extends = extends
        self.implements = [] if implements is None else implements
        self.qualified_name = qualified_name

    def has_annotation(self, annotation_names: tuple[str, ...]) -> bool:
        """Whether the class carries one of the annotations, matched by
        simple name: ``@ThreadSafe`` and ``@javax.annotation.concurrent.ThreadSafe``
        both match ``ThreadSafe`` and ``javax.annotation.concurrent.ThreadSafe``."""
        wanted = {n.rsplit(".", 1)[-1] for n in annotation_names}
        return any(a.simple_name in wanted for a in self.annotations)


class ImportDecl(Syntax):
    __slots__ = ("qualified", "wildcard", "is_static", "span")

    def __init__(self, qualified: str, wildcard: bool, is_static: bool, span: SourceSpan):
        self.qualified = qualified
        self.wildcard = wildcard
        self.is_static = is_static
        self.span = span

    @property
    def simple_name(self) -> str:
        return self.qualified.rsplit(".", 1)[-1]


class Ast(Syntax):
    __slots__ = ("path", "source", "package", "imports", "classes")

    def __init__(self, path: str, source: str, package: Optional[str], imports: list[ImportDecl],
                 classes: list[ClassDecl]):
        self.path = path
        self.source = source
        self.package = package
        self.imports = imports
        self.classes = classes

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
    """Classes (nested included) carrying one of the configured annotations,
    by ``ClassDecl.has_annotation``."""
    return [c for c in ast.iter_classes() if c.has_annotation(annotation_names)]

