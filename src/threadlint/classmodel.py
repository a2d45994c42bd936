"""Per-class analysis model: field accesses, exposure, and the P1/P2 rules.

The model records every syntactic access to the class's own fields (reads,
writes, array-element writes, mutator calls, and the declared-initializer
write). Accesses to fields of other classes are ignored; those are governed
by the other class's own no-escaping rule.

Name binding happens here and only here: the collector scopes parameters,
locals, for-each and catch variables by block and binds every name once,
to an own field or to the declaration in scope, whose written values it
records. The names in scope are one flat table, name -> declaration, so a
name is bound by one lookup however deeply blocks nest; each declaration
logs what it hides, and a closing scope undoes its part of the log.
:meth:`ClassModel.field_of`, :meth:`ClassModel.denotes`,
:meth:`ClassModel.is_local` and :meth:`ClassModel.callees` answer what an
expression or a same-class call denotes; the other modules ask them
instead of resolving names themselves.

The same walk records, per callable, its ``Call`` nodes and its
``synchronized`` blocks as it reaches them (:meth:`ClassModel.calls_in`,
:meth:`ClassModel.syncs_in`), so the access-path fixpoint and the monitor
analysis find call sites and synchronized regions without walking a body
again.

The walk is one visitor, which dispatches on each node's exact type, the
commonest kinds first. It handles the kinds that bind, scope, classify or
record: names and field selections, calls, assignments and ``++``/``--``;
blocks and ``for`` loops (each a scope), local declarations, for-each loops
and ``try`` (whose catch variables are scoped); and ``synchronized`` blocks
(recorded). It also walks the common kinds that do none of this, binary
expressions, expression statements, parentheses, ``if`` and ``return``,
child by child. Every other statement and expression is walked through
:func:`threadlint.frontend.ast.children`, so a new node kind needs no line
here unless it declares names.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Optional

from threadlint.alerts import Alert, RULE_NO_ESCAPING, RULE_SAFE_PUBLICATION
from threadlint.cfg import Cfg, build_cfg
from threadlint.frontend import ast as A
from threadlint.frontend import DEFAULT_ANNOTATIONS

DEFAULT_MUTATOR_METHODS = ("add", "put", "remove", "set", "clear", "offer", "poll")
DEFAULT_ALLOWLIST_PREFIXES = ("java.util.concurrent.",)


class AccessKind(Enum):
    READ = "read"
    WRITE = "write"
    ARRAY_ELEMENT_WRITE = "arrayElementWrite"
    MUTATOR_CALL = "mutatorCall"


def base_type(type_text: str) -> Optional[str]:
    """``type_text`` without its type arguments; None for an array type,
    ``AtomicReference<String>[]`` as well as ``AtomicReference[]``: an array
    of thread-safe elements or of locks is neither itself."""
    if type_text.endswith("[]"):
        return None
    return type_text.split("<", 1)[0]


class ThreadSafeTypeAllowlist:
    """Types whose instances are trusted to synchronize internally."""

    __slots__ = ("qualified_prefixes", "exact_types")

    def __init__(self, qualified_prefixes: tuple[str, ...] = DEFAULT_ALLOWLIST_PREFIXES,
                 exact_types: tuple[str, ...] = ()):
        for entry in (*qualified_prefixes, *exact_types):
            if not entry or entry != entry.strip():
                raise ValueError(f"allowlist entry {entry!r} must be nonempty and trimmed")
        self.qualified_prefixes = qualified_prefixes
        self.exact_types = exact_types

    def contains_type(self, declared: str, resolved: str) -> bool:
        base_declared = base_type(declared)
        base_resolved = base_type(resolved)
        if base_declared is None or base_resolved is None:
            return False
        if base_declared in self.exact_types or base_resolved in self.exact_types:
            return True
        return any(base_resolved.startswith(p) for p in self.qualified_prefixes)

    def contains(self, f: A.FieldDecl) -> bool:
        return self.contains_type(f.declared_type, f.resolved_type)


class FieldAccess:
    """A read or write of an own field at one source location."""

    __slots__ = ("field", "kind", "span", "enclosing", "expr")

    def __init__(self, field: A.FieldDecl, kind: AccessKind, span: A.SourceSpan,
                 enclosing: Optional[A.MethodDecl], expr: A.Expr):
        self.field = field
        self.kind = kind
        self.span = span
        self.enclosing = enclosing  # None inside a field initializer, its write included
        self.expr = expr

    @property
    def line(self) -> int:
        return self.span.start_line


class ClassModel:
    __slots__ = ("decl", "field_accesses", "allowlist", "annotated", "mutator_methods", "bindings",
                 "local_writes", "calls", "syncs", "overloads", "exposed", "cfgs")

    def __init__(
        self,
        decl: A.ClassDecl,
        field_accesses: list[FieldAccess],
        allowlist: ThreadSafeTypeAllowlist,
        annotated: bool,
        mutator_methods: tuple[str, ...],
        bindings: dict[int, A.FieldDecl],
        local_writes: dict[int, list[Optional[A.Expr]]],
        calls: dict[int, list[A.Call]],
        syncs: dict[int, list[A.Sync]],
        overloads: dict[tuple[str, int], list[A.MethodDecl]],
    ):
        self.decl = decl
        self.field_accesses = field_accesses
        self.allowlist = allowlist
        self.annotated = annotated
        self.mutator_methods = mutator_methods
        self.bindings = bindings  # id(Name|FieldSel) -> field
        # id(local Name) -> the values written to its declaration, one list per
        # declaration; None for a value not known
        self.local_writes = local_writes
        self.calls = calls  # id(callable) -> its calls
        self.syncs = syncs  # id(callable) -> its sync blocks
        self.overloads = overloads  # (name, arity) -> methods
        self.exposed: list[FieldAccess] = []  # exposed_accesses(self), set once built
        self.cfgs: dict[int, Cfg] = {}  # id(callable) -> its CFG, built on first need

    @property
    def name(self) -> str:
        return self.decl.name

    @property
    def class_id(self) -> str:
        return self.decl.qualified_name or self.decl.name

    def field_of(self, expr: A.Expr) -> Optional[A.FieldDecl]:
        """The own field ``expr`` denotes, parentheses stripped.

        None for a local, a parameter, another object's field, and any
        expression that is not a name or a field selection.
        """
        return self.bindings.get(id(A.strip_parens(expr)))

    def is_local(self, expr: A.Expr) -> bool:
        """True when ``expr``, parentheses stripped, names a parameter or a local."""
        return id(A.strip_parens(expr)) in self.local_writes

    def denotes(self, expr: A.Expr) -> Optional[A.FieldDecl]:
        """The own field ``expr`` names, or that a local holds when it is
        assigned exactly once, from a read of the field or from another such
        local; parentheses stripped. Parameters, for-each and catch variables
        are written an unknown value, and a chain that returns to a local
        denotes nothing."""
        e = A.strip_parens(expr)
        followed = set()
        while (values := self.local_writes.get(id(e))) is not None:
            if len(values) != 1 or values[0] is None or id(values) in followed:
                return None
            followed.add(id(values))
            e = A.strip_parens(values[0])
        return self.bindings.get(id(e))

    def callees(self, call: A.Call) -> list[A.MethodDecl]:
        """Every method of the call's name and arity for an unqualified or
        ``this.`` call, parentheses stripped; none through any other receiver."""
        if call.qualifier is not None and not isinstance(A.strip_parens(call.qualifier), A.This):
            return []
        return self.overloads.get((call.name, len(call.args)), [])

    def calls_in(self, m: A.MethodDecl) -> list[A.Call]:
        """Every call in ``m``'s body, each before its receiver and arguments."""
        return self.calls.get(id(m), [])

    def syncs_in(self, m: A.MethodDecl) -> list[A.Sync]:
        """Every ``synchronized`` block in ``m``'s body, in source order."""
        return self.syncs.get(id(m), [])

    def cfg(self, m: A.MethodDecl) -> Cfg:
        """``m``'s control-flow graph, built on first need and kept, so P3's
        lock windows and the oracle's paths share one."""
        g = self.cfgs.get(id(m))
        if g is None:
            g = self.cfgs[id(m)] = build_cfg(m)
        return g


class _AccessCollector:
    """Walks callable bodies resolving bare names against locals, then fields.

    Every name or field selection that resolves to an own field is recorded
    in ``bindings``, whether or not it becomes an access of its own, and
    every name that resolves to a local in ``local_writes``. Each callable's
    calls and synchronized blocks are recorded in ``calls`` and ``syncs`` as
    they are reached.
    """

    def __init__(self, decl: A.ClassDecl, mutators: tuple[str, ...]):
        self.decl = decl
        self.fields = {f.name: f for f in decl.fields}
        self.mutators = frozenset(mutators)
        self.out: list[FieldAccess] = []
        self.bindings: dict[int, A.FieldDecl] = {}
        self.local_writes: dict[int, list[Optional[A.Expr]]] = {}
        self.calls: dict[int, list[A.Call]] = {}
        self.syncs: dict[int, list[A.Sync]] = {}
        self._calls: list[A.Call] = []
        self._syncs: list[A.Sync] = []
        self.locals: dict[str, list[Optional[A.Expr]]] = {}  # name -> its declaration's writes
        self.shadowed: list[tuple[str, Optional[list[Optional[A.Expr]]]]] = []  # (name, the writes it hid)
        self.enclosing: Optional[A.MethodDecl] = None

    # -- scope helpers --

    def _declare(self, name: str, writes: list[Optional[A.Expr]]) -> None:
        """Put a declaration of ``name`` in scope until the innermost open scope closes."""
        self.shadowed.append((name, self.locals.get(name)))
        self.locals[name] = writes

    def _close(self, mark: int) -> None:
        """Close the scopes opened since ``shadowed`` held ``mark`` entries."""
        shadowed, scope = self.shadowed, self.locals
        while len(shadowed) > mark:
            name, writes = shadowed.pop()
            if writes is None:
                del scope[name]
            else:
                scope[name] = writes

    def _bind(self, e: A.Expr) -> Optional[A.FieldDecl]:
        """The own field a ``Name`` or ``FieldSel`` denotes, recorded in ``bindings``;
        a local ``Name`` is recorded in ``local_writes`` instead."""
        t = type(e)
        if t is A.Name:
            writes = self.locals.get(e.identifier)
            if writes is not None:
                self.local_writes[id(e)] = writes
                return None
            f = self.fields.get(e.identifier)
        elif t is A.FieldSel:
            f = self._selected_own_field(e)
        else:
            return None
        if f is not None:
            self.bindings[id(e)] = f
        return f

    def _emit(self, f: A.FieldDecl, kind: AccessKind, expr: A.Expr, span: Optional[A.SourceSpan] = None) -> None:
        self.out.append(FieldAccess(f, kind, span or expr.span, self.enclosing, expr))

    # -- entry points --

    def collect_initializers(self) -> None:
        self.enclosing = None
        self.locals = {}
        for f in self.decl.fields:
            if f.initializer is not None:
                self.visit(f.initializer)
                self._emit(f, AccessKind.WRITE, f.initializer, span=f.span)

    def collect_callable(self, m: A.MethodDecl) -> None:
        self.enclosing = m
        self.locals = {p.name: [None] for p in m.params}
        self.shadowed = []
        self._calls = self.calls[id(m)] = []
        self._syncs = self.syncs[id(m)] = []
        if m.body is not None:
            for s in m.body.stmts:
                self.visit(s)

    # -- the walk --

    def visit(self, n: A.Node) -> None:
        """Bind, scope, classify or record ``n``, the commonest kinds first;
        walk the common kinds that do none of this child by child, and any
        other kind through ``A.children``."""
        t = type(n)
        if t is A.Name:
            writes = self.locals.get(n.identifier)
            if writes is not None:
                self.local_writes[id(n)] = writes
                return
            f = self.fields.get(n.identifier)
            if f is not None:
                self.bindings[id(n)] = f
                self.out.append(FieldAccess(f, AccessKind.READ, n.span, self.enclosing, n))
        elif t is A.ExprStmt:
            self.visit(n.expr)
        elif t is A.Literal:
            pass  # a leaf
        elif t is A.Binary:
            self.visit(n.left)
            self.visit(n.right)
        elif t is A.Block or t is A.For:
            mark = len(self.shadowed)
            for c in n.stmts if t is A.Block else A.children(n):
                self.visit(c)
            if len(self.shadowed) > mark:
                self._close(mark)
        elif t is A.Assign:
            self._visit_target(n.target, compound=n.op != "=", value=n.value)
            self.visit(n.value)
        elif t is A.Call:
            self._visit_call(n)
        elif t is A.LocalDecl:
            for d in n.declarators:
                if d.init is not None:
                    self.visit(d.init)
                self._declare(d.name, [] if d.init is None else [d.init])
        elif t is A.If:
            self.visit(n.cond)
            self.visit(n.then)
            if n.els is not None:
                self.visit(n.els)
        elif t is A.Paren:
            self.visit(n.inner)
        elif t is A.Return:
            if n.value is not None:
                self.visit(n.value)
        elif t is A.FieldSel:
            f = self._bind(n)
            if f is not None:
                self._emit(f, AccessKind.READ, n)
            else:
                self.visit(n.qualifier)
        elif t is A.Unary and n.op in ("++", "--"):
            self._visit_target(n.operand, compound=True)
        elif t is A.ForEach:
            self.visit(n.iterable)
            self._visit_scoped(n.body, n.var)
        elif t is A.Try:
            self.visit(n.body)
            for c in n.catches:
                self._visit_scoped(c.body, c.var)
            if n.finally_block is not None:
                self.visit(n.finally_block)
        else:
            if t is A.Sync:
                self._syncs.append(n)
            for c in A.children(n):
                self.visit(c)

    def _visit_scoped(self, body: A.Stmt, var: str) -> None:
        """Walk ``body`` with the variable ``var``, written an unknown value, in scope."""
        mark = len(self.shadowed)
        self._declare(var, [None])
        self.visit(body)
        self._close(mark)

    def _selected_own_field(self, e: A.FieldSel) -> Optional[A.FieldDecl]:
        """Own field selected via ``this.x`` or ``ClassName.staticField``."""
        q = e.qualifier
        t = type(q)
        if t is A.This:
            return self.fields.get(e.name)
        if t is A.Name and q.identifier == self.decl.name and q.identifier not in self.locals:
            f = self.fields.get(e.name)
            if f is not None and f.is_static:
                return f
        return None

    def _visit_target(self, target: A.Expr, compound: bool, value: Optional[A.Expr] = None) -> None:
        """Classify an assignment (or ++/--) target; compound targets also read.
        A local target records ``value``, or an unknown value if compound;
        an element of an own array field is an array-element write."""
        element = target = A.strip_parens(target)
        indices = []
        while type(target) is A.Index:
            indices.append(target.index)
            target = A.strip_parens(target.base)
        f = self._bind(target)
        if f is not None and indices:
            self._emit(f, AccessKind.ARRAY_ELEMENT_WRITE, element)
        elif f is not None:
            if compound:
                self._emit(f, AccessKind.READ, target)
            self._emit(f, AccessKind.WRITE, target)
        elif not indices and id(target) in self.local_writes:
            self.local_writes[id(target)].append(None if compound else value)
        else:
            self.visit(target)
        for ix in reversed(indices):  # Java evaluates the leftmost index first
            self.visit(ix)

    def _visit_call(self, e: A.Call) -> None:
        self._calls.append(e)
        q = None if e.qualifier is None else A.strip_parens(e.qualifier)
        target_field = None if q is None else self._bind(q)
        if target_field is not None:
            if e.name in self.mutators:
                self._emit(target_field, AccessKind.MUTATOR_CALL, e, span=e.span)
            else:
                self._emit(target_field, AccessKind.READ, q, span=q.span)
        elif q is not None:
            self.visit(q)
        for a in e.args:
            self.visit(a)


# an access's place in the file: its span's start, then its end
_SOURCE_ORDER = attrgetter("span.start", "span.end")


def build_class_model(
    decl: A.ClassDecl,
    allowlist: ThreadSafeTypeAllowlist = ThreadSafeTypeAllowlist(),
    annotation_names: tuple[str, ...] = DEFAULT_ANNOTATIONS,
    mutator_methods: tuple[str, ...] = DEFAULT_MUTATOR_METHODS,
) -> ClassModel:
    """Collect and classify every access to the class's own fields, in file order."""
    collector = _AccessCollector(decl, mutator_methods)
    collector.collect_initializers()
    for ctor in decl.constructors:
        collector.collect_callable(ctor)
    for m in decl.methods:
        collector.collect_callable(m)
    accesses = sorted(collector.out, key=_SOURCE_ORDER)
    overloads: dict[tuple[str, int], list[A.MethodDecl]] = {}
    for m in decl.methods:
        overloads.setdefault((m.name, m.arity), []).append(m)
    cm = ClassModel(decl, accesses, allowlist, decl.has_annotation(annotation_names), mutator_methods,
                    collector.bindings, collector.local_writes, collector.calls, collector.syncs, overloads)
    cm.exposed = exposed_accesses(cm)
    return cm


_ZERO_DEFAULT_TYPES = frozenset({"byte", "short", "char", "int", "long", "float", "double"})
_NUMERIC_LITERAL_KINDS = frozenset({"int", "long", "float", "double", "char"})


def _literal_is_zero(lit: A.Literal) -> bool:
    """True for a number or char literal whose value is zero, however spelled:
    ``0x0L``, ``00``, ``0_0``, ``0.``, ``0e0``, ``'\\0'``, ``'\\u0000'``."""
    if lit.kind == "char":
        body = lit.text[1:-1]
        if body.startswith("\\u"):
            digits = body[2:]
        elif body[:1] == "\\" and body[1:].isdigit():
            digits = body[1:]  # an octal escape
        else:
            return body == "\x00"  # a NUL character written as is
        return not digits.strip("0")
    text = lit.text.replace("_", "").lower()
    if text.startswith("0x"):
        return not text[2:].rstrip("l").strip("0")
    mantissa = text.rstrip("lfd").split("e", 1)[0]
    return not mantissa.strip("0.")


def is_default_initialized(f: A.FieldDecl) -> bool:
    """True when the declaration leaves the field at its JVM default value.

    The initializer must be a literal whose value is the default for the
    declared type: zero for a numeric or char field, ``false`` for a boolean
    and ``null`` for a reference. There is no constant folding, so
    ``int x = 1 - 1;``, ``(0)`` and ``-0.0`` do not count.
    """
    init = f.initializer
    if init is None:
        return True
    if not isinstance(init, A.Literal):
        return False
    base = f.declared_type.split("<", 1)[0]
    if base in _ZERO_DEFAULT_TYPES:
        return init.kind in _NUMERIC_LITERAL_KINDS and _literal_is_zero(init)
    if base == "boolean":
        return init.text == "false"
    return init.kind == "null"


def check_no_escaping(cm: ClassModel) -> list[Alert]:
    """P1: every field of a thread-safe class must be private."""
    alerts = []
    for f in cm.decl.fields:
        if not f.is_private:
            alerts.append(
                Alert(
                    rule=RULE_NO_ESCAPING,
                    primary=f.span,
                    field=f.name,
                    message=f"field '{f.name}' is not private; class state can escape",
                    class_id=cm.class_id,
                )
            )
    return alerts


def check_safe_publication(cm: ClassModel) -> list[Alert]:
    """P2: every field must be default-initialized, final, or volatile."""
    alerts = []
    for f in cm.decl.fields:
        if f.is_final or f.is_volatile or is_default_initialized(f):
            continue
        alerts.append(
            Alert(
                rule=RULE_SAFE_PUBLICATION,
                primary=f.span,
                field=f.name,
                message=(
                    f"field '{f.name}' is not safely published: not initialized to its "
                    "default value and neither final nor volatile"
                ),
                class_id=cm.class_id,
            )
        )
    return alerts


def exposed_accesses(cm: ClassModel) -> list[FieldAccess]:
    """Accesses that need explicit synchronization.

    Excluded: volatile fields, the declared-initializer write (and any reads
    inside initializers), accesses inside constructors, and fields whose
    declared type is on the thread-safe allowlist.
    """
    if not cm.annotated:
        return []
    safe = {f for f in {a.field for a in cm.field_accesses} if f.is_volatile or cm.allowlist.contains(f)}
    return [a for a in cm.field_accesses
            if not (a.field in safe or a.enclosing is None or a.enclosing.is_constructor)]


def is_modifying(a: FieldAccess) -> bool:
    """Writes, array-element writes, and configured mutator calls modify a
    field: every kind but a read. An identity test, as an Enum member's hash
    is a Python-level call."""
    return a.kind is not AccessKind.READ
