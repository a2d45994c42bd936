"""Reference binder: the class model's access collector as it was when it
kept one dict per open scope in a list and looked each name up by scanning
that list from the innermost scope out.

``threadlint.classmodel._AccessCollector`` keeps one flat name table with
an undo log instead; it must bind every name, record every local's writes
(the same list object per declaration), every call, every synchronized
block and every field access exactly as this one does. Kept only for the
parity tests in test_classmodel.py.
"""

from __future__ import annotations

from typing import Optional

from threadlint.classmodel import AccessKind, FieldAccess
from threadlint.frontend import ast as A


class ScopeListCollector:
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
        self.scopes: list[dict[str, list[Optional[A.Expr]]]] = []  # name -> its declaration's writes
        self.enclosing: Optional[A.MethodDecl] = None

    # -- scope helpers --

    def _local(self, name: str) -> Optional[list[Optional[A.Expr]]]:
        """The writes of the declaration ``name`` denotes; None when no local is in scope."""
        return next((s[name] for s in reversed(self.scopes) if name in s), None)

    def _bind(self, e: A.Expr) -> Optional[A.FieldDecl]:
        """The own field a ``Name`` or ``FieldSel`` denotes, recorded in ``bindings``;
        a local ``Name`` is recorded in ``local_writes`` instead."""
        if isinstance(e, A.Name):
            writes = self._local(e.identifier)
            if writes is not None:
                self.local_writes[id(e)] = writes
                return None
            f = self.fields.get(e.identifier)
        elif isinstance(e, A.FieldSel):
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
        self.scopes = [{}]
        for f in self.decl.fields:
            if f.initializer is not None:
                self.visit(f.initializer)
                self._emit(f, AccessKind.WRITE, f.initializer, span=f.span)

    def collect_callable(self, m: A.MethodDecl) -> None:
        self.enclosing = m
        self.scopes = [{p.name: [None] for p in m.params}]
        self._calls = self.calls[id(m)] = []
        self._syncs = self.syncs[id(m)] = []
        if m.body is not None:
            for s in m.body.stmts:
                self.visit(s)

    # -- the walk --

    def visit(self, n: A.Node) -> None:
        """Bind, scope, classify or record ``n``; walk any other kind through ``A.children``."""
        t = type(n)
        if t is A.Literal:
            return  # the commonest leaf: skip the tests below
        if t is A.Name or t is A.FieldSel:
            f = self._bind(n)
            if f is not None:
                self._emit(f, AccessKind.READ, n)
            elif t is A.FieldSel:
                self.visit(n.qualifier)
        elif t is A.Call:
            self._visit_call(n)
        elif t is A.Assign:
            self._visit_target(n.target, compound=n.op != "=", value=n.value)
            self.visit(n.value)
        elif t is A.Unary and n.op in ("++", "--"):
            self._visit_target(n.operand, compound=True)
        elif t is A.LocalDecl:
            for d in n.declarators:
                if d.init is not None:
                    self.visit(d.init)
                self.scopes[-1][d.name] = [] if d.init is None else [d.init]
        elif t is A.Block or t is A.For:
            self._visit_scoped(A.children(n), {})
        elif t is A.ForEach:
            self.visit(n.iterable)
            self._visit_scoped((n.body,), {n.var: [None]})
        elif t is A.Try:
            self.visit(n.body)
            for c in n.catches:
                self._visit_scoped((c.body,), {c.var: [None]})
            if n.finally_block is not None:
                self.visit(n.finally_block)
        else:
            if t is A.Sync:
                self._syncs.append(n)
            for c in A.children(n):
                self.visit(c)

    def _visit_scoped(self, nodes, scope: dict[str, list[Optional[A.Expr]]]) -> None:
        """Walk ``nodes`` with ``scope`` opened around them."""
        self.scopes.append(scope)
        for c in nodes:
            self.visit(c)
        self.scopes.pop()

    def _selected_own_field(self, e: A.FieldSel) -> Optional[A.FieldDecl]:
        """Own field selected via ``this.x`` or ``ClassName.staticField``."""
        q = e.qualifier
        if isinstance(q, A.This):
            return self.fields.get(e.name)
        if isinstance(q, A.Name) and q.identifier == self.decl.name and self._local(q.identifier) is None:
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
        while isinstance(target, A.Index):
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


def collect(decl: A.ClassDecl, mutators: tuple[str, ...]) -> ScopeListCollector:
    """The reference collector after the walk ``build_class_model`` makes:
    field initializers, then constructors, then methods."""
    collector = ScopeListCollector(decl, mutators)
    collector.collect_initializers()
    for ctor in decl.constructors:
        collector.collect_callable(ctor)
    for m in decl.methods:
        collector.collect_callable(m)
    return collector
