"""Monitor identification and protection of field accesses.

Protection is computed in one place, :meth:`MonitorAnalysis.protecting_monitors`.
An access is protected by an explicit lock field when some lock()/unlock()
call pair on that field satisfies the dominance conditions: the lock call
dominates both the unlock call and the access, and the unlock call
post-dominates the access; such a window reports the monitor
``Monitor(LOCK_FIELD, "<class_id>.<field>")``. A call or access inside a
``finally`` block has one CFG node per copy of the block, so the conditions
are asked of node sets: every path to each node of the unlock call or the
access passes some node of the lock call, and every path from each node of
the access to the exit passes some node of the unlock call. Protection by the
synchronized keyword (methods, static methods, blocks) is recognized
syntactically and reports every other monitor kind.

The work is demand-driven, as a query engine evaluates the paper's
dominance relation only where the query needs it. Lock and unlock calls are
taken from the calls the class model recorded, and a method's CFG is
built only when some lock field has both a lock call and an unlock call in
it; without both no window exists, so no CFG is asked for. Dominance is
then searched for only from the lock and unlock calls a window query names. Synchronized blocks also come from the class model: an
expression is guarded by each block whose body span contains its span,
which is exact because the spans of one tree nest or are disjoint. Each
block's monitor is computed once.

Names are bound by the class model, never here: a lock call's receiver
locks the lock field :meth:`ClassModel.denotes` gives for it, so a name
shadowed by a local or a parameter is not the field, and a local locks a
field only when it is assigned exactly once, from a read of that field or
from another such local.
Likewise ``synchronized (e)`` on a parameter, or on a local that denotes no
field, guards nothing (:func:`sync_monitor`): each thread may pass or create
a different object. On an alias it is the field's monitor. A for-each or
catch variable is never an alias.

The P3 query, the monitors held at an access on every public path to it, is
one top-down lockset transfer over the same-class call graph, as RacerX
propagates locksets (:meth:`MonitorAnalysis._entry_monitors`): along one
path the monitors add up, and across paths they meet. One forward worklist
over :meth:`ClassModel.calls_in` and :meth:`ClassModel.callees` computes
it; a set only shrinks, so recursion needs no special case. This contains
the paper's ``forex`` over ``publicAccess``, which counts only the monitors
held at the public method's own call site. No access path fact is built:
:func:`threadlint.accesspaths.provides_access` and :meth:`public_facts`
remain the paper's definition, evaluated only when asked for.

Monitor equality is syntactic-canonical over those bindings: ``l``,
``this.l`` and, for a static field, ``Cls.l`` share one identity;
``synchronized (this)`` and a synchronized instance method share the
``this`` monitor. A dominating ``tryLock()`` counts as protection even
though its acquisition may fail; read-write and stamped locks are not
recognized unless configured.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from threadlint.accesspaths import AccessPathFact, provides_access
from threadlint.cfg import Cfg, CfgNode, DomInfo, build_cfg, dominance, dominates, post_dominates
from threadlint.classmodel import ClassModel, FieldAccess
from threadlint.frontend import ast as A
from threadlint.frontend.printer import canonical_text

DEFAULT_LOCK_TYPES = ("Lock", "ReentrantLock")
DEFAULT_LOCK_METHODS = ("lock", "lockInterruptibly", "tryLock")
DEFAULT_UNLOCK_METHODS = ("unlock",)


class MonitorKind(Enum):
    LOCK_FIELD = "lockField"
    THIS = "thisMonitor"
    CLASS = "classMonitor"
    SYNC_EXPR = "syncExpr"


@dataclass(frozen=True)
class Monitor:
    kind: MonitorKind
    identity: str

    def __str__(self):
        return self.identity


@dataclass(frozen=True)
class LockWindow:
    """A lock()/unlock() pair where the lock call dominates the unlock call."""

    lock_nodes: frozenset[CfgNode]
    unlock_nodes: frozenset[CfgNode]
    field: A.FieldDecl


def is_lock_type(type_name: str, lock_types: tuple[str, ...] = DEFAULT_LOCK_TYPES) -> bool:
    """True when the simple or qualified form names a recognized lock type."""
    base = type_name.split("<", 1)[0]
    if base.endswith("[]"):
        return False
    simple = base.rsplit(".", 1)[-1]
    return simple in lock_types or base in lock_types


def lock_fields(cm: ClassModel, lock_types: tuple[str, ...] = DEFAULT_LOCK_TYPES) -> list[A.FieldDecl]:
    """The class's fields whose declared or resolved type is a recognized lock type."""
    return [f for f in cm.decl.fields
            if is_lock_type(f.declared_type, lock_types) or is_lock_type(f.resolved_type, lock_types)]


def sync_monitor(expr: A.Expr, cm: ClassModel) -> Optional[Monitor]:
    """The monitor ``synchronized (expr)`` takes; None when it guards nothing.

    A parameter, or a local that denotes no own field, may hold a different
    object in each thread, so it is no shared monitor. A local alias of a
    field is the field's monitor. A class literal is the own class's monitor
    only when its name is a suffix of the qualified class name, so
    ``Outer.Inner.class`` is but ``q.C.class`` in package ``p`` is not.
    """
    e = A.strip_parens(expr)
    if isinstance(e, A.This):
        return Monitor(MonitorKind.THIS, "this")
    f = cm.denotes(e)
    if f is not None:
        return Monitor(MonitorKind.SYNC_EXPR, f"this.{f.name}")
    if cm.is_local(e):
        return None
    if isinstance(e, A.ClassLit) and ("." + cm.class_id).endswith("." + e.type_text):
        return Monitor(MonitorKind.CLASS, f"Class<{cm.decl.name}>")
    return Monitor(MonitorKind.SYNC_EXPR, canonical_text(e))


class MonitorAnalysis:
    """Per-class monitor protection; per-method work is done on first need."""

    def __init__(
        self,
        cm: ClassModel,
        facts: Optional[list[AccessPathFact]] = None,
        lock_types: tuple[str, ...] = DEFAULT_LOCK_TYPES,
        lock_methods: tuple[str, ...] = DEFAULT_LOCK_METHODS,
        unlock_methods: tuple[str, ...] = DEFAULT_UNLOCK_METHODS,
    ):
        self.cm = cm
        self.lock_methods = lock_methods
        self.unlock_methods = unlock_methods
        self._lock_fields = lock_fields(cm, lock_types)
        self._cfgs: dict[int, tuple[Cfg, DomInfo]] = {}
        self._windows: dict[int, list[LockWindow]] = {}
        self._held: dict[int, list[tuple[A.SourceSpan, Monitor]]] = {}
        self._monitors_cache: dict[int, frozenset[Monitor]] = {}
        self._facts = facts
        self._public_facts: Optional[dict[int, list[AccessPathFact]]] = None
        self._entry: Optional[dict[int, frozenset[Monitor]]] = None

    def cfg_for(self, m: A.MethodDecl) -> tuple[Cfg, DomInfo]:
        entry = self._cfgs.get(id(m))
        if entry is None:
            cfg = build_cfg(m)
            entry = (cfg, dominance(cfg))
            self._cfgs[id(m)] = entry
        return entry

    def windows_for(self, m: A.MethodDecl) -> list[LockWindow]:
        """All dominance-ordered lock/unlock pairs on the class's lock fields in ``m``.

        The CFG is built only when some lock field has both a lock call and
        an unlock call in ``m``; without both no window exists.
        """
        windows = self._windows.get(id(m))
        if windows is not None:
            return windows
        windows = self._windows[id(m)] = []
        if not self._lock_fields:
            return windows
        locks: dict[int, list[A.Call]] = {}
        unlocks: dict[int, list[A.Call]] = {}
        for e in self.cm.calls_in(m):
            if e.qualifier is None:
                continue
            if e.name in self.lock_methods:
                bucket = locks
            elif e.name in self.unlock_methods:
                bucket = unlocks
            else:
                continue
            f = self.cm.denotes(e.qualifier)
            if f is not None:
                bucket.setdefault(id(f), []).append(e)
        paired = [f for f in self._lock_fields if id(f) in locks and id(f) in unlocks]
        if not paired:
            return windows
        cfg, dom = self.cfg_for(m)
        for f in paired:
            for lc in locks[id(f)]:
                lock_nodes = frozenset(cfg.nodes_for(lc))
                for uc in unlocks[id(f)]:
                    unlock_nodes = frozenset(cfg.nodes_for(uc))
                    if unlock_nodes and dominates(dom, lock_nodes, unlock_nodes):
                        windows.append(LockWindow(lock_nodes, unlock_nodes, f))
        return windows

    def _held_syncs(self, m: A.MethodDecl) -> list[tuple[A.SourceSpan, Monitor]]:
        """(body span, monitor) of each synchronized block in ``m`` that takes one."""
        held = self._held.get(id(m))
        if held is None:
            held = self._held[id(m)] = []
            for s in self.cm.syncs_in(m):
                mon = sync_monitor(s.monitor, self.cm)
                if mon is not None:
                    held.append((s.body.span, mon))
        return held

    def protecting_monitors(self, m: A.MethodDecl, expr: A.Expr) -> frozenset[Monitor]:
        """All monitors protecting the evaluation of ``expr`` inside ``m``."""
        out: set[Monitor] = set()
        if m.is_synchronized:
            if m.is_static:
                out.add(Monitor(MonitorKind.CLASS, f"Class<{self.cm.decl.name}>"))
            else:
                out.add(Monitor(MonitorKind.THIS, "this"))
        span = expr.span
        for body, mon in self._held_syncs(m):
            if body.contains(span):
                out.add(mon)
        windows = self.windows_for(m)
        if windows:
            cfg, dom = self.cfg_for(m)
            nodes = cfg.nodes_for(expr)
            if nodes:
                for w in windows:
                    if dominates(dom, w.lock_nodes, nodes) and post_dominates(dom, w.unlock_nodes, nodes):
                        out.add(self._lock_field_monitor(w.field))
        return frozenset(out)

    def _lock_field_monitor(self, f: A.FieldDecl) -> Monitor:
        owner = self.cm.decl.qualified_name or self.cm.decl.name
        return Monitor(MonitorKind.LOCK_FIELD, f"{owner}.{f.name}")

    def public_facts(self, a: FieldAccess) -> list[AccessPathFact]:
        """The facts of public methods that execute ``a`` (the paper's publicAccess).

        Built on first call, from the ``facts`` the analysis was given or
        else from :func:`provides_access`; the verdict path never calls it.
        """
        if self._public_facts is None:
            self._public_facts = {}
            for f in provides_access(self.cm) if self._facts is None else self._facts:
                if f.method.is_public:
                    self._public_facts.setdefault(id(f.access), []).append(f)
        return self._public_facts.get(id(a), [])

    def _entry_monitors(self) -> dict[int, frozenset[Monitor]]:
        """id(k) -> the monitors held on every public path into method ``k``;
        ``k`` is absent when no public method reaches it.

        A public method is entered holding nothing. A call site ``e`` in a
        method ``j`` passes ``entry(j) | protecting_monitors(j, e)`` to its
        callees, and a callee keeps the intersection of what reaches it. A
        callee is pushed again only when its set shrinks.
        """
        entry = self._entry
        if entry is not None:
            return entry
        cm = self.cm
        work = [m for m in cm.decl.methods if m.is_public]
        entry = self._entry = dict.fromkeys(map(id, work), frozenset())
        while work:
            j = work.pop()
            held = entry[id(j)]
            for e in cm.calls_in(j):
                callees = cm.callees(e)
                if callees:
                    passed = held | self.protecting_monitors(j, e)
                    for k in callees:
                        old = entry.get(id(k))
                        new = passed if old is None else old & passed
                        if new != old:
                            entry[id(k)] = new
                            work.append(k)
        return entry

    def has_public_path(self, a: FieldAccess) -> bool:
        """Whether a public method executes ``a``: its own, or one whose calls reach it."""
        return id(a.enclosing) in self._entry_monitors()

    def monitors(self, a: FieldAccess) -> frozenset[Monitor]:
        """Monitors held at ``a`` on every public path to it; empty without one.

        A thread at ``a`` holds every monitor taken along its call path, so
        this is what its method is entered with plus the access's own
        protection.
        """
        cached = self._monitors_cache.get(id(a))
        if cached is not None:
            return cached
        k = a.enclosing
        held = self._entry_monitors().get(id(k))
        result = frozenset() if held is None else held | self.protecting_monitors(k, a.expr)
        self._monitors_cache[id(a)] = result
        return result
