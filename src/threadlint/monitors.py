"""Monitor identification and protection of field accesses.

Protection is computed in one place, :meth:`MonitorAnalysis.protecting_monitors`.
An access is protected by an explicit lock field when every CFG node of it
lies in the field's lock window (:class:`LockWindow`): the nodes held at
least once on every path in and released on every path out. Holds are
counted, as the field's lock is reentrant: along a path each lock call
(``lock``, ``lockInterruptibly``, ``tryLock``) adds one and each unlock call
takes one away, and :func:`threadlint.cfg.fewest` gives the fewest holds on
any path to each node. So an unlock between a lock call and the access ends
the window, and ``lock(); lock(); x = 1; unlock(); unlock();`` keeps ``x``
guarded. "Released on every path out" is the paper's post-dominating
``unlock()``: every path from the node to the exit passes an unlock call of
the field. A lock or unlock statement is inside its own window. Such a
window reports the monitor ``Monitor(LOCK_FIELD, "<class_id>.<field>")``.
A call or access inside a ``finally`` block has one CFG node per copy of
the block, and each copy is asked about. Protection by the synchronized
keyword (methods, static methods, blocks) is recognized syntactically and
reports every other monitor kind.

The work is demand-driven. Lock and unlock calls are taken from the calls
the class model recorded, and a method's CFG and windows are built only
when some lock field has both a lock call and an unlock call in it; without
both no window exists, so no CFG is asked for. Synchronized blocks also
come from the class model: an expression is guarded by each block whose
body span contains its span, which is exact because the spans of one tree
nest or are disjoint. Each method's protection is one table, built once: the
synchronized method's monitor, each block's body offsets and monitor, and
each window's nodes and monitor; a query builds no monitor, and in a method
with neither blocks nor windows it returns the method's monitors as they are.

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
``this`` monitor. A ``tryLock()`` counts as a hold even though its
acquisition may fail; read-write and stamped locks are not
recognized unless configured.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from threadlint.accesspaths import AccessPathFact, provides_access
from threadlint.cfg import Cfg, CfgNode, build_cfg, fewest
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

    def __hash__(self):
        # equal monitors have equal identities; an Enum member hashes in Python
        return hash(self.identity)


@dataclass(frozen=True)
class LockWindow:
    """The nodes of one method where ``field`` is held at least once on
    every path in and released on every path out."""

    nodes: frozenset[CfgNode]
    field: A.FieldDecl


# a method's protection: (synchronized-method monitors, [(body start, body
# end, monitor)] of its synchronized blocks, [(nodes, monitor)] of its windows)
_Protection = tuple[frozenset[Monitor], list[tuple[int, int, Monitor]], list[tuple[frozenset[CfgNode], Monitor]]]


def lock_window(cfg: Cfg, field: A.FieldDecl, locks: list[A.Call], unlocks: list[A.Call]) -> LockWindow:
    """The window of ``field`` in ``cfg``, given its lock and unlock calls.

    A node is held when every path in leaves at least one hold or when it
    locks, and released when every path out passes an unlock call or when
    it unlocks; so the lock and unlock statements lie inside. A node that
    cannot reach the exit is never released.
    """
    locked = [n for c in locks for n in cfg.nodes_for(c)]
    unlocked = [n for c in unlocks for n in cfg.nodes_for(c)]
    gain = Counter(locked)
    gain.subtract(unlocked)
    held = fewest(cfg, gain)
    released = fewest(cfg, Counter(unlocked), backward=True)
    return LockWindow(frozenset(n for n, c in held.items() if n in released
                                and (c or n in locked) and (released[n] or n in unlocked)), field)


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
        self._cfgs: dict[int, tuple[Cfg, list[LockWindow]]] = {}
        self._windows: dict[int, list[LockWindow]] = {}
        self._tables: dict[int, _Protection] = {}
        self._monitors_cache: dict[int, frozenset[Monitor]] = {}
        self._facts = facts
        self._public_facts: Optional[dict[int, list[AccessPathFact]]] = None
        self._entry: Optional[dict[int, frozenset[Monitor]]] = None

    def _lock_calls(self, m: A.MethodDecl) -> list[tuple[A.FieldDecl, list[A.Call], list[A.Call]]]:
        """(field, lock calls, unlock calls) of each lock field with both
        kinds of call in ``m``, in field order."""
        if not self._lock_fields:
            return []
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
        return [(f, locks[id(f)], unlocks[id(f)]) for f in self._lock_fields if id(f) in locks and id(f) in unlocks]

    def cfg_for(self, m: A.MethodDecl) -> tuple[Cfg, list[LockWindow]]:
        """``m``'s CFG and its lock windows, built on first need."""
        got = self._cfgs.get(id(m))
        if got is None:
            cfg = build_cfg(m)
            got = self._cfgs[id(m)] = (cfg, [lock_window(cfg, *p) for p in self._lock_calls(m)])
        return got

    def windows_for(self, m: A.MethodDecl) -> list[LockWindow]:
        """One window per lock field with both a lock call and an unlock
        call in ``m``; the CFG is built only when there is one."""
        windows = self._windows.get(id(m))
        if windows is None:
            windows = self._windows[id(m)] = self.cfg_for(m)[1] if self._lock_calls(m) else []
        return windows

    def _protection(self, m: A.MethodDecl) -> _Protection:
        """``m``'s protection table, built on first need: the monitors of a
        synchronized method, then the ``(start, end, monitor)`` of each
        synchronized block's body that takes one, then the ``(nodes,
        monitor)`` of each lock window."""
        table = self._tables.get(id(m))
        if table is None:
            cm = self.cm
            base: frozenset[Monitor] = frozenset()
            if m.is_synchronized:
                base = frozenset({Monitor(MonitorKind.CLASS, f"Class<{cm.decl.name}>") if m.is_static
                                  else Monitor(MonitorKind.THIS, "this")})
            blocks = []
            for s in cm.syncs_in(m):
                mon = sync_monitor(s.monitor, cm)
                if mon is not None:
                    blocks.append((s.body.span.start, s.body.span.end, mon))
            owner = cm.decl.qualified_name or cm.decl.name
            windows = [(w.nodes, Monitor(MonitorKind.LOCK_FIELD, f"{owner}.{w.field.name}"))
                       for w in self.windows_for(m)]
            table = self._tables[id(m)] = (base, blocks, windows)
        return table

    def protecting_monitors(self, m: A.MethodDecl, expr: A.Expr) -> frozenset[Monitor]:
        """All monitors protecting the evaluation of ``expr`` inside ``m``."""
        base, blocks, windows = self._protection(m)
        if not blocks and not windows:
            return base
        out = set(base)
        _, start, end, _ = expr.span
        for body_start, body_end, mon in blocks:
            if body_start <= start and end <= body_end:
                out.add(mon)
        if windows:
            nodes = self.cfg_for(m)[0].nodes_for(expr)
            if nodes:
                for window, mon in windows:
                    if window.issuperset(nodes):
                        out.add(mon)
        return frozenset(out)

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
