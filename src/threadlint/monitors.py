"""Monitor identification and protection of field accesses.

A monitor is its name, a string that the static rules and the oracle's
thread programs both use (README, "What counts as a monitor"). Only these
functions write one:

- :func:`method_monitor`: the object's own monitor for a synchronized
  instance method, the class's for a static one;
- :func:`sync_monitor`: the same two for ``synchronized (this)`` and the own
  class's literal, the field's for an own field, and else the
  :func:`canonical_text` of the expression;
- :func:`lock_monitor`: a lock field's lock, kept apart by a prefix from
  the monitor ``synchronized`` on the same field takes.

Protection is computed in one place, :meth:`MonitorAnalysis.protecting_monitors`.
An access is protected by an explicit lock field when every CFG node of it
lies in the field's lock window (:func:`lock_window`): the nodes held at
least once on every path in. Holds are counted, as the field's lock is
reentrant: along a path each lock call (``lock``, ``lockInterruptibly``,
``tryLock``) adds one and each unlock call takes one away, and
:func:`threadlint.cfg.fewest` gives the fewest holds on any path to each
node. So an unlock between a lock call and the access ends the window, and
``lock(); lock(); x = 1; unlock(); unlock();`` keeps ``x`` guarded. What
happens after the access does not matter: a thread that holds the lock there
shuts out every other thread that takes it until it lets go, so a later
unlock adds nothing to mutual exclusion at the access, and one that never
comes (an early ``return`` past it, a lock with no unlock) leaves the access
guarded all the same. The paper's post-dominating ``unlock()`` is not asked
for. It also kept out the paths where the lock was never taken, and those
are kept out by other means: only a lock call that is a statement of its
own holds, and a ``catch`` handler is reached from the start of its ``try``
block (:mod:`threadlint.cfg`), so a ``lockInterruptibly()`` that throws
holds nothing in the handler. A lock or unlock statement is inside its own
window. Such a window reports the field's ``lock_monitor``.
A call or access inside a ``finally`` block has one CFG node per copy of
the block, and each copy is asked about. Protection by the synchronized
keyword (methods, static methods, blocks) is recognized syntactically and
reports every other monitor.

The work is demand-driven. Lock and unlock calls are taken from the calls
the class model recorded, and a method's CFG and windows are built only
when some lock field has a lock call in it; without one no window exists,
so no CFG is asked for. Synchronized blocks also come from the class
model: an expression is guarded by each block whose body span contains its
span, which is exact because the spans of one tree nest or are disjoint.
Each method's protection is one record, built once: the synchronized
method's monitor, each block's body offsets and monitor, the CFG when
there is a window, and each window's nodes and monitor; a query
builds no monitor, and in a method with neither blocks nor windows it
returns the method's monitors as they are.

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
``this`` monitor. A ``tryLock()`` statement counts as a hold even though
its acquisition may fail, and a ``tryLock()`` whose result is tested counts
as none; read-write and stamped locks are not recognized unless configured.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from threadlint.accesspaths import AccessPathFact, provides_access
from threadlint.cfg import Cfg, CfgNode, build_cfg, fewest
from threadlint.classmodel import ClassModel, FieldAccess, base_type
from threadlint.frontend import ast as A
from threadlint.frontend.printer import canonical_text

DEFAULT_LOCK_TYPES = ("Lock", "ReentrantLock")
DEFAULT_LOCK_METHODS = ("lock", "lockInterruptibly", "tryLock")
DEFAULT_UNLOCK_METHODS = ("unlock",)


def lock_window(cfg: Cfg, locks: list[A.Call], unlocks: list[A.Call]) -> frozenset[CfgNode]:
    """The window of one lock field in ``cfg``, given its lock and unlock
    calls: the nodes where every path in leaves at least one hold, and the
    nodes that lock; so the lock and unlock statements lie inside.

    Only a lock call that is a statement of its own takes a hold. One whose
    result is used, as in ``if (l.tryLock())``, holds the lock on one branch
    only, which a count per node cannot tell from the other, so it takes none.
    """
    locked = [n for c in locks for n in cfg.nodes_for(c)
              if isinstance(n.ast, A.ExprStmt) and n.ast.expr is c]
    gain = Counter(locked)
    gain.subtract(n for c in unlocks for n in cfg.nodes_for(c))
    return frozenset(n for n, c in fewest(cfg, gain).items() if c or n in locked)


def is_lock_type(type_name: str, lock_types: tuple[str, ...] = DEFAULT_LOCK_TYPES) -> bool:
    """True when the simple or qualified form names a recognized lock type."""
    base = base_type(type_name)
    return base is not None and (base.rsplit(".", 1)[-1] in lock_types or base in lock_types)


def lock_fields(cm: ClassModel, lock_types: tuple[str, ...] = DEFAULT_LOCK_TYPES) -> list[A.FieldDecl]:
    """The class's fields whose declared or resolved type is a recognized lock type."""
    return [f for f in cm.decl.fields
            if is_lock_type(f.declared_type, lock_types) or is_lock_type(f.resolved_type, lock_types)]


def method_monitor(m: A.MethodDecl, cm: ClassModel) -> Optional[str]:
    """The monitor synchronized method ``m`` takes; None when ``m`` is not synchronized."""
    if not m.is_synchronized:
        return None
    return f"Class<{cm.decl.name}>" if m.is_static else "this"


def lock_monitor(f: A.FieldDecl) -> str:
    """The monitor the lock and unlock calls of lock field ``f`` take and
    release, apart from the one ``synchronized (f)`` takes."""
    return f"lock:this.{f.name}"


def sync_monitor(expr: A.Expr, cm: ClassModel) -> Optional[str]:
    """The monitor ``synchronized (expr)`` takes; None when it guards nothing.

    A parameter, or a local that denotes no own field, may hold a different
    object in each thread, so it is no shared monitor. A local alias of a
    field is the field's monitor. A class literal is the own class's monitor
    only when its name is a suffix of the qualified class name, so
    ``Outer.Inner.class`` is but ``q.C.class`` in package ``p`` is not.
    """
    e = A.strip_parens(expr)
    if isinstance(e, A.This):
        return "this"
    f = cm.denotes(e)
    if f is not None:
        return f"this.{f.name}"
    if cm.is_local(e):
        return None
    if isinstance(e, A.ClassLit) and ("." + cm.class_id).endswith("." + e.type_text):
        return f"Class<{cm.decl.name}>"
    return canonical_text(e)


# a method's protection record: the synchronized method's monitors, the
# (body start, body end, monitor) of each synchronized block that takes one,
# the CFG when some lock field has a window, and each window's (nodes, monitor)
_Protection = tuple[frozenset[str], list[tuple[int, int, str]], Optional[Cfg], list[tuple[frozenset[CfgNode], str]]]


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
        self._records: dict[int, _Protection] = {}
        self._facts = facts
        self._public_facts: Optional[dict[int, list[AccessPathFact]]] = None
        self._entry: Optional[dict[int, frozenset[str]]] = None

    def _lock_calls(self, m: A.MethodDecl) -> list[tuple[A.FieldDecl, list[A.Call], list[A.Call]]]:
        """(field, lock calls, unlock calls) of each lock field with a lock
        call in ``m``, in field order."""
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
        return [(f, locks[id(f)], unlocks.get(id(f), [])) for f in self._lock_fields if id(f) in locks]

    def _protection(self, m: A.MethodDecl) -> _Protection:
        """``m``'s protection record, built once; the CFG is built only when
        some lock field has a lock call in ``m``."""
        record = self._records.get(id(m))
        if record is None:
            cm = self.cm
            mon = method_monitor(m, cm)
            base = frozenset() if mon is None else frozenset((mon,))
            blocks = []
            for s in cm.syncs_in(m):
                mon = sync_monitor(s.monitor, cm)
                if mon is not None:
                    blocks.append((s.body.span.start, s.body.span.end, mon))
            calls = self._lock_calls(m)
            cfg = build_cfg(m) if calls else None
            windows = [(lock_window(cfg, locks, unlocks), lock_monitor(f)) for f, locks, unlocks in calls]
            record = self._records[id(m)] = (base, blocks, cfg, windows)
        return record

    def cfg_for(self, m: A.MethodDecl) -> tuple[Cfg, list[tuple[frozenset[CfgNode], str]]]:
        """``m``'s CFG and the ``(nodes, monitor)`` of its lock windows; a
        method without a window gets a new CFG, which is not kept."""
        _, _, cfg, windows = self._protection(m)
        return (build_cfg(m) if cfg is None else cfg), windows

    def windows_for(self, m: A.MethodDecl) -> list[tuple[frozenset[CfgNode], str]]:
        """The ``(nodes, monitor)`` of one window per lock field with a lock
        call in ``m``."""
        return self._protection(m)[3]

    def protecting_monitors(self, m: A.MethodDecl, expr: A.Expr) -> frozenset[str]:
        """All monitors protecting the evaluation of ``expr`` inside ``m``."""
        base, blocks, cfg, windows = self._protection(m)
        if not blocks and not windows:
            return base
        out = set(base)
        _, start, end, _ = expr.span
        for body_start, body_end, mon in blocks:
            if body_start <= start and end <= body_end:
                out.add(mon)
        if windows:
            nodes = cfg.nodes_for(expr)
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

    def _entry_monitors(self) -> dict[int, frozenset[str]]:
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

    def monitors(self, a: FieldAccess) -> frozenset[str]:
        """Monitors held at ``a`` on every public path to it; empty without one.

        A thread at ``a`` holds every monitor taken along its call path, so
        this is what its method is entered with plus the access's own
        protection.
        """
        k = a.enclosing
        held = self._entry_monitors().get(id(k))
        return frozenset() if held is None else held | self.protecting_monitors(k, a.expr)
