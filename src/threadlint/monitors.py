"""Monitor identification and protection of field accesses.

A monitor is its name, a string that the static rules and the oracle's
thread programs both use (README, "What counts as a monitor"). Only these
functions write one:

- :func:`method_monitor`: the object's own monitor for a synchronized
  instance method, the class's for a static one;
- :func:`sync_monitor`: the same two for ``synchronized (this)`` and the own
  class's literal, the field's for an own field, an alias of one or a
  getter of an own final field (:func:`returned_field`), none for an
  expression that reads a parameter or a local, makes an object or calls a
  method, and else the expression's :func:`~threadlint.frontend.ast.canonical_text`;
- :func:`lock_monitor`: a lock field's lock, kept apart by a prefix from
  the monitor ``synchronized`` on the same field takes.

Which call locks or unlocks which lock field is decided in one place,
:meth:`MonitorAnalysis.lock_call`: the configured lock or unlock method on
a receiver that :meth:`ClassModel.denotes` binds to a lock field. P3's lock
windows and the oracle's lock actions are both built from it. Names are
bound by the class model, never here, so a name shadowed by a local or a
parameter is not the field, and a local is a field's alias only when it is
assigned exactly once, from a read of that field or from another such
local; a for-each or catch variable never is.

Protection is computed in one place, :meth:`MonitorAnalysis.protecting_monitors`.
An access is protected by a lock field when every CFG node of it lies in
the field's lock window (:func:`lock_window`): the nodes held at least once
on every path in. Holds are counted, as the lock is reentrant: along a path
each lock call adds one and each unlock call takes one away, and
:func:`threadlint.cfg.fewest` gives the fewest holds on any path to each
node. So an unlock between a lock call and the access ends the window, and
``lock(); lock(); x = 1; unlock(); unlock();`` keeps ``x`` guarded. What
happens after the access does not matter: a thread that holds the lock there
shuts out every other thread that takes it until it lets go, so the
paper's post-dominating ``unlock()`` is not asked for, and an early
``return`` past the unlock leaves the access guarded all the same. The
paths where the lock was never taken are kept out by other means: only a
lock call that is a statement of its own holds, so a tested ``tryLock()``
holds on neither branch, and a ``catch`` handler is reached from the start
of its ``try`` block (:mod:`threadlint.cfg`). A ``tryLock()`` statement
counts as a hold though it may fail. A call or access inside a ``finally``
block has one CFG node per copy of the block, and each copy is asked about.
Protection by the synchronized keyword is recognized syntactically: an
expression is guarded by each block whose body span contains its span,
which is exact because the spans of one tree nest or are disjoint.

The work is demand-driven. Each method's protection is one record, built
once: the synchronized method's monitor, each block's body offsets and
monitor, and, only when some lock field has a lock call in the method, its
CFG and each window's nodes and monitor. A query builds no monitor. The
P3 query keeps one set per method, the monitors it is entered with plus
its own, and answers every access outside the method's blocks and windows
with that set; only an access in a block or a window is looked up there.

The P3 query, the monitors held at an access on every public path to it, is
one top-down lockset transfer over the same-class call graph, as RacerX
propagates locksets (:meth:`MonitorAnalysis._entry_monitors`): along one
path the monitors add up, and across paths they meet; a set only shrinks,
so recursion needs no special case. This contains the paper's ``forex``
over ``publicAccess``. No access path fact is built:
:func:`threadlint.accesspaths.provides_access` and :meth:`public_facts`
remain the paper's definition, loaded and evaluated only when asked for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from threadlint.cfg import Cfg, CfgNode, fewest
from threadlint.classmodel import ClassModel, FieldAccess, base_type
from threadlint.frontend import ast as A

if TYPE_CHECKING:
    from threadlint.accesspaths import AccessPathFact

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
              if type(n.ast) is A.ExprStmt and n.ast.expr is c]
    gain = dict.fromkeys(locked, 0)
    for n in locked:
        gain[n] += 1
    for c in unlocks:
        for n in cfg.nodes_for(c):
            gain[n] = gain.get(n, 0) - 1
    count = fewest(cfg, gain)
    return frozenset([n for n, c in count.items() if c] + [n for n in locked if n in count])


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

    A local alias of a field is the field's monitor, and so is a call of a
    getter that returns it (:func:`returned_field`). A class literal is the
    own class's monitor only when its name is a suffix of the qualified class
    name, so ``Outer.Inner.class`` is but ``q.C.class`` in package ``p`` is
    not. Any other expression that reads a parameter or a local, such as
    ``h.lock`` or ``locks[i]``, that makes an object, or that calls a method,
    may give a different object in each thread, so it is no shared monitor;
    the rest are named by their source tokens (:func:`A.canonical_text`).
    """
    e = A.strip_parens(expr)
    if isinstance(e, A.This):
        return "this"
    f = cm.denotes(e) if type(e) is not A.Call else returned_field(e, cm)
    if f is not None:
        return f"this.{f.name}"
    if isinstance(e, A.ClassLit) and ("." + cm.class_id).endswith("." + e.type_text):
        return f"Class<{cm.decl.name}>"
    if any(isinstance(n, (A.New, A.Call)) or cm.is_local(n) for n in A.walk(e)):
        return None
    return A.canonical_text(e)


def returned_field(call: A.Call, cm: ClassModel) -> Optional[A.FieldDecl]:
    """The own final field that every ``return`` of ``call``'s one callee
    denotes, so that each call gives the same object; None otherwise."""
    callees = cm.callees(call)
    if len(callees) != 1 or callees[0].body is None:
        return None
    got = None
    for r in A.walk(callees[0].body):
        if type(r) is A.Return:
            f = None if r.value is None else cm.denotes(r.value)
            if f is None or not f.is_final or got not in (None, f):
                return None
            got = f
    return got


# a method's protection record: the synchronized method's monitors, the
# (body start, body end, monitor) of each synchronized block that takes one,
# the CFG when some lock field has a window, and each window's (nodes, monitor)
_Protection = tuple[frozenset[str], list[tuple[int, int, str]], Optional[Cfg], list[tuple[frozenset[CfgNode], str]]]


def _inner_monitors(record: _Protection, expr: A.Expr) -> set[str]:
    """The monitors of the synchronized blocks whose bodies contain ``expr``
    and of the lock windows that hold every CFG node of it, from its
    method's protection record."""
    _, blocks, cfg, windows = record
    out = set()
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
    return out


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
        self._lock_fields = {id(f): f for f in lock_fields(cm, lock_types)}
        self._records: dict[int, _Protection] = {}
        self._facts = facts
        self._public_facts: Optional[dict[int, list[AccessPathFact]]] = None
        self._entry: Optional[dict[int, frozenset[str]]] = None
        # id(method) -> (its entry monitors and its own monitor, its
        # protection record when it has blocks or windows), as monitors() asks
        self._held: dict[int, tuple[frozenset[str], Optional[_Protection]]] = {}

    def lock_call(self, e: A.Call) -> Optional[tuple[A.FieldDecl, bool]]:
        """(lock field, True) when call ``e`` is a configured lock method on a
        receiver that denotes a lock field, (lock field, False) when it is an
        unlock method there, and None for any other call."""
        if e.qualifier is None or not self._lock_fields:
            return None
        if e.name in self.lock_methods:
            locks = True
        elif e.name in self.unlock_methods:
            locks = False
        else:
            return None
        f = self.cm.denotes(e.qualifier)
        return None if f is None or id(f) not in self._lock_fields else (f, locks)

    def _lock_calls(self, m: A.MethodDecl) -> list[tuple[A.FieldDecl, list[A.Call], list[A.Call]]]:
        """(field, lock calls, unlock calls) of each lock field with a lock
        call in ``m``, in field order."""
        if not self._lock_fields:
            return []
        calls: dict[int, tuple[list[A.Call], list[A.Call]]] = {}
        for e in self.cm.calls_in(m):
            got = self.lock_call(e)
            if got is not None:
                f, locks = got
                calls.setdefault(id(f), ([], []))[0 if locks else 1].append(e)
        return [(f, *calls[i]) for i, f in self._lock_fields.items() if i in calls and calls[i][0]]

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
            cfg = cm.cfg(m) if calls else None
            windows = [(lock_window(cfg, locks, unlocks), lock_monitor(f)) for f, locks, unlocks in calls]
            record = self._records[id(m)] = (base, blocks, cfg, windows)
        return record

    def cfg_for(self, m: A.MethodDecl) -> tuple[Cfg, list[tuple[frozenset[CfgNode], str]]]:
        """``m``'s CFG, the class model's (:meth:`ClassModel.cfg`), and the
        ``(nodes, monitor)`` of its lock windows."""
        return self.cm.cfg(m), self._protection(m)[3]

    def windows_for(self, m: A.MethodDecl) -> list[tuple[frozenset[CfgNode], str]]:
        """The ``(nodes, monitor)`` of one window per lock field with a lock
        call in ``m``."""
        return self._protection(m)[3]

    def protecting_monitors(self, m: A.MethodDecl, expr: A.Expr) -> frozenset[str]:
        """All monitors protecting the evaluation of ``expr`` inside ``m``."""
        record = self._protection(m)
        base, blocks, _, windows = record
        if not blocks and not windows:
            return base
        inner = _inner_monitors(record, expr)
        return base | inner if inner else base

    def public_facts(self, a: FieldAccess) -> list[AccessPathFact]:
        """The facts of public methods that execute ``a`` (the paper's publicAccess).

        Built on first call, from the ``facts`` the analysis was given or
        else from :func:`provides_access`; the verdict path never calls it.
        """
        if self._public_facts is None:
            from threadlint.accesspaths import provides_access  # the paper's relation, read by tests only

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
        protection. The first is one set per method, kept with the method's
        monitor in it, which answers every access outside the method's
        synchronized blocks and lock windows.
        """
        k = a.enclosing
        at = self._held.get(id(k))
        if at is None:
            entered = self._entry_monitors().get(id(k))
            if entered is None:
                at = (frozenset(), None)
            else:
                record = self._protection(k)
                base, blocks, _, windows = record
                held = entered | base if entered and base else entered or base
                at = (held, record if blocks or windows else None)
            self._held[id(k)] = at
        held, record = at
        if record is None:
            return held
        inner = _inner_monitors(record, a.expr)
        return held | inner if inner else held
