"""Monitor identification and protection of field accesses.

Protection is computed in one place, :meth:`MonitorAnalysis.protecting_monitors`.
An access is protected by an explicit lock field when some lock()/unlock()
call pair on that field satisfies the dominance conditions: the lock call
dominates both the unlock call and the access, and the unlock call
post-dominates the access; such a window reports the monitor
``Monitor(LOCK_FIELD, "<class_id>.<field>")``. Protection by the
synchronized keyword (methods, static methods, blocks) is recognized
syntactically and reports every other monitor kind.

Names are bound by the class model (:meth:`ClassModel.field_of`), never here.
A name shadowed by a local or a parameter is therefore not the field. A lock
call on a local locks a field only when the local is an alias of it (see
:func:`represents`), and on a parameter never. ``synchronized (p)`` on a
parameter ``p`` stays its own ``syncExpr`` monitor ``p`` even when a field
``p`` exists.

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
from threadlint.errors import UnreachableNodeError
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

    lock_node: CfgNode
    unlock_node: CfgNode
    field: A.FieldDecl


def is_lock_type(type_name: str, lock_types: tuple[str, ...] = DEFAULT_LOCK_TYPES) -> bool:
    """True when the simple or qualified form names a recognized lock type."""
    base = type_name.split("<", 1)[0]
    if base.endswith("[]"):
        return False
    simple = base.rsplit(".", 1)[-1]
    return simple in lock_types or base in lock_types


def _local_write_sources(m: A.MethodDecl, name: str) -> Optional[list[A.Expr]]:
    """RHS expressions of every write to local ``name``; None when it is a parameter."""
    if any(p.name == name for p in m.params):
        return None
    sources: list[A.Expr] = []
    if m.body is None:
        return sources
    for node in A.walk(m.body):
        if isinstance(node, A.LocalDecl):
            sources.extend(d.init for d in node.declarators if d.name == name and d.init is not None)
        elif isinstance(node, A.Assign):
            t = A.strip_parens(node.target)
            if isinstance(t, A.Name) and t.identifier == name:
                sources.append(node.value)
    return sources


def represents(cm: ClassModel, lock_field: A.FieldDecl, var_expr: A.Expr, method: A.MethodDecl) -> bool:
    """Does ``var_expr`` (a lock-call receiver in ``method``) denote ``lock_field``?

    True when the class model binds it to the field itself, or for a local
    assigned exactly once, directly from a read of the field, and never
    reassigned. A parameter's provenance is unknown, so it never does.
    """
    e = A.strip_parens(var_expr)
    f = cm.field_of(e)
    if f is not None:
        return f is lock_field
    if isinstance(e, A.Name):
        sources = _local_write_sources(method, e.identifier)
        return sources is not None and len(sources) == 1 and cm.field_of(sources[0]) is lock_field
    return False


def lock_fields(cm: ClassModel, lock_types: tuple[str, ...] = DEFAULT_LOCK_TYPES) -> list[A.FieldDecl]:
    """The class's fields whose declared or resolved type is a recognized lock type."""
    return [f for f in cm.decl.fields
            if is_lock_type(f.declared_type, lock_types) or is_lock_type(f.resolved_type, lock_types)]


def lock_windows(
    cm: ClassModel,
    method: A.MethodDecl,
    cfg: Cfg,
    dom: DomInfo,
    lock_types: tuple[str, ...] = DEFAULT_LOCK_TYPES,
    lock_methods: tuple[str, ...] = DEFAULT_LOCK_METHODS,
    unlock_methods: tuple[str, ...] = DEFAULT_UNLOCK_METHODS,
) -> list[LockWindow]:
    """All dominance-ordered lock/unlock pairs on the class's lock fields."""
    fields = lock_fields(cm, lock_types)
    if not fields or method.body is None:
        return []
    locks: dict[int, list[CfgNode]] = {}
    unlocks: dict[int, list[CfgNode]] = {}
    for e in A.walk(method.body):
        if not isinstance(e, A.Call) or e.qualifier is None:
            continue
        if e.name not in lock_methods and e.name not in unlock_methods:
            continue
        node = cfg.node_for(e)
        if node is None:
            continue
        for f in fields:
            if represents(cm, f, e.qualifier, method):
                bucket = locks if e.name in lock_methods else unlocks
                bucket.setdefault(id(f), []).append(node)
    windows = []
    for f in fields:
        for lc in locks.get(id(f), ()):
            for uc in unlocks.get(id(f), ()):
                try:
                    if dominates(dom, lc, uc):
                        windows.append(LockWindow(lc, uc, f))
                except UnreachableNodeError:
                    continue
    return windows


def _canonical_sync_monitor(expr: A.Expr, cm: ClassModel) -> Monitor:
    e = A.strip_parens(expr)
    if isinstance(e, A.This):
        return Monitor(MonitorKind.THIS, "this")
    f = cm.field_of(e)
    if f is not None:
        return Monitor(MonitorKind.SYNC_EXPR, f"this.{f.name}")
    if isinstance(e, A.ClassLit) and e.type_text.rsplit(".", 1)[-1] == cm.decl.name:
        return Monitor(MonitorKind.CLASS, f"Class<{cm.decl.name}>")
    return Monitor(MonitorKind.SYNC_EXPR, canonical_text(e))


def _sync_context_map(m: A.MethodDecl, cm: ClassModel) -> dict[int, tuple[Monitor, ...]]:
    """id(ast node) -> monitors of every enclosing synchronized region."""
    out: dict[int, tuple[Monitor, ...]] = {}
    stack = [] if m.body is None else [(m.body, ())]
    while stack:
        node, held = stack.pop()
        out[id(node)] = held
        if isinstance(node, A.Sync):
            stack.append((node.monitor, held))
            stack.append((node.body, held + (_canonical_sync_monitor(node.monitor, cm),)))
        else:
            for c in A.children(node):
                stack.append((c, held))
    return out


class MonitorAnalysis:
    """Per-class monitor protection with cached CFGs, windows, and contexts."""

    def __init__(
        self,
        cm: ClassModel,
        facts: Optional[frozenset[AccessPathFact]] = None,
        lock_types: tuple[str, ...] = DEFAULT_LOCK_TYPES,
        lock_methods: tuple[str, ...] = DEFAULT_LOCK_METHODS,
        unlock_methods: tuple[str, ...] = DEFAULT_UNLOCK_METHODS,
    ):
        self.cm = cm
        self.facts = facts if facts is not None else provides_access(cm)
        self.lock_types = lock_types
        self.lock_methods = lock_methods
        self.unlock_methods = unlock_methods
        self._cfgs: dict[int, tuple[Cfg, DomInfo]] = {}
        self._windows: dict[int, list[LockWindow]] = {}
        self._sync_ctx: dict[int, dict[int, tuple[Monitor, ...]]] = {}
        self._monitors_cache: dict[int, frozenset[Monitor]] = {}
        self._public_facts: dict[int, list[AccessPathFact]] = {}
        for f in self.facts:
            if f.method.is_public:
                self._public_facts.setdefault(id(f.access), []).append(f)

    def cfg_for(self, m: A.MethodDecl) -> tuple[Cfg, DomInfo]:
        entry = self._cfgs.get(id(m))
        if entry is None:
            cfg = build_cfg(m)
            entry = (cfg, dominance(cfg))
            self._cfgs[id(m)] = entry
        return entry

    def windows_for(self, m: A.MethodDecl) -> list[LockWindow]:
        if id(m) not in self._windows:
            cfg, dom = self.cfg_for(m)
            self._windows[id(m)] = lock_windows(
                self.cm, m, cfg, dom, self.lock_types, self.lock_methods, self.unlock_methods
            )
        return self._windows[id(m)]

    def _sync_context(self, m: A.MethodDecl) -> dict[int, tuple[Monitor, ...]]:
        if id(m) not in self._sync_ctx:
            self._sync_ctx[id(m)] = _sync_context_map(m, self.cm)
        return self._sync_ctx[id(m)]

    def protecting_monitors(self, m: A.MethodDecl, expr: A.Expr) -> frozenset[Monitor]:
        """All monitors protecting the evaluation of ``expr`` inside ``m``."""
        out: set[Monitor] = set()
        if m.is_synchronized:
            if m.is_static:
                out.add(Monitor(MonitorKind.CLASS, f"Class<{self.cm.decl.name}>"))
            else:
                out.add(Monitor(MonitorKind.THIS, "this"))
        out.update(self._sync_context(m).get(id(expr), ()))
        cfg, dom = self.cfg_for(m)
        node = cfg.node_for(expr)
        if node is not None:
            for w in self.windows_for(m):
                try:
                    if dominates(dom, w.lock_node, node) and post_dominates(dom, w.unlock_node, node):
                        out.add(self._lock_field_monitor(w.field))
                except UnreachableNodeError:
                    continue
        return frozenset(out)

    def _lock_field_monitor(self, f: A.FieldDecl) -> Monitor:
        owner = self.cm.decl.qualified_name or self.cm.decl.name
        return Monitor(MonitorKind.LOCK_FIELD, f"{owner}.{f.name}")

    def public_facts(self, a: FieldAccess) -> list[AccessPathFact]:
        return self._public_facts.get(id(a), [])

    def monitors(self, a: FieldAccess) -> frozenset[Monitor]:
        """Monitors protecting every public access path to ``a`` (the paper's forex).

        Empty when no public path exists or when any public path is unguarded.
        """
        cached = self._monitors_cache.get(id(a))
        if cached is not None:
            return cached
        result: Optional[frozenset[Monitor]] = None
        pub = self.public_facts(a)
        if not pub:
            result = frozenset()
        else:
            for f in pub:
                prot = self.protecting_monitors(f.method, f.expr)
                result = prot if result is None else result & prot
                if not result:
                    break
        self._monitors_cache[id(a)] = result
        return result

