"""Reference protection: the eager whole-method monitor routine.

This is the evaluation the demand-driven ``threadlint.monitors.MonitorAnalysis``
replaced. It is kept only as the reference for the parity property in
test_monitors.py, so it favours plainness over speed: every method gets a
CFG and its dominance queries, one walk maps every node of the body to the
monitors of its enclosing synchronized blocks, and lock and unlock calls are
found by walking the body. Monitor and alias identification are shared with
``src`` (``sync_monitor``, ``ClassModel.denotes``); only where protection
is looked up differs.
"""

from __future__ import annotations

from threadlint.cfg import build_cfg, dominance, dominates, post_dominates
from threadlint.classmodel import ClassModel
from threadlint.frontend import ast as A
from threadlint.monitors import (
    DEFAULT_LOCK_METHODS,
    DEFAULT_LOCK_TYPES,
    DEFAULT_UNLOCK_METHODS,
    LockWindow,
    Monitor,
    MonitorKind,
    lock_fields,
    sync_monitor,
)


def sync_context_map(cm: ClassModel, m: A.MethodDecl) -> dict[int, tuple[Monitor, ...]]:
    """id(ast node) -> monitors of every enclosing synchronized block."""
    out: dict[int, tuple[Monitor, ...]] = {}
    stack = [] if m.body is None else [(m.body, ())]
    while stack:
        node, held = stack.pop()
        out[id(node)] = held
        if isinstance(node, A.Sync):
            mon = sync_monitor(node.monitor, cm)
            stack.append((node.monitor, held))
            stack.append((node.body, held if mon is None else held + (mon,)))
        else:
            for c in A.children(node):
                stack.append((c, held))
    return out


def lock_windows(cm, m, cfg, dom, lock_types, lock_methods, unlock_methods) -> list[LockWindow]:
    """All dominance-ordered lock/unlock pairs on the class's lock fields."""
    fields = lock_fields(cm, lock_types)
    if not fields or m.body is None:
        return []
    locks: dict[int, list] = {}
    unlocks: dict[int, list] = {}
    for e in A.walk(m.body):
        if not isinstance(e, A.Call) or e.qualifier is None:
            continue
        if e.name not in lock_methods and e.name not in unlock_methods:
            continue
        nodes = frozenset(cfg.nodes_for(e))
        if not nodes:
            continue
        for f in fields:
            if cm.denotes(e.qualifier) is f:
                bucket = locks if e.name in lock_methods else unlocks
                bucket.setdefault(id(f), []).append(nodes)
    windows = []
    for f in fields:
        for lc in locks.get(id(f), ()):
            for uc in unlocks.get(id(f), ()):
                if all(dominates(dom, lc, [u]) for u in uc):
                    windows.append(LockWindow(lc, uc, f))
    return windows


class EagerMonitors:
    """Every method's CFG, dominance, windows and sync map, built up front."""

    def __init__(
        self,
        cm: ClassModel,
        lock_types: tuple[str, ...] = DEFAULT_LOCK_TYPES,
        lock_methods: tuple[str, ...] = DEFAULT_LOCK_METHODS,
        unlock_methods: tuple[str, ...] = DEFAULT_UNLOCK_METHODS,
    ):
        self.cm = cm
        self.per_method = {}
        for m in [*cm.decl.constructors, *cm.decl.methods]:
            cfg = build_cfg(m)
            dom = dominance(cfg)
            windows = lock_windows(cm, m, cfg, dom, lock_types, lock_methods, unlock_methods)
            self.per_method[id(m)] = (cfg, dom, windows, sync_context_map(cm, m))

    def protecting_monitors(self, m: A.MethodDecl, expr) -> frozenset[Monitor]:
        cfg, dom, windows, held = self.per_method[id(m)]
        out: set[Monitor] = set()
        if m.is_synchronized:
            if m.is_static:
                out.add(Monitor(MonitorKind.CLASS, f"Class<{self.cm.decl.name}>"))
            else:
                out.add(Monitor(MonitorKind.THIS, "this"))
        out.update(held.get(id(expr), ()))
        nodes = cfg.nodes_for(expr)
        if nodes:
            owner = self.cm.decl.qualified_name or self.cm.decl.name
            for w in windows:
                if all(dominates(dom, w.lock_nodes, [n]) and post_dominates(dom, w.unlock_nodes, [n]) for n in nodes):
                    out.add(Monitor(MonitorKind.LOCK_FIELD, f"{owner}.{w.field.name}"))
        return frozenset(out)
