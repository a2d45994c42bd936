"""Reference protection: the eager whole-method monitor routine.

This is the evaluation the demand-driven ``threadlint.monitors.MonitorAnalysis``
replaced. It is kept only as the reference for the parity property in
test_monitors.py, so it favours plainness over speed: every method gets a
CFG and a window for every lock field, one walk maps every node of the body
to the monitors of its enclosing synchronized blocks, and lock and unlock
calls are found by walking the body. Windows are found by other means than
``threadlint.cfg.fewest``: the holds on the way in by an explicit-state
search over (node, holds) pairs (:func:`hold_states`), the unlock on every
way out by plain reachability of the exit around the unlock calls. Monitor
and alias identification are shared with ``src`` (``sync_monitor``,
``method_monitor``, ``lock_monitor``, ``ClassModel.denotes``); only where protection is looked up differs.
"""

from __future__ import annotations

from collections import Counter

from threadlint.cfg import build_cfg
from threadlint.classmodel import ClassModel
from threadlint.frontend import ast as A
from threadlint.monitors import (
    DEFAULT_LOCK_METHODS,
    DEFAULT_LOCK_TYPES,
    DEFAULT_UNLOCK_METHODS,
    lock_fields,
    lock_monitor,
    method_monitor,
    sync_monitor,
)


def sync_context_map(cm: ClassModel, m: A.MethodDecl) -> dict[int, tuple[str, ...]]:
    """id(ast node) -> monitors of every enclosing synchronized block."""
    out: dict[int, tuple[str, ...]] = {}
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


def hold_states(succs, root, gain) -> dict:
    """node -> every hold count some path from ``root`` brings to it, counted
    before the node runs, by an explicit-state search over (node, holds)
    pairs. Leaving a node adds its gain, and a count never falls below 0.

    A count saturates at the cap, the sum of the positive gains. This loses
    no fewest count. Along a simple path to a node each gain is added once,
    so its count is at most the cap, and so is the fewest count. A count cut
    down to the cap only stands in for a higher one: from such a state at a
    node, the fewest-hold path to that node (at most the cap) followed by
    the same rest arrives with as few holds or fewer.
    """
    cap = sum(g for g in gain.values() if g > 0)
    seen = {(root, 0)}
    stack = [(root, 0)]
    while stack:
        n, h = stack.pop()
        out = min(cap, max(0, h + gain.get(n, 0)))
        for s in succs[n]:
            if (s, out) not in seen:
                seen.add((s, out))
                stack.append((s, out))
    states: dict = {}
    for n, h in seen:
        states.setdefault(n, set()).add(h)
    return states


def _reaches(succs, start, goal, avoid=frozenset()) -> bool:
    """Whether some path leaves ``start`` and reaches ``goal`` without entering ``avoid``."""
    seen = set()
    stack = [s for s in succs[start] if s not in avoid]
    while stack:
        n = stack.pop()
        if n is goal:
            return True
        if n not in seen:
            seen.add(n)
            stack.extend(s for s in succs[n] if s not in avoid)
    return False


def lock_windows(cm, m, cfg, lock_types, lock_methods, unlock_methods) -> list[tuple[frozenset, A.FieldDecl]]:
    """A (nodes, field) window for every lock field: the nodes where it is
    held on every path in (or that lock it) and unlocked on every path out
    (or that unlock it)."""
    fields = lock_fields(cm, lock_types)
    if not fields or m.body is None:
        return []
    locked: dict[int, list] = {id(f): [] for f in fields}
    unlocked: dict[int, list] = {id(f): [] for f in fields}
    for e in A.walk(m.body):
        if not isinstance(e, A.Call) or e.qualifier is None:
            continue
        if e.name not in lock_methods and e.name not in unlock_methods:
            continue
        for f in fields:
            if cm.denotes(e.qualifier) is f:
                bucket = locked if e.name in lock_methods else unlocked
                bucket[id(f)].extend(cfg.nodes_for(e))
    windows = []
    for f in fields:
        locks, unlocks = locked[id(f)], unlocked[id(f)]
        gain = Counter(locks)
        gain.subtract(unlocks)
        states = hold_states(cfg.succs, cfg.entry, gain)
        nodes = frozenset(
            n for n in cfg.nodes
            if n in states and (min(states[n]) >= 1 or n in locks)
            and _reaches(cfg.succs, n, cfg.exit)
            and (n in unlocks or not _reaches(cfg.succs, n, cfg.exit, avoid=frozenset(unlocks)))
        )
        windows.append((nodes, f))
    return windows


class EagerMonitors:
    """Every method's CFG, windows and sync map, built up front."""

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
            windows = lock_windows(cm, m, cfg, lock_types, lock_methods, unlock_methods)
            self.per_method[id(m)] = (cfg, windows, sync_context_map(cm, m))

    def protecting_monitors(self, m: A.MethodDecl, expr) -> frozenset[str]:
        cfg, windows, held = self.per_method[id(m)]
        out: set[str] = set()
        if m.is_synchronized:
            out.add(method_monitor(m, self.cm))
        out.update(held.get(id(expr), ()))
        nodes = cfg.nodes_for(expr)
        if nodes:
            for window, f in windows:
                if all(n in window for n in nodes):
                    out.add(lock_monitor(f))
        return frozenset(out)
