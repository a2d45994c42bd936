"""Reference oracles for the parity properties in test_hboracle.py.

Two references of the search, both kept only for those properties, so
they favour plainness over speed and reuse nothing of ``threadlint.hboracle``
but its data types. Each builds its ``TraceAction``s from the program's
lists:

- the exhaustive enumerator of every interleaving, which the sync-order
  search replaced, with the race check by the full happens-before closure;
- the sync-order search as it was before happens-before was carried down
  it: the same depth-first search, which race-checks each leaf by building
  the whole closure of the leaf's execution.

A third, ``check_every_driver``, is the class check as it was before the
lockset filter: it searches every driver with the oracle's own search, so
that its verdicts can be compared with ``check_class``'s.
"""

from __future__ import annotations

from typing import Iterator, Optional

from threadlint.errors import BudgetExceeded, UnsupportedForOracle
from threadlint.hboracle import (
    DEFAULT_ACTION_BUDGET,
    Execution,
    Op,
    OracleVerdict,
    ThreadProgram,
    TraceAction,
    program_races,
    two_thread_drivers,
)

_FIELD_OPS = (Op.READ, Op.WRITE, Op.DEFAULT_INIT, Op.FINAL_INIT)
_WRITE_OPS = (Op.WRITE, Op.DEFAULT_INIT, Op.FINAL_INIT)
_SYNC_OPS = (Op.LOCK, Op.UNLOCK, Op.VOLATILE_READ, Op.VOLATILE_WRITE)


def trace_actions(p: ThreadProgram) -> tuple[tuple[TraceAction, ...], ...]:
    """The init actions as thread 0, then worker k's list as thread 1 + k."""
    return tuple(
        tuple(TraceAction(t, op, target, i) for i, (op, target) in enumerate(actions))
        for t, actions in enumerate((p.init_actions, *p.threads))
    )


def racy_pairs(actions: tuple[TraceAction, ...]) -> list[tuple[int, int]]:
    """All position pairs (i, j), i < j, conflicting and unordered by happens-before.

    Direct edges are program order (HB1), an unlock to each later lock of the
    monitor (HB2), a volatile write to each later volatile read of the field
    (HB3), and an init action to the first action of every other thread that
    starts later (HB4, HB5). Row i of the closure is a bitset of the actions
    that i happens before.
    """
    n = len(actions)
    direct: list[list[int]] = [[] for _ in range(n)]
    last_of: dict[int, int] = {}
    first_of: dict[int, int] = {}
    for i, a in enumerate(actions):
        if a.thread in last_of:
            direct[last_of[a.thread]].append(i)
        else:
            first_of[a.thread] = i
        last_of[a.thread] = i
    for i, a in enumerate(actions):
        if a.op in (Op.UNLOCK, Op.VOLATILE_WRITE):
            acquire = Op.LOCK if a.op is Op.UNLOCK else Op.VOLATILE_READ
            for j in range(i + 1, n):
                if actions[j].op is acquire and actions[j].target == a.target:
                    direct[i].append(j)
        elif a.op in (Op.DEFAULT_INIT, Op.FINAL_INIT):
            for t, j in first_of.items():
                if t != a.thread and j > i:
                    direct[i].append(j)
    reach = [0] * n
    for i in range(n - 1, -1, -1):
        bits = 0
        for j in direct[i]:
            bits |= (1 << j) | reach[j]
        reach[i] = bits
    pairs = []
    for i, a in enumerate(actions):
        if a.op not in _FIELD_OPS:
            continue
        for j in range(i + 1, n):
            b = actions[j]
            if b.op not in _FIELD_OPS or b.thread == a.thread or b.target != a.target:
                continue
            if a.op not in _WRITE_OPS and b.op not in _WRITE_OPS:
                continue
            if not (reach[i] >> j) & 1:
                pairs.append((i, j))
    return pairs


def reference_races(e: Execution) -> set[tuple[TraceAction, TraceAction]]:
    """Every racy pair of ``e`` in both orientations, as ``detect_races``."""
    out = set()
    for i, j in racy_pairs(e.actions):
        out.add((e.actions[i], e.actions[j]))
        out.add((e.actions[j], e.actions[i]))
    return out


def _take(held: dict, a: TraceAction, t: int) -> bool:
    """Lock ``a.target`` for thread ``t``; False, changing nothing, if another thread holds it."""
    h = held.get(a.target)
    if h is not None and h[0] != t:
        return False
    if h is None:
        held[a.target] = [t, 1]
    else:
        h[1] += 1
    return True


def _give(held: dict, a: TraceAction) -> None:
    """Give up one level of ``a.target``."""
    h = held[a.target]
    h[1] -= 1
    if h[1] == 0:
        del held[a.target]


def interleavings(p: ThreadProgram) -> Iterator[Execution]:
    """Every maximal mutex-respecting interleaving of the worker threads.

    The init actions form a fixed main-thread prefix. Threads are tried in
    ascending order at each step, and an execution shorter than the program
    is a deadlocked one.
    """
    init, *threads = trace_actions(p)
    ptr = [0] * len(threads)
    held: dict[str, list[int]] = {}  # monitor -> [owner thread, depth]
    tail: list = []

    def rec() -> Iterator[Execution]:
        progressed = False
        for t, actions in enumerate(threads):
            i = ptr[t]
            if i >= len(actions):
                continue
            a = actions[i]
            if a.op is Op.LOCK and not _take(held, a, t):
                continue  # blocked
            if a.op is Op.UNLOCK:
                _give(held, a)
            progressed = True
            ptr[t] = i + 1
            tail.append(a)
            yield from rec()
            tail.pop()
            ptr[t] = i
            if a.op is Op.LOCK:
                _give(held, a)
            elif a.op is Op.UNLOCK:
                _take(held, a, t)
        if not progressed:
            yield Execution(init + tuple(tail))

    yield from rec()


def reference_raced(p: ThreadProgram) -> bool:
    """True when some interleaving of the program has a data race."""
    return any(racy_pairs(e.actions) for e in interleavings(p))


def search_sync_orders(p: ThreadProgram) -> tuple[int, Optional[Execution]]:
    """(leaves visited, first racy leaf or None), checking each leaf whole.

    At each state every worker first runs its non-sync actions up to its next
    sync action; the search then branches over the enabled sync actions in
    ascending thread order. A state where no worker can move is a leaf, and
    the search stops at the first leaf whose execution has a racy pair.
    """
    init, *threads = trace_actions(p)
    ptr = [0] * len(threads)
    held: dict[str, list[int]] = {}
    tail: list[TraceAction] = []
    leaves = 0

    def rec() -> Optional[Execution]:
        nonlocal leaves
        mark = len(tail)
        saved = ptr[:]
        for t, actions in enumerate(threads):
            while ptr[t] < len(actions) and actions[ptr[t]].op not in _SYNC_OPS:
                tail.append(actions[ptr[t]])
                ptr[t] += 1
        moved = False
        for t, actions in enumerate(threads):
            i = ptr[t]
            if i >= len(actions):
                continue
            a = actions[i]
            if a.op is Op.LOCK and not _take(held, a, t):
                continue  # blocked
            if a.op is Op.UNLOCK:
                _give(held, a)
            moved = True
            ptr[t] = i + 1
            tail.append(a)
            found = rec()
            if found is not None:
                return found
            tail.pop()
            ptr[t] = i
            if a.op is Op.LOCK:
                _give(held, a)
            elif a.op is Op.UNLOCK:
                _take(held, a, t)
        if not moved:
            leaves += 1
            e = Execution(init + tuple(tail))
            if racy_pairs(e.actions):
                return e
        del tail[mark:]
        ptr[:] = saved
        return None

    witness = rec()
    return leaves, witness


def check_every_driver(cm, action_budget: int = DEFAULT_ACTION_BUDGET, **kw) -> OracleVerdict:
    """``check_class`` without the lockset filter: every driver is searched."""
    checked = 0
    try:
        for d in two_thread_drivers(cm, **kw):
            report = program_races(d, action_budget=action_budget)
            checked += 1
            if report.raced:
                return OracleVerdict(cm.class_id, True, report, checked, "checked")
    except UnsupportedForOracle as exc:
        return OracleVerdict(cm.class_id, False, None, 0, "unsupported", str(exc))
    except BudgetExceeded as exc:
        return OracleVerdict(cm.class_id, False, None, checked, "budget-exceeded", str(exc))
    return OracleVerdict(cm.class_id, False, None, checked, "checked")
