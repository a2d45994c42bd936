"""Execution model and kernel of the happens-before oracle.

Actions, thread programs, well-formed executions, structural data-race
detection on one execution (happens-before from program order, monitor
order, volatile order, initialization order, and transitivity), and the race
check of a whole program by a search over its sync orders. Value semantics
are ignored: a race is a property of action identity and ordering alone.

``local`` actions model operations that touch neither fields nor monitors
(e.g. arithmetic on method locals); they occupy interleaving slots but never
participate in races, so the class driver emits none and only trace files
hold them.

Happens-before depends only on program order and the order of sync actions
(lock, unlock, volatile read, volatile write): the init edges always run from
the main-thread prefix to each worker's first action. Every interleaving with
the same sync order therefore has the same racy pairs, and the search visits
one interleaving per sync order. Its hot loops run on an encoding of the
actions: each op as its ``Op.code`` and each target as a small int (-1 when
absent). Happens-before rows are Python-int bitsets, so there is no length cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from threadlint.errors import BudgetExceeded, MalformedExecution

DEFAULT_ACTION_BUDGET = 16
_READ, _WRITE, _VREAD, _VWRITE, _LOCK, _UNLOCK, _DEFINIT, _FININIT, _LOCAL = range(9)
_FIELD_OPS = (_READ, _WRITE, _DEFINIT, _FININIT)
_WRITE_OPS = (_WRITE, _DEFINIT, _FININIT)
_SYNC_OPS = (_LOCK, _UNLOCK, _VREAD, _VWRITE)


class Op(Enum):
    """An action kind: its trace-file spelling and its code in the hot loops."""

    READ = "read", _READ
    WRITE = "write", _WRITE
    VOLATILE_READ = "volatile-read", _VREAD
    VOLATILE_WRITE = "volatile-write", _VWRITE
    LOCK = "lock", _LOCK
    UNLOCK = "unlock", _UNLOCK
    DEFAULT_INIT = "default-init", _DEFINIT
    FINAL_INIT = "final-init", _FININIT
    LOCAL = "local", _LOCAL

    def __new__(cls, value: str, code: int):
        op = object.__new__(cls)
        op._value_ = value
        op.code = code
        return op


@dataclass(frozen=True)
class TraceAction:
    """One operation executed by one thread; ``seq`` is its program-order index."""

    thread: int
    op: Op
    target: Optional[str]  # field or monitor name; None only for LOCAL
    seq: int

    def __post_init__(self):
        if self.op is not Op.LOCAL and not self.target:
            raise ValueError(f"{self.op.value} action requires a target")

    def __str__(self):
        tgt = f"({self.target})" if self.target else ""
        return f"t{self.thread}:{self.op.value}{tgt}@{self.seq}"


def _acquire(held: dict, monitor, thread: int) -> bool:
    """Take one more level of ``monitor`` for ``thread``; False if another
    thread holds it. ``held`` maps each held monitor to [owner, depth]."""
    h = held.get(monitor)
    if h is None:
        held[monitor] = [thread, 1]
    elif h[0] != thread:
        return False
    else:
        h[1] += 1
    return True


def _release(held: dict, monitor, thread: int) -> bool:
    """Give up one level of ``monitor``; False if ``thread`` does not hold it."""
    h = held.get(monitor)
    if h is None or h[0] != thread:
        return False
    h[1] -= 1
    if h[1] == 0:
        del held[monitor]
    return True


def _encode(actions, ids: dict[str, int]) -> tuple[list[int], list[int]]:
    """Op codes and target numbers of ``actions``; ``ids`` numbers new targets."""
    ops = [a.op.code for a in actions]
    targets = [-1 if a.target is None else ids.setdefault(a.target, len(ids)) for a in actions]
    return ops, targets


def _racy_pairs(thread: list[int], ops: list[int], targets: list[int]) -> list[tuple[int, int]]:
    """All position pairs (i, j), i < j, conflicting and unordered by happens-before.

    Direct edges are program order (HB1), an unlock to each later lock of the
    monitor (HB2), a volatile write to each later volatile read of the field
    (HB3), and an init action to the first action of every other thread that
    starts later (HB4, HB5). Row i of the closure is a bitset of the actions
    that i happens before.
    """
    n = len(ops)
    direct: list[list[int]] = [[] for _ in range(n)]
    last_of: dict[int, int] = {}
    first_of: dict[int, int] = {}
    for i in range(n):
        t = thread[i]
        if t in last_of:
            direct[last_of[t]].append(i)
        else:
            first_of[t] = i
        last_of[t] = i
    for i in range(n):
        op = ops[i]
        if op == _UNLOCK or op == _VWRITE:
            acquire = _LOCK if op == _UNLOCK else _VREAD
            g = targets[i]
            for j in range(i + 1, n):
                if ops[j] == acquire and targets[j] == g:
                    direct[i].append(j)
        elif op == _DEFINIT or op == _FININIT:
            for t, j in first_of.items():
                if t != thread[i] and j > i:
                    direct[i].append(j)
    reach = [0] * n
    for i in range(n - 1, -1, -1):
        bits = 0
        for j in direct[i]:
            bits |= (1 << j) | reach[j]
        reach[i] = bits
    pairs = []
    for i in range(n):
        if ops[i] not in _FIELD_OPS:
            continue
        ri = reach[i]
        i_writes = ops[i] in _WRITE_OPS
        for j in range(i + 1, n):
            if ops[j] not in _FIELD_OPS or thread[j] == thread[i] or targets[j] != targets[i]:
                continue
            if not i_writes and ops[j] not in _WRITE_OPS:
                continue
            if not (ri >> j) & 1:
                pairs.append((i, j))
    return pairs


@dataclass(frozen=True)
class Execution:
    """A total interleaving of a program's actions."""

    actions: tuple[TraceAction, ...]

    def validate(self) -> None:
        """Raise MalformedExecution on program-order or mutual-exclusion violations.

        Monitors may stay held at the end (the explicit Lock API allows it).
        """
        last_seq: dict[int, int] = {}
        held: dict[str, list[int]] = {}
        for a in self.actions:
            prev = last_seq.get(a.thread)
            if prev is not None and a.seq <= prev:
                raise MalformedExecution(f"thread {a.thread} runs seq {a.seq} after {prev}: program order violated")
            last_seq[a.thread] = a.seq
            if a.op is Op.LOCK and not _acquire(held, a.target, a.thread):
                owner = held[a.target][0]
                raise MalformedExecution(f"thread {a.thread} locks {a.target!r} while thread {owner} holds it")
            if a.op is Op.UNLOCK and not _release(held, a.target, a.thread):
                raise MalformedExecution(f"thread {a.thread} unlocks {a.target!r} without holding it", a)


@dataclass(frozen=True)
class ThreadProgram:
    """Per-thread action lists plus a main thread running init actions first."""

    init_actions: tuple[TraceAction, ...]
    threads: tuple[tuple[TraceAction, ...], ...]
    name: str = ""

    def __post_init__(self):
        for t, actions in enumerate((self.init_actions,) + self.threads):
            for a in actions:
                if a.thread != t:
                    raise MalformedExecution(f"action {a} listed under thread {t}")
                if t and a.op in (Op.DEFAULT_INIT, Op.FINAL_INIT):
                    # the sync-order search relies on init edges leaving only
                    # the main-thread prefix
                    raise MalformedExecution(f"{a.op.value} must run on the main thread (0)")
            Execution(actions).validate()

    @classmethod
    def build(
        cls,
        threads: list[list[tuple[Op, Optional[str]]]],
        init: Optional[list[tuple[Op, Optional[str]]]] = None,
        name: str = "",
    ) -> "ThreadProgram":
        """Construct from (op, target) pairs; seq numbers are assigned."""
        built = [
            tuple(TraceAction(t, op, tgt, i) for i, (op, tgt) in enumerate(spec))
            for t, spec in enumerate([init or [], *threads])
        ]
        return cls(built[0], tuple(built[1:]), name)

    def action_count(self) -> int:
        return len(self.init_actions) + sum(len(t) for t in self.threads)


def detect_races(e: Execution) -> set[tuple[TraceAction, TraceAction]]:
    """Unordered conflicting pairs (both orientations, per race symmetry)."""
    e.validate()
    ops, targets = _encode(e.actions, {})
    out = set()
    for i, j in _racy_pairs([a.thread for a in e.actions], ops, targets):
        a, b = e.actions[i], e.actions[j]
        out.add((a, b))
        out.add((b, a))
    return out


def _search_sync_orders(init, workers) -> tuple[int, Optional[list[int]]]:
    """Depth-first search over the sync orders of a program, stopping at a race.

    ``init`` and each of ``workers`` are encoded (ops, targets). At each state
    every worker first runs its non-sync actions up to its next sync action;
    the search then branches over the enabled sync actions in ascending thread
    order, so results are deterministic. A state where no worker can move (all
    done, or every remaining one blocked on a lock) is a leaf: a complete or
    deadlocked execution, race-checked with the init actions as a main-thread
    (thread 0) prefix and worker t as thread 1+t.

    Returns (leaves visited, schedule of the first racy leaf or None); a
    schedule lists the worker index of each step.
    """
    init_ops, init_targets = init
    k = len(workers)
    lens = [len(ops) for ops, _ in workers]
    ptr = [0] * k
    held: dict[int, list[int]] = {}
    seq: list[int] = []
    leaves = 0

    def leaf_races() -> bool:
        steps = [iter(zip(*w)) for w in workers]
        tail = [next(steps[t]) for t in seq]
        thread = [0] * len(init_ops) + [1 + t for t in seq]
        return bool(_racy_pairs(thread, init_ops + [op for op, _ in tail], init_targets + [g for _, g in tail]))

    def rec() -> bool:
        nonlocal leaves
        mark = len(seq)
        saved = ptr[:]
        for t in range(k):
            ops = workers[t][0]
            i = ptr[t]
            while i < lens[t] and ops[i] not in _SYNC_OPS:
                seq.append(t)
                i += 1
            ptr[t] = i
        moved = False
        for t in range(k):
            i = ptr[t]
            if i >= lens[t]:
                continue
            op = workers[t][0][i]
            g = workers[t][1][i]
            if op == _LOCK and not _acquire(held, g, t):
                continue  # blocked
            if op == _UNLOCK:
                _release(held, g, t)
            moved = True
            ptr[t] = i + 1
            seq.append(t)
            if rec():
                return True  # the racy leaf's schedule stays in seq
            seq.pop()
            ptr[t] = i
            if op == _LOCK:
                _release(held, g, t)
            elif op == _UNLOCK:
                _acquire(held, g, t)
        if not moved:
            leaves += 1
            if leaf_races():
                return True
        del seq[mark:]
        ptr[:] = saved
        return False

    try:
        raced = rec()
    finally:
        del rec  # rec's closure holds rec; unbinding it frees the search by reference counting
    return leaves, seq if raced else None


@dataclass(frozen=True)
class RaceReport:
    """Verdict of one program; ``executions`` counts the sync orders explored."""

    raced: bool
    witness: Optional[Execution]
    executions: int


def program_races(p: ThreadProgram, action_budget: int = DEFAULT_ACTION_BUDGET) -> RaceReport:
    """Check every sync order of the program for data races; stop at the first."""
    n = p.action_count()
    if n > action_budget:
        raise BudgetExceeded(f"program has {n} actions; the oracle explores at most {action_budget}")
    ids: dict[str, int] = {}
    init = _encode(p.init_actions, ids)
    n_orders, schedule = _search_sync_orders(init, [_encode(t, ids) for t in p.threads])
    if schedule is None:
        return RaceReport(False, None, n_orders)
    steps = [iter(t) for t in p.threads]
    witness = Execution(p.init_actions + tuple(next(steps[t]) for t in schedule))
    return RaceReport(True, witness, n_orders)
