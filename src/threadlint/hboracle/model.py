"""Execution model and kernel of the happens-before oracle.

Thread programs (an (op, target) list per thread) and executions (actions
interleaved), each checked when it is made; structural data-race detection
on one execution (happens-before from program order, monitor order, volatile
order, initialization order, and transitivity); the race check of a whole
program by a search over its sync orders, one of each class of equivalent
orders; and a lockset filter that clears, without a search, a program whose
conflicting plain accesses all hold a common monitor, as one walk of each
thread's list (:func:`check_actions`) checks it and records them. Value
semantics are ignored: a race is a property of action identity and ordering
alone.

``local`` actions model operations that touch neither fields nor monitors
(e.g. arithmetic on method locals); they occupy interleaving slots but never
participate in races, so the class driver emits none and only trace files
hold them.

Happens-before depends only on program order and the order of sync actions
(lock, unlock, volatile read, volatile write): the init edges always run from
the main-thread prefix to each worker's first action. Every interleaving with
the same sync order therefore has the same racy pairs, and the search visits
one interleaving per sync order. Sync orders that differ only in the order of
adjacent sync actions that commute (a lock and an unlock of different
monitors, say) have the same happens-before too, and sleep sets explore one
order of each such class. One incremental step computes happens-before:
it appends an action, takes the set of actions before it from its direct
predecessors, and returns the earlier accesses it races with. The search runs
it once per action it appends and undoes it on backtrack, so a prefix shared
by many sync orders is checked once; ``detect_races`` runs it once per action
of a trace. The hot loops run on one encoding of (op, target) pairs: each op
as its ``Op.code`` and each target as a small int (-1 when absent). Sets of
actions are Python-int bitsets, so there is no length cap. A program's
actions become ``TraceAction``s only in a racy witness.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from threadlint.errors import BudgetExceeded, MalformedExecution

DEFAULT_ACTION_BUDGET = 16
_READ, _WRITE, _VREAD, _VWRITE, _LOCK, _UNLOCK, _DEFINIT, _FININIT, _LOCAL = range(9)
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


ActionSpec = tuple[Op, Optional[str]]  # an action of a thread program: its op and target


class TraceAction(NamedTuple):
    """One operation executed by one thread; ``seq`` is its program-order index."""

    thread: int
    op: Op
    target: Optional[str]  # field or monitor name; None only for LOCAL
    seq: int

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


def _unguarded(a: dict, b: dict) -> bool:
    """Whether two threads' plain accesses of one field, at least one a
    write, hold no common monitor."""
    for field, (reads, writes) in a.items():
        other = b.get(field)
        if other is not None:
            reads2, writes2 = other
            if any(h.isdisjoint(h2) for h in writes for h2 in reads2 | writes2) or \
                    any(h.isdisjoint(h2) for h in reads for h2 in writes2):
                return True
    return False


def may_race(p: ThreadProgram) -> bool:
    """False only when no execution of ``p`` races: every two threads' plain
    accesses of one field, at least one a write, hold a common monitor
    (``p.accesses``, recorded when its lists were checked).

    Of two critical sections on one monitor, one ends with an unlock before
    the other's lock (HB2), or the other never runs, so two accesses inside
    them are ordered; the main thread's sections all end before any worker
    runs, as a checked init list ends holding no monitor. Volatile and
    monitor actions race with nothing, and a default or final init runs
    before every worker (HB4, HB5)."""
    a = p.accesses
    return any(_unguarded(x, y) for i, x in enumerate(a) for y in a[i + 1:])


def _encode(actions, ids: dict[str, int]) -> tuple[list[int], list[int]]:
    """Op codes and target numbers of (op, target) pairs; ``ids`` numbers new targets."""
    ops = [op.code for op, _ in actions]
    targets = [-1 if g is None else ids.setdefault(g, len(ids)) for _, g in actions]
    return ops, targets


_START = -1  # the clock of every thread that has not yet run: the init actions so far


class _HappensBefore:
    """Happens-before of an execution that grows, and shrinks, at its end.

    An action is a bit, its position in the execution, and a set of actions
    is a Python-int bitset. ``step`` appends one action. What happens before
    it is its thread's last action (HB1), the earlier unlocks of the monitor
    it locks (HB2) or the earlier volatile writes of the field it reads
    (HB3), and, for a thread's first action, the earlier init actions (HB4,
    HB5), each with all that happens before that action. An earlier
    conflicting access of the same field outside that set races with it; an
    access by the same thread is always inside it. Each step logs the
    entries it replaces, so ``undo`` takes steps back.
    """

    __slots__ = ("clock", "unlocks", "vwrites", "reads", "writes", "log")

    def __init__(self):
        # thread -> its last action and all that happens before it, None
        # (or absent) until the thread runs; _START -> the init actions and
        # all before them, which a thread's first action comes after
        self.clock: dict[int, Optional[int]] = {_START: 0}
        self.unlocks: dict[int, int] = {}  # monitor -> its unlocks and all before them
        self.vwrites: dict[int, int] = {}  # volatile field -> its writes and all before them
        self.reads: dict[int, int] = {}  # field -> its reads
        self.writes: dict[int, int] = {}  # field -> its writes, init actions included
        self.log: list[tuple[dict, int, Optional[int]]] = []

    def step(self, i: int, t: int, op: int, g: int) -> int:
        """Append action ``i`` of thread ``t`` with op code ``op`` and target
        ``g``; return the bitset of the earlier actions it races with."""
        clock, log = self.clock, self.log
        last = clock.get(t)
        before = clock[_START] if last is None else last
        if op == _LOCK:
            before |= self.unlocks.get(g, 0)
        elif op == _VREAD:
            before |= self.vwrites.get(g, 0)
        bit = 1 << i
        mine = before | bit
        log.append((clock, t, last))
        clock[t] = mine
        if op == _READ:
            reads = self.reads
            r = reads.get(g, 0)
            log.append((reads, g, r))
            reads[g] = r | bit
            return self.writes.get(g, 0) & ~before
        if op == _WRITE or op == _DEFINIT or op == _FININIT:
            writes = self.writes
            w = writes.get(g, 0)
            log.append((writes, g, w))
            writes[g] = w | bit
            if op != _WRITE:
                inits = clock[_START]
                log.append((clock, _START, inits))
                clock[_START] = inits | mine
            return (w | self.reads.get(g, 0)) & ~before
        if op == _UNLOCK or op == _VWRITE:
            released = self.unlocks if op == _UNLOCK else self.vwrites
            old = released.get(g, 0)
            log.append((released, g, old))
            released[g] = old | mine
        return 0

    def undo(self, mark: int) -> None:
        """Restore every entry logged after the first ``mark`` log entries."""
        log = self.log
        for table, key, old in reversed(log[mark:]):
            table[key] = old
        del log[mark:]


def _check_action(t: int, op: Op, target: Optional[str]) -> None:
    """Raise MalformedExecution for an action of thread ``t`` with no target,
    or for an init action off the main thread (0)."""
    if op is not Op.LOCAL and not target:
        raise MalformedExecution(f"{op.value} action requires a target")
    if t and (op is Op.DEFAULT_INIT or op is Op.FINAL_INIT):
        # init edges leave only the main thread: the sync-order search runs
        # its init actions as a prefix, and the happens-before step folds an
        # init action into the clock every thread that has not run starts from
        raise MalformedExecution(f"{op.value} must run on the main thread (0)")


def check_actions(t: int, actions: tuple[ActionSpec, ...]) -> dict[str, tuple[set, set]]:
    """Each field that the (op, target) list of thread ``t`` reads or writes
    plainly -> (the sets of monitors the thread holds at its reads, at its
    writes). Raise MalformedExecution for an action with no target, an init
    action off the main thread (0), an unlock of a monitor the thread does
    not hold, or an init list (``t`` = 0) that ends holding a monitor: the
    search runs the init actions as a prefix, after which none is held."""
    out: dict[str, tuple[set, set]] = {}
    held: dict[str, list[int]] = {}
    for i, (op, target) in enumerate(actions):
        _check_action(t, op, target)
        if op is Op.READ or op is Op.WRITE:
            sets = out.get(target)
            if sets is None:
                sets = out[target] = (set(), set())
            sets[op is Op.WRITE].add(frozenset(held))
        elif op is Op.LOCK:
            _acquire(held, target, t)  # one thread never blocks itself
        elif op is Op.UNLOCK and not _release(held, target, t):
            raise MalformedExecution(f"thread {t} unlocks {target!r} without holding it", TraceAction(t, op, target, i))
    if held and not t:
        raise MalformedExecution(f"thread 0 ends holding {next(iter(held))!r}; "
                                 "the init actions must release every monitor they take")
    return out


class Execution:
    """A total interleaving of a program's actions. Making one raises
    MalformedExecution on a missing target, an init action off the main
    thread (0), or a program-order or mutual-exclusion violation; monitors
    may stay held at the end (the explicit Lock API allows it). Two
    executions are equal when their actions are."""

    __slots__ = ("actions",)

    def __init__(self, actions: tuple[TraceAction, ...]):
        last_seq: dict[int, int] = {}
        held: dict[str, list[int]] = {}
        for a in actions:
            _check_action(a.thread, a.op, a.target)
            prev = last_seq.get(a.thread)
            if prev is not None and a.seq <= prev:
                raise MalformedExecution(f"thread {a.thread} runs seq {a.seq} after {prev}: program order violated")
            last_seq[a.thread] = a.seq
            if a.op is Op.LOCK and not _acquire(held, a.target, a.thread):
                owner = held[a.target][0]
                raise MalformedExecution(f"thread {a.thread} locks {a.target!r} while thread {owner} holds it")
            if a.op is Op.UNLOCK and not _release(held, a.target, a.thread):
                raise MalformedExecution(f"thread {a.thread} unlocks {a.target!r} without holding it", a)
        self.actions = actions

    def __eq__(self, other):
        return self.actions == other.actions if type(other) is Execution else NotImplemented

    def __hash__(self):
        return hash(self.actions)


class ThreadProgram:
    """A main thread's init actions, then one (op, target) list per worker;
    action i of thread t (0 for main, 1 + k for worker k) is ``TraceAction(t,
    op, target, i)``. Making one checks each list with :func:`check_actions`
    and keeps what each check returns, the init list's first, as
    ``accesses``; :meth:`of_checked` makes one of lists already checked. Two
    programs are equal when their lists and names are."""

    __slots__ = ("init_actions", "threads", "name", "accesses")

    def __init__(self, init_actions: tuple[ActionSpec, ...], threads: tuple[tuple[ActionSpec, ...], ...],
                 name: str = ""):
        self.accesses = tuple(check_actions(t, actions) for t, actions in enumerate((init_actions, *threads)))
        self.init_actions = init_actions
        self.threads = threads
        self.name = name

    @classmethod
    def of_checked(cls, init_actions: tuple[ActionSpec, ...], threads: tuple[tuple[ActionSpec, ...], ...],
                   accesses: tuple[dict, ...], name: str = "") -> "ThreadProgram":
        """A program whose lists each passed :func:`check_actions` as their
        thread (any worker number for a worker's list), made without
        checking them again; ``accesses`` holds what those checks returned,
        the init list's first."""
        p = object.__new__(cls)
        p.init_actions = init_actions
        p.threads = threads
        p.name = name
        p.accesses = accesses
        return p

    def __eq__(self, other):
        if type(other) is not ThreadProgram:
            return NotImplemented
        return (self.init_actions, self.threads, self.name) == (other.init_actions, other.threads, other.name)

    def __hash__(self):
        return hash((self.init_actions, self.threads, self.name))

    @classmethod
    def build(cls, threads: list[list[ActionSpec]], init: Optional[list[ActionSpec]] = None,
              name: str = "") -> "ThreadProgram":
        """Construct from lists of (op, target) pairs."""
        return cls(tuple(init or ()), tuple(map(tuple, threads)), name)

    def action_count(self) -> int:
        return len(self.init_actions) + sum(len(t) for t in self.threads)


def detect_races(e: Execution) -> set[tuple[TraceAction, TraceAction]]:
    """Unordered conflicting pairs (both orientations, per race symmetry)."""
    ops, targets = _encode([(a.op, a.target) for a in e.actions], {})
    hb = _HappensBefore()
    out = set()
    for j, b in enumerate(e.actions):
        racy = hb.step(j, b.thread, ops[j], targets[j])
        hb.log.clear()  # nothing is undone here, and the log keeps every replaced bitset alive
        while racy:
            low = racy & -racy
            a = e.actions[low.bit_length() - 1]
            out.add((a, b))
            out.add((b, a))
            racy ^= low
    return out


def _commute(op: int, g: int, op2: int, g2: int) -> bool:
    """Whether two sync actions of different threads commute: either order
    gives the same happens-before and leaves the other action enabled. They
    do unless they lock or unlock one monitor, or access one volatile field
    and one of them writes it."""
    if g != g2:
        return True
    locks = op == _LOCK or op == _UNLOCK
    if locks != (op2 == _LOCK or op2 == _UNLOCK):
        return True  # a monitor and a volatile field that share a name
    return not locks and op == _VREAD and op2 == _VREAD


def _search_sync_orders(init, workers) -> tuple[int, Optional[list[int]]]:
    """Depth-first search over the sync orders of a program, one per class of
    equivalent orders, stopping at a race.

    ``init`` and each of ``workers`` are encoded (ops, targets). At each state
    every worker first runs its non-sync actions up to its next sync action;
    the search then branches over the enabled sync actions in ascending thread
    order, so results are deterministic. A state where no worker can move (all
    done, or every remaining one blocked on a lock) is a leaf: a complete or
    deadlocked execution, with the init actions as a main-thread (thread 0)
    prefix and worker t as thread 1+t.

    Sync orders that differ only in the order of adjacent sync actions that
    commute (:func:`_commute`) have the same happens-before, so the same
    racy pairs. Sleep sets (Godefroid, 1996) explore fewer of them: once the
    branch on thread t's sync action returns, that action sleeps in the later
    sibling branches and below them, until an action it does not commute
    with runs. A sleeping action is not branched on, and a state whose
    enabled actions all sleep is no leaf. A sleep set is a bitmask of
    threads: each sleeping thread has not moved since its action fell asleep.

    Each action is race-checked once, by the happens-before step that appends
    it, and the step is undone on backtrack. A leaf is racy when a step on its
    path found a race. Every order the sleep sets prune is equivalent to one
    that comes earlier in the full search, so the first racy leaf of the full
    search is still explored, and no leaf before it is racy: the search
    returns at that leaf, the same witness as without sleep sets.

    Returns (leaves visited, schedule of the first racy leaf or None); a
    schedule lists the worker index of each step.
    """
    init_ops, init_targets = init
    k = len(workers)
    lens = [len(ops) for ops, _ in workers]
    ptr = [0] * k
    held: dict[int, list[int]] = {}
    seq: list[int] = []
    hb = _HappensBefore()
    step, undo, log = hb.step, hb.undo, hb.log
    for i, (op, g) in enumerate(zip(init_ops, init_targets)):
        step(i, 0, op, g)  # one thread: no race
    base = len(init_ops)
    leaves = 0
    raced = False

    def rec(sleep: int) -> bool:
        nonlocal leaves, raced
        mark, log_mark = len(seq), len(log)
        saved = ptr[:]
        was_raced = raced
        for t in range(k):
            ops, targets = workers[t]
            i = ptr[t]
            while i < lens[t] and ops[i] not in _SYNC_OPS:
                if step(base + len(seq), 1 + t, ops[i], targets[i]):
                    raced = True
                seq.append(t)
                i += 1
            ptr[t] = i
        enabled = False
        for t in range(k):
            i = ptr[t]
            if i >= lens[t]:
                continue
            op = workers[t][0][i]
            g = workers[t][1][i]
            if op == _LOCK:
                h = held.get(g)
                if h is not None and h[0] != t:
                    continue  # blocked
            enabled = True
            bit = 1 << t
            if sleep & bit:
                continue  # an earlier branch explored an equivalent order
            below = 0  # the sleepers whose actions commute with this one sleep on
            rest = sleep
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                j = ptr[u]
                if _commute(op, g, workers[u][0][j], workers[u][1][j]):
                    below |= low
                rest ^= low
            if op == _LOCK:
                _acquire(held, g, t)
            elif op == _UNLOCK:
                _release(held, g, t)
            ptr[t] = i + 1
            step_mark = len(log)
            step(base + len(seq), 1 + t, op, g)  # a sync action races with nothing
            seq.append(t)
            if rec(below):
                return True  # the racy leaf's schedule stays in seq
            seq.pop()
            undo(step_mark)
            ptr[t] = i
            if op == _LOCK:
                _release(held, g, t)
            elif op == _UNLOCK:
                _acquire(held, g, t)
            sleep |= bit
        if not enabled:
            leaves += 1
            if raced:
                return True
        raced = was_raced
        del seq[mark:]
        undo(log_mark)
        ptr[:] = saved
        return False

    try:
        found = rec(0)
    finally:
        del rec  # rec's closure holds rec; unbinding it frees the search by reference counting
    return leaves, seq if found else None


class RaceReport(NamedTuple):
    """Verdict of one program; ``executions`` counts the sync orders explored
    to their end, complete or deadlocked: one per class of equivalent orders
    up to the first race, so never more than the program has."""

    raced: bool
    witness: Optional[Execution]
    executions: int


def check_budget(p: ThreadProgram, action_budget: int) -> None:
    """Raise BudgetExceeded when ``p`` has more than ``action_budget`` actions."""
    n = p.action_count()
    if n > action_budget:
        raise BudgetExceeded(f"program has {n} actions; the oracle explores at most {action_budget}")


def program_races(p: ThreadProgram, action_budget: int = DEFAULT_ACTION_BUDGET) -> RaceReport:
    """Check one sync order of each class of equivalent orders of the program
    for data races; stop at the first."""
    check_budget(p, action_budget)
    ids: dict[str, int] = {}
    init = _encode(p.init_actions, ids)
    n_orders, schedule = _search_sync_orders(init, [_encode(t, ids) for t in p.threads])
    if schedule is None:
        return RaceReport(False, None, n_orders)
    steps = [iter(enumerate(actions)) for actions in (p.init_actions, *p.threads)]
    witness = []
    for t in [0] * len(p.init_actions) + [1 + w for w in schedule]:
        i, (op, g) = next(steps[t])
        witness.append(TraceAction(t, op, g, i))
    return RaceReport(True, Execution(tuple(witness)), n_orders)
