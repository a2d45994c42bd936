"""Execution model for the happens-before oracle.

Actions, thread programs, well-formed executions, structural data-race
detection on one execution (happens-before from program order, monitor
order, volatile order, initialization order, and transitivity), and the race
check of a whole program by a search over its sync orders. Value semantics
are ignored: a race is a property of action identity and ordering alone.

``local`` actions model operations that touch neither fields nor monitors
(e.g. arithmetic on method locals); they occupy interleaving slots but never
participate in races.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from threadlint.errors import BudgetExceeded, MalformedExecution
from threadlint.hboracle import _kernel_py as kernel

DEFAULT_ACTION_BUDGET = 16


class Op(Enum):
    READ = "read"
    WRITE = "write"
    VOLATILE_READ = "volatile-read"
    VOLATILE_WRITE = "volatile-write"
    LOCK = "lock"
    UNLOCK = "unlock"
    DEFAULT_INIT = "default-init"
    FINAL_INIT = "final-init"
    LOCAL = "local"


OP_CODE = {
    Op.READ: kernel.OP_READ,
    Op.WRITE: kernel.OP_WRITE,
    Op.VOLATILE_READ: kernel.OP_VREAD,
    Op.VOLATILE_WRITE: kernel.OP_VWRITE,
    Op.LOCK: kernel.OP_LOCK,
    Op.UNLOCK: kernel.OP_UNLOCK,
    Op.DEFAULT_INIT: kernel.OP_DEFINIT,
    Op.FINAL_INIT: kernel.OP_FININIT,
    Op.LOCAL: kernel.OP_LOCAL,
}


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


def _check_nesting(actions: tuple[TraceAction, ...], thread: int) -> None:
    depth: dict[str, int] = {}
    for a in actions:
        if a.op is Op.LOCK:
            depth[a.target] = depth.get(a.target, 0) + 1
        elif a.op is Op.UNLOCK:
            if depth.get(a.target, 0) <= 0:
                raise MalformedExecution(
                    f"thread {thread} unlocks {a.target!r} without holding it"
                )
            depth[a.target] -= 1
    # monitors may stay held at thread end (explicit Lock API allows it)


@dataclass(frozen=True)
class ThreadProgram:
    """Per-thread action lists plus a main thread running init actions first."""

    init_actions: tuple[TraceAction, ...]
    threads: tuple[tuple[TraceAction, ...], ...]
    name: str = ""

    def __post_init__(self):
        for a in self.init_actions:
            if a.thread != 0:
                raise MalformedExecution("init actions must run on the main thread (0)")
        for t, actions in enumerate(self.threads, start=1):
            for a in actions:
                if a.thread != t:
                    raise MalformedExecution(f"action {a} listed under thread {t}")
                if a.op in (Op.DEFAULT_INIT, Op.FINAL_INIT):
                    # the sync-order search relies on init edges leaving only
                    # the main-thread prefix
                    raise MalformedExecution(f"{a.op.value} must run on the main thread (0)")
            if any(x.seq >= y.seq for x, y in zip(actions, actions[1:])):
                raise MalformedExecution(f"thread {t} action seq not strictly increasing")
            _check_nesting(actions, t)
        _check_nesting(self.init_actions, 0)

    @classmethod
    def build(
        cls,
        threads: list[list[tuple[Op, Optional[str]]]],
        init: Optional[list[tuple[Op, Optional[str]]]] = None,
        name: str = "",
    ) -> "ThreadProgram":
        """Construct from (op, target) pairs; seq numbers are assigned."""
        init_actions = tuple(
            TraceAction(0, op, tgt, i) for i, (op, tgt) in enumerate(init or [])
        )
        built = tuple(
            tuple(TraceAction(t, op, tgt, i) for i, (op, tgt) in enumerate(spec))
            for t, spec in enumerate(threads, start=1)
        )
        return cls(init_actions, built, name)

    def action_count(self) -> int:
        return len(self.init_actions) + sum(len(t) for t in self.threads)


@dataclass(frozen=True)
class Execution:
    """A total interleaving of a program's actions."""

    actions: tuple[TraceAction, ...]

    def validate(self) -> None:
        """Raise MalformedExecution on program-order or mutual-exclusion violations."""
        last_seq: dict[int, int] = {}
        held: dict[str, list[int]] = {}  # monitor -> [owner, depth]
        for a in self.actions:
            prev = last_seq.get(a.thread)
            if prev is not None and a.seq <= prev:
                raise MalformedExecution(
                    f"thread {a.thread} runs seq {a.seq} after {prev}: program order violated"
                )
            last_seq[a.thread] = a.seq
            if a.op is Op.LOCK:
                h = held.get(a.target)
                if h is None:
                    held[a.target] = [a.thread, 1]
                elif h[0] != a.thread:
                    raise MalformedExecution(
                        f"thread {a.thread} locks {a.target!r} while thread {h[0]} holds it"
                    )
                else:
                    h[1] += 1
            elif a.op is Op.UNLOCK:
                h = held.get(a.target)
                if h is None or h[0] != a.thread:
                    raise MalformedExecution(
                        f"thread {a.thread} unlocks {a.target!r} without holding it"
                    )
                h[1] -= 1
                if h[1] == 0:
                    del held[a.target]

    def encode(self) -> tuple[int, list[int], list[int], list[int], dict[str, int]]:
        n = len(self.actions)
        ids: dict[str, int] = {}
        thread = [a.thread for a in self.actions]
        opk = [OP_CODE[a.op] for a in self.actions]
        tgt = []
        for a in self.actions:
            if a.target is None:
                tgt.append(-1)
            else:
                tgt.append(ids.setdefault(a.target, len(ids)))
        return n, thread, opk, tgt, ids


def detect_races(e: Execution) -> set[tuple[TraceAction, TraceAction]]:
    """Unordered conflicting pairs (both orientations, per race symmetry)."""
    e.validate()
    n, thread, opk, tgt, _ = e.encode()
    reach = kernel.hb_reach(n, thread, opk, tgt)
    pairs = kernel.race_pairs(n, thread, opk, tgt, reach)
    out = set()
    for i, j in pairs:
        a, b = e.actions[i], e.actions[j]
        out.add((a, b))
        out.add((b, a))
    return out


def _encode_program(p: ThreadProgram):
    ids: dict[str, int] = {}

    def code(a: TraceAction) -> int:
        if a.target is None:
            return -1
        return ids.setdefault(a.target, len(ids))

    init_opk = [OP_CODE[a.op] for a in p.init_actions]
    init_tgt = [code(a) for a in p.init_actions]
    th_opk = [[OP_CODE[a.op] for a in t] for t in p.threads]
    th_tgt = [[code(a) for a in t] for t in p.threads]
    return init_opk, init_tgt, th_opk, th_tgt


@dataclass(frozen=True)
class RaceReport:
    """Verdict of one program; ``executions`` counts the sync orders explored."""

    raced: bool
    witness: Optional[Execution]
    executions: int


def program_races(p: ThreadProgram, action_budget: int = DEFAULT_ACTION_BUDGET) -> RaceReport:
    """Check every sync order of the program for data races; stop at the first."""
    if p.action_count() > action_budget:
        # the wording predates the sync-order search; it is kept because it
        # appears in --oracle reports, which must stay byte-stable
        raise BudgetExceeded(
            f"program has {p.action_count()} actions (> {action_budget}); "
            "pass an explicit bound to enumerate anyway"
        )
    init_opk, init_tgt, th_opk, th_tgt = _encode_program(p)
    n_orders, witness_seq = kernel.search_sync_orders(init_opk, init_tgt, th_opk, th_tgt)
    witness = None
    if witness_seq is not None:
        ptrs = [0] * len(p.threads)
        tail = []
        for t in witness_seq:
            tail.append(p.threads[t][ptrs[t]])
            ptrs[t] += 1
        witness = Execution(p.init_actions + tuple(tail))
    return RaceReport(witness is not None, witness, n_orders)
