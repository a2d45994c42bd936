"""Oracle kernel: happens-before closure, race scan, and the sync-order search.

Encoding: each action is (op, target) with op one of the OP_* codes below
and target a small nonnegative int naming a field or monitor (-1 when
absent). Happens-before rows are Python-int bitsets, so executions have no
length cap.

Happens-before depends only on program order and the order of sync actions
(lock, unlock, volatile read, volatile write): the init edges always run from
the main-thread prefix to each worker's first action. Every interleaving with
the same sync order therefore has the same racy pairs, and
``search_sync_orders`` visits one interleaving per sync order instead of all
of them.
"""

from __future__ import annotations

from typing import Optional

OP_READ = 0
OP_WRITE = 1
OP_VREAD = 2
OP_VWRITE = 3
OP_LOCK = 4
OP_UNLOCK = 5
OP_DEFINIT = 6
OP_FININIT = 7
OP_LOCAL = 8

_FIELD_OPS = (OP_READ, OP_WRITE, OP_DEFINIT, OP_FININIT)
_WRITE_OPS = (OP_WRITE, OP_DEFINIT, OP_FININIT)
_SYNC_OPS = (OP_LOCK, OP_UNLOCK, OP_VREAD, OP_VWRITE)


def hb_direct(n: int, thread: list[int], opk: list[int], tgt: list[int]) -> list[list[int]]:
    """Direct happens-before edges (program order, monitor, volatile, init)."""
    direct: list[list[int]] = [[] for _ in range(n)]
    last_of: dict[int, int] = {}
    first_of: dict[int, int] = {}
    for i in range(n):
        t = thread[i]
        if t in last_of:
            direct[last_of[t]].append(i)  # HB1
        else:
            first_of[t] = i
        last_of[t] = i
    for i in range(n):
        op = opk[i]
        if op == OP_UNLOCK:
            for j in range(i + 1, n):  # HB2
                if opk[j] == OP_LOCK and tgt[j] == tgt[i]:
                    direct[i].append(j)
        elif op == OP_VWRITE:
            for j in range(i + 1, n):  # HB3
                if opk[j] == OP_VREAD and tgt[j] == tgt[i]:
                    direct[i].append(j)
        elif op == OP_DEFINIT or op == OP_FININIT:
            for t, j in first_of.items():  # HB4 / HB5
                if t != thread[i] and j > i:
                    direct[i].append(j)
    return direct


def hb_reach(n: int, thread: list[int], opk: list[int], tgt: list[int]) -> list[int]:
    """Row bitmasks of the transitive closure: bit j of row i means i -> j."""
    direct = hb_direct(n, thread, opk, tgt)
    reach = [0] * n
    for i in range(n - 1, -1, -1):
        bits = 0
        for j in direct[i]:
            bits |= (1 << j) | reach[j]
        reach[i] = bits
    return reach


def race_pairs(
    n: int,
    thread: list[int],
    opk: list[int],
    tgt: list[int],
    reach: list[int],
) -> list[tuple[int, int]]:
    """All position pairs (i, j), i < j, conflicting and unordered."""
    pairs = []
    for i in range(n):
        if opk[i] not in _FIELD_OPS:
            continue
        ri = reach[i]
        i_writes = opk[i] in _WRITE_OPS
        for j in range(i + 1, n):
            if opk[j] not in _FIELD_OPS or thread[j] == thread[i] or tgt[j] != tgt[i]:
                continue
            if not i_writes and opk[j] not in _WRITE_OPS:
                continue
            if not (ri >> j) & 1:
                pairs.append((i, j))
    return pairs


def search_sync_orders(
    init_opk: list[int],
    init_tgt: list[int],
    th_opk: list[list[int]],
    th_tgt: list[list[int]],
) -> tuple[int, Optional[tuple[int, ...]]]:
    """Depth-first search over the sync orders of a program, stopping at a race.

    At each state every worker first runs its non-sync actions up to its next
    sync action; the search then branches over the enabled sync actions in
    ascending thread order, so results are deterministic. A state where no
    worker can move (all done, or every remaining one blocked on a lock) is a
    leaf: a complete or deadlocked execution, race-checked with the init
    actions as a fixed main-thread (thread 0) prefix and worker t as thread
    1+t.

    Returns (leaves visited, schedule of the first racy leaf or None); a
    schedule lists the worker index of each step. Programs must be
    pre-validated: unlock is assumed to release a monitor the thread holds.
    """
    k = len(th_opk)
    lens = [len(x) for x in th_opk]
    ptr = [0] * k
    held: dict[int, list[int]] = {}  # monitor -> [owner thread, depth]
    seq: list[int] = []
    pi = len(init_opk)
    leaves = 0

    def leaf_races() -> bool:
        n = pi + len(seq)
        thread = [0] * pi
        opk = list(init_opk)
        tgt = list(init_tgt)
        pos = [0] * k
        for t in seq:
            i = pos[t]
            pos[t] = i + 1
            thread.append(1 + t)
            opk.append(th_opk[t][i])
            tgt.append(th_tgt[t][i])
        return bool(race_pairs(n, thread, opk, tgt, hb_reach(n, thread, opk, tgt)))

    def rec() -> bool:
        nonlocal leaves
        mark = len(seq)
        saved = ptr[:]
        for t in range(k):
            ops = th_opk[t]
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
            op = th_opk[t][i]
            g = th_tgt[t][i]
            if op == OP_LOCK:
                h = held.get(g)
                if h is not None and h[0] != t:
                    continue  # blocked
                if h is None:
                    held[g] = [t, 1]
                else:
                    h[1] += 1
            elif op == OP_UNLOCK:
                h = held[g]
                h[1] -= 1
                if h[1] == 0:
                    del held[g]
            moved = True
            ptr[t] = i + 1
            seq.append(t)
            if rec():
                return True  # the racy leaf's schedule stays in seq
            seq.pop()
            ptr[t] = i
            if op == OP_LOCK:
                h = held[g]
                h[1] -= 1
                if h[1] == 0:
                    del held[g]
            elif op == OP_UNLOCK:
                h = held.get(g)
                if h is None:
                    held[g] = [t, 1]
                else:
                    h[1] += 1
        if not moved:
            leaves += 1
            if leaf_races():
                return True
        del seq[mark:]
        ptr[:] = saved
        return False

    if rec():
        return leaves, tuple(seq)
    return leaves, None
