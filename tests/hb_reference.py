"""Reference oracle: enumerate every interleaving of a thread program.

This is the exhaustive enumerator the sync-order search replaced. It is
kept only as the reference for the parity property in test_hboracle.py, so
it favours plainness over speed and reuses nothing of the search.
"""

from __future__ import annotations

from typing import Iterator

from threadlint.hboracle import Execution, Op, ThreadProgram, detect_races


def interleavings(p: ThreadProgram) -> Iterator[Execution]:
    """Every maximal mutex-respecting interleaving of the worker threads.

    The init actions form a fixed main-thread prefix. Threads are tried in
    ascending order at each step, and an execution shorter than the program
    is a deadlocked one.
    """
    threads = p.threads
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
            if a.op is Op.LOCK:
                h = held.get(a.target)
                if h is not None and h[0] != t:
                    continue  # blocked
                if h is None:
                    held[a.target] = [t, 1]
                else:
                    h[1] += 1
            elif a.op is Op.UNLOCK:
                h = held[a.target]
                h[1] -= 1
                if h[1] == 0:
                    del held[a.target]
            progressed = True
            ptr[t] = i + 1
            tail.append(a)
            yield from rec()
            tail.pop()
            ptr[t] = i
            if a.op is Op.LOCK:
                h = held[a.target]
                h[1] -= 1
                if h[1] == 0:
                    del held[a.target]
            elif a.op is Op.UNLOCK:
                h = held.get(a.target)
                if h is None:
                    held[a.target] = [t, 1]
                else:
                    h[1] += 1
        if not progressed:
            yield Execution(p.init_actions + tuple(tail))

    yield from rec()


def reference_raced(p: ThreadProgram) -> bool:
    """True when some interleaving of the program has a data race."""
    return any(detect_races(e) for e in interleavings(p))
