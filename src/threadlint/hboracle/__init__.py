"""Happens-before trace oracle.

Checks small thread programs for data races under the happens-before rules.
Happens-before depends only on program order and the order of dependent sync
actions, so the search explores one sync order of each class of orders that
differ only in adjacent sync actions that commute (complete and deadlocked
executions alike) instead of every interleaving, and stops at the first
race. Serves as ground truth for the static rules: a class passing all three
must be race-free here.

``model`` holds programs (a worker thread is its (op, target) list) and
executions, each checked when it is made, and the kernel (an incremental
happens-before step that race-checks each appended action, the sync-order
search with sleep sets that runs it, and a lockset filter that clears a
program whose conflicting plain accesses all hold a common monitor, as the
one walk that checks each thread's list records them); ``driver`` lowers a
class to two-thread programs, walking each distinct action list once, and
searches only the programs the filter cannot clear; ``trace`` reads and
writes trace files.
"""

from threadlint.hboracle.driver import (
    OracleVerdict,
    check_class,
    two_thread_drivers,
)
from threadlint.hboracle.model import (
    DEFAULT_ACTION_BUDGET,
    Execution,
    Op,
    RaceReport,
    ThreadProgram,
    TraceAction,
    detect_races,
    program_races,
)
from threadlint.hboracle.trace import format_trace, parse_trace

BACKEND = "pure"
"""The kernel in ``model``, in pure Python; recorded in benchmark environment lines."""

__all__ = [
    "BACKEND",
    "DEFAULT_ACTION_BUDGET",
    "Execution",
    "Op",
    "OracleVerdict",
    "RaceReport",
    "ThreadProgram",
    "TraceAction",
    "check_class",
    "detect_races",
    "format_trace",
    "parse_trace",
    "program_races",
    "two_thread_drivers",
]
