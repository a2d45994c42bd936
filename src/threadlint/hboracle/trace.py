"""Line-oriented trace files for standalone oracle use.

Grammar (one action per line, '#' starts a comment, blank lines ignored):

    <thread> <op> [<target>]

``thread`` is a nonnegative integer in ASCII digits (0 is the initializing
main thread).
``op`` is one of: read, write, volatile-read, volatile-write, lock, unlock,
default-init, final-init, local; default-init and final-init run on thread
0 only. ``target`` names the field or monitor and is required for every op
except local.

Example (two threads racing on cnt after a default init):

    0 default-init cnt
    1 read cnt
    2 read cnt
    1 write cnt
    2 write cnt
"""

from __future__ import annotations

from threadlint.errors import MalformedExecution
from threadlint.hboracle.model import Execution, Op, TraceAction

_OP_BY_NAME = {op.value: op for op in Op}


def parse_trace(text: str, path: str = "<trace>") -> Execution:
    """Parse a trace file into an Execution, which checks itself when it is made."""
    actions: list[TraceAction] = []
    next_seq: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise MalformedExecution(f"{path}:{lineno}: expected '<thread> <op> [<target>]', got {raw!r}")
        if not (parts[0].isascii() and parts[0].isdigit()):
            raise MalformedExecution(f"{path}:{lineno}: thread must be a nonnegative integer, got {parts[0]!r}")
        try:
            thread = int(parts[0])
        except ValueError:  # more digits than int() converts
            raise MalformedExecution(f"{path}:{lineno}: thread number has too many digits ({len(parts[0])})") from None
        op = _OP_BY_NAME.get(parts[1])
        if op is None:
            raise MalformedExecution(f"{path}:{lineno}: unknown op {parts[1]!r}")
        target = parts[2] if len(parts) == 3 else None
        if op is not Op.LOCAL and target is None:
            raise MalformedExecution(f"{path}:{lineno}: {op.value} requires a target")
        seq = next_seq.get(thread, 0)
        next_seq[thread] = seq + 1
        actions.append(TraceAction(thread, op, target, seq))
    return Execution(tuple(actions))


def format_trace(e: Execution) -> str:
    """Inverse of parse_trace (modulo comments and blank lines)."""
    lines = []
    for a in e.actions:
        if a.target is None:
            lines.append(f"{a.thread} {a.op.value}")
        else:
            lines.append(f"{a.thread} {a.op.value} {a.target}")
    return "\n".join(lines) + "\n"
