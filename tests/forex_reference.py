"""Reference P3 protection: the paper's ``forex`` over the materialized facts.

This is the evaluation that ``MonitorAnalysis.monitors`` replaced with a
top-down meet over the call graph: it intersects ``protecting_monitors``
over every public fact of an access (the paper's ``publicAccess``, one fact
per public call site or public access expression). It is kept only as the
reference for the parity property in test_monitors.py, so it stays plain.
"""

from __future__ import annotations

from typing import Optional

from threadlint.classmodel import FieldAccess
from threadlint.monitors import Monitor, MonitorAnalysis


def monitors(info: MonitorAnalysis, a: FieldAccess) -> frozenset[Monitor]:
    """Monitors protecting every public access path to ``a``; empty without one."""
    result: Optional[frozenset[Monitor]] = None
    for f in info.public_facts(a):
        prot = info.protecting_monitors(f.method, f.expr)
        result = prot if result is None else result & prot
    return frozenset() if result is None else result


def has_public_path(info: MonitorAnalysis, a: FieldAccess) -> bool:
    return bool(info.public_facts(a))
