"""Reference P3 protection, by enumerating call paths, and the paper's ``forex``.

:func:`monitors` follows every acyclic same-class call path from a public
method to the access's method. Along a path it unions
``protecting_monitors`` at each call site and at the access; across paths it
intersects. With no path the result is empty. ``MonitorAnalysis.monitors``
computes the same by one lockset transfer over the call graph, and the
property in test_accesspaths.py equates the two.

:func:`forex` is the paper's rule over the materialized facts: it intersects
``protecting_monitors`` over every public fact of an access (``publicAccess``,
one fact per public call site or public access expression), so it counts only
the monitors held at the public method's own call site. It is a lower bound
of :func:`monitors`. Both stay plain.
"""

from __future__ import annotations

from typing import Optional

from threadlint.classmodel import FieldAccess
from threadlint.monitors import MonitorAnalysis


def _paths_meet(info: MonitorAnalysis, a: FieldAccess) -> Optional[frozenset[str]]:
    """The intersection over public paths to ``a`` of the monitors taken along
    each; None when no public path exists."""
    cm = info.cm
    k = a.enclosing
    if k is None or k.is_constructor:
        return None
    edges = [(j, e, callee) for j in cm.decl.methods for e in cm.calls_in(j) for callee in cm.callees(e)]
    result: Optional[frozenset[str]] = None

    def back(head, held: frozenset[str], on_path: frozenset[int]) -> None:
        nonlocal result
        if head.is_public:
            result = held if result is None else result & held
        for j, e, callee in edges:
            if callee is head and id(j) not in on_path:
                back(j, held | info.protecting_monitors(j, e), on_path | {id(j)})

    back(k, info.protecting_monitors(k, a.expr), frozenset({id(k)}))
    return result


def monitors(info: MonitorAnalysis, a: FieldAccess) -> frozenset[str]:
    """Monitors held at ``a`` on every public call path to it; empty without one."""
    result = _paths_meet(info, a)
    return frozenset() if result is None else result


def has_public_path(info: MonitorAnalysis, a: FieldAccess) -> bool:
    return _paths_meet(info, a) is not None


def forex(info: MonitorAnalysis, a: FieldAccess) -> frozenset[str]:
    """The paper's ``forex`` over ``publicAccess``; empty without a public fact."""
    result: Optional[frozenset[str]] = None
    for f in info.public_facts(a):
        prot = info.protecting_monitors(f.method, f.expr)
        result = prot if result is None else result & prot
    return frozenset() if result is None else result
