"""Which expressions in which methods lead to an exposed field access.

A Datalog-style least fixpoint (the paper's ``providesAccess``): a method
provides access to ``a`` either by containing ``a`` directly or by calling
(same-class, name + arity, no virtual dispatch) a method that does. Overload
ambiguity resolves to all candidates, over-approximating, which preserves the
universal quantification in the monitor analysis. The paper's
``publicAccess``, the facts of public methods, is
:meth:`threadlint.monitors.MonitorAnalysis.public_facts`.

Evaluation is one worklist propagation rather than repeated rounds. Each
method starts with a bitmask of the exposed accesses it contains; a method
whose mask grows pushes it to its callers along the reversed same-class call
graph until nothing changes, so recursion and mutual recursion need no
special case. A mask grows at most once per access, so propagation costs
O(calls x accesses) bit operations; the facts are then emitted once, one per
call site and reachable access, plus one per direct containment, which makes
the rest linear in the size of the fact relation.

Call sites are the ones the class model recorded while binding names
(:meth:`ClassModel.calls_in`), and their targets are the ones it resolves
(:meth:`ClassModel.callees`: only unqualified and ``this``-qualified calls,
as a call through any other receiver targets a different object); no
method body is walked here.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from threadlint.classmodel import ClassModel, FieldAccess
from threadlint.frontend import ast as A


class AccessPathFact(NamedTuple):
    """In ``method``, evaluating ``expr`` executes the field access ``access``."""

    method: A.MethodDecl
    expr: A.Expr
    access: FieldAccess


def provides_access(cm: ClassModel, exposed: Optional[list[FieldAccess]] = None) -> list[AccessPathFact]:
    """Least fixpoint of the direct-containment and call-step rules, each
    fact once; over ``cm.exposed`` unless ``exposed`` is given."""
    if exposed is None:
        exposed = cm.exposed
    accesses = [a for a in exposed if a.enclosing is not None and not a.enclosing.is_constructor]
    new = tuple.__new__
    facts = [new(AccessPathFact, (a.enclosing, a.expr, a)) for a in accesses]
    methods = cm.decl.methods
    # id(m) -> bitmask over ``accesses`` of every access a call to m executes
    reach = dict.fromkeys(map(id, methods), 0)
    for i, a in enumerate(accesses):
        if id(a.enclosing) in reach:
            reach[id(a.enclosing)] |= 1 << i

    calls: list[tuple[A.MethodDecl, A.Call, list[A.MethodDecl]]] = []
    callers: dict[int, dict[int, A.MethodDecl]] = {id(m): {} for m in methods}
    for m in methods:
        for e in cm.calls_in(m):
            callees = cm.callees(e)
            if callees:
                calls.append((m, e, callees))
                for k in callees:
                    callers[id(k)][id(m)] = m

    work = [m for m in methods if reach[id(m)]]
    while work:
        k = work.pop()
        rk = reach[id(k)]
        for m in callers[id(k)].values():
            rm = reach[id(m)]
            if rm | rk != rm:
                reach[id(m)] = rm | rk
                work.append(m)

    # An access expression is never a same-class call, so no call-step fact
    # repeats a containment fact.
    for m, call, callees in calls:
        mask = 0
        for k in callees:
            mask |= reach[id(k)]
        while mask:
            low = mask & -mask
            facts.append(new(AccessPathFact, (m, call, accesses[low.bit_length() - 1])))
            mask ^= low
    return facts

