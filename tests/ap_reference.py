"""Reference fixpoint: the naive round-robin ``providesAccess``.

This is the evaluation the worklist propagation in ``threadlint.accesspaths``
replaced. It is kept only as the reference for the parity property in
test_accesspaths.py, so it favours plainness over speed: every round rescans
every method, same-class call, callee and exposed access until no fact is
added.
"""

from __future__ import annotations

from typing import Optional

from threadlint.accesspaths import AccessPathFact
from threadlint.classmodel import ClassModel, FieldAccess, exposed_accesses
from threadlint.frontend import ast as A


def same_class_calls(cm: ClassModel, m: A.MethodDecl) -> list[tuple[A.Call, tuple[A.MethodDecl, ...]]]:
    """Calls in ``m`` resolvable to methods of the same class.

    Only unqualified and ``this``-qualified calls resolve; a call through any
    other receiver targets a different object.
    """
    by_name: dict[tuple[str, int], list[A.MethodDecl]] = {}
    for cand in cm.decl.methods:
        by_name.setdefault((cand.name, cand.arity), []).append(cand)
    out = []
    if m.body is None:
        return out
    for e in (n for n in A.walk(m.body) if isinstance(n, A.Expr)):
        if isinstance(e, A.Call) and (e.qualifier is None or isinstance(e.qualifier, A.This)):
            callees = by_name.get((e.name, len(e.args)))
            if callees:
                out.append((e, tuple(callees)))
    return out


def provides_access(cm: ClassModel, exposed: Optional[list[FieldAccess]] = None) -> frozenset[AccessPathFact]:
    """Least fixpoint of the direct-containment and call-step rules."""
    if exposed is None:
        exposed = exposed_accesses(cm)
    facts: set[AccessPathFact] = set()
    # access -> methods already known to provide it (for the call step)
    providers: dict[int, set[int]] = {}
    by_method_access: set[tuple[int, int, int]] = set()

    def add(m: A.MethodDecl, expr: A.Expr, a: FieldAccess) -> bool:
        key = (id(m), id(expr), id(a))
        if key in by_method_access:
            return False
        by_method_access.add(key)
        facts.add(AccessPathFact(m, expr, a))
        providers.setdefault(id(a), set()).add(id(m))
        return True

    for a in exposed:
        if a.enclosing is not None and not a.enclosing.is_constructor:
            add(a.enclosing, a.expr, a)

    calls = {id(m): same_class_calls(cm, m) for m in cm.decl.methods}

    changed = True
    while changed:
        changed = False
        for m in cm.decl.methods:
            for call, callees in calls[id(m)]:
                for k in callees:
                    for a in exposed:
                        if id(k) in providers.get(id(a), ()):
                            if add(m, call, a):
                                changed = True
    return frozenset(facts)
