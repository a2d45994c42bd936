"""Reference alias rule: the name-matching resolver the class model replaced.

Before locals were bound to their declarations, monitor identification
found a local's writes by walking the whole method body and matching the
local by name, ignoring block scopes. It is kept only as the reference for
the agreement property in test_monitors.py. On methods where each local
name is declared once, declared before it is used and written only by
``=``, and no for-each or catch variable reuses a name, the two rules must
agree; elsewhere the name match is unsound (same-name locals in sibling
blocks, for-each and catch variables taken for aliases).
"""

from __future__ import annotations

from typing import Optional

from threadlint.classmodel import ClassModel
from threadlint.frontend import ast as A
from threadlint.frontend.printer import canonical_text


def local_write_sources(m: A.MethodDecl, name: str) -> Optional[list[A.Expr]]:
    """RHS expressions of every write to local ``name``; None when it is a parameter."""
    if any(p.name == name for p in m.params):
        return None
    sources: list[A.Expr] = []
    if m.body is None:
        return sources
    for node in A.walk(m.body):
        if isinstance(node, A.LocalDecl):
            sources.extend(d.init for d in node.declarators if d.name == name and d.init is not None)
        elif isinstance(node, A.Assign):
            t = A.strip_parens(node.target)
            if isinstance(t, A.Name) and t.identifier == name:
                sources.append(node.value)
    return sources


def declares_local(m: A.MethodDecl, name: str) -> bool:
    """Does ``m`` declare a local variable, loop variable or catch parameter ``name``?"""
    for node in () if m.body is None else A.walk(m.body):
        if isinstance(node, A.LocalDecl):
            declared = [d.name for d in node.declarators]
        elif isinstance(node, A.ForEach):
            declared = [node.var]
        elif isinstance(node, A.Try):
            declared = [c.var for c in node.catches]
        else:
            continue
        if name in declared:
            return True
    return False


def alias_of(cm: ClassModel, m: A.MethodDecl, name: str, seen: frozenset = frozenset()) -> Optional[A.FieldDecl]:
    """The own field local ``name`` aliases: assigned exactly once, from a
    read of it or from another local that aliases it. ``seen`` holds the
    locals already followed; a chain back to one of them aliases nothing."""
    sources = local_write_sources(m, name)
    if sources is None or len(sources) != 1:
        return None
    f = cm.field_of(sources[0])
    source = A.strip_parens(sources[0])
    seen = seen | {name}
    if f is None and isinstance(source, A.Name) and source.identifier not in seen:
        return alias_of(cm, m, source.identifier, seen)
    return f


def represents(cm: ClassModel, lock_field: A.FieldDecl, var_expr: A.Expr, m: A.MethodDecl) -> bool:
    """Does ``var_expr``, a lock-call receiver in ``m``, denote ``lock_field``?"""
    e = A.strip_parens(var_expr)
    f = cm.field_of(e)
    if f is not None:
        return f is lock_field
    return isinstance(e, A.Name) and alias_of(cm, m, e.identifier) is lock_field


def sync_monitor(expr: A.Expr, cm: ClassModel, m: A.MethodDecl) -> Optional[str]:
    """The monitor ``synchronized (expr)`` in ``m`` takes; None when it guards nothing."""
    e = A.strip_parens(expr)
    if isinstance(e, A.This):
        return "this"
    f = cm.field_of(e)
    if f is None and isinstance(e, A.Name):
        name = e.identifier
        if any(p.name == name for p in m.params):
            return None
        if declares_local(m, name):
            f = alias_of(cm, m, name)
            if f is None:
                return None
    if f is not None:
        return f"this.{f.name}"
    if isinstance(e, A.Call):
        f = getter_field(cm, e)
        return None if f is None else f"this.{f.name}"
    if isinstance(e, A.ClassLit) and e.type_text.rsplit(".", 1)[-1] == cm.decl.name:
        return f"Class<{cm.decl.name}>"
    for node in A.walk(e):
        if isinstance(node, (A.New, A.Call)):
            return None
        if isinstance(node, A.Name) and cm.field_of(node) is None and (
                any(p.name == node.identifier for p in m.params) or declares_local(m, node.identifier)):
            return None
    return canonical_text(e)


def getter_field(cm: ClassModel, call: A.Call) -> Optional[A.FieldDecl]:
    """The own final field that every ``return`` of the one same-class
    method ``call`` may run returns, by the name walk; None otherwise."""
    q = call.qualifier
    if q is not None and not isinstance(A.strip_parens(q), A.This):
        return None
    matches = [k for k in cm.decl.methods if k.name == call.name and len(k.params) == len(call.args)]
    if len(matches) != 1 or matches[0].body is None:
        return None
    k = matches[0]
    got = set()
    for r in A.walk(k.body):
        if isinstance(r, A.Return):
            v = None if r.value is None else A.strip_parens(r.value)
            f = None if v is None else cm.field_of(v)
            if f is None and isinstance(v, A.Name) and declares_local(k, v.identifier):
                f = alias_of(cm, k, v.identifier)
            if f is None or not f.is_final:
                return None
            got.add(id(f))
    return f if len(got) == 1 else None
