"""Source reconstruction from the AST.

The output is not formatted for humans; it exists so that
``tokenize(to_source(parse(src)))`` equals ``tokenize(src)`` token for token
on supported constructs (comments excluded, one declaration per field).
"""

from __future__ import annotations

from threadlint.frontend import ast as A

_MODIFIER_ORDER = (
    "public", "protected", "private", "abstract", "static", "final",
    "transient", "volatile", "synchronized", "native", "strictfp",
)


def _mods(modifiers) -> str:
    ordered = [m for m in _MODIFIER_ORDER if m in modifiers]
    return " ".join(ordered) + (" " if ordered else "")


def _ann(a: A.Annotation) -> str:
    return f"@{a.name}{a.args_src or ''}"


def to_source(node) -> str:
    """Render any AST node back to parseable source text."""
    return _render(node)


def _render(n) -> str:
    if isinstance(n, A.Ast):
        parts = []
        if n.package:
            parts.append(f"package {n.package};")
        for imp in n.imports:
            star = ".*" if imp.wildcard else ""
            static = "static " if imp.is_static else ""
            parts.append(f"import {static}{imp.qualified}{star};")
        parts.extend(_render(c) for c in n.classes)
        return "\n".join(parts) + "\n"

    if isinstance(n, A.ClassDecl):
        head = "".join(_ann(a) + "\n" for a in n.annotations)
        head += _mods(n.modifiers) + f"class {n.name}"
        if n.extends:
            head += f" extends {n.extends}"
        if n.implements:
            head += " implements " + ", ".join(n.implements)
        body = []
        for f in n.fields:
            body.append(_render(f))
        for c in n.constructors:
            body.append(_render(c))
        for m in n.methods:
            body.append(_render(m))
        for inner in n.nested:
            body.append(_render(inner))
        inner_src = "\n".join(body)
        return head + " {\n" + inner_src + "\n}"

    if isinstance(n, A.FieldDecl):
        anns = "".join(_ann(a) + " " for a in n.annotations)
        init = f" = {_render(n.initializer)}" if n.initializer is not None else ""
        return f"{anns}{_mods(n.modifiers)}{n.declared_type} {n.name}{init};"

    if isinstance(n, A.MethodDecl):
        anns = "".join(_ann(a) + "\n" for a in n.annotations)
        params = ", ".join(
            ("final " if p.is_final else "") + f"{p.type_text} {p.name}" for p in n.params
        )
        ret = "" if n.is_constructor else f"{n.return_type} "
        throws = " throws " + ", ".join(n.throws) if n.throws else ""
        sig = f"{anns}{_mods(n.modifiers)}{ret}{n.name}({params}){throws}"
        if n.body is None:
            return sig + ";"
        return sig + " " + _render(n.body)

    # -- statements --
    if isinstance(n, A.Block):
        return "{\n" + "\n".join(_render(s) for s in n.stmts) + "\n}"
    if isinstance(n, A.LocalDecl):
        decls = ", ".join(
            d.name + (f" = {_render(d.init)}" if d.init is not None else "") for d in n.declarators
        )
        fin = "final " if n.is_final else ""
        return f"{fin}{n.type_text} {decls};"
    if isinstance(n, A.ExprStmt):
        return _render(n.expr) + ";"
    if isinstance(n, A.If):
        out = f"if ({_render(n.cond)}) {_render(n.then)}"
        if n.els is not None:
            out += f" else {_render(n.els)}"
        return out
    if isinstance(n, A.While):
        return f"while ({_render(n.cond)}) {_render(n.body)}"
    if isinstance(n, A.For):
        if n.init is None:
            init = ";"
        elif isinstance(n.init, A.LocalDecl):
            init = _render(n.init)
        else:  # Block of ExprStmts from a comma-separated init list
            init = ", ".join(_render(s.expr) for s in n.init.stmts) + ";"
        cond = _render(n.cond) if n.cond is not None else ""
        update = ", ".join(_render(e) for e in n.update)
        return f"for ({init} {cond}; {update}) {_render(n.body)}"
    if isinstance(n, A.ForEach):
        fin = "final " if n.is_final else ""
        return f"for ({fin}{n.type_text} {n.var} : {_render(n.iterable)}) {_render(n.body)}"
    if isinstance(n, A.Return):
        return "return;" if n.value is None else f"return {_render(n.value)};"
    if isinstance(n, A.Throw):
        return f"throw {_render(n.value)};"
    if isinstance(n, A.Sync):
        return f"synchronized ({_render(n.monitor)}) {_render(n.body)}"
    if isinstance(n, A.Try):
        out = "try " + _render(n.body)
        for c in n.catches:
            out += f" catch ({c.type_text.replace('|', ' | ')} {c.var}) {_render(c.body)}"
        if n.finally_block is not None:
            out += " finally " + _render(n.finally_block)
        return out
    if isinstance(n, A.Empty):
        return ";"

    # -- expressions --
    if isinstance(n, A.Literal):
        return n.text
    if isinstance(n, A.Name):
        return n.identifier
    if isinstance(n, A.This):
        return "this"
    if isinstance(n, A.FieldSel):
        return f"{_render(n.qualifier)}.{n.name}"
    if isinstance(n, A.ClassLit):
        return f"{n.type_text}.class"
    if isinstance(n, A.Call):
        args = ", ".join(_render(a) for a in n.args)
        if n.qualifier is None:
            return f"{n.name}({args})"
        return f"{_render(n.qualifier)}.{n.name}({args})"
    if isinstance(n, A.New):
        if n.args is not None:
            return f"new {n.type_text}(" + ", ".join(_render(a) for a in n.args) + ")"
        dims = "".join(f"[{_render(d)}]" for d in n.dims)
        return f"new {n.type_text}{dims}{'[]' * n.empty_dims}"
    if isinstance(n, A.Index):
        return f"{_render(n.base)}[{_render(n.index)}]"
    if isinstance(n, A.Unary):
        if n.prefix:
            return f"{n.op}{_render(n.operand)}"
        return f"{_render(n.operand)}{n.op}"
    if isinstance(n, A.Binary):
        return f"{_render(n.left)} {n.op} {_render(n.right)}"
    if isinstance(n, A.Assign):
        return f"{_render(n.target)} {n.op} {_render(n.value)}"
    if isinstance(n, A.Paren):
        return f"({_render(n.inner)})"
    raise TypeError(f"cannot render {type(n).__name__}")
