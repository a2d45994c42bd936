"""Reference paths: a structural walk of a method's AST, and the copying
walk of a CFG that ``threadlint.cfg.paths`` replaced.

The structural walk is what ``threadlint.cfg.paths`` must agree with as a
set, kept only for the parity test in test_cfg.py. It never looks at the CFG. Each statement gives
its runs, ``(steps, outcome)``: ``steps`` names the nodes a run passes as
cfg.py names them, ``(kind, statement)``, and ``outcome`` is ``NORMAL``,
``EXIT`` (a return or throw on its way out) or ``STUCK`` (an endless loop
that cannot go on). A loop runs zero or one times. A return or throw runs
each enclosing finally block and leaves each synchronized block through its
exit. A catch handler may run in place of the protected block or once the
whole block has completed, which is cfg.py's model of exceptions.
"""

from __future__ import annotations

from typing import Iterator

from threadlint.frontend import ast as A

NORMAL, EXIT, STUCK = "normal", "exit", "stuck"
_DONE = [((), NORMAL)]


def _then(first, rest):
    """The runs of ``first``, each one that completes followed by each of ``rest()``."""
    out = []
    for steps, how in first:
        if how == NORMAL:
            out += [(steps + more, then) for more, then in rest()]
        else:
            out.append((steps, how))
    return out


def runs(s: A.Stmt) -> list[tuple[tuple, str]]:
    if isinstance(s, A.Block):
        out = _DONE
        for inner in s.stmts:
            out = _then(out, lambda inner=inner: runs(inner))
        return out
    if isinstance(s, (A.LocalDecl, A.ExprStmt, A.Empty)):
        return [((("stmt", s),), NORMAL)]
    if isinstance(s, (A.Return, A.Throw)):
        return [((("stmt", s),), EXIT)]
    if isinstance(s, A.If):
        return _then([((("cond", s),), NORMAL)], lambda: runs(s.then) + (runs(s.els) if s.els else _DONE))
    if isinstance(s, (A.While, A.For, A.ForEach)):
        is_for = isinstance(s, A.For)
        endless = is_for and s.cond is None
        update = [((("update", s),), NORMAL)] if is_for and s.update else _DONE
        again = [((("loop", s),), STUCK if endless else NORMAL)]
        once = _then(_then(runs(s.body), lambda: update), lambda: again)
        head = _then([((("loop", s),), NORMAL)], lambda: once if endless else _DONE + once)
        return _then(runs(s.init), lambda: head) if is_for and s.init else head
    if isinstance(s, A.Sync):
        leave = (("sync_exit", s),)
        return [((("sync_enter", s),) + steps + (() if how == STUCK else leave), how) for steps, how in runs(s.body)]
    if isinstance(s, A.Try):
        handlers = [r for c in s.catches for r in runs(c.body)]
        done = handlers + _then(runs(s.body), lambda: _DONE + handlers)
        if s.finally_block is None:
            return done
        fin = runs(s.finally_block)
        # the finally's own exit replaces a pending one; its normal end resumes it
        return [(steps, how) for steps, how in done if how == STUCK] + [
            (steps + more, how if then == NORMAL else then)
            for steps, how in done if how != STUCK for more, then in fin]
    raise TypeError(f"unhandled statement {type(s).__name__}")


def method_runs(m: A.MethodDecl) -> set[tuple[tuple, bool]]:
    """Each run of ``m`` as (the ids-and-kinds of its steps, whether it ends)."""
    body = runs(m.body) if m.body is not None else _DONE
    return {(tuple((kind, id(s)) for kind, s in steps), how != STUCK) for steps, how in body}


def copying_paths(cfg) -> Iterator[list]:
    """The entry-to-exit paths of ``cfg`` in ``threadlint.cfg.paths``'s
    order, each edge at most once per path: a stack of whole paths, each
    with its own copy of the path and of its used edges, so one path costs
    time quadratic in its length. The order of the paths fixes the order of
    the oracle's action lists, so ``paths`` must give the same lists."""
    todo = [([cfg.entry], frozenset())]
    while todo:
        path, used = todo.pop()
        n = path[-1]
        moves = [s for s in cfg.succs[n] if (n, s) not in used]
        if not moves:
            yield path
        for s in reversed(moves):
            todo.append((path + [s], used | {(n, s)}))
