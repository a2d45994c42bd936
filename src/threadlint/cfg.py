"""Intra-method control-flow graphs, their paths and hold counts.

Structured statements are lowered to edges over per-statement nodes; each
node lists the expressions it evaluates (``CfgNode.exprs``), and
``Cfg.nodes_for`` finds the nodes that evaluate a given expression by its
span: one bisect over the sorted starts of the nodes' expressions. The
successor edges are exactly the paths Java runs, as javac compiles
``finally``: a ``try``'s finally block is lowered once for normal completion
and once more for its early exits (a return or throw in the protected block
or a handler), and that copy goes on toward the next enclosing way out.
Since a finally block may be lowered twice, an expression in one may have
several nodes. Early exits leave a ``synchronized`` block through an exit
node of their own. A ``catch`` handler is reached from the start of the
protected block, for an exception its first step throws, and once the whole
block completes; so a lock the block takes is not held in its handlers.

Lock windows are hold counts: :func:`fewest` gives each node the fewest
holds on any path to it from the entry, where each node adds its gain (a
lock call one, an unlock call minus one) and a count never falls below 0,
as a must-lockset that counts reentrant holds.

Graphs are built on demand, once per method, and kept by the class model
(:meth:`threadlint.classmodel.ClassModel.cfg`): the monitor analysis asks
for a method's CFG only when the method holds a lock call on a lock field,
the only place a lock window can exist, and the oracle's driver for each
method it lowers.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from threadlint.frontend import ast as A


class CfgNode:
    __slots__ = ("index", "kind", "ast", "exprs")

    def __init__(self, index: int, kind: str, ast: Optional[object], exprs: Sequence):
        self.index = index
        self.kind = kind  # entry | exit | stmt | cond | loop | sync_enter | sync_exit | update
        self.ast = ast
        self.exprs = exprs  # the expressions it evaluates, in order

    def __repr__(self):
        return f"<cfg {self.index}:{self.kind}>"


class Cfg:
    __slots__ = ("nodes", "succs", "entry", "exit", "_starts", "_index", "_copies")

    def __init__(self, nodes: list[CfgNode], succs: dict[CfgNode, list[CfgNode]], entry: CfgNode, exit: CfgNode):
        self.nodes = nodes
        self.succs = succs
        self.entry = entry
        self.exit = exit
        # the sorted starts and the ends of the first lowering's top-level
        # expressions, with the node that evaluates each; a node -> its copies
        self._starts: Optional[list[int]] = None
        self._index: Optional[list[tuple[int, CfgNode]]] = None
        self._copies: Optional[dict[CfgNode, list[CfgNode]]] = None

    def nodes_for(self, ast_node) -> list[CfgNode]:
        """The nodes that evaluate the expression ``ast_node`` of this
        graph's method: one per copy of the code that holds it, none when no
        copy is lowered."""
        if self._starts is None:
            self._build_index()
        _, start, end, _ = ast_node.span
        i = bisect_right(self._starts, start) - 1
        if i < 0:
            return []
        top_end, first = self._index[i]
        if end > top_end:
            return []
        return self._copies.get(first, [first])

    def _build_index(self) -> None:
        # The top-level expressions of different nodes are disjoint, and the
        # spans of one tree nest or are disjoint, so an expression lies in the
        # one whose start is the last at or before its own. The copies of a
        # node are the nodes whose first expression is the same.
        index: list[tuple[int, int, CfgNode]] = []
        firsts: dict[int, CfgNode] = {}
        copies: dict[CfgNode, list[CfgNode]] = {}
        for n in self.nodes:
            if n.exprs:
                first = firsts.get(id(n.exprs[0]))
                if first is None:
                    firsts[id(n.exprs[0])] = n
                    index += [(e.span.start, e.span.end, n) for e in n.exprs]
                else:
                    copies.setdefault(first, [first]).append(n)
        index.sort(key=itemgetter(0))
        self._starts = [start for start, _, _ in index]
        self._index = [(end, n) for _, end, n in index]
        self._copies = copies


class _Builder:
    def __init__(self):
        self.nodes: list[CfgNode] = []
        self.succs: dict[CfgNode, list[CfgNode]] = {}
        # early[-1] collects where the early exits (a return or throw, and the finally
        # copies and synchronized exits it ran since) stand; they go on at the innermost
        # enclosing finally block or synchronized exit, or the method exit at level 0
        self.early: list[list[CfgNode]] = [[]]
        self.entry = self.new_node("entry")

    def new_node(self, kind: str, ast_node=None, exprs: Sequence = ()) -> CfgNode:
        n = CfgNode(len(self.nodes), kind, ast_node, exprs)
        self.nodes.append(n)
        self.succs[n] = []
        return n

    def connect(self, sources: Iterable[CfgNode], node: CfgNode) -> None:
        for p in sources:
            if node not in self.succs[p]:
                self.succs[p].append(node)

    # -- lowering --

    def lower_stmt(self, s: A.Stmt, sources: list[CfgNode]) -> list[CfgNode]:
        if isinstance(s, A.Block):
            frontier = sources
            for inner in s.stmts:
                frontier = self.lower_stmt(inner, frontier)
            return frontier

        if isinstance(s, (A.LocalDecl, A.ExprStmt, A.Empty, A.Return, A.Throw)):
            n = self.new_node("stmt", s, A.children(s))
            self.connect(sources, n)
            if isinstance(s, (A.Return, A.Throw)):
                self.early[-1].append(n)
                return []
            return [n]

        if isinstance(s, A.If):
            cond = self.new_node("cond", s, [s.cond])
            self.connect(sources, cond)
            then_f = self.lower_stmt(s.then, [cond])
            return then_f + (self.lower_stmt(s.els, [cond]) if s.els is not None else [cond])

        if isinstance(s, (A.While, A.For, A.ForEach)):
            is_for = isinstance(s, A.For)
            if is_for and s.init is not None:
                sources = self.lower_stmt(s.init, sources)
            cond = s.iterable if isinstance(s, A.ForEach) else s.cond
            head = self.new_node("loop", s, [cond] if cond is not None else [])
            self.connect(sources, head)
            body_f = self.lower_stmt(s.body, [head])
            if is_for and s.update:
                upd = self.new_node("update", s, s.update)
                self.connect(body_f, upd)
                body_f = [upd]
            self.connect(body_f, head)  # back edge
            # `for (;;)` never exits normally
            return [head] if cond is not None else []

        if isinstance(s, A.Sync):
            enter = self.new_node("sync_enter", s, [s.monitor])
            self.connect(sources, enter)
            self.early.append([])
            body_f = self.lower_stmt(s.body, [enter])
            leave = self.new_node("sync_exit", s)
            self.connect(body_f, leave)
            early = self.early.pop()
            if early:  # early exits leave through an exit node of their own
                leave_early = self.new_node("sync_exit", s)
                self.connect(early, leave_early)
                self.early[-1].append(leave_early)
            return [leave]

        if isinstance(s, A.Try):
            has_finally = s.finally_block is not None
            if has_finally:
                self.early.append([])
            body_f = self.lower_stmt(s.body, sources)
            frontier = list(body_f)
            for c in s.catches:
                # a handler runs in place of the block, when its first step
                # throws (a lock call that fails, say), or once it completes;
                # a throw from the middle of the block is not modeled
                frontier += self.lower_stmt(c.body, sources + body_f)
            if not has_finally:
                return frontier
            early = self.early.pop()
            # one copy of the finally block for normal completion, one for the
            # early exits, which then go on toward the next enclosing way out
            normal = self.lower_stmt(s.finally_block, frontier) if frontier else []
            if early:
                self.early[-1] += self.lower_stmt(s.finally_block, early)
            return normal

        raise TypeError(f"unhandled statement {type(s).__name__}")

    def finish(self, frontier: list[CfgNode]) -> Cfg:
        # the exit node exists even when every path loops forever
        exit_node = self.new_node("exit")
        self.connect(frontier + self.early[0], exit_node)
        return Cfg(self.nodes, self.succs, self.entry, exit_node)


def build_cfg(m: A.MethodDecl) -> Cfg:
    """Lower one callable body to a control-flow graph with unique entry/exit."""
    b = _Builder()
    frontier = [b.entry]
    if m.body is not None:
        for s in m.body.stmts:
            frontier = b.lower_stmt(s, frontier)
    return b.finish(frontier)


def paths(cfg: Cfg) -> Iterator[list[CfgNode]]:
    """The entry-to-exit paths of ``cfg``, the paths Java runs, depth first.

    Each edge is taken at most once, so a loop body runs zero or one times.
    A path that cannot go on (``for (;;)``) ends there. One path is walked
    and backtracked in place, so the work is linear in the edges walked and
    in the length of each path given out, which is a copy.
    """
    succs = cfg.succs
    path = [cfg.entry]
    used: set[tuple[CfgNode, CfgNode]] = set()  # the edges of ``path``
    left: list[Iterator[CfgNode]] = []  # left[i]: the moves from path[i] not yet taken
    while path:
        n = path[-1]
        if len(left) < len(path):  # n was just reached
            moves = [s for s in succs[n] if (n, s) not in used]
            if not moves:
                yield path[:]
            left.append(iter(moves))
        s = next(left[-1], None)
        if s is None:
            left.pop()
            path.pop()
            if path:
                used.remove((path[-1], n))
        else:
            used.add((n, s))
            path.append(s)


# --- hold counts ------------------------------------------------------------


def fewest(cfg: Cfg, gain: Mapping[CfgNode, int]) -> dict[CfgNode, int]:
    """The fewest holds on any path from the entry to each node it reaches,
    counted before the node runs.

    A node adds ``gain.get(node, 0)`` to the count of the path that leaves
    it, and a count never falls below 0. Counts join by their minimum and
    only fall once set, so a loop ends without a cap. A node no path
    reaches gets no count.
    """
    succs = cfg.succs
    count = {cfg.entry: 0}
    work = [cfg.entry]
    while work:
        n = work.pop()
        out = max(count[n] + gain.get(n, 0), 0)
        for s in succs[n]:
            if out < count.get(s, out + 1):
                count[s] = out
                work.append(s)
    return count
