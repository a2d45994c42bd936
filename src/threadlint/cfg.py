"""Intra-method control-flow graphs and dominance/post-dominance queries.

Structured statements are lowered to edges over per-statement nodes; every
expression maps (via ``Cfg.node_of``) to the node that evaluates it.
``try``/``finally`` is normalized so that every exit path of the protected
block — normal completion or an early return/throw — passes through the
finally block. The finally region is shared, not duplicated, which
over-approximates paths but keeps dominance sound for lock-scope queries.

Dominators use the standard iterative fixpoint over reverse postorder; method
graphs are small, so the near-linear algorithm is unnecessary.

Graphs are built on demand: the monitor analysis asks for a method's CFG
and dominator trees only when the method holds both a lock call and an
unlock call on one lock field, the only place a lock window can exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Optional

from threadlint.frontend import ast as A


@dataclass(eq=False)
class CfgNode:
    index: int
    kind: str  # entry | exit | stmt | cond | loop | sync_enter | sync_exit | update
    ast: Optional[object] = None

    def __repr__(self):
        return f"<cfg {self.index}:{self.kind}>"


@dataclass(eq=False)
class Cfg:
    method: Optional[A.MethodDecl]
    nodes: list[CfgNode]
    succs: dict[CfgNode, list[CfgNode]]
    preds: dict[CfgNode, list[CfgNode]]
    entry: CfgNode
    exit: CfgNode
    node_of: dict[int, CfgNode]  # id(ast node) -> cfg node

    def node_for(self, ast_node) -> Optional[CfgNode]:
        return self.node_of.get(id(ast_node))


class _Builder:
    def __init__(self, method: Optional[A.MethodDecl]):
        self.method = method
        self.nodes: list[CfgNode] = []
        self.succs: dict[CfgNode, list[CfgNode]] = {}
        self.preds: dict[CfgNode, list[CfgNode]] = {}
        self.node_of: dict[int, CfgNode] = {}
        # exit_carriers[-1] collects nodes whose control continues at the
        # innermost enclosing finally block (or the method exit at level 0)
        self.exit_carriers: list[list[CfgNode]] = [[]]
        self.entry = self.new_node("entry")

    def new_node(self, kind: str, ast_node=None) -> CfgNode:
        n = CfgNode(len(self.nodes), kind, ast_node)
        self.nodes.append(n)
        self.succs[n] = []
        self.preds[n] = []
        return n

    def edge(self, a: CfgNode, b: CfgNode) -> None:
        if b not in self.succs[a]:
            self.succs[a].append(b)
            self.preds[b].append(a)

    def connect(self, preds: Iterable[CfgNode], node: CfgNode) -> None:
        for p in preds:
            self.edge(p, node)

    def map_tree(self, root: A.Node, node: CfgNode) -> None:
        """Associate ``root`` and all its descendants with a cfg node."""
        node_of = self.node_of
        stack = [root]
        while stack:
            n = stack.pop()
            node_of[id(n)] = node
            stack.extend(A.children(n))

    # -- lowering --

    def lower_stmt(self, s: A.Stmt, preds: list[CfgNode]) -> list[CfgNode]:
        if isinstance(s, A.Block):
            self.node_of[id(s)] = preds[0] if preds else self.entry
            frontier = preds
            for inner in s.stmts:
                frontier = self.lower_stmt(inner, frontier)
            return frontier

        if isinstance(s, (A.LocalDecl, A.ExprStmt, A.Empty)):
            n = self.new_node("stmt", s)
            self.connect(preds, n)
            self.map_tree(s, n)
            return [n]

        if isinstance(s, A.If):
            cond = self.new_node("cond", s)
            self.connect(preds, cond)
            self.node_of[id(s)] = cond
            self.map_tree(s.cond, cond)
            then_f = self.lower_stmt(s.then, [cond])
            if s.els is not None:
                else_f = self.lower_stmt(s.els, [cond])
            else:
                else_f = [cond]
            return then_f + else_f

        if isinstance(s, A.While):
            head = self.new_node("loop", s)
            self.connect(preds, head)
            self.node_of[id(s)] = head
            self.map_tree(s.cond, head)
            body_f = self.lower_stmt(s.body, [head])
            self.connect(body_f, head)  # back edge
            return [head]

        if isinstance(s, A.For):
            frontier = preds
            if s.init is not None:
                frontier = self.lower_stmt(s.init, frontier)
            head = self.new_node("loop", s)
            self.connect(frontier, head)
            self.node_of[id(s)] = head
            if s.cond is not None:
                self.map_tree(s.cond, head)
            body_f = self.lower_stmt(s.body, [head])
            if s.update:
                upd = self.new_node("update", s)
                self.connect(body_f, upd)
                for e in s.update:
                    self.map_tree(e, upd)
                self.edge(upd, head)
            else:
                self.connect(body_f, head)
            # `for (;;)` never exits normally
            return [head] if s.cond is not None else []

        if isinstance(s, A.ForEach):
            head = self.new_node("loop", s)
            self.connect(preds, head)
            self.node_of[id(s)] = head
            self.map_tree(s.iterable, head)
            body_f = self.lower_stmt(s.body, [head])
            self.connect(body_f, head)
            return [head]

        if isinstance(s, (A.Return, A.Throw)):
            n = self.new_node("stmt", s)
            self.connect(preds, n)
            self.map_tree(s, n)
            self.exit_carriers[-1].append(n)
            return []

        if isinstance(s, A.Sync):
            enter = self.new_node("sync_enter", s)
            self.connect(preds, enter)
            self.node_of[id(s)] = enter
            self.map_tree(s.monitor, enter)
            body_f = self.lower_stmt(s.body, [enter])
            leave = self.new_node("sync_exit", s)
            self.connect(body_f, leave)
            return [leave]

        if isinstance(s, A.Try):
            has_finally = s.finally_block is not None
            if has_finally:
                self.exit_carriers.append([])
            body_f = self.lower_stmt(s.body, preds)
            frontiers = list(body_f)
            for c in s.catches:
                # conservative: the handler is reachable once the protected
                # block completes (exceptional edges mid-block are not modeled)
                frontiers += self.lower_stmt(c.body, list(body_f))
            if not has_finally:
                return frontiers
            carried = self.exit_carriers.pop()
            fin_preds = frontiers + carried
            if not fin_preds:
                return []
            fin_f = self.lower_stmt(s.finally_block, fin_preds)
            if carried:
                # early exits continue past the finally toward the next
                # enclosing finally or the method exit
                self.exit_carriers[-1].extend(fin_f)
            return fin_f if frontiers else []

        raise TypeError(f"unhandled statement {type(s).__name__}")

    def finish(self, frontier: list[CfgNode]) -> Cfg:
        # the exit node exists even when every path loops forever
        exit_node = self.new_node("exit")
        self.connect(frontier, exit_node)
        self.connect(self.exit_carriers[0], exit_node)
        return Cfg(self.method, self.nodes, self.succs, self.preds,
                   self.entry, exit_node, self.node_of)


def build_cfg(m: A.MethodDecl) -> Cfg:
    """Lower one callable body to a control-flow graph with unique entry/exit."""
    b = _Builder(m)
    frontier = [b.entry]
    if m.body is not None:
        for s in m.body.stmts:
            frontier = b.lower_stmt(s, frontier)
    return b.finish(frontier)


# --- dominance --------------------------------------------------------------


@dataclass(eq=False)
class DomInfo:
    """Immediate-dominator and immediate-post-dominator trees."""

    idom: dict[Hashable, Hashable]
    ipdom: dict[Hashable, Hashable]


def _reverse_postorder(entry, succs) -> list:
    seen = {entry}
    post: list = []
    stack: list[tuple] = [(entry, iter(succs.get(entry, ())))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for nxt in it:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, iter(succs.get(nxt, ()))))
                advanced = True
                break
        if not advanced:
            post.append(node)
            stack.pop()
    post.reverse()
    return post


def _idoms(entry, succs, preds) -> dict:
    order = _reverse_postorder(entry, succs)
    index = {n: i for i, n in enumerate(order)}
    idom: dict = {entry: entry}

    def intersect(a, b):
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for b in order[1:]:
            new = None
            for p in preds.get(b, ()):
                if p in idom:
                    new = p if new is None else intersect(p, new)
            if new is not None and idom.get(b) != new:
                idom[b] = new
                changed = True
    return idom


def compute_dom_info(entry, exit_node, succs, preds) -> DomInfo:
    """Dominators from ``entry`` and post-dominators from ``exit_node``.

    Works on any digraph given successor/predecessor adjacency maps.
    """
    return DomInfo(_idoms(entry, succs, preds), _idoms(exit_node, preds, succs))


def dominance(cfg: Cfg) -> DomInfo:
    return compute_dom_info(cfg.entry, cfg.exit, cfg.succs, cfg.preds)


def _tree_query(tree: dict, a, b) -> bool:
    """True iff ``a`` is an ancestor of ``b`` (reflexive); a node outside the
    tree has no ancestor and is no ancestor."""
    if a not in tree or b not in tree:
        return False
    node = b
    while True:
        if node == a:
            return True
        parent = tree[node]
        if parent == node:
            return False
        node = parent


def dominates(d: DomInfo, a, b) -> bool:
    """True iff every path entry -> b passes through a (reflexive)."""
    return _tree_query(d.idom, a, b)


def post_dominates(d: DomInfo, a, b) -> bool:
    """True iff every path b -> exit passes through a (reflexive)."""
    return _tree_query(d.ipdom, a, b)
