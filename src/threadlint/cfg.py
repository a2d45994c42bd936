"""Intra-method control-flow graphs, their paths and dominance queries.

Structured statements are lowered to edges over per-statement nodes; every
expression maps (via ``Cfg.node_of``) to the node that evaluates it.
``try``/``finally`` is normalized so that every exit path of the protected
block — normal completion or an early return/throw — passes through the
finally block. The finally region is shared, not duplicated, which
over-approximates paths but keeps dominance sound for lock-scope queries.
A ``catch`` handler is reached once the whole protected block completes.
So that :func:`paths` follows only the paths Java runs, ``Cfg.exits`` keeps
apart where an early exit goes on: through each enclosing finally block, and
out of each synchronized block through its exit node.

Dominance is answered from its definition, on demand: a node dominates
another when removing it cuts the other off from the entry, and
post-dominance is the same question asked from the exit. One depth-first
search serves both directions, and only the nodes a query asks about get one.

Graphs are built on demand too: the monitor analysis asks for a method's CFG
only when the method holds both a lock call and an unlock call on one lock
field, the only place a lock window can exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Optional

from threadlint.frontend import ast as A


@dataclass(eq=False)
class CfgNode:
    index: int
    kind: str  # entry | exit | stmt | cond | loop | sync_enter | sync_exit | update
    ast: Optional[object] = None
    exprs: list = field(default_factory=list)  # the expressions it evaluates, in order

    def __repr__(self):
        return f"<cfg {self.index}:{self.kind}>"


@dataclass(eq=False)
class Cfg:
    nodes: list[CfgNode]
    succs: dict[CfgNode, list[CfgNode]]
    preds: dict[CfgNode, list[CfgNode]]
    entry: CfgNode
    exit: CfgNode
    node_of: dict[int, CfgNode]  # id(ast node) -> cfg node
    # a node an early exit leaves -> (where it goes on, and the region it enters
    # there: the region's last nodes and the index span of its nodes)
    exits: dict[CfgNode, tuple[list[CfgNode], tuple[frozenset, range]]]
    early_only: set[tuple[CfgNode, CfgNode]]  # edges of ``succs`` only an early exit takes

    def node_for(self, ast_node) -> Optional[CfgNode]:
        return self.node_of.get(id(ast_node))


class _Builder:
    def __init__(self):
        self.nodes: list[CfgNode] = []
        self.succs: dict[CfgNode, list[CfgNode]] = {}
        self.preds: dict[CfgNode, list[CfgNode]] = {}
        self.node_of: dict[int, CfgNode] = {}
        # exit_carriers[-1] collects (node, last): ``node`` continues at the innermost enclosing
        # finally block (or the method exit at level 0), its early exit last passed ``last``
        self.exit_carriers: list[list[tuple[CfgNode, CfgNode]]] = [[]]
        self.exits, self.early_only = {}, set()
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
        """Associate ``root`` and all its descendants with the cfg node that
        evaluates ``root`` (a statement's children, for a statement)."""
        node.exprs += A.children(root) if isinstance(root, A.Stmt) else [root]
        for n in A.walk(root):
            self.node_of[id(n)] = node

    def route(self, carried, targets: list[CfgNode], normal: list[CfgNode], region) -> None:
        """The early exits of ``carried`` go on at ``targets``, into ``region``;
        their edges there from nodes not in ``normal`` are early only."""
        for node, last in carried:
            self.exits[last] = (targets, region)
            if node not in normal:
                self.early_only.update((node, t) for t in targets if t in self.succs[node])

    # -- lowering --

    def lower_stmt(self, s: A.Stmt, preds: list[CfgNode]) -> list[CfgNode]:
        if isinstance(s, A.Block):
            self.node_of[id(s)] = preds[0] if preds else self.entry
            frontier = preds
            for inner in s.stmts:
                frontier = self.lower_stmt(inner, frontier)
            return frontier

        if isinstance(s, (A.LocalDecl, A.ExprStmt, A.Empty, A.Return, A.Throw)):
            n = self.new_node("stmt", s)
            self.connect(preds, n)
            self.map_tree(s, n)
            if isinstance(s, (A.Return, A.Throw)):
                self.exit_carriers[-1].append((n, n))
                return []
            return [n]

        if isinstance(s, A.If):
            cond = self.new_node("cond", s)
            self.connect(preds, cond)
            self.node_of[id(s)] = cond
            self.map_tree(s.cond, cond)
            then_f = self.lower_stmt(s.then, [cond])
            return then_f + (self.lower_stmt(s.els, [cond]) if s.els is not None else [cond])

        if isinstance(s, (A.While, A.For, A.ForEach)):
            is_for = isinstance(s, A.For)
            if is_for and s.init is not None:
                preds = self.lower_stmt(s.init, preds)
            head = self.new_node("loop", s)
            self.connect(preds, head)
            self.node_of[id(s)] = head
            cond = s.iterable if isinstance(s, A.ForEach) else s.cond
            if cond is not None:
                self.map_tree(cond, head)
            body_f = self.lower_stmt(s.body, [head])
            if is_for and s.update:
                upd = self.new_node("update", s)
                self.connect(body_f, upd)
                for e in s.update:
                    self.map_tree(e, upd)
                body_f = [upd]
            self.connect(body_f, head)  # back edge
            # `for (;;)` never exits normally
            return [head] if cond is not None else []

        if isinstance(s, A.Sync):
            enter = self.new_node("sync_enter", s)
            self.connect(preds, enter)
            self.node_of[id(s)] = enter
            self.map_tree(s.monitor, enter)
            self.exit_carriers.append([])
            body_f = self.lower_stmt(s.body, [enter])
            leave = self.new_node("sync_exit", s)
            self.connect(body_f, leave)
            # early exits leave through ``leave``; in ``succs`` they go on as they were
            carried = self.exit_carriers.pop()
            self.route(carried, [leave], body_f, (frozenset([leave]), range(leave.index, leave.index + 1)))
            self.exit_carriers[-1] += [(node, leave) for node, _ in carried]
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
            fin_preds = frontiers + [node for node, _ in carried]
            if not fin_preds:
                return []
            first = len(self.nodes)
            fin_f = self.lower_stmt(s.finally_block, fin_preds)
            if carried:
                # early exits run the finally, then continue toward the next
                # enclosing finally or the method exit; an empty one they pass
                passing = [(f, f) for f in frontiers] + carried
                if first < len(self.nodes):
                    region = (frozenset(fin_f), range(first, len(self.nodes)))
                    self.route(carried, self.nodes[first:first + 1], frontiers, region)
                    passing = [(f, f) for f in fin_f]
                self.exit_carriers[-1] += passing
            return fin_f if frontiers else []

        raise TypeError(f"unhandled statement {type(s).__name__}")

    def finish(self, frontier: list[CfgNode]) -> Cfg:
        # the exit node exists even when every path loops forever
        exit_node = self.new_node("exit")
        self.connect(frontier, exit_node)
        self.connect([node for node, _ in self.exit_carriers[0]], exit_node)
        self.route(self.exit_carriers[0], [exit_node], frontier, (frozenset(), range(0)))
        return Cfg(self.nodes, self.succs, self.preds, self.entry, exit_node,
                   self.node_of, self.exits, self.early_only)


def build_cfg(m: A.MethodDecl) -> Cfg:
    """Lower one callable body to a control-flow graph with unique entry/exit."""
    b = _Builder()
    frontier = [b.entry]
    if m.body is not None:
        for s in m.body.stmts:
            frontier = b.lower_stmt(s, frontier)
    return b.finish(frontier)


def paths(cfg: Cfg) -> Iterator[list[CfgNode]]:
    """The entry-to-exit paths of ``cfg`` that Java runs, depth first.

    Each edge is taken at most once, so a loop body runs zero or one times.
    A return or throw pushes a pending exit. In the region it enters, the path
    goes on by normal edges inside the region and, from the region's last
    nodes, where the exit goes on (``Cfg.exits``). Regions nest, so pending
    exits form a stack. A path that cannot go on (``for (;;)``) ends there.
    """
    todo = [([cfg.entry], frozenset(), ())]
    while todo:
        path, used, pending = todo.pop()
        n = path[-1]
        moves = [(s, pending) for s in cfg.succs[n] if (n, s) not in cfg.early_only]
        if isinstance(n.ast, (A.Return, A.Throw)):
            targets, region = cfg.exits[n]
            moves = [(t, pending + (region,)) for t in targets]
        elif pending and n in pending[-1][0]:
            targets, region = cfg.exits[n]
            moves = [m for m in moves if m[0].index in pending[-1][1]] + [(t, pending[:-1] + (region,)) for t in targets]
        moves = [m for m in moves if (n, m[0]) not in used]
        if not moves:
            yield path
        for s, p in reversed(moves):
            todo.append((path + [s], used | {(n, s)}, p))


# --- dominance --------------------------------------------------------------


def _reach(root, edges, avoid=None) -> set:
    """The nodes reachable from ``root`` over ``edges`` without entering ``avoid``."""
    seen = {root}
    stack = [root]
    while stack:
        for nxt in edges[stack.pop()]:
            if nxt not in seen and nxt != avoid:
                seen.add(nxt)
                stack.append(nxt)
    return seen


class DomInfo:
    """Dominance over one digraph, from its definition, computed on first need.

    ``a`` dominates ``b`` when ``b`` is reachable from ``entry`` but not once
    ``a`` is removed; post-dominance asks the same from ``exit`` over
    ``preds``. The set each asked-about node dominates is kept.
    """

    def __init__(self, entry, exit_node, succs, preds):
        self.entry = entry
        self.exit = exit_node
        self.succs = succs
        self.preds = preds
        self._dominated: dict[tuple[bool, Hashable], set] = {}

    def dominated(self, a, post: bool = False) -> set:
        """The nodes ``a`` dominates, or post-dominates when ``post``: empty
        when ``a`` itself is not reachable from the root."""
        got = self._dominated.get((post, a))
        if got is None:
            root, edges = (self.exit, self.preds) if post else (self.entry, self.succs)
            if a == root:
                got = _reach(root, edges)
            else:
                got = self.dominated(root, post) - _reach(root, edges, avoid=a)
            self._dominated[(post, a)] = got
        return got


def dominance(cfg: Cfg) -> DomInfo:
    return DomInfo(cfg.entry, cfg.exit, cfg.succs, cfg.preds)


def dominates(d: DomInfo, a, b) -> bool:
    """True iff every path entry -> b passes through a (reflexive)."""
    return b in d.dominated(a)


def post_dominates(d: DomInfo, a, b) -> bool:
    """True iff every path b -> exit passes through a (reflexive)."""
    return b in d.dominated(a, post=True)
