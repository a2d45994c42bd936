"""CFG lowering and hold counts, checked against an explicit-state search."""

import itertools
import os
import random

from conftest import full_size_sources, parse_corpus
from monitors_reference import hold_states
from paths_reference import copying_paths, method_runs

from threadlint.cfg import Cfg, build_cfg, fewest, paths
from threadlint.frontend import ast as A
from threadlint.frontend import parse_source


def method_cfg(src: str, method: str = None, class_index: int = 0):
    ast = parse_source(src)
    decl = ast.classes[class_index]
    m = decl.methods[0] if method is None else next(x for x in decl.methods if x.name == method)
    return build_cfg(m)


# --- fewest against the explicit-state search over (node, holds) pairs ---


def digraph(succs, entry, exit_node) -> Cfg:
    return Cfg(list(succs), succs, entry, exit_node)


def random_graph(rng, n):
    """Random digraph where every node is reachable from 0 and reaches n-1."""
    succs = {i: [] for i in range(n)}
    for i in range(1, n):
        succs[rng.randrange(i)].append(i)
    for i in range(n - 1):
        j = rng.randrange(i + 1, n)
        if j not in succs[i]:
            succs[i].append(j)
    extra = rng.randrange(0, 2 * n)
    for _ in range(extra):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and b != 0 and a != n - 1 and b not in succs[a]:
            succs[a].append(b)
    return succs


def random_digraph(rng, n):
    """Random digraph with no guarantee: nodes may be unreachable from 0 or
    unable to reach n-1, and 0 may have predecessors."""
    return {i: [j for j in range(n) if j != i and rng.random() < 0.2] for i in range(n)}


def random_gain(rng, nodes):
    return {v: rng.choice((-2, -1, -1, 0, 1, 1, 2)) for v in nodes if rng.random() < 0.6}


def check_fewest(cfg, gain):
    """``fewest`` gives each node the least count the search brings to it,
    and no count to a node the search never reaches. Returns the nodes with
    no count."""
    counts = fewest(cfg, gain)
    assert counts == {n: min(hs) for n, hs in hold_states(cfg.succs, cfg.entry, gain).items()}, (cfg.succs, gain)
    return set(cfg.nodes) - counts.keys()


def test_fewest_matches_the_explicit_state_search_on_random_digraphs():
    rng = random.Random(20240817)
    unreachable = 0
    seen = set()
    for i in range(200):
        n = rng.randrange(3, 12)
        gain = random_gain(rng, range(n))
        if i % 2:
            cfg = digraph(random_graph(rng, n), 0, n - 1)
            assert check_fewest(cfg, gain) == set()
        else:
            cfg = digraph(random_digraph(rng, n), 0, n - 1)
            unreachable += len(check_fewest(cfg, gain))
        seen.update(fewest(cfg, gain).values())
    assert unreachable  # the sample does hold unreachable nodes
    assert {0, 1, 2, 3} <= seen


ABRUPT = """class P {
  int x; Object l;
  public int early(boolean c) {
    l.lock();
    try {
      if (c) { return 1; }
      x = 2;
      if (x > 3) { throw new RuntimeException(); }
    } finally {
      l.unlock();
    }
    return x;
  }
  public void nested(int n) {
    try {
      try { if (n > 0) { throw new RuntimeException(); } x = 1; } finally { x = 2; }
      return;
    } catch (RuntimeException e) { x = 4; } finally { x = 3; }
  }
  public void spin() { for (;;) { x = x + 1; } }
  public void spinOut() { for (;;) { x = 1; if (x > 2) { return; } } }
  public int dead() { return 1; x = 2; }
  public void deadInTry() { try { throw new RuntimeException(); x = 1; } finally { x = 2; } x = 3; }
}"""


def test_abrupt_exits_and_dead_code_match_brute_force():
    rng = random.Random(11)
    cut = {}
    for m in parse_source(ABRUPT).classes[0].methods:
        cfg = build_cfg(m)
        cut[m.name] = (cfg, check_fewest(cfg, random_gain(rng, cfg.nodes)))
    for name in ("dead", "deadInTry"):  # code after return or throw is unreachable
        cfg, unreachable = cut[name]
        assert any(n.kind == "stmt" for n in unreachable), name
    cfg, unreachable = cut["spin"]  # an endless loop never reaches the exit
    assert unreachable == {cfg.exit}
    assert cut["spinOut"][1] == set()


# --- structured lowering, read through hold counts ---


def test_straight_line_chain():
    cfg = method_cfg(
        """class C {
  int cnt; Object l;
  public void inc() {
    l.lock();
    int temp = cnt;
    temp += 1;
    cnt = temp;
    l.unlock();
  }
}"""
    )
    stmt_nodes = [n for n in cfg.nodes if n.kind == "stmt"]
    assert len(stmt_nodes) == 5
    chain = [cfg.entry] + stmt_nodes + [cfg.exit]
    for a, b in zip(chain, chain[1:]):
        assert cfg.succs[a] == [b]
    # each node adds one, so every path passes every node before and after
    one_each = dict.fromkeys(chain, 1)
    assert fewest(cfg, one_each) == {n: i for i, n in enumerate(chain)}


def test_diamond_branches():
    cfg = method_cfg(
        """class C {
  int a; int b; int c;
  public void f(boolean cond) {
    if (cond) { a = 1; } else { b = 2; }
    c = 3;
  }
}"""
    )
    cond = next(n for n in cfg.nodes if n.kind == "cond")
    then_n = next(n for n in cfg.nodes if n.kind == "stmt" and "a = 1" in _src_of(n))
    else_n = next(n for n in cfg.nodes if n.kind == "stmt" and "b = 2" in _src_of(n))
    join = next(n for n in cfg.nodes if n.kind == "stmt" and "c = 3" in _src_of(n))
    assert fewest(cfg, {cond: 1})[join] == 1
    assert fewest(cfg, {then_n: 1})[join] == 0
    assert fewest(cfg, {else_n: 1})[join] == 0
    assert fewest(cfg, {then_n: 1, else_n: 1})[join] == 1  # every path takes one branch


def test_empty_branches_join_through_one_edge_per_pair():
    """``if (c) {} else {}`` leaves its cond node twice in the frontier, and
    so does ``if (c) {}``; the statement after each gets one edge from it,
    and the paths are the copying walk's, each once."""
    cfg = method_cfg("class C { int x; public void f(boolean c) { if (c) {} else {} if (c) {} x = 1; } }")
    first, second = (n for n in cfg.nodes if n.kind == "cond")
    [join] = (n for n in cfg.nodes if n.kind == "stmt")
    assert cfg.succs[first] == [second] and cfg.succs[second] == [join]
    assert all(len(set(succs)) == len(succs) for succs in cfg.succs.values())
    assert list(paths(cfg)) == list(copying_paths(cfg)) == [[cfg.entry, first, second, join, cfg.exit]]


def _src_of(node):
    from threadlint.frontend.printer import to_source

    return to_source(node.ast) if node.ast is not None else ""


def test_every_node_follows_the_entry_and_leads_to_the_exit():
    cfg = method_cfg(
        "class C { int x; public void f(boolean c) { if (c) { x = 1; } x = 2; } }"
    )
    assert fewest(cfg, {cfg.entry: 1}) == {n: int(n is not cfg.entry) for n in cfg.nodes}
    walked = list(paths(cfg))
    assert all(p[-1] is cfg.exit for p in walked) and {n for p in walked for n in p} == set(cfg.nodes)


SWAP = """class C {
  int v; Object lock;
  public int swap(int nxt) {
    lock.lock();
    try {
      int old = v;
      v = nxt;
      return old;
    } finally {
      lock.unlock();
    }
  }
}"""


def test_try_finally_routes_early_return_through_finally():
    cfg = method_cfg(SWAP)
    ret = next(n for n in cfg.nodes if n.kind == "stmt" and "return old" in _src_of(n))
    fin = next(n for n in cfg.nodes if n.kind == "stmt" and "unlock" in _src_of(n))
    write = next(n for n in cfg.nodes if n.kind == "stmt" and "v = nxt" in _src_of(n))
    assert cfg.succs[ret] == [fin]
    lock_call = next(n for n in cfg.nodes if n.kind == "stmt" and "lock.lock" in _src_of(n))
    held = fewest(cfg, {lock_call: 1, fin: -1})
    assert held[write] == held[ret] == held[fin] == 1 and held[cfg.exit] == 0


def test_a_lock_in_a_try_holds_only_on_normal_completion():
    """ReturnInTry: the early return leaves through its own copy of the
    finally block and never reaches ``count = 1``, so ``next.lock()``
    holds there, and not in the early copy of the finally block."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_probes", "ReturnInTry.java")
    with open(path, encoding="utf-8") as fh:
        m = parse_source(fh.read()).classes[0].methods[0]
    cfg = build_cfg(m)
    next_lock = m.body.stmts[1].body.stmts[1].expr
    count = m.body.stmts[2].expr
    [lock_node] = cfg.nodes_for(next_lock)
    [count_node] = cfg.nodes_for(count)
    held = fewest(cfg, {lock_node: 1})
    assert held[count_node] == 1
    # the finally block is lowered once for each way out of the try
    normal, early = cfg.nodes_for(m.body.stmts[1].finally_block.stmts[0].expr)
    assert (held[normal], held[early]) == (1, 0)


def test_a_lock_in_a_try_holds_in_no_handler():
    """A handler may run in place of the block, when its first step throws,
    so a lock the block takes holds neither in the handler nor after it."""
    m = parse_source(
        """class C {
  int x; Object l;
  public void f() {
    try { l.lockInterruptibly(); x = 1; } catch (InterruptedException e) { x = 2; }
    x = 3;
  }
}"""
    ).classes[0].methods[0]
    cfg = build_cfg(m)
    t = m.body.stmts[0]
    [lock_node] = cfg.nodes_for(t.body.stmts[0].expr)
    stmts = (t.body.stmts[1], t.catches[0].body.stmts[0], m.body.stmts[1])
    body, handler, after = (cfg.nodes_for(s.expr)[0] for s in stmts)
    held = fewest(cfg, {lock_node: 1})
    assert (held[body], held[handler], held[after]) == (1, 0, 0)


def test_loop_body_does_not_dominate_after_loop():
    """A lock in a loop body does not hold after the loop."""
    cfg = method_cfg(
        """class C {
  int x; Object l;
  public void f(int n) {
    int i = 0;
    while (i < n) {
      l.lock();
      x = i;
      l.unlock();
      i = i + 1;
    }
    x = 0;
  }
}"""
    )
    lock_call = next(n for n in cfg.nodes if n.kind == "stmt" and "l.lock" in _src_of(n))
    after = next(n for n in cfg.nodes if n.kind == "stmt" and "x = 0" in _src_of(n))
    write = next(n for n in cfg.nodes if n.kind == "stmt" and "x = i" in _src_of(n))
    head = next(n for n in cfg.nodes if n.kind == "loop")
    held = fewest(cfg, {lock_call: 1})  # never unlocked: the count still settles
    assert held[after] == held[head] == 0 and held[write] == 1
    assert fewest(cfg, {head: 1})[after] == 1


def test_synchronized_block_single_entry_exit():
    cfg = method_cfg(
        """class C {
  int x; Object mu;
  public void f(boolean c) {
    synchronized (mu) {
      if (c) { x = 1; } else { x = 2; }
    }
    x = 3;
  }
}"""
    )
    [enter] = [n for n in cfg.nodes if n.kind == "sync_enter"]
    [leave] = [n for n in cfg.nodes if n.kind == "sync_exit"]
    held = fewest(cfg, {enter: 1, leave: -1})
    inside = [n for n in cfg.nodes if n.kind in ("stmt", "cond") and "x = 3" not in _src_of(n)]
    assert len(inside) == 3 and all(held[n] == 1 for n in inside)
    after = next(n for n in cfg.nodes if n.kind == "stmt" and "x = 3" in _src_of(n))
    assert held[after] == held[cfg.exit] == 0


def test_unreachable_nodes_are_not_dominated():
    """An unreachable node gets no count, and a hold it adds reaches nothing."""
    cfg = method_cfg(
        "class C { int x; public int f() { return 1; x = 2; } }"
    )
    dead = next(n for n in cfg.nodes if n.kind == "stmt" and "x = 2" in _src_of(n))
    assert dead not in fewest(cfg, {cfg.entry: 1})
    assert fewest(cfg, {dead: 1})[cfg.exit] == 0


def test_expressions_map_to_their_statement_node():
    ast = parse_source(
        "class C { int x; Object l; public void f() { l.lock(); x = 1; l.unlock(); } }"
    )
    m = ast.classes[0].methods[0]
    cfg = build_cfg(m)
    stmt = m.body.stmts[1]
    [node] = [n for n in cfg.nodes if n.ast is stmt]
    assert cfg.nodes_for(stmt.expr) == [node]
    assert cfg.nodes_for(stmt.expr.target) == [node]


def nodes_for_by_walk(cfg: Cfg):
    """``Cfg.nodes_for`` as it was before it bisected spans: every
    subexpression of a node's first lowering indexed by identity, the copies
    of a node being the nodes whose first expression is the same."""
    first, copies = {}, {}
    for n in cfg.nodes:
        if n.exprs:
            f = first.get(id(n.exprs[0]))
            if f is None:
                for e in n.exprs:
                    for d in A.walk(e):
                        first[id(d)] = n
            else:
                copies.setdefault(f, [f]).append(n)

    def nodes_for(e):
        f = first.get(id(e))
        return [] if f is None else copies.get(f, [f])

    return nodes_for


def test_nodes_for_agrees_with_the_walk_over_every_expression():
    """Over every expression of every lowered method of the corpus, the
    oracle probes and the three full-size workloads, the span bisect gives
    the nodes the identity walk gives, finally copies and unlowered finally
    blocks included."""
    checked = copied = 0
    for text in full_size_sources():
        for c in parse_source(text).iter_classes():
            for m in c.methods + c.constructors:
                if m.body is None:
                    continue
                cfg = build_cfg(m)
                by_walk = nodes_for_by_walk(cfg)
                for e in A.walk(m.body):
                    if isinstance(e, A.Expr):
                        got = cfg.nodes_for(e)
                        assert got == by_walk(e), (m.name, e)
                        checked += 1
                        copied += len(got) > 1
    assert checked > 50_000 and copied > 0


def test_nodes_for_finds_nothing_in_a_finally_block_never_lowered():
    m = parse_source("class C { int x; void f() { try { for (;;) { x = 1; } } finally { x = 2; } } }").classes[0].methods[0]
    cfg = build_cfg(m)
    write = m.body.stmts[0].finally_block.stmts[0].expr
    assert cfg.nodes_for(write) == cfg.nodes_for(write.target) == nodes_for_by_walk(cfg)(write) == []
    assert len(cfg.nodes_for(m.body.stmts[0].body.stmts[0].body.stmts[0].expr)) == 1


def test_corpus_methods_build_and_exit_reachable(corpus_names):
    rng = random.Random(3)
    for name in corpus_names:
        ast = parse_corpus(name)
        for c in ast.iter_classes():
            for m in c.methods + c.constructors:
                cfg = build_cfg(m)
                assert cfg.exit in fewest(cfg, {})
                check_fewest(cfg, random_gain(rng, cfg.nodes))


# --- paths Java runs, checked against a structural walk of the AST ---

# early exits through nested regions: a return inside a finally, a finally
# that branches or loops, a synchronized block inside a try and around one,
# an empty finally (one with a synchronized block inside), a catch after a try/finally, and loops of each kind
EXITS = """class Q {
  int x; Object m; int[] a;
  public int inFinally(boolean d) {
    try { return 1; } finally { try { if (d) { return 2; } x = 1; } finally { x = 2; } x = 3; }
  }
  public void branchyFinally(boolean c) {
    try { if (c) { return; } x = 1; } finally { if (x > 0) { x = 2; } while (c) { x = 3; } }
    x = 4;
  }
  public int syncInTry() {
    try { synchronized (m) { if (x > 0) { return x; } x = 1; } x = 2; } finally { x = 3; }
    return 0;
  }
  public void tryInSync() {
    synchronized (m) { try { if (x > 0) { throw new RuntimeException(); } } finally { x = 1; } x = 2; }
  }
  public void emptyFinally(boolean c) { try { if (c) { return; } x = 1; } finally { } x = 2; }
  public void syncEmptyFinally() { try { synchronized (m) { if (x > 0) { return; } } } finally { } x = 1; }
  public void caught() {
    try { try { if (x > 0) { return; } } finally { x = 1; } } catch (RuntimeException e) { x = 2; } finally { x = 3; }
  }
  public void loops(int n) {
    for (int i = 0; i < n; i++) { if (i > 2) { return; } x = i; }
    while (x > 0) { synchronized (m) { x = x - 1; } }
    for (int v : a) { x = v; }
    for (;;) { x = 1; if (x > 2) { stop(); return; } }
  }
  void stop() { }
}"""


def _walked(m, limit):
    """Up to ``limit`` paths of the method as cfg.paths gives them, in method_runs's form."""
    cfg = build_cfg(m)
    return [(tuple((n.kind, id(n.ast)) for n in p if n.kind not in ("entry", "exit")), p[-1] is cfg.exit)
            for p in itertools.islice(paths(cfg), limit)]


def _methods():
    sources = [ABRUPT, SWAP, EXITS]
    for d in ("corpus", "oracle_probes"):
        folder = os.path.join(os.path.dirname(os.path.abspath(__file__)), d)
        for name in sorted(os.listdir(folder)):
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                sources.append(fh.read())
    for src in sources:
        for decl in parse_source(src).classes:
            yield from ((decl, m) for m in decl.methods)


def test_paths_match_the_structural_walk():
    checked, too_many = 0, []
    for decl, m in _methods():
        walked = _walked(m, 257)
        if len(walked) > 256:  # the reference enumerates them all
            too_many.append(f"{decl.name}.{m.name}")
            continue
        assert len(set(walked)) == len(walked), m.name
        assert set(walked) == method_runs(m), m.name
        checked += 1
    assert checked >= 40
    assert too_many == ["ManyIfs.set"]  # 2^20 paths


def test_paths_come_in_the_copying_walks_order():
    """The same paths, in the same order, as the walk that copied the path
    and its used edges at every step, on every method of the corpus, the
    oracle probes and the three full-size workloads at seed 1."""
    methods = 0
    for text in full_size_sources():
        for c in parse_source(text).iter_classes():
            for m in c.methods + c.constructors:
                cfg = build_cfg(m)
                assert list(itertools.islice(paths(cfg), 300)) == list(itertools.islice(copying_paths(cfg), 300)), m.name
                methods += 1
    assert methods > 1000


class _CountingSuccs(dict):
    """A CFG's successor map that counts the walk's lookups in it."""

    lookups = 0

    def __getitem__(self, n):
        self.lookups += 1
        return dict.__getitem__(self, n)


def _walk_steps(statements: int) -> int:
    """Lookups and path nodes that walking a straight-line method takes."""
    body = " ".join(f"x = {i};" for i in range(statements))
    cfg = method_cfg(f"class S {{ int x; public void m() {{ {body} }} }}")
    cfg.succs = _CountingSuccs(cfg.succs)
    [path] = paths(cfg)
    return cfg.succs.lookups + len(path)


def test_walking_a_path_grows_linearly_with_its_length():
    # a straight line of n statements is one path of n + 2 nodes
    assert _walk_steps(1000) == 2 * 1002
    assert _walk_steps(2000) == 2 * 2002
