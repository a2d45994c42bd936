"""CFG lowering and dominance, checked against brute-force path enumeration."""

import itertools
import os
import random

from conftest import parse_corpus
from paths_reference import method_runs

from threadlint.cfg import (
    DomInfo,
    build_cfg,
    dominance,
    dominates,
    paths,
    post_dominates,
)
from threadlint.frontend import parse_source


def method_cfg(src: str, method: str = None, class_index: int = 0):
    ast = parse_source(src)
    decl = ast.classes[class_index]
    m = decl.methods[0] if method is None else next(x for x in decl.methods if x.name == method)
    cfg = build_cfg(m)
    return cfg, dominance(cfg)


# --- brute-force oracle over simple paths ---


def all_simple_paths(succs, start, goal):
    paths = []
    stack = [(start, (start,))]
    while stack:
        node, path = stack.pop()
        if node == goal:
            paths.append(path)
            continue
        for nxt in succs.get(node, ()):
            if nxt not in path:
                stack.append((nxt, path + (nxt,)))
    return paths


def brute_dominance(succs, entry, nodes):
    """{(a, b)} where some path entry -> b exists and every one passes a.

    A node no path reaches neither dominates nor is dominated."""
    out = set()
    for b in nodes:
        paths = all_simple_paths(succs, entry, b)
        out |= {(a, b) for a in nodes if paths and all(a in p for p in paths)}
    return out


def reverse_graph(succs, nodes):
    preds = {n: [] for n in nodes}
    for n, outs in succs.items():
        for m in outs:
            preds[m].append(n)
    return preds


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


def check_against_brute_force(succs, entry, exit_node):
    """Every pair of nodes, reachable or not, gets the brute-force answer.
    Returns the nodes unreachable from entry and those that cannot reach exit."""
    nodes = list(succs)
    preds = reverse_graph(succs, nodes)
    info = DomInfo(entry, exit_node, succs, preds)
    dom = brute_dominance(succs, entry, nodes)
    pdom = brute_dominance(preds, exit_node, nodes)
    for a in nodes:
        for b in nodes:
            assert dominates(info, frozenset({a}), [b]) == ((a, b) in dom), (succs, a, b)
            assert post_dominates(info, frozenset({a}), [b]) == ((a, b) in pdom), (succs, a, b)
    return {b for b in nodes if (entry, b) not in dom}, {b for b in nodes if (exit_node, b) not in pdom}


def test_dominance_matches_brute_force_small_sample():
    rng = random.Random(20240817)
    for _ in range(40):
        n = rng.randrange(4, 13)
        assert check_against_brute_force(random_graph(rng, n), 0, n - 1) == (set(), set())
    unreachable = dead_ends = 0
    for _ in range(60):
        n = rng.randrange(3, 11)
        cut_off, stuck = check_against_brute_force(random_digraph(rng, n), 0, n - 1)
        unreachable += len(cut_off)
        dead_ends += len(stuck)
    assert unreachable and dead_ends  # the sample does hold both kinds


def test_set_dominance_matches_brute_force():
    """A set dominates ``b`` when some path reaches ``b`` and every one
    passes some node of the set; post-dominance likewise toward the exit."""
    rng = random.Random(1709)
    sizes = set()
    for _ in range(40):
        n = rng.randrange(3, 11)
        succs = random_graph(rng, n) if rng.random() < 0.5 else random_digraph(rng, n)
        preds = reverse_graph(succs, range(n))
        info = DomInfo(0, n - 1, succs, preds)
        for _ in range(5):
            a = frozenset(rng.sample(range(n), rng.randrange(0, 4)))
            sizes.add(len(a))
            for b in range(n):
                for root, edges, asked in ((0, succs, dominates), (n - 1, preds, post_dominates)):
                    runs = all_simple_paths(edges, root, b)
                    assert asked(info, a, [b]) == (bool(runs) and all(a & set(p) for p in runs)), (succs, a, b)
    assert sizes == {0, 1, 2, 3}


def test_duality_dominators_of_reverse_equal_postdominators():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(4, 13)
        succs = random_graph(rng, n) if rng.random() < 0.5 else random_digraph(rng, n)
        preds = reverse_graph(succs, range(n))
        info = DomInfo(0, n - 1, succs, preds)
        flipped = DomInfo(n - 1, 0, preds, succs)
        for a in range(n):
            for b in range(n):
                assert post_dominates(info, frozenset({a}), [b]) == dominates(flipped, frozenset({a}), [b])


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
    cut = {}
    for m in parse_source(ABRUPT).classes[0].methods:
        cfg = build_cfg(m)
        cut[m.name] = (cfg, *check_against_brute_force(cfg.succs, cfg.entry, cfg.exit))
    for name in ("dead", "deadInTry"):  # code after return or throw is unreachable
        cfg, unreachable, _ = cut[name]
        assert any(n.kind == "stmt" for n in unreachable), name
    cfg, unreachable, stuck = cut["spin"]  # nothing in an endless loop reaches the exit
    assert unreachable == {cfg.exit} and stuck == set(cfg.nodes) - {cfg.exit}
    assert cut["spinOut"][1:] == (set(), set())


# --- structured lowering ---


def test_straight_line_chain():
    cfg, dom = method_cfg(
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
    for i, a in enumerate(chain):
        for b in chain[i:]:
            assert dominates(dom, frozenset({a}), [b])
            assert post_dominates(dom, frozenset({b}), [a])


def test_diamond_dominance():
    cfg, dom = method_cfg(
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
    assert dominates(dom, frozenset({cond}), [join])
    assert not dominates(dom, frozenset({then_n}), [join])
    assert not dominates(dom, frozenset({else_n}), [join])
    assert post_dominates(dom, frozenset({join}), [cond])
    assert not post_dominates(dom, frozenset({then_n}), [cond])


def _src_of(node):
    from threadlint.frontend.printer import to_source

    return to_source(node.ast) if node.ast is not None else ""


def test_entry_dominates_every_reachable_node():
    cfg, dom = method_cfg(
        "class C { int x; public void f(boolean c) { if (c) { x = 1; } x = 2; } }"
    )
    for n in cfg.nodes:
        assert dominates(dom, frozenset({cfg.entry}), [n])
        assert dominates(dom, frozenset({n}), [n])  # reflexive
        assert post_dominates(dom, frozenset({cfg.exit}), [n])


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
    cfg, dom = method_cfg(SWAP)
    ret = next(n for n in cfg.nodes if n.kind == "stmt" and "return old" in _src_of(n))
    fin = next(n for n in cfg.nodes if n.kind == "stmt" and "unlock" in _src_of(n))
    write = next(n for n in cfg.nodes if n.kind == "stmt" and "v = nxt" in _src_of(n))
    assert cfg.succs[ret] == [fin]
    assert post_dominates(dom, frozenset({fin}), [ret])
    assert post_dominates(dom, frozenset({fin}), [write])
    lock_call = next(n for n in cfg.nodes if n.kind == "stmt" and "lock.lock" in _src_of(n))
    assert dominates(dom, frozenset({lock_call}), [write])


def test_a_lock_in_a_try_dominates_what_only_normal_completion_reaches():
    """ReturnInTry: the early return leaves through its own copy of the
    finally block and never reaches ``count = 1``, so ``next.lock()``
    dominates it."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_probes", "ReturnInTry.java")
    with open(path, encoding="utf-8") as fh:
        m = parse_source(fh.read()).classes[0].methods[0]
    cfg = build_cfg(m)
    dom = dominance(cfg)
    next_lock = m.body.stmts[1].body.stmts[1].expr
    count = m.body.stmts[2].expr
    [lock_node] = cfg.nodes_for(next_lock)
    [count_node] = cfg.nodes_for(count)
    assert dominates(dom, frozenset({lock_node}), [count_node])
    # the finally block is lowered once for each way out of the try
    assert len(cfg.nodes_for(m.body.stmts[1].finally_block.stmts[0].expr)) == 2


def test_loop_body_does_not_dominate_after_loop():
    cfg, dom = method_cfg(
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
    assert not dominates(dom, frozenset({lock_call}), [after])
    head = next(n for n in cfg.nodes if n.kind == "loop")
    assert dominates(dom, frozenset({head}), [after])


def test_synchronized_block_single_entry_exit():
    cfg, dom = method_cfg(
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
    enter = next(n for n in cfg.nodes if n.kind == "sync_enter")
    leave = next(n for n in cfg.nodes if n.kind == "sync_exit")
    for n in cfg.nodes:
        if n.kind in ("stmt", "cond") and n is not enter:
            if dominates(dom, frozenset({enter}), [n]) and post_dominates(dom, frozenset({leave}), [n]):
                continue
    writes = [n for n in cfg.nodes if n.kind == "stmt" and "x = 1" in _src_of(n)]
    assert writes and dominates(dom, frozenset({enter}), [writes[0]])
    assert post_dominates(dom, frozenset({leave}), [writes[0]])


def test_unreachable_nodes_are_not_dominated():
    cfg, dom = method_cfg(
        "class C { int x; public int f() { return 1; x = 2; } }"
    )
    dead = next(n for n in cfg.nodes if n.kind == "stmt" and "x = 2" in _src_of(n))
    assert not dominates(dom, frozenset({cfg.entry}), [dead])
    assert not dominates(dom, frozenset({dead}), [cfg.exit])


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


def test_corpus_methods_build_and_exit_reachable(corpus_names):
    for name in corpus_names:
        ast = parse_corpus(name)
        for c in ast.iter_classes():
            for m in c.methods + c.constructors:
                cfg = build_cfg(m)
                dom = dominance(cfg)
                assert dominates(dom, frozenset({cfg.entry}), [cfg.exit])
                assert post_dominates(dom, frozenset({cfg.exit}), [cfg.entry])
                check_against_brute_force(cfg.succs, cfg.entry, cfg.exit)


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
