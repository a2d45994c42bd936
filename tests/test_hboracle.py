"""Happens-before oracle: litmus programs per HB rule, the sync-order search
and the race check against the references, driver lowering, and the trace
format."""

import os
import time

import pytest
from hb_reference import (
    check_every_driver,
    interleavings,
    reference_raced,
    reference_races,
    search_sync_orders,
    trace_actions,
)
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import full_size_sources, model_from_source
from test_accesspaths import thread_safe_classes
from test_raceanalysis import synchronized_classes

from threadlint import cli
from threadlint.classmodel import build_class_model
from threadlint.config import build_config
from threadlint.errors import BudgetExceeded, MalformedExecution, UnsupportedForOracle
from threadlint.frontend import SourceFile, annotated_as_thread_safe, parse_compilation_unit
from threadlint.frontend import ast as A
from threadlint.hboracle import (
    Execution,
    Op,
    ThreadProgram,
    TraceAction,
    check_class,
    detect_races,
    format_trace,
    parse_trace,
    program_races,
    two_thread_drivers,
)
from threadlint.hboracle import driver, model
from threadlint.raceanalysis import analyze_class

R, W, VR, VW = Op.READ, Op.WRITE, Op.VOLATILE_READ, Op.VOLATILE_WRITE
L, U, DI, FI, LOC = Op.LOCK, Op.UNLOCK, Op.DEFAULT_INIT, Op.FINAL_INIT, Op.LOCAL


def sequential(p: ThreadProgram) -> Execution:
    """Init, then each worker to completion in thread order."""
    return Execution(tuple(a for t in trace_actions(p) for a in t))


def race_fields(races) -> set:
    return {a.target for a, _ in races}


# Each litmus case is (rule, program with the edge, program without it). The
# programs differ only in the action that creates the edge.
LITMUS = [
    (
        # main-thread program order carries a plain write into the init edge
        "HB1 program order",
        ThreadProgram.build([[(R, "x")], [(R, "x")]], init=[(W, "x"), (DI, "y")]),
        ThreadProgram.build([[(R, "x")], [(R, "x")]], init=[(DI, "y"), (W, "x")]),
    ),
    (
        "HB2 unlock->lock",
        ThreadProgram.build(
            [[(L, "m"), (W, "x"), (U, "m")], [(L, "m"), (W, "x"), (U, "m")]], init=[(DI, "x")]
        ),
        ThreadProgram.build(
            [[(L, "m"), (W, "x"), (U, "m")], [(L, "n"), (W, "x"), (U, "n")]], init=[(DI, "x")]
        ),
    ),
    (
        "HB3 volatile write->read",
        ThreadProgram.build([[(VR, "v"), (R, "x")], [(VR, "v"), (R, "x")]], init=[(W, "x"), (VW, "v")]),
        ThreadProgram.build([[(VR, "w"), (R, "x")], [(VR, "w"), (R, "x")]], init=[(W, "x"), (VW, "v")]),
    ),
    (
        # the edge reaches the worker's first action; program order does the rest
        "HB4 default init",
        ThreadProgram.build([[(LOC, None), (R, "x")], [(R, "x")]], init=[(DI, "x")]),
        ThreadProgram.build([[(LOC, None), (R, "x")], [(R, "x")]], init=[(W, "x")]),
    ),
    (
        "HB5 final init",
        ThreadProgram.build([[(R, "x")], [(LOC, None), (R, "x")]], init=[(FI, "x")]),
        ThreadProgram.build([[(R, "x")], [(LOC, None), (R, "x")]], init=[(W, "x")]),
    ),
]
LITMUS_IDS = [case[0] for case in LITMUS]


@pytest.mark.parametrize("rule,with_edge,without_edge", LITMUS, ids=LITMUS_IDS)
def test_litmus_race_free_with_the_edge(rule, with_edge, without_edge):
    report = program_races(with_edge)
    assert not report.raced and report.witness is None
    assert report.executions >= 1
    assert detect_races(sequential(with_edge)) == set()


@pytest.mark.parametrize("rule,with_edge,without_edge", LITMUS, ids=LITMUS_IDS)
def test_litmus_racy_without_the_edge(rule, with_edge, without_edge):
    report = program_races(without_edge)
    assert report.raced
    races = detect_races(report.witness)
    assert race_fields(races) == {"x"}
    assert detect_races(parse_trace(format_trace(report.witness))) == races


def test_lock_order_inversion_deadlocks_without_racing():
    p = ThreadProgram.build(
        [
            [(L, "a"), (L, "b"), (W, "x"), (U, "b"), (U, "a")],
            [(L, "b"), (L, "a"), (W, "x"), (U, "a"), (U, "b")],
        ],
        init=[(DI, "x")],
    )
    runs = list(interleavings(p))
    assert any(len(e.actions) < p.action_count() for e in runs)
    report = program_races(p)
    assert not report.raced
    # one leaf per sync order, never more than there are interleavings
    assert 1 < report.executions <= len(runs)


DEADLOCK_ONLY_RACE = ThreadProgram.build(
    [
        [(L, "a"), (W, "x"), (L, "b"), (U, "b"), (U, "a")],
        [(L, "b"), (W, "x"), (L, "a"), (U, "a"), (U, "b")],
    ],
    init=[(DI, "x")],
)


def test_race_seen_only_in_a_deadlocked_execution():
    p = DEADLOCK_ONLY_RACE
    complete = [e for e in interleavings(p) if len(e.actions) == p.action_count()]
    assert complete and not any(detect_races(e) for e in complete)
    report = program_races(p)
    assert report.raced
    assert len(report.witness.actions) < p.action_count()
    assert race_fields(detect_races(report.witness)) == {"x"}


def test_witness_is_the_same_on_every_call():
    _, _, racy = LITMUS[1]
    first = program_races(racy)
    for _ in range(3):
        again = program_races(racy)
        assert again.witness == first.witness
        assert again.executions == first.executions
    rebuilt = ThreadProgram(racy.init_actions, racy.threads)
    assert program_races(rebuilt).witness == first.witness


def test_witness_keeps_the_init_prefix_and_program_order():
    _, _, racy = LITMUS[1]
    w = program_races(racy).witness
    init, *threads = trace_actions(racy)
    assert w.actions[: len(init)] == init
    for t, actions in enumerate(threads, start=1):
        assert tuple(a for a in w.actions if a.thread == t) == actions


def test_budget_counts_init_and_worker_actions():
    p = ThreadProgram.build([[(R, "x")] * 8, [(R, "x")] * 8], init=[(DI, "x")])
    with pytest.raises(BudgetExceeded) as exc:
        program_races(p)
    assert str(exc.value) == "program has 17 actions; the oracle explores at most 16"
    assert not program_races(p, action_budget=17).raced


def test_search_has_no_action_cap():
    p = ThreadProgram.build([[(W, "x")] + [(R, "x")] * 40, [(R, "x")] * 40], init=[(DI, "x")])
    report = program_races(p, action_budget=100)
    assert report.raced and report.executions == 1


LOWERED = """@ThreadSafe class Low {
  private int x; private volatile int v; private final Object mu = new Object();
  private void bump() { x = x + 1; }
  public void a() { bump(); v = 1; }
  public synchronized void b() { bump(); }
  public int c() { synchronized (mu) { return x + v; } }
}"""


def test_each_public_method_is_lowered_once(monkeypatch):
    """Every method, public or a callee, is lowered once, after its callees,
    however many callers inline it."""
    cm = model_from_source(LOWERED)
    public = [m for m in cm.decl.methods if m.is_public]
    lowered = []
    lower = driver._DriverBuilder._lower_method

    def counted(self, m):
        lowered.append(m.name)
        return lower(self, m)

    monkeypatch.setattr(driver._DriverBuilder, "_lower_method", counted)
    drivers = list(two_thread_drivers(cm))
    assert lowered == ["bump", "a", "b", "c"]
    # each program is the one built from its own pair of methods, whose
    # straight-line bodies have one action list each
    pairs = [(m1, m2) for i, m1 in enumerate(public) for m2 in public[i:]]
    assert len(drivers) == len(pairs) == 6
    for d, (m1, m2) in zip(drivers, pairs):
        b = driver._DriverBuilder(cm)
        [actions1], [actions2] = b.method_actions(m1), b.method_actions(m2)
        assert d == ThreadProgram.build([actions1, actions2], b.init_actions(), f"Low:{m1.name}|{m2.name}")


QUIET = """@ThreadSafe class Quiet {
  private int x; private java.util.concurrent.ConcurrentHashMap<String, Integer> m = null;
  public void a(int p) { int y = p + 1; y = y * 2; helper(y); peer(p).go(y); m.put("k", y); ; return; }
  public int b() { int z = 0; x = x + 1; return z; }
}"""


def test_lowering_emits_only_field_and_monitor_actions():
    cm = model_from_source(QUIET)
    b = driver._DriverBuilder(cm)
    ma, mb = cm.decl.methods
    # locals, unresolved calls and an allowlisted field add nothing
    assert b.method_actions(ma) == [()]
    assert b.method_actions(mb) == [((R, "x"), (W, "x"))]
    for d in list(two_thread_drivers(cm)) + list(two_thread_drivers(model_from_source(LOWERED))):
        assert all(op is not LOC for t in d.threads for op, _ in t)


BUSY = """@ThreadSafe class Busy {
  private int n;
  public synchronized void inc() { int a = 1; int b = a + 1; int c = b + 1; int d = c + 1; int e = d + 1; n = n + 1; }
  public synchronized int get() { return n; }
}"""


def test_statements_that_touch_no_field_cost_no_budget():
    # inc|inc is 1 + 4 + 4 actions; five local actions per thread would make it 19
    verdict = check_class(model_from_source(BUSY))
    assert (verdict.status, verdict.raced, verdict.drivers_checked) == ("checked", False, 3)


def test_drivers_are_built_as_they_are_explored(monkeypatch):
    # a|a has 2 x 9 worker actions, over the 16-action budget, and is the first pair
    cm = model_from_source("@ThreadSafe class Big { private int n; "
                           "public void a() { n = 1; n = 2; n = 3; n = 4; n = 5; n = 6; n = 7; n = 8; n = 9; } "
                           "public synchronized void b() { n = 0; } public synchronized int c() { return n; } }")
    pairs = []
    make = ThreadProgram.of_checked

    def counted(cls, init_actions, threads, accesses, name=""):
        pairs.append(name)
        return make(init_actions, threads, accesses, name)

    monkeypatch.setattr(ThreadProgram, "of_checked", classmethod(counted))
    verdict = check_class(cm)
    assert (verdict.status, verdict.drivers_checked) == ("budget-exceeded", 0)
    assert pairs == ["Big:a|a"]


PEER = """@ThreadSafe class Peer { private int n; private Peer peer = null;
  public void a() { peer.n = 1; }
  public synchronized void b() { peer = null; }
}"""


def test_a_write_to_another_objects_field_reads_the_receiver():
    verdict = check_class(model_from_source(PEER))
    assert (verdict.status, verdict.raced) == ("checked", True)


@pytest.mark.parametrize("write,actions", [
    ("peer.n = n;", [(R, "peer"), (R, "n")]),
    ("arr[n][peer.n] = 1;", [(R, "n"), (R, "peer"), (W, "arr")]),
], ids=["receiver", "indices"])
def test_a_write_evaluates_its_target_in_javas_order(write, actions):
    cm = model_from_source("@ThreadSafe class Ord { private int n; private Ord peer = null; "
                           f"private int[][] arr = null; public void a() {{ {write} }} }}")
    assert driver._DriverBuilder(cm).method_actions(cm.decl.methods[0]) == [tuple(actions)]


@pytest.mark.parametrize("body,actions", [
    ("synchronized (m) { x = 1; }", [(R, "m"), (L, "this.m"), (W, "x"), (U, "this.m")]),
    ("l.lock(); x = 1; this.l.unlock();", [(R, "l"), (L, "lock:this.l"), (W, "x"), (R, "l"), (U, "lock:this.l")]),
    ("k.lock(); k.unlock();", [(L, "lock:this.k"), (U, "lock:this.k")]),
], ids=["monitor", "lock", "allowlisted-lock"])
def test_a_monitor_reference_is_read_before_it_is_locked(body, actions):
    cm = model_from_source("@ThreadSafe class Ref { private Object m = null; private MyLock l = null; "
                           "private final java.util.concurrent.locks.ReentrantLock k = null; private int x; "
                           f"public void a() {{ {body} }} }}")
    b = driver._DriverBuilder(cm, lock_types=("MyLock", "ReentrantLock"))
    assert b.method_actions(cm.decl.methods[0]) == [tuple(actions)]


@pytest.mark.parametrize("methods,name", [
    ("public void open() { l.lock(); } public void close() { l.unlock(); }", "close"),
    ("public void inc() { l.lock(); x++; l.unlock(); l.unlock(); }", "inc"),
    ("public void w() { x = 1; } public void close() { l.unlock(); }", "close"),
], ids=["unlock-only", "unlock-twice", "after-a-racy-pair"])
def test_a_method_that_unlocks_a_lock_it_does_not_hold_is_unsupported(methods, name):
    cm = model_from_source("@ThreadSafe class Bal { private final java.util.concurrent.locks.Lock l = null; "
                           f"private int x; {methods} }}")
    with pytest.raises(UnsupportedForOracle):
        two_thread_drivers(cm)
    verdict = check_class(cm)
    assert verdict.status == "unsupported"
    assert verdict.detail == f"Bal.{name} unlocks 'lock:this.l' without holding it; not oracle-supported"


CHAIN = """@ThreadSafe class Chain { private final Object mu = new Object(); private int x;
  public void a() { Object a = mu; Object b = a; synchronized (b) { x = x + 1; } }
  public void b() { synchronized (mu) { x = x + 1; } }
}"""


def test_an_alias_of_an_alias_is_the_fields_monitor():
    cm = model_from_source(CHAIN)
    assert analyze_class(cm) == []
    verdict = check_class(cm)
    assert (verdict.status, verdict.raced) == ("checked", False)


def test_a_kind_the_driver_does_not_list_makes_the_class_unsupported(monkeypatch):
    class Opaque(A.Expr):  # a kind with children that no line of the driver decides on
        __slots__ = ("inner",)

        def __init__(self, span, inner):
            self.span = span
            self.inner = inner

    monkeypatch.setitem(A._CHILDREN, Opaque, lambda n: [n.inner])
    cm = model_from_source("@ThreadSafe class G { private int n; public int get() { return n; } }")
    ret = cm.decl.methods[0].body.stmts[0]
    ret.value = Opaque(ret.value.span, ret.value)
    verdict = check_class(cm)
    assert (verdict.status, verdict.detail) == ("unsupported", "G: unsupported expression Opaque")


def test_an_if_in_a_callees_synchronized_block_is_checked():
    cm = model_from_source("""@ThreadSafe class Nested { private int x;
  private void reset() { synchronized (this) { if (x > 0) { x = 0; } } }
  public void a() { reset(); }
}""")
    # the caller takes both of the callee's paths
    assert driver._DriverBuilder(cm).method_actions(cm.decl.methods[1]) == [
        ((L, "this"), (R, "x"), (W, "x"), (U, "this")), ((L, "this"), (R, "x"), (U, "this"))]
    verdict = check_class(cm)
    assert (verdict.status, verdict.raced, verdict.drivers_checked) == ("checked", False, 3)


def test_a_method_over_the_path_cap_stops_at_the_cap(monkeypatch):
    ifs = " ".join(f"if (n > {i}) {{ x = {i}; }}" for i in range(20))
    cm = model_from_source(f"@ThreadSafe class Many {{ private int x; public void set(int n) {{ {ifs} }} }}")
    pulled = []

    def counted(cfg):
        for p in walk(cfg):
            pulled.append(p)
            yield p

    walk = driver.paths
    monkeypatch.setattr(driver, "paths", counted)
    verdict = check_class(cm)
    assert (verdict.status, verdict.detail) == (
        "budget-exceeded", f"Many.set has more than {driver.PATH_CAP} paths; the oracle walks at most {driver.PATH_CAP}")
    assert len(pulled) == driver.PATH_CAP + 1  # of 2^20


MALFORMED = {
    "missing target": (lambda: ThreadProgram.build([[(R, None)]]), "read action requires a target"),
    "missing target in an execution": (lambda: Execution((TraceAction(1, W, None, 0),)), "write action requires a target"),
    "default-init on a worker": (lambda: ThreadProgram.build([[(DI, "x")], [(R, "x")]]), "main thread"),
    "final-init on a worker": (lambda: ThreadProgram.build([[(R, "x")], [(FI, "x")]]), "main thread"),
    "default-init on a worker in an execution": (
        lambda: Execution((TraceAction(0, DI, "x", 0), TraceAction(1, DI, "y", 0))),
        "default-init must run on the main thread (0)",
    ),
    "unlock without lock in a worker": (
        lambda: ThreadProgram.build([[(R, "x")], [(L, "m"), (U, "m"), (U, "m")]]),
        "thread 2 unlocks 'm'",
    ),
    "unlock without lock in the init actions": (
        lambda: ThreadProgram.build([[(R, "x")]], init=[(U, "m")]),
        "thread 0 unlocks 'm'",
    ),
    # the search runs the init actions as a prefix after which no monitor is held
    "init actions that end holding a monitor": (
        lambda: ThreadProgram.build([[(L, "a"), (W, "x"), (U, "a")]], init=[(L, "a"), (W, "x")]),
        "thread 0 ends holding 'a'",
    ),
    # a program numbers its actions by position; an execution lists its own
    "worker seq not increasing": (
        lambda: Execution((TraceAction(1, R, "x", 1), TraceAction(1, W, "x", 1))),
        "thread 1 runs seq 1 after 1",
    ),
}


@pytest.mark.parametrize("build,fragment", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_programs_are_rejected(build, fragment):
    with pytest.raises(MalformedExecution) as exc:
        build()
    assert fragment in str(exc.value)


# --- parity with the reference enumerator ---

FIELDS = ("x", "y")
MONITORS = ("a", "b")
VOLATILES = ("v", "u")  # accesses of different volatile fields commute
PLAIN_OPS = [(op, f) for op in (R, W) for f in FIELDS] + [(op, v) for op in (VR, VW) for v in VOLATILES] + [(LOC, None)]


@st.composite
def thread_bodies(draw, max_len):
    """A body of plain actions and lock blocks, nested at most two deep.

    A body is cut to ``max_len``; cutting only a suffix keeps every unlock
    after its lock, and a lock left held at thread end is allowed.
    """

    def block(depth):
        out = []
        for _ in range(draw(st.integers(0, 3 if depth == 0 else 2))):
            if depth < 2 and draw(st.booleans()):
                m = draw(st.sampled_from(MONITORS))
                out += [(L, m)] + block(depth + 1) + [(U, m)]
            else:
                out.append(draw(st.sampled_from(PLAIN_OPS)))
        return out

    return block(0)[:max_len]


@st.composite
def programs(draw):
    k = draw(st.sampled_from([2, 3]))
    max_total = 12 if k == 2 else 10
    bodies = []
    for _ in range(k):
        bodies.append(draw(thread_bodies(max_len=max_total - sum(len(b) for b in bodies))))
    # init parts, shuffled whole: a lock block keeps its unlock, so the init
    # actions end holding no monitor
    init = []
    for f in FIELDS:
        kind = draw(st.sampled_from([None, DI, FI, W]))
        if kind is not None:
            init.append([(kind, f)])
    for v in VOLATILES:
        if draw(st.booleans()):
            init.append([(VW, v)])
    for _ in range(draw(st.integers(0, 2))):
        m = draw(st.sampled_from(MONITORS))
        init.append([(L, m), (draw(st.sampled_from((R, W))), draw(st.sampled_from(FIELDS))), (U, m)])
    return ThreadProgram.build(bodies, init=[a for part in draw(st.permutations(init)) for a in part])


NESTED_DEADLOCK = ThreadProgram.build(
    [
        [(L, "a"), (L, "b"), (W, "x"), (U, "b"), (U, "a")],
        [(L, "b"), (L, "a"), (R, "x"), (U, "a"), (U, "b")],
        [(R, "y")],
    ],
    init=[(W, "y"), (DI, "x"), (VW, "v")],
)
HELD_AT_EXIT = ThreadProgram.build(
    [[(L, "a"), (W, "y")], [(VR, "v"), (L, "a"), (W, "y"), (U, "a")], [(VW, "v"), (R, "x")]],
    init=[(FI, "x"), (DI, "y")],
)


@settings(max_examples=300, deadline=None)
@given(programs())
@example(NESTED_DEADLOCK)
@example(HELD_AT_EXIT)
@example(DEADLOCK_ONLY_RACE)
def test_search_matches_reference_enumerator(p):
    if any(len(e.actions) < p.action_count() for e in interleavings(p)):
        event("deadlocks")
    event(f"{len(p.threads)} threads")
    report = program_races(p, action_budget=p.action_count())
    assert report.raced == reference_raced(p)
    assert report.executions >= 1
    if report.raced:
        assert detect_races(parse_trace(format_trace(report.witness)))
    else:
        assert report.witness is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(programs())
@example(NESTED_DEADLOCK)
@example(HELD_AT_EXIT)
@example(DEADLOCK_ONLY_RACE)
def test_search_matches_the_leaf_checking_search(p):
    # the race check carried down the search stops at the same leaf as
    # checking each leaf's whole happens-before closure of every sync order;
    # the sleep sets explore one order of each class, at least one leaf
    report = program_races(p, action_budget=p.action_count())
    leaves, witness = search_sync_orders(p)
    assert (report.raced, report.witness) == (witness is not None, witness)
    assert 1 <= report.executions <= leaves


# --- the lockset filter: a program it clears never races ---


@settings(max_examples=300, deadline=None, derandomize=True)
@given(programs())
@example(NESTED_DEADLOCK)
@example(HELD_AT_EXIT)
@example(DEADLOCK_ONLY_RACE)
def test_a_program_the_lockset_filter_clears_never_races(p):
    if model.may_race(p):
        event("may race")
    else:
        event("cleared")
        assert not reference_raced(p)


LOCKSET_CASES = [
    # (why, init, workers, may race, races)
    ("one monitor at both writes", [(DI, "x")],
     [[(L, "a"), (W, "x"), (U, "a")], [(L, "a"), (W, "x"), (U, "a")]], False, False),
    ("different monitors", [(DI, "x")],
     [[(L, "a"), (W, "x"), (U, "a")], [(L, "b"), (R, "x"), (U, "b")]], True, True),
    ("still held after a reentrant unlock", [(DI, "x")],
     [[(L, "a"), (L, "a"), (U, "a"), (W, "x"), (U, "a")], [(L, "a"), (R, "x"), (U, "a")]], False, False),
    ("held at exit by a worker", [(DI, "x")],
     [[(L, "a"), (W, "x")], [(L, "a"), (R, "x"), (U, "a")]], False, False),
    ("reads only", [(DI, "x")], [[(R, "x")], [(R, "x")]], False, False),
    ("volatile accesses", [(VW, "v")], [[(VW, "v")], [(VR, "v"), (VW, "v")]], False, False),
    ("final and default inits", [(FI, "x"), (DI, "y")], [[(R, "x"), (W, "y")], [(L, "a"), (U, "a")]], False, False),
    ("a plain init write", [(W, "x")],
     [[(L, "a"), (R, "x"), (U, "a")], [(L, "a"), (R, "x"), (U, "a")]], True, True),
    ("a plain init write under a monitor", [(L, "a"), (W, "x"), (U, "a")],
     [[(L, "a"), (R, "x"), (U, "a")], []], False, False),
    ("a plain init write under another monitor", [(L, "b"), (W, "x"), (U, "b")],
     [[(L, "a"), (R, "x"), (U, "a")], []], True, True),
    ("a plain init read", [(R, "x")], [[(W, "x")], []], True, True),
    ("a plain init write ordered by a later init", [(W, "x"), (DI, "y")], [[(W, "x")], []], True, False),
]


@pytest.mark.parametrize("why, init, workers, may, races", LOCKSET_CASES, ids=[c[0] for c in LOCKSET_CASES])
def test_the_lockset_filter_clears_only_guarded_conflicts(why, init, workers, may, races):
    p = ThreadProgram.build(workers, init=init)
    assert model.may_race(p) == may
    assert program_races(p).raced == reference_raced(p) == races


CORPUS_FLAGS = {"lock_type_add": ("MyLock",), "allowlist_add": ("com.example.concurrent.AtomicRegistry",)}


def oracle_models(text: str, config):
    """The class model of each ``@ThreadSafe`` class of a file, as the CLI builds it."""
    ast = parse_compilation_unit(SourceFile("<parity>.java", text))
    for decl in annotated_as_thread_safe(ast, config.annotations):
        yield build_class_model(decl, allowlist=config.allowlist(), annotation_names=config.annotations,
                                mutator_methods=config.mutator_methods)


def assert_same_verdicts(texts, config) -> int:
    """``check_class`` gives the verdict of searching every driver on each
    class of ``texts``; returns the number of classes."""
    kw = {"lock_types": config.lock_types, "lock_methods": config.lock_methods,
          "unlock_methods": config.unlock_methods}
    n = 0
    for text in texts:
        for cm in oracle_models(text, config):
            assert check_class(cm, **kw) == check_every_driver(cm, **kw), cm.class_id
            n += 1
    return n


def test_the_filter_keeps_every_verdict_on_the_full_size_inputs():
    # the corpus, the oracle probes and the three full-size workloads at seed 1
    assert assert_same_verdicts(full_size_sources(), build_config(None, **CORPUS_FLAGS)) > 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(thread_safe_classes(), synchronized_classes()))
def test_the_filter_keeps_every_verdict_on_generated_classes(src):
    assert assert_same_verdicts([src], build_config(None)) == 1


def blocks(monitor: str, field: str, m: int) -> list:
    return [(L, monitor), (R, field), (W, field), (U, monitor)] * m


@pytest.mark.parametrize("m", [3, 4, 5])
def test_blocks_on_different_monitors_explore_one_order(m):
    # every sync order has the same happens-before; without sleep sets
    # C(4m, 2m) orders: 924, 12,870 and 184,756
    p = ThreadProgram.build([blocks("a", "x", m), blocks("b", "y", m)], init=[(DI, "x"), (DI, "y")])
    report = program_races(p, action_budget=10**6)
    assert (report.raced, report.executions) == (False, 1)


def test_volatile_reads_of_one_field_explore_one_order():
    p = ThreadProgram.build([[(VR, "v")] * 6, [(VR, "v")] * 6], init=[(VW, "v")])
    report = program_races(p, action_budget=10**6)
    assert (report.raced, report.executions) == (False, 1)


def test_lock_striping_explores_one_order_per_class():
    # a pair of methods on different locks, or a lock and a volatile
    # access, has one class of sync orders; two on one lock or a volatile
    # write and an access of its field have two. Every sync order: 27
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_probes", "Striped.java"),
              encoding="utf-8") as fh:
        cm = model_from_source(fh.read())
    orders = {d.name: program_races(d).executions for d in two_thread_drivers(cm)}
    assert orders == {
        "Striped:bumpEven|bumpEven": 2, "Striped:bumpEven|bumpOdd": 1, "Striped:bumpEven|close": 1,
        "Striped:bumpEven|isOpen": 1, "Striped:bumpOdd|bumpOdd": 2, "Striped:bumpOdd|close": 1,
        "Striped:bumpOdd|isOpen": 1, "Striped:close|close": 2, "Striped:close|isOpen": 2,
        "Striped:isOpen|isOpen": 1,
    }


def test_a_monitor_and_a_volatile_field_of_one_name_commute():
    # the search branches on the order of the two writes of v, not on where
    # the lock of the monitor v falls between them
    p = ThreadProgram.build([[(L, "v"), (U, "v")], [(VW, "v")], [(VW, "v")]])
    report = program_races(p, action_budget=10**6)
    assert (report.raced, report.executions) == (False, 2)


def test_the_search_steps_each_shared_prefix_once(monkeypatch):
    # two threads of six lock blocks: race-free, C(12, 6) sync orders of 49 actions
    block = [(L, "a"), (R, "x"), (W, "x"), (U, "a")]
    p = ThreadProgram.build([block * 6, block * 6], init=[(DI, "x")])
    steps = []
    step = model._HappensBefore.step

    def counted(self, i, t, op, g):
        steps.append(i)
        return step(self, i, t, op, g)

    monkeypatch.setattr(model._HappensBefore, "step", counted)
    report = program_races(p, action_budget=p.action_count())
    assert (report.raced, report.executions, p.action_count()) == (False, 924, 49)
    # a closure per leaf would take every action of every leaf: 924 x 49 = 45,276
    assert len(steps) < report.executions * p.action_count()


# --- trace format ---


@st.composite
def executions(draw):
    """A valid execution built by stepping random threads, locks respected."""
    held: dict[str, list] = {}  # monitor -> [owner, depth]
    seqs: dict[int, int] = {}
    actions = []
    for _ in range(draw(st.integers(0, 20))):
        thread = draw(st.integers(0, 3))
        owned = [m for m, (owner, _) in held.items() if owner == thread]
        free = [m for m in ("a", "b") if m not in held or held[m][0] == thread]
        ops = (R, W, VR, VW, DI, FI) if thread == 0 else (R, W, VR, VW)  # init runs on the main thread
        choices = [(op, f) for op in ops for f in ("x", "v")] + [(LOC, None)]
        choices += [(L, m) for m in free] + [(U, m) for m in owned]
        op, target = draw(st.sampled_from(choices))
        if op is L:
            held.setdefault(target, [thread, 0])[1] += 1
        elif op is U:
            held[target][1] -= 1
            if held[target][1] == 0:
                del held[target]
        seq = seqs.get(thread, 0)
        seqs[thread] = seq + 1
        actions.append(TraceAction(thread, op, target, seq))
    return Execution(tuple(actions))


@given(executions())
def test_parse_inverts_format(e):
    assert parse_trace(format_trace(e)) == e


@settings(max_examples=300, deadline=None, derandomize=True)
@given(executions())
@example(sequential(LITMUS[1][1]))  # ordered by unlock->lock alone, which few draws are
@example(sequential(LITMUS[2][1]))  # ordered by volatile write->read alone
def test_detect_races_matches_the_closure(e):
    assert detect_races(e) == reference_races(e)


WORKER_INIT_TRACE = "0 default-init x\n1 write x\n1 default-init y\n2 read x\n"


def test_an_init_action_on_a_worker_is_refused_in_a_trace(tmp_path, capsys):
    # folded into the clock a thread starts from, the worker's init action
    # would order its write of x before thread 2's read and hide the race
    with pytest.raises(MalformedExecution) as exc:
        parse_trace(WORKER_INIT_TRACE)
    assert str(exc.value) == "default-init must run on the main thread (0)"
    path = tmp_path / "init.trace"
    path.write_text(WORKER_INIT_TRACE)
    assert cli.main(["--trace", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "threadlint: error: default-init must run on the main thread (0)\n"
    lines = WORKER_INIT_TRACE.splitlines()
    path.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
    assert cli.check_trace(str(path)) == ("race t1:write(x)@0 <-> t2:read(x)@0\n3 actions, 1 race(s)\n", 1)


def long_trace(rounds: int) -> str:
    """A trace of 2 + 6 x ``rounds`` actions. Three threads take turns at a
    counter under ``m``, pass a volatile flag and read a final field. In the
    first two of every 500 rounds a thread writes ``z`` after it unlocks, and
    those two writes race."""
    lines = ["0 default-init z", "0 final-init y"]
    for r in range(rounds):
        t = 1 + r % 3
        lines += [f"{t} lock m", f"{t} read x", f"{t} write x", f"{t} unlock m",
                  f"{t} volatile-write v" if r % 2 == 0 else f"{t} volatile-read v",
                  f"{t} write z" if r % 500 < 2 else f"{t} read y"]
    return "\n".join(lines) + "\n"


def test_a_long_trace_is_checked_within_a_second(tmp_path, monkeypatch):
    path = tmp_path / "long.trace"
    path.write_text(long_trace(2000))
    start = time.perf_counter()
    out, code = cli.check_trace(str(path))
    elapsed = time.perf_counter() - start
    assert out.endswith("12002 actions, 4 race(s)\n") and code == 1
    # the whole closure took 5.1 s on this trace (Python 3.11, 2 vCPUs); the step takes 0.05 s
    assert elapsed < 1.0
    monkeypatch.setattr("threadlint.hboracle.detect_races", reference_races)
    assert cli.check_trace(str(path)) == (out, code)


def test_trace_actions_are_made_for_a_witness_only(tmp_path, monkeypatch):
    """A program stays (op, target) lists until it races: checking a
    race-free class makes no TraceAction and a racy one only its witness's.
    A trace file makes one Execution, which checks itself once."""
    made, checked = [], []
    make_action, make_execution = TraceAction.__new__, Execution.__init__

    def action_made(cls, *args):
        action = make_action(cls, *args)
        made.append(action)
        return action

    def execution_made(self, actions):
        checked.append(self)
        make_execution(self, actions)

    monkeypatch.setattr(TraceAction, "__new__", action_made)
    monkeypatch.setattr(Execution, "__init__", execution_made)

    def probe(name):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_probes", f"{name}.java")
        with open(path, encoding="utf-8") as fh:
            return model_from_source(fh.read(), path)

    verdict = check_class(probe("LeakOnReturn"))
    assert (verdict.status, verdict.raced, verdict.drivers_checked) == ("checked", False, 6)
    assert made == [] and checked == []
    verdict = check_class(probe("Mon"))
    assert (verdict.raced, verdict.drivers_checked) == (True, 2)
    assert made == list(verdict.witness.witness.actions) and len(checked) == 1
    path = tmp_path / "long.trace"
    path.write_text(long_trace(2000))
    checked.clear()
    assert cli.check_trace(str(path))[1] == 1
    assert len(checked) == 1
