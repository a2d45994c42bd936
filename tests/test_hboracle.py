"""Happens-before oracle: litmus programs per HB rule, the sync-order search
against the reference enumerator, driver lowering, and the trace format."""

from dataclasses import dataclass

import pytest
from hb_reference import interleavings, reference_raced
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import model_from_source

from threadlint.errors import BudgetExceeded, MalformedExecution, UnsupportedForOracle
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
from threadlint.hboracle import driver
from threadlint.raceanalysis import analyze_class

R, W, VR, VW = Op.READ, Op.WRITE, Op.VOLATILE_READ, Op.VOLATILE_WRITE
L, U, DI, FI, LOC = Op.LOCK, Op.UNLOCK, Op.DEFAULT_INIT, Op.FINAL_INIT, Op.LOCAL


def sequential(p: ThreadProgram) -> Execution:
    """Init, then each worker to completion in thread order."""
    return Execution(p.init_actions + tuple(a for t in p.threads for a in t))


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
    assert w.actions[: len(racy.init_actions)] == racy.init_actions
    for t, actions in enumerate(racy.threads, start=1):
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
    cm = model_from_source(LOWERED)
    public = [m for m in cm.decl.methods if m.is_public]
    top_level = []
    lower = driver._DriverBuilder.method_actions

    def counted(self, m, stack=()):
        if not stack:
            top_level.append(m.name)
        return lower(self, m, stack)

    monkeypatch.setattr(driver._DriverBuilder, "method_actions", counted)
    drivers = list(two_thread_drivers(cm))
    assert top_level == ["a", "b", "c"]
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
        assert all(a.op is not LOC for t in d.threads for a in t)


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
    build = ThreadProgram.build.__func__

    def counted(cls, threads, init=None, name=""):
        if len(threads) == 2:
            pairs.append(name)
        return build(cls, threads, init, name)

    monkeypatch.setattr(ThreadProgram, "build", classmethod(counted))
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
    @dataclass(eq=False, slots=True)
    class Opaque(A.Expr):  # a kind with children that no line of the driver decides on
        inner: A.Expr

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
    "action under the wrong thread": (
        lambda: ThreadProgram((), ((TraceAction(1, R, "x", 0),), (TraceAction(1, R, "x", 1),))),
        "thread 2",
    ),
    "default-init on a worker": (lambda: ThreadProgram.build([[(DI, "x")], [(R, "x")]]), "main thread"),
    "final-init on a worker": (lambda: ThreadProgram.build([[(R, "x")], [(FI, "x")]]), "main thread"),
    "unlock without lock in a worker": (
        lambda: ThreadProgram.build([[(R, "x")], [(L, "m"), (U, "m"), (U, "m")]]),
        "thread 2 unlocks 'm'",
    ),
    "unlock without lock in the init actions": (
        lambda: ThreadProgram.build([[(R, "x")]], init=[(U, "m")]),
        "thread 0 unlocks 'm'",
    ),
    "worker seq not increasing": (
        lambda: ThreadProgram((), ((TraceAction(1, R, "x", 1), TraceAction(1, W, "x", 1)),)),
        "thread 1",
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
PLAIN_OPS = [(R, f) for f in FIELDS] + [(W, f) for f in FIELDS] + [(VR, "v"), (VW, "v"), (LOC, None)]


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
    init = []
    for f in FIELDS:
        kind = draw(st.sampled_from([None, DI, FI, W]))
        if kind is not None:
            init.append((kind, f))
    if draw(st.booleans()):
        init.append((VW, "v"))
    return ThreadProgram.build(bodies, init=draw(st.permutations(init)))


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
        choices = [(op, f) for op in (R, W, VR, VW, DI, FI) for f in ("x", "v")] + [(LOC, None)]
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
    e.validate()
    assert parse_trace(format_trace(e)) == e
