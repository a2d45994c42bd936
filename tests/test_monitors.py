"""Monitor identification: lock windows, synchronized regions, and forex."""

import os

import alias_reference
import monitors_reference
from conftest import CORPUS_DIR, full_size_sources, model_from_source, model_for, parse_corpus
from hypothesis import given, settings
from hypothesis import strategies as st

from threadlint import classmodel as classmodel_module
from threadlint.classmodel import build_class_model, exposed_accesses
from threadlint.errors import BudgetExceeded, UnsupportedForOracle
from threadlint.frontend import ast as A
from threadlint.frontend.ast import canonical_text
from threadlint.frontend import parse_source
from threadlint.hboracle import Op, check_class
from threadlint.hboracle.driver import _DriverBuilder
from threadlint.monitors import (
    DEFAULT_LOCK_METHODS,
    DEFAULT_UNLOCK_METHODS,
    MonitorAnalysis,
    is_lock_type,
    lock_fields,
    lock_monitor,
    sync_monitor,
)
from threadlint.raceanalysis import analyze_class


def analysis(cm, **kw):
    return MonitorAnalysis(cm, **kw)


def field_named(cm, name):
    return next(f for f in cm.decl.fields if f.name == name)


def locked_on(cm, m, expr, field_name):
    """Does a lock window of ``field_name`` protect ``expr`` in ``m``?"""
    return lock_monitor(field_named(cm, field_name)) in analysis(cm).protecting_monitors(m, expr)


def synchronized_on(cm, m, expr):
    """The monitors protecting ``expr`` in ``m`` through the synchronized keyword."""
    locks = {lock_monitor(f) for f in lock_fields(cm)}
    return frozenset(analysis(cm).protecting_monitors(m, expr) - locks)


# --- is_lock_type ---


def test_is_lock_type_defaults():
    assert is_lock_type("ReentrantLock")
    assert is_lock_type("Lock")
    assert is_lock_type("java.util.concurrent.locks.ReentrantLock")
    assert not is_lock_type("int")
    assert not is_lock_type("Lock[]")
    assert not is_lock_type("MyLock<T>[]", ("MyLock",))
    assert is_lock_type("MyLock<T>", ("MyLock",))


def test_is_lock_type_config_extension():
    assert not is_lock_type("MyLock")
    assert is_lock_type("MyLock", ("Lock", "ReentrantLock", "MyLock"))


# --- represents: what a lock-call receiver denotes ---


def _method(cm, name):
    return next(m for m in cm.decl.methods if m.name == name)


def test_represents_field_itself():
    cm = model_for("CounterTS.java")
    inc = _method(cm, "inc")
    lock_field = field_named(cm, "l")
    lock_call = inc.body.stmts[0].expr  # l.lock()
    assert cm.denotes(lock_call.qualifier) is lock_field


def test_represents_single_assignment_alias():
    cm = model_from_source(
        """@ThreadSafe
class A {
  private int n = 0;
  private final Lock l = null;
  public void f() {
    Lock x = this.l;
    x.lock();
    n = 1;
    x.unlock();
  }
}
"""
    )
    f = _method(cm, "f")
    lock_field = field_named(cm, "l")
    call = f.body.stmts[1].expr
    assert cm.denotes(call.qualifier) is lock_field


def test_represents_rejects_reassigned_local():
    cm = model_from_source(
        """@ThreadSafe
class A {
  private final Lock l1 = null;
  private final Lock l2 = null;
  public void f() {
    Lock x = this.l1;
    x = this.l2;
    x.lock();
    x.unlock();
  }
}
"""
    )
    f = _method(cm, "f")
    call = f.body.stmts[2].expr
    assert cm.denotes(call.qualifier) is not field_named(cm, "l1")
    assert cm.denotes(call.qualifier) is not field_named(cm, "l2")


def test_represents_sees_reassignment_inside_an_assignment_target():
    cm = model_from_source(
        """@ThreadSafe
class A {
  private final Lock l1 = null;
  private final Lock l2 = null;
  private final int[] data = new int[4];
  public void f() {
    Lock x = this.l1;
    data[(x = this.l2).hashCode() & 3] = 1;
    x.lock();
    x.unlock();
  }
}
"""
    )
    f = _method(cm, "f")
    call = f.body.stmts[2].expr
    assert cm.denotes(call.qualifier) is not field_named(cm, "l1")


def test_represents_rejects_parameters():
    cm = model_from_source(
        """@ThreadSafe
class A {
  private final Lock l = null;
  public void f(Lock x) {
    x.lock();
    x.unlock();
  }
}
"""
    )
    f = _method(cm, "f")
    call = f.body.stmts[0].expr
    assert cm.denotes(call.qualifier) is not field_named(cm, "l")


def test_represents_alias_in_a_block_and_not_a_shadowing_parameter():
    cm = model_from_source(
        """@ThreadSafe
class A {
  private final Lock l = null;
  public void f() { { Lock x = l; x.lock(); x.unlock(); } }
  public void g(Lock l) { l.lock(); l.unlock(); }
}
"""
    )
    lock_field = field_named(cm, "l")
    f, g = _method(cm, "f"), _method(cm, "g")
    assert cm.denotes(f.body.stmts[0].stmts[1].expr.qualifier) is lock_field
    assert cm.denotes(g.body.stmts[0].expr.qualifier) is not lock_field


def test_lock_fields_by_declared_or_resolved_type():
    cm = model_from_source(
        """import java.util.concurrent.locks.ReentrantLock;
@ThreadSafe
class A {
  private final ReentrantLock a = null;
  private final java.util.concurrent.locks.Lock b = null;
  private final MyLock c = null;
  private final Object d = null;
}
"""
    )
    assert [f.name for f in lock_fields(cm)] == ["a", "b"]
    assert [f.name for f in lock_fields(cm, ("Lock", "MyLock"))] == ["b", "c"]


# --- lock windows (protecting_monitors, lock_monitor monitors) ---


def test_counter_ts_statements_locked():
    cm = model_for("CounterTS.java")
    inc = _method(cm, "inc")
    for stmt in inc.body.stmts[1:4]:
        expr = stmt.declarators[0].init if hasattr(stmt, "declarators") else stmt.expr
        assert locked_on(cm, inc, expr, "l")


def test_lock_in_one_branch_does_not_protect_join():
    cm = model_from_source(
        """@ThreadSafe
class B {
  private int n = 0;
  private final Lock l = null;
  public void f(boolean c) {
    if (c) { l.lock(); l.unlock(); }
    n = 1;
  }
}
"""
    )
    f = _method(cm, "f")
    write = f.body.stmts[1].expr
    assert not locked_on(cm, f, write, "l")


def test_trylock_recognized_as_locking_call():
    cm = model_from_source(
        """@ThreadSafe
class T {
  private int n = 0;
  private final Lock l = null;
  public void f() {
    l.tryLock();
    n = 1;
    l.unlock();
  }
}
"""
    )
    f = _method(cm, "f")
    write = f.body.stmts[1].expr
    assert locked_on(cm, f, write, "l")


def test_a_lock_with_no_unlock_guards_what_follows_it():
    """The thread that reaches ``n = 1`` holds ``l``, and every other thread
    that takes ``l`` waits for it, whether or not it ever lets go."""
    cm = model_from_source(
        """@ThreadSafe
class M {
  private int n = 0;
  private final Lock l = null;
  public void f() {
    l.lock();
    n = 1;
  }
}
"""
    )
    f = _method(cm, "f")
    assert locked_on(cm, f, f.body.stmts[1].expr, "l")


def p3_lines(src):
    """The source lines of every access a P3 alert names."""
    alerts = [a for a in analyze_class(model_from_source(src)) if a.rule == "P3"]
    return {s.start_line for a in alerts for s in (a.primary, a.secondary) if s is not None}


LOCKED_GET = "  public int get() { l.lock(); try { return x; } finally { l.unlock(); } }\n"


def test_a_failed_trylock_guards_nothing():
    """The Lock javadoc's idiom: ``x = 2`` runs when ``tryLock()`` failed,
    so it races with another thread's locked write. A ``tryLock()`` whose
    result is tested takes no hold, on either branch, so ``x = 1`` is
    reported too."""
    src = (
        "@ThreadSafe\nclass T {\n  private int x;\n  private final Lock l = new ReentrantLock();\n"
        "  public void set() {\n"
        "    if (l.tryLock()) {\n"
        "      try { x = 1; } finally { l.unlock(); }\n"
        "    } else {\n"
        "      x = 2;\n"
        "    }\n"
        "  }\n" + LOCKED_GET + "}\n"
    )
    assert p3_lines(src) >= {7, 9}
    cm = model_from_source(src)
    assert analysis(cm).windows_for(_method(cm, "set")) == [(frozenset(), "lock:this.l")]


def test_an_interrupted_lock_guards_nothing_in_its_handler():
    """``lockInterruptibly()`` throws without taking the lock, so the
    handler's ``x = 0`` races with another thread's locked write, while
    ``x = 1`` after it is guarded."""
    src = (
        "@ThreadSafe\nclass I {\n  private int x;\n  private final Lock l = new ReentrantLock();\n"
        "  public void set() throws InterruptedException {\n"
        "    try { l.lockInterruptibly(); } catch (InterruptedException e) { x = 0; return; }\n"
        "    try { x = 1; } finally { l.unlock(); }\n"
        "  }\n" + LOCKED_GET + "}\n"
    )
    assert 6 in p3_lines(src)
    cm = model_from_source(src)
    set_ = _method(cm, "set")
    handler, after = set_.body.stmts[0].catches[0].body.stmts[0], set_.body.stmts[1].body.stmts[0]
    assert not locked_on(cm, set_, handler.expr, "l") and locked_on(cm, set_, after.expr, "l")
    verdict = check_class(cm)
    assert verdict.status == "checked" and verdict.raced


def test_an_unlock_in_a_finally_protects_through_every_copy():
    """The read in the ``if`` reaches the exit through the early return's
    copy of the finally block, the write through the normal copy: each way
    out passes one copy of the unlock, and both copies lie in the window."""
    cm = model_from_source(
        """@ThreadSafe
class Early {
  private int x = 0;
  private final Lock l = null;
  public void set() {
    l.lock();
    try {
      if (x > 0) { return; }
      x = 1;
    } finally {
      l.unlock();
    }
  }
}
"""
    )
    m = _method(cm, "set")
    cfg, [(window, _)] = analysis(cm).cfg_for(m)
    unlock_copies = cfg.nodes_for(m.body.stmts[1].finally_block.stmts[0].expr)
    assert len(unlock_copies) == 2 and window.issuperset(unlock_copies)
    guarded = m.body.stmts[1].body.stmts
    assert locked_on(cm, m, guarded[0].cond, "l") and locked_on(cm, m, guarded[1].expr, "l")
    assert analyze_class(cm) == []


def test_an_access_in_a_finally_is_unprotected_when_one_copy_is():
    """Only the normal copy of ``x = 1`` runs after ``l.lock()``; the early
    return's copy runs without it."""
    cm = model_from_source(
        """@ThreadSafe
class Half {
  private int x = 0;
  private final Lock l = null;
  public void f(boolean c) {
    try {
      if (c) { return; }
      l.lock();
    } finally {
      x = 1;
    }
    l.unlock();
  }
}
"""
    )
    m = _method(cm, "f")
    write = m.body.stmts[0].finally_block.stmts[0].expr
    ma = analysis(cm)
    cfg, [(window, mon)] = ma.cfg_for(m)
    assert ma.windows_for(m) == [(window, mon)] and mon == "lock:this.l"
    copies = cfg.nodes_for(write)
    assert len(copies) == 2
    assert [n in window for n in copies].count(True) == 1
    assert not locked_on(cm, m, write, "l")
    assert {a.field for a in analyze_class(cm)} == {"x"}


# --- synchronized regions (protecting_monitors, other monitors) ---


def test_synchronized_method_gives_this_monitor():
    cm = model_from_source(
        "@ThreadSafe class S { private int n; public synchronized void f() { n = 1; } }"
    )
    f = _method(cm, "f")
    target = f.body.stmts[0].expr
    assert synchronized_on(cm, f, target) == {"this"}


def test_static_synchronized_gives_class_monitor():
    cm = model_from_source(
        "@ThreadSafe class S { private static int n; public static synchronized void f() { n = 1; } }"
    )
    f = _method(cm, "f")
    mons = synchronized_on(cm, f, f.body.stmts[0].expr)
    assert mons == {"Class<S>"}


def test_sync_block_canonicalizes_bare_and_this_qualified():
    cm = model_from_source(
        """@ThreadSafe
class S {
  private int n;
  private final Object mu = null;
  public void a() { synchronized (mu) { n = 1; } }
  public void b() { synchronized (this.mu) { n = 2; } }
}
"""
    )
    expected = {"this.mu"}
    for name in ("a", "b"):
        m = _method(cm, name)
        write = m.body.stmts[0].body.stmts[0].expr
        assert synchronized_on(cm, m, write) == expected


def test_sync_block_on_a_parameter_is_not_the_field():
    cm = model_from_source(
        """@ThreadSafe
class S {
  private final Object mu = new Object();
  private int x;
  public void a(Object mu) { synchronized (mu) { x = x + 1; } }
  public void b() { synchronized (mu) { x = x + 1; } }
}
"""
    )
    a, b = _method(cm, "a"), _method(cm, "b")
    wa = a.body.stmts[0].body.stmts[0].expr
    wb = b.body.stmts[0].body.stmts[0].expr
    # each caller may pass a different object, so the parameter guards nothing
    assert synchronized_on(cm, a, wa) == frozenset()
    assert synchronized_on(cm, b, wb) == {"this.mu"}


def test_sync_block_on_a_string_literal_keeps_the_literal_apart():
    """Whitespace inside a literal is part of the string: ``"a b"`` and
    ``"ab"`` are two monitors. Whitespace and ``#`` are spelled as unicode
    escapes, so the identity is one word of the trace grammar, and
    whitespace outside the literal still does not count. A call on a
    literal guards nothing: each call may give a new object."""
    cm = model_from_source(
        """@ThreadSafe
class S {
  private int x;
  public void a() { synchronized ("a b") { x = 1; } }
  public void b() { synchronized ("ab") { x = 2; } }
  public void c() { synchronized ( "a b" ) { x = 3; } }
  public void d() { synchronized ('#') { x = 4; } }
  public void e() { synchronized ("a\\tb") { x = 5; } }
  public void f() { synchronized ("a\\tb".trim()) { x = 6; } }
}
"""
    )
    got = {}
    for name in "abcdef":
        m = _method(cm, name)
        got[name] = synchronized_on(cm, m, m.body.stmts[0].body.stmts[0].expr)
    assert got == {
        "a": {'"a\\u0020b"'},
        "b": {'"ab"'},
        "c": {'"a\\u0020b"'},
        "d": {"'\\u0023'"},
        "e": {'"a\\tb"'},
        "f": frozenset(),
    }


def test_sync_block_on_a_class_qualified_static_field_is_the_field():
    cm = model_from_source(
        """@ThreadSafe
class S {
  private static final Object MU = new Object();
  private static int n;
  public void a() { synchronized (S.MU) { n = 1; } }
  public void b() { synchronized (MU) { n = 2; } }
}
"""
    )
    expected = {"this.MU"}
    for name in ("a", "b"):
        m = _method(cm, name)
        assert synchronized_on(cm, m, m.body.stmts[0].body.stmts[0].expr) == expected


def test_sync_on_this_matches_synchronized_method():
    cm = model_from_source(
        """@ThreadSafe
class S {
  private int n;
  public void a() { synchronized (this) { n = 1; } }
  public synchronized void b() { n = 2; }
}
"""
    )
    a, b = _method(cm, "a"), _method(cm, "b")
    wa = a.body.stmts[0].body.stmts[0].expr
    wb = b.body.stmts[0].expr
    assert synchronized_on(cm, a, wa) == synchronized_on(cm, b, wb)


def test_nested_sync_blocks_report_both_monitors():
    cm = model_from_source(
        """@ThreadSafe
class S {
  private int n;
  private final Object a = null;
  private final Object b = null;
  public void f() { synchronized (a) { synchronized (b) { n = 1; } } }
}
"""
    )
    f = _method(cm, "f")
    write = f.body.stmts[0].body.stmts[0].body.stmts[0].expr
    mons = synchronized_on(cm, f, write)
    assert mons == {"this.a", "this.b"}


def test_plain_method_has_no_sync_monitor():
    cm = model_from_source("@ThreadSafe class P { private int n; public void f() { n = 1; } }")
    f = _method(cm, "f")
    assert synchronized_on(cm, f, f.body.stmts[0].expr) == frozenset()


# --- monitors (forex) ---


def test_test_class_write_y_monitored_by_lock_field():
    cm = model_for("Test.java")
    (write_y,) = exposed_accesses(cm)
    mons = analysis(cm).monitors(write_y)
    assert mons == {"lock:this.lock"}


def test_one_unlocked_public_path_empties_monitors():
    cm = model_from_source(
        """@ThreadSafe
class Half {
  private int n = 0;
  private final Lock l = null;
  public void locked() { l.lock(); n = 1; l.unlock(); }
  public int bare() { return n; }
}
"""
    )
    accesses = [a for a in exposed_accesses(cm) if a.field.name == "n"]
    write = next(a for a in accesses if a.kind.value == "write")
    read = next(a for a in accesses if a.kind.value == "read")
    info = analysis(cm)
    assert info.monitors(write) == {"lock:this.l"}
    assert info.monitors(read) == frozenset()


def test_no_public_access_path_means_no_monitors():
    cm = model_from_source(
        """@ThreadSafe
class Hidden {
  private int n = 0;
  private void touch() { n = 1; }
}
"""
    )
    (w,) = exposed_accesses(cm)
    info = analysis(cm)
    assert info.monitors(w) == frozenset()
    assert info.public_facts(w) == []


def test_adding_unlocked_public_accessor_shrinks_monitors():
    guarded = """@ThreadSafe
class G {{
  private int n = 0;
  private final Lock l = null;
  public void set(int v) {{ l.lock(); n = v; l.unlock(); }}
  {extra}
}}
"""
    cm1 = model_from_source(guarded.format(extra=""))
    cm2 = model_from_source(guarded.format(extra="public int peek() { return n; }"))
    w1 = next(a for a in exposed_accesses(cm1) if a.kind.value == "write")
    w2 = next(a for a in exposed_accesses(cm2) if a.kind.value == "write")
    assert analysis(cm2).monitors(w2) <= analysis(cm1).monitors(w1)


def test_a_lock_fields_lock_and_a_block_on_it_are_two_monitors():
    """``l.lock()`` takes the Lock object's own lock, ``synchronized (l)``
    the intrinsic monitor of the same object: one guards nothing the other
    takes."""
    cm = model_from_source(
        """@ThreadSafe
class Two {
  private int n;
  private final Lock l = null;
  public void a() { l.lock(); n = 1; l.unlock(); }
  public void b() { synchronized (l) { n = 2; } }
}
"""
    )
    sync = _method(cm, "b").body.stmts[0]
    assert sync_monitor(sync.monitor, cm) == "this.l"
    assert lock_monitor(field_named(cm, "l")) == "lock:this.l"
    assert {a.field for a in analyze_class(cm)} == {"n"}


def test_a_monitor_built_on_a_parameter_or_a_local_or_a_new_object_guards_nothing():
    """An expression that reads a parameter or a local, that makes an
    object, or that calls a method other than a getter of an own final
    field, may give each thread a different object; one built on none of
    these keeps its text as its name."""
    cm = model_from_source(
        """@ThreadSafe
class Names {
  private final Object[] locks = new Object[2];
  private Object getLock() { return locks[0]; }
  public void a(Holder h, int i) {
    Object m = getLock();
    synchronized (h.lock) { }
    synchronized (locks[i]) { }
    synchronized (new Object()) { }
    synchronized (m.toString()) { }
    synchronized ((h)) { }
  }
  public void b() {
    synchronized ("a b") { }
    synchronized (Other.LOCK) { }
    synchronized (locks[0]) { }
    synchronized (getLock()) { }
  }
}
"""
    )
    a, b = ([sync_monitor(s.monitor, cm) for s in _method(cm, m).body.stmts if isinstance(s, A.Sync)]
            for m in ("a", "b"))
    assert a == [None] * 5
    # canonical text spells the space in a string literal as an escape
    assert b == ['"a\\u0020b"', "Other.LOCK", "locks[0]", None]


# --- parity of the demand-driven analysis with the eager reference ---

CORPUS_LOCK_TYPES = ("Lock", "ReentrantLock", "MyLock")


def assert_protection_matches_eager_reference(cm, lock_types=CORPUS_LOCK_TYPES):
    info = MonitorAnalysis(cm, lock_types=lock_types)
    eager = monitors_reference.EagerMonitors(cm, lock_types=lock_types)
    for m in [*cm.decl.constructors, *cm.decl.methods]:
        for e in () if m.body is None else A.walk(m.body):
            assert info.protecting_monitors(m, e) == eager.protecting_monitors(m, e), (m.name, e)


def test_protection_matches_eager_reference_on_the_corpus():
    names = sorted(n for n in os.listdir(CORPUS_DIR) if n.endswith(".java"))
    for name in names:
        for decl in parse_corpus(name).iter_classes():
            assert_protection_matches_eager_reference(build_class_model(decl))


def test_every_monitor_p3_holds_is_one_the_oracle_takes():
    """One spelling per monitor: in every class of the corpus, the oracle
    probes and the seed-1 full-size workloads, each monitor in a public
    method's protection record is the target of a lock action in the action
    lists the oracle lowers for that method, where it lowers them."""
    kinds = set()
    for text in full_size_sources():
        for decl in parse_source(text).iter_classes():
            cm = build_class_model(decl)
            info = MonitorAnalysis(cm, lock_types=CORPUS_LOCK_TYPES)
            driver = _DriverBuilder(cm, lock_types=CORPUS_LOCK_TYPES)
            for m in cm.decl.methods:
                if not m.is_public:
                    continue
                try:
                    lists = driver.method_actions(m)
                except (UnsupportedForOracle, BudgetExceeded):
                    continue
                locked = {target for actions in lists for op, target in actions if op is Op.LOCK}
                base, blocks, _, windows = info._protection(m)
                held = {*base, *(mon for _, _, mon in blocks), *(mon for _, mon in windows)}
                assert held <= locked, (cm.class_id, m.name, held - locked)
                kinds.update(mon.split(".", 1)[0].split("<", 1)[0] for mon in held)
    assert {"this", "Class", "lock:this"} <= kinds and len(kinds) > 3, kinds


MONITOR_EXPRS = ("this", "mu", "this.mu", "R.MU", "MU", "R.class", "p", "o", "a", "peer.mu", "other")
# each method may start with these locals: a fresh object, a field alias, a lock alias
PRELUDE = "Object o = new Object(); Object a = mu; Lock k = l1;"


@st.composite
def guarded_statements(draw, depth=0):
    kinds = ["write", "read", "write"] + (["sync", "window", "try", "lockonly", "unlockonly", "mixed", "if"]
                                           if depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    field = draw(st.sampled_from(["x", "this.y"]))
    if kind == "write":
        return f"{field} = {field} + 1;"
    if kind == "read":
        return f"int v = {field};"
    inner = " ".join(draw(st.lists(guarded_statements(depth + 1), min_size=1, max_size=3)))
    lock = draw(st.sampled_from(["l1", "this.l2", "k"]))
    if kind == "sync":
        return f"synchronized ({draw(st.sampled_from(MONITOR_EXPRS))}) {{ {inner} }}"
    if kind == "window":
        return f"{lock}.lock(); {inner} {lock}.unlock();"
    if kind == "try":
        return f"{lock}.lock(); try {{ {inner} }} finally {{ {lock}.unlock(); }}"
    if kind == "lockonly":
        return f"{lock}.lock(); {inner}"
    if kind == "unlockonly":
        return f"{inner} {lock}.unlock();"
    if kind == "mixed":
        return f"l1.lock(); {inner} l2.unlock();"
    return f"if (x > 0) {{ {inner} }} else {{ return; }}"


@st.composite
def monitored_classes(draw):
    """Classes mixing synchronized methods and blocks with lock windows of every shape."""
    members = []
    for i in range(draw(st.integers(1, 4))):
        mods = draw(st.sampled_from(["public", "public synchronized", "public static synchronized", "private"]))
        prelude = PRELUDE if draw(st.booleans()) else ""
        body = " ".join(draw(st.lists(guarded_statements(), min_size=1, max_size=4)))
        members.append(f"  {mods} void m{i}(Object p) {{ {prelude} {body} }}")
    fields = ("  private int x;\n  private int y;\n  private final Object mu = new Object();\n"
              "  private static final Object MU = new Object();\n  private R peer;\n"
              "  private final Lock l1 = new ReentrantLock();\n  private final Lock l2 = new ReentrantLock();\n")
    return "@ThreadSafe\nclass R {\n" + fields + "\n".join(members) + "\n}\n"


@settings(max_examples=300, deadline=None)
@given(monitored_classes())
def test_protection_matches_eager_reference_on_generated_classes(src):
    assert_protection_matches_eager_reference(model_from_source(src))


ACCESSES = ("x = x + 1;", "int v = x;", "this.x = this.x + 1;", "int v = this.x;")


def window_body(draw, depth, unlocks):
    """What a lock window runs: accesses, a branch, an early return, which
    may leave the lock held, and a nested window of the same lock, which
    takes a second hold."""
    parts = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["access", "if", "return", "window"] if depth < 2 else ["access"]))
        if kind == "access":
            parts.append(draw(st.sampled_from(ACCESSES)))
        elif kind == "if":
            parts.append(f"if (c) {{ {window_body(draw, depth + 1, unlocks)} }}")
        elif kind == "return":
            parts.append("if (c) { return; }")
        else:
            parts.append(window_statement(draw, depth + 1, unlocks))
    return " ".join(parts)


def window_statement(draw, depth=0, unlocks=True):
    """``monitored_classes()``'s window and try shapes, on the one lock
    field, a ``lock()`` with no unlock, and a ``lockInterruptibly()`` whose
    handler, which runs without the lock, may access ``x`` and returns; only
    the last two when not ``unlocks``."""
    lock = draw(st.sampled_from(["l1", "this.l1"]))
    body = window_body(draw, depth, unlocks)
    shape = draw(st.sampled_from(["try", "window", "leak", "interrupt"] if unlocks else ["leak", "interrupt"]))
    if shape == "try":
        return f"{lock}.lock(); try {{ {body} }} finally {{ {lock}.unlock(); }}"
    if shape == "interrupt":
        handler = draw(st.sampled_from(("",) + ACCESSES))
        unlock = f" {lock}.unlock();" if unlocks else ""
        return (f"try {{ {lock}.lockInterruptibly(); }} catch (InterruptedException e) {{ {handler} return; }} "
                f"{body}{unlock}")
    if shape == "window":
        return f"{lock}.lock(); {body} {lock}.unlock();"
    return f"{lock}.lock(); {body}"


@st.composite
def lock_window_classes(draw):
    """Public methods that run two or three lock windows of one lock in a
    row, with at most one access between two windows, which no window
    guards unless the one before leaks its lock: ``lock(); unlock(); x = x +
    1; lock(); unlock();``. A window leaks by an early return or by a
    ``lock()`` with no unlock, and a method may never unlock at all. A
    ``lockInterruptibly()`` that throws runs its handler without the lock."""
    methods = []
    for i in range(draw(st.integers(1, 2))):
        unlocks = draw(st.booleans())
        steps = [window_statement(draw, unlocks=unlocks)]
        for _ in range(draw(st.integers(1, 2))):
            steps += [draw(st.sampled_from(("",) + ACCESSES)), window_statement(draw, unlocks=unlocks)]
        methods.append(f"  public void m{i}(boolean c) {{ {' '.join(steps)} }}")
    fields = "  private int x;\n  private final Lock l1 = new ReentrantLock();\n"
    return "@ThreadSafe\nclass R {\n" + fields + "\n".join(methods) + "\n}\n"


def oracle_and_p3(src):
    """The oracle's verdict, at twice its default action budget so that more
    of these classes are decided, and whether P3 reports an alert."""
    cm = model_from_source(src)
    return check_class(cm, action_budget=32), any(a.rule == "P3" for a in analyze_class(cm))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lock_window_classes())
def test_every_race_the_oracle_finds_gets_a_p3_alert(src):
    """P3 against the oracle, both ways: a class it checks gets a P3 alert
    exactly when the oracle finds a race, so each race is reported (no lock
    call that failed counts as a hold) and a leaked lock, which needs no
    unlock to shut the other thread out, reports none."""
    verdict, p3 = oracle_and_p3(src)
    if verdict.status == "checked":
        assert p3 == verdict.raced, src


# --- agreement of the bound locals with the old name walk ---

ALIAS_FIELDS = (
    "  private int x;\n  private final Object mu = new Object();\n  private final Object other = new Object();\n"
    "  private static final Object MU = new Object();\n  private final int[] arr = new int[2];\n"
    "  private final Lock l1 = new ReentrantLock();\n  private final Lock l2 = new ReentrantLock();\n"
    "  private final java.util.List<Object> objs = null;\n  private S peer;\n"
)
# local names, two of them shadowing fields; the parameters are p and q
LOCAL_NAMES = ("a", "b", "c", "mu", "l1")
VALUES = ("mu", "this.other", "MU", "S.MU", "l1", "this.l2", "peer.mu", "new Object()", "p", "q", "zz")
MONITORS = ("p", "q", "mu", "this.mu", "MU", "S.class", "this", "peer.mu", "zz", "p.hashCode()", "new Object()")
RECEIVERS = ("p", "q", "l1", "this.l2", "peer.l1", "zz")


@st.composite
def aliasing_statements(draw, scope, declared, fresh, depth=0):
    """One statement that declares each local name at most once per method,
    uses a local only in its scope and after its declaration, writes locals
    only by ``=``, and gives every for-each and catch variable a fresh name
    and no write (the name walk saw none of their declarations as writes).
    ``scope`` holds the locals in scope, ``declared`` every local name the
    method declared, ``fresh`` the count of loop and catch variables."""
    kinds = ["write", "assign", "target", "sync", "sync", "lock", "lock"]
    if set(LOCAL_NAMES) - declared:
        kinds += ["decl"] * 3
    if depth < 2:
        kinds += ["block", "foreach", "try", "if"]
    kind = draw(st.sampled_from(kinds))
    writable = [n for n in scope if n in LOCAL_NAMES] + ["p", "q"]  # no loop or catch variable

    def body(extra=()):
        if depth >= 2:
            return "x = x + 1;"
        inner = scope + list(extra)
        n = draw(st.integers(1, 3))
        return " ".join(draw(aliasing_statements(inner, declared, fresh, depth + 1)) for _ in range(n))

    def fresh_name():
        fresh[0] += 1
        return f"v{fresh[0]}"

    if kind == "write":
        return "x = x + 1;"
    if kind == "decl":
        name = draw(st.sampled_from(sorted(set(LOCAL_NAMES) - declared)))
        # a read of an own field half the time, so that aliases are common
        init = draw(st.sampled_from(VALUES[:6] if draw(st.booleans()) else (None, *VALUES, *scope)))
        declared.add(name)
        scope.append(name)
        return f"Object {name};" if init is None else f"Object {name} = {init};"
    if kind == "assign":
        return f"{draw(st.sampled_from(writable))} = {draw(st.sampled_from((*VALUES, *scope)))};"
    if kind == "target":
        target, value = draw(st.sampled_from(writable)), draw(st.sampled_from((*VALUES, *scope)))
        return f"arr[({target} = {value}).hashCode() & 1] = 1;"
    # a monitor or receiver is a local in scope half the time
    local = bool(scope) and draw(st.booleans())
    if kind == "sync":
        choices = (*scope, *(f"({n})" for n in scope), *(f"{n}.hashCode()" for n in scope)) if local else MONITORS
        return f"synchronized ({draw(st.sampled_from(choices))}) {{ {body()} }}"
    if kind == "lock":
        r = draw(st.sampled_from(scope if local else RECEIVERS))
        return f"{r}.lock(); {body()} {r}.unlock();"
    if kind == "block":
        return f"{{ {body()} }}"
    if kind == "foreach":
        v = fresh_name()
        return f"for (Object {v} : objs) {{ {body([v])} }}"
    if kind == "try":
        v = fresh_name()
        return f"try {{ {body()} }} catch (RuntimeException {v}) {{ {body([v])} }}"
    return f"if (x > 0) {{ {body()} }} else {{ {body()} }}"


@st.composite
def aliasing_classes(draw):
    """Classes whose methods keep to the terms of ``aliasing_statements``."""
    members = []
    for i in range(draw(st.integers(1, 3))):
        scope, declared, fresh = [], set(), [0]
        stmts = [draw(aliasing_statements(scope, declared, fresh)) for _ in range(draw(st.integers(1, 5)))]
        members.append(f"  public void m{i}(Object p, Lock q) {{ {' '.join(stmts)} }}")
    return "@ThreadSafe\nclass S {\n" + ALIAS_FIELDS + "\n".join(members) + "\n}\n"


@settings(max_examples=200, deadline=None)
@given(aliasing_classes())
def test_denotes_agrees_with_the_name_walk_where_each_name_is_declared_once(src):
    cm = model_from_source(src)
    locks = lock_fields(cm)
    for m in cm.decl.methods:
        for e in A.walk(m.body):
            if isinstance(e, A.Sync):
                want = alias_reference.sync_monitor(e.monitor, cm, m)
                assert sync_monitor(e.monitor, cm) == want, (m.name, canonical_text(e.monitor))
            elif isinstance(e, A.Call) and e.qualifier is not None and (
                    e.name in DEFAULT_LOCK_METHODS or e.name in DEFAULT_UNLOCK_METHODS):
                for f in locks:
                    want = alias_reference.represents(cm, f, e.qualifier, m)
                    assert (cm.denotes(e.qualifier) is f) == want, (m.name, canonical_text(e.qualifier), f.name)


def test_lock_call_names_the_lock_field_and_whether_it_locks():
    """A configured lock or unlock method on a receiver that denotes a lock
    field; any other method, receiver or field is no lock call."""
    src = """@ThreadSafe
class Calls {
  private final Lock l = null;
  private final Object o = null;
  public void a(Lock p) {
    Lock k = l;
    l.lock(); this.l.unlock(); k.lockInterruptibly(); l.tryLock();
    o.lock(); p.lock(); l.newCondition(); lock();
  }
  private void lock() { }
}
"""
    cm = model_from_source(src)
    calls = [s.expr for s in _method(cm, "a").body.stmts if isinstance(s, A.ExprStmt)]
    l = field_named(cm, "l")
    got = [MonitorAnalysis(cm).lock_call(c) for c in calls]
    assert got == [(l, True), (l, False), (l, True), (l, True), None, None, None, None]
    narrow = MonitorAnalysis(cm, lock_methods=("lock",), unlock_methods=("unlock", "tryLock"))
    assert [narrow.lock_call(c) for c in calls[:4]] == [(l, True), (l, False), None, (l, False)]


def test_a_cfg_is_built_only_for_a_method_with_a_lock_call(monkeypatch):
    built = []
    build_cfg = classmodel_module.build_cfg

    def counting_build_cfg(m):
        built.append(m.name)
        return build_cfg(m)

    monkeypatch.setattr(classmodel_module, "build_cfg", counting_build_cfg)
    cm = model_from_source(
        """@ThreadSafe
class Lazy {
  private int n;
  private final Lock l = null;
  public synchronized void a() { n = 1; }
  public void b() { synchronized (this) { n = 2; } }
  public void c() { l.lock(); n = 3; }
  public void d() { l.lock(); n = 4; l.unlock(); }
  public void e() { l.unlock(); n = 5; }
}
"""
    )
    alerts = analyze_class(cm)
    assert {a.field for a in alerts} == {"n"}
    assert built == ["c", "d"]
    # the oracle lowers every method on the CFGs P3 built and builds the rest
    assert check_class(cm).status == "unsupported"  # e unlocks a lock it does not hold
    assert built == ["c", "d", "a", "b", "e"]
