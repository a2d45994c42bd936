"""Conflicting pairs, P3 alerts, and whole-class aggregation."""

import p3_reference
from conftest import corpus_source, line_of, model_for, model_from_source
from hypothesis import given, settings
from hypothesis import strategies as st

from threadlint.accesspaths import provides_access
from threadlint.monitors import MonitorAnalysis
from threadlint.raceanalysis import (
    analyze_class,
    check_correct_synchronization,
    conflicting_pairs,
)


def pair_lines(pairs):
    return [(p.a.field.name, p.a.line, p.b.line) for p in pairs]


def rules_of(alerts):
    return [a.rule for a in alerts]


# --- conflicting_pairs ---


def test_counter_dr_pairs_match_paper_example():
    src = corpus_source("CounterDR.java")
    cm = model_for("CounterDR.java")
    read_line = line_of(src.content, "int temp = cnt;")
    write_line = line_of(src.content, "cnt = temp;")
    assert pair_lines(conflicting_pairs(cm)) == [
        ("cnt", write_line, read_line),
        ("cnt", write_line, write_line),
    ]


def test_volatile_fields_never_pair():
    cm = model_from_source(
        """@ThreadSafe
class V {
  private volatile int v;
  public void w() { v = 1; }
  public int r() { return v; }
}
"""
    )
    assert conflicting_pairs(cm) == []


def test_two_reads_do_not_conflict():
    cm = model_from_source(
        """@ThreadSafe
class RR {
  private int n = 0;
  public int a() { return n; }
  public int b() { return n; }
}
"""
    )
    assert conflicting_pairs(cm) == []


def test_pair_dedup_modifying_first():
    cm = model_from_source(
        """@ThreadSafe
class D {
  private int n = 0;
  public int get() { return n; }
  public void set(int v) { n = v; }
}
"""
    )
    pairs = conflicting_pairs(cm)
    # (read, write) collapses to one pair with the write first, plus (w, w)
    assert len(pairs) == 2
    assert all(p.a.kind.value == "write" for p in pairs)


# --- check_correct_synchronization ---


def test_counter_dr_two_p3_alerts():
    cm = model_for("CounterDR.java")
    alerts = check_correct_synchronization(cm)
    assert rules_of(alerts) == ["P3", "P3"]
    assert all(a.secondary is not None for a in alerts)


def test_counter_ts_no_p3_alerts():
    assert check_correct_synchronization(model_for("CounterTS.java")) == []


def test_mismatched_monitors_alert():
    cm = model_from_source(
        """@ThreadSafe
class MM {
  private int n = 0;
  private final Lock l = null;
  public synchronized int get() { return n; }
  public void set(int v) { l.lock(); n = v; l.unlock(); }
}
"""
    )
    alerts = check_correct_synchronization(cm)
    # (write,read) and (write,write): disjoint nonempty monitor sets alert once each
    assert rules_of(alerts) == ["P3"]
    assert "no common monitor" in alerts[0].message


def test_shared_monitor_across_sync_forms_is_ok():
    cm = model_from_source(
        """@ThreadSafe
class OK {
  private int n = 0;
  public synchronized int get() { return n; }
  public void set(int v) { synchronized (this) { n = v; } }
}
"""
    )
    assert check_correct_synchronization(cm) == []


def test_no_public_access_path_message():
    cm = model_from_source(
        """@ThreadSafe
class NP {
  private int n = 0;
  private void hidden(int v) { n = v; }
  public int get() { return n; }
}
"""
    )
    alerts = check_correct_synchronization(cm)
    assert alerts and all("no public access path" in a.message for a in alerts)


def test_dead_private_state_produces_no_alert():
    cm = model_from_source(
        """@ThreadSafe
class Dead {
  private int n = 0;
  private int unusedRead() { return n; }
}
"""
    )
    # the read is never part of a conflict (no modifying access), so silence
    assert check_correct_synchronization(cm) == []


# --- analyze_class ---


def test_counter_dr_full_tally():
    alerts = analyze_class(model_for("CounterDR.java"))
    assert sorted(rules_of(alerts)) == ["P1", "P3", "P3"]


def test_counter_ts_clean():
    assert analyze_class(model_for("CounterTS.java")) == []


def test_test_class_tally():
    alerts = analyze_class(model_for("Test.java"))
    assert rules_of(alerts) == ["P2"]
    assert alerts[0].field == "lock"


def test_unannotated_class_ignored():
    cm = model_for("NotAnnotated.java")
    assert analyze_class(cm) == []


def test_rule_filtering():
    cm = model_for("CounterDR.java")
    full = analyze_class(cm)
    only_p1 = analyze_class(cm, rules=("P1",))
    assert only_p1 == [a for a in full if a.rule == "P1"]
    only_p3 = analyze_class(cm, rules=("P3",))
    assert only_p3 == [a for a in full if a.rule == "P3"]


def test_alerts_sorted_and_deterministic():
    cm1 = model_for("CounterDR.java")
    cm2 = model_for("CounterDR.java")
    a1 = analyze_class(cm1)
    a2 = analyze_class(cm2)
    assert a1 == a2
    keys = [a.sort_key() for a in a1]
    assert keys == sorted(keys)


def test_adding_unsynchronized_writer_does_not_decrease_p3():
    base = """@ThreadSafe
class Mono {{
  private int n = 0;
  public synchronized int get() {{ return n; }}
  public synchronized void set(int v) {{ n = v; }}
  {extra}
}}
"""
    before = analyze_class(model_from_source(base.format(extra="")))
    after = analyze_class(
        model_from_source(base.format(extra="public void raw(int v) { n = v; }"))
    )
    p3 = lambda alerts: sum(1 for a in alerts if a.rule == "P3")
    assert p3(after) >= p3(before)
    assert p3(after) > 0


def call_chain(n: int) -> str:
    """A locked public entry into an ``n``-step private chain that recurses
    to its start, a locked getter, an unlocked entry into the chain's last
    step, and a private writer no public method reaches."""
    steps = [f"  private void s{k}() {{ n = n + {k}; s{(k + 1) % n}(); }}" for k in range(n)]
    return "\n".join([
        "@ThreadSafe", "class Chain {", "  private int n;", "  private final Lock l = null;",
        "  public void entry() { l.lock(); try { s0(); } finally { l.unlock(); } }",
        *steps,
        "  public int get() { l.lock(); try { return n; } finally { l.unlock(); } }",
        f"  public void leak() {{ s{n - 1}(); }}",
        "  private void orphan() { n = 0; }",
        "}",
    ])


def test_p3_builds_no_access_path_facts(monkeypatch):
    src = call_chain(6)
    want = analyze_class(model_from_source(src))
    details = {a.message.split(": ", 1)[1] for a in want if a.rule == "P3"}
    assert details == {"no common monitor guards both accesses",
                       f"no public access path to the write at line {line_of(src, 'n = 0;')}"}

    def refuse(*args, **kw):
        raise AssertionError("the verdict path built the fact relation")

    monkeypatch.setattr("threadlint.accesspaths.provides_access", refuse)
    assert analyze_class(model_from_source(src)) == want


def test_p3_asks_protection_linearly_in_call_sites_and_accesses(monkeypatch):
    """A method is visited again only when its entry set loses a monitor, so
    each call site is asked at most once per distinct monitor plus once, and
    each exposed access once."""
    asked = []
    protecting = MonitorAnalysis.protecting_monitors

    def counted(self, m, expr):
        asked.append((m.name, expr))
        return protecting(self, m, expr)

    monkeypatch.setattr(MonitorAnalysis, "protecting_monitors", counted)
    cm = model_from_source(call_chain(200))
    assert analyze_class(cm)
    info = MonitorAnalysis(cm)
    sites = [(m, e) for m in cm.decl.methods for e in cm.calls_in(m) if cm.callees(e)]
    distinct = {mon for m, e in sites for mon in protecting(info, m, e)}
    assert len(asked) <= len(sites) * (len(distinct) + 1) + len(cm.exposed)


def test_try_finally_lock_idiom_is_clean():
    assert analyze_class(model_for("TryFinally.java")) == []


def test_sync_blocks_fixture_clean():
    assert analyze_class(model_for("SyncBlocks.java")) == []


def test_mixed_fixture_clean():
    assert analyze_class(model_for("Mixed.java")) == []


def test_unguarded_fixture_alerts():
    alerts = analyze_class(model_for("Unguarded.java"))
    assert all(a.rule == "P3" and a.field == "counter" for a in alerts)
    assert len(alerts) == 4  # (w, r-rhs), (w, w), (w, r-return), (w, r-peek)


# --- pairing by monitor set against the pairwise reference ---

SYNC_METHOD_NAMES = ("a", "b", "c", "d")
WRITTEN_FIELDS = ("f0", "f1", "this.f2")
# ro is never written, so its pairs are all read-read
READ_FIELDS = WRITTEN_FIELDS + ("ro",)


@st.composite
def sync_statements(draw, depth=0):
    kinds = ["write", "compound", "read", "read", "call", "mutate"]
    if depth < 2:
        kinds += ["sync_this", "sync_obj", "window", "window_try"]
    kind = draw(st.sampled_from(kinds))
    if kind == "write":
        return f"{draw(st.sampled_from(WRITTEN_FIELDS))} = {draw(st.sampled_from(READ_FIELDS))} + 1;"
    if kind == "compound":
        return f"{draw(st.sampled_from(WRITTEN_FIELDS))} += 1;"
    if kind == "read":
        return f"int v = {draw(st.sampled_from(READ_FIELDS))};"
    if kind == "call":
        return f"{draw(st.sampled_from(['', 'this.']))}{draw(st.sampled_from(SYNC_METHOD_NAMES))}();"
    if kind == "mutate":
        return "items.add(1);"
    inner = " ".join(draw(st.lists(sync_statements(depth + 1), min_size=1, max_size=3)))
    if kind == "sync_this":
        return f"synchronized (this) {{ {inner} }}"
    if kind == "sync_obj":
        return f"synchronized (lockObj) {{ {inner} }}"
    if kind == "window":
        return f"lock.lock(); {inner} lock.unlock();"
    return f"lock.lock(); try {{ {inner} }} finally {{ lock.unlock(); }}"


@st.composite
def synchronized_classes(draw):
    """Classes of several fields guarded by synchronized methods and blocks and lock windows.

    Methods are public or private, synchronized or not, and call each other.
    """
    members = []
    for name in draw(st.lists(st.sampled_from(SYNC_METHOD_NAMES), min_size=1, max_size=5)):
        mods = draw(st.sampled_from(["public", "private"]))
        if draw(st.booleans()):
            mods += " synchronized"
        body = "\n    ".join(draw(st.lists(sync_statements(), max_size=4)))
        members.append(f"  {mods} void {name}() {{\n    {body}\n  }}")
    fields = (
        "  private int f0;\n  private int f1;\n  private int f2;\n  private int ro;\n"
        "  private final List<Integer> items = new ArrayList<>();\n"
        "  private final Object lockObj = new Object();\n"
        "  private final ReentrantLock lock = new ReentrantLock();\n"
    )
    return "@ThreadSafe\nclass S {\n" + fields + "\n".join(members) + "\n}\n"


class AssignedMonitors(MonitorAnalysis):
    """Monitor sets fixed per access, so that accesses at one source position
    (a compound assignment's read and write) can fall into different groups."""

    def __init__(self, cm, facts, assigned):
        super().__init__(cm, facts)
        self.assigned = assigned

    def monitors(self, a):
        return self.assigned[id(a)]


MONITOR_SETS = (frozenset(), frozenset({"m1"}), frozenset({"m2"}), frozenset({"m1", "m2"}))


@settings(max_examples=300, deadline=None)
@given(synchronized_classes(), st.randoms(use_true_random=False))
def test_pairing_by_monitor_set_matches_pairwise_reference(src, rng):
    cm = model_from_source(src)
    facts = provides_access(cm)
    got = check_correct_synchronization(cm, facts, MonitorAnalysis(cm, facts))
    assert got == p3_reference.check_correct_synchronization(cm, MonitorAnalysis(cm, facts))
    # alerts tied in Alert.sort_key keep the reference's order for any monitor sets
    assigned = {id(a): rng.choice(MONITOR_SETS) for a in cm.field_accesses}
    got = check_correct_synchronization(cm, facts, AssignedMonitors(cm, facts, assigned))
    assert got == p3_reference.check_correct_synchronization(cm, AssignedMonitors(cm, facts, assigned))
