"""Transitive call-reachability facts (providesAccess / publicAccess)."""

import ap_reference
import forex_reference
from conftest import model_for, model_from_source
from hypothesis import given, settings
from hypothesis import strategies as st

from threadlint.accesspaths import provides_access
from threadlint.classmodel import exposed_accesses
from threadlint.monitors import MonitorAnalysis


def fact_names(facts, access):
    return sorted(f.method.name for f in facts if f.access is access)


def test_test_class_facts_match_paper_listing():
    cm = model_for("Test.java")
    (write_y,) = exposed_accesses(cm)
    facts = provides_access(cm)
    assert fact_names(facts, write_y) == ["setY", "setYPrivate"]
    direct = next(f for f in facts if f.method.name == "setYPrivate")
    assert direct.expr is write_y.expr
    via_call = next(f for f in facts if f.method.name == "setY")
    assert type(via_call.expr).__name__ == "Call"
    assert via_call.expr.name == "setYPrivate"


def test_base_case_public_method_containing_access():
    cm = model_from_source(
        "@ThreadSafe class B { private int n; public void set(int v) { n = v; } }"
    )
    (w,) = exposed_accesses(cm)
    facts = provides_access(cm)
    assert len([f for f in facts if f.access is w]) == 1
    assert [f.expr for f in MonitorAnalysis(cm, facts).public_facts(w)] == [w.expr]


def test_three_method_chain_yields_three_facts():
    cm = model_from_source(
        """@ThreadSafe
class Chain {
  private int n;
  private void inner() { n = 1; }
  private void middle() { inner(); }
  public void outer() { middle(); }
}
"""
    )
    (w,) = exposed_accesses(cm)
    facts = [f for f in provides_access(cm) if f.access is w]
    assert sorted(f.method.name for f in facts) == ["inner", "middle", "outer"]


def test_private_only_access_has_empty_public_access():
    cm = model_from_source(
        """@ThreadSafe
class Hidden {
  private int n;
  private void touch() { n = 2; }
}
"""
    )
    (w,) = exposed_accesses(cm)
    assert MonitorAnalysis(cm).public_facts(w) == []


def test_two_public_entry_points_two_expressions():
    cm = model_from_source(
        """@ThreadSafe
class Two {
  private int n;
  private void raw(int v) { n = v; }
  public void a(int v) { raw(v); }
  public void b(int v) { raw(v); }
}
"""
    )
    (w,) = exposed_accesses(cm)
    exprs = [f.expr for f in MonitorAnalysis(cm).public_facts(w)]
    assert len(exprs) == 2 and exprs[0] is not exprs[1]
    assert all(e.name == "raw" for e in exprs)


def test_recursion_terminates():
    cm = model_from_source(
        """@ThreadSafe
class R {
  private int n;
  public void ping(int d) { n = d; pong(d); }
  public void pong(int d) { ping(d); }
}
"""
    )
    (w,) = exposed_accesses(cm)
    facts = [f for f in provides_access(cm) if f.access is w]
    # ping provides access directly and again through its call to pong
    assert sorted(f.method.name for f in facts) == ["ping", "ping", "pong"]


def test_base_facts_are_subset_of_fixpoint(corpus_names):
    for name in corpus_names:
        cm = model_for(name)
        base_keys = {(id(a.enclosing), id(a.expr), id(a)) for a in exposed_accesses(cm)}
        full = provides_access(cm)
        # the containment facts are the ones at the access itself
        contained = {(id(f.method), id(f.expr), id(f.access)) for f in full if f.expr is f.access.expr}
        assert contained == base_keys, name


def test_overload_resolution_by_arity():
    cm = model_from_source(
        """@ThreadSafe
class Olo {
  private int n;
  private void set(int v) { n = v; }
  private void set(int v, int w) { int unused = v + w; }
  public void go(int v) { set(v); }
}
"""
    )
    (w,) = exposed_accesses(cm)
    facts = [f for f in provides_access(cm) if f.access is w]
    assert sorted(f.method.name for f in facts) == ["go", "set"]


def test_calls_on_other_receivers_do_not_resolve():
    cm = model_from_source(
        """@ThreadSafe
class Recv {
  private int n;
  private Recv peer = null;
  private void set(int v) { n = v; }
  public void viaPeer(int v) { peer.set(v); }
  public void viaThis(int v) { this.set(v); }
}
"""
    )
    w = next(a for a in exposed_accesses(cm) if a.field.name == "n")
    facts = [f for f in provides_access(cm) if f.access is w]
    assert sorted(f.method.name for f in facts) == ["set", "viaThis"]


# --- parity of the worklist fixpoint with the round-robin reference ---

METHOD_NAMES = ("a", "b", "c")


def operands(depth):
    leaves = st.sampled_from(["0", "p0", "f0", "this.f1", "peer.f0"])
    return leaves if depth >= 2 else st.one_of(leaves, calls(depth + 1))


@st.composite
def calls(draw, depth=0):
    """A call that may resolve in the class, name a missing method or arity, or go elsewhere."""
    receiver = draw(st.sampled_from(["", "", "this.", "peer.", "other."]))
    name = draw(st.sampled_from(METHOD_NAMES + ("missing",)))
    args = draw(st.lists(operands(depth), max_size=2))
    return f"{receiver}{name}({', '.join(args)})"


@st.composite
def statements(draw, depth=0):
    kinds = ["write", "compound", "read", "call", "call"] + (["sync", "if"] if depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    field = draw(st.sampled_from(["f0", "this.f1", "peer"]))
    if kind == "write":
        return f"{field} = {draw(operands(depth))};" if field != "peer" else "peer = null;"
    if kind == "compound":
        return f"{field} += {draw(operands(depth))};" if field != "peer" else "peer = this;"
    if kind == "read":
        return f"int v = {draw(operands(depth))};"
    if kind == "call":
        return f"{draw(calls(depth))};"
    inner = " ".join(draw(st.lists(statements(depth + 1), min_size=1, max_size=3)))
    if kind == "sync":
        return f"synchronized (this) {{ {inner} }}"
    return f"if (f0 > 0) {{ {inner} }} else {{ {draw(statements(depth + 1))} }}"


@st.composite
def thread_safe_classes(draw):
    """Small classes with chains, (mutual) recursion, arity and type overloads, and constructors."""
    members = []
    for _ in range(draw(st.integers(2, 6))):
        name = draw(st.sampled_from(METHOD_NAMES))
        arity = draw(st.integers(0, 2))
        ptype = draw(st.sampled_from(["int", "long"]))
        params = ", ".join(f"{ptype} p{j}" for j in range(arity))
        vis = draw(st.sampled_from(["public", "private"]))
        if draw(st.integers(0, 9)) == 0:
            members.append(f"  {vis} native int {name}({params});")
            continue
        body = " ".join(draw(st.lists(statements(), max_size=4)))
        members.append(f"  {vis} int {name}({params}) {{ {body} return 0; }}")
    if draw(st.booleans()):
        body = " ".join(draw(st.lists(statements(), max_size=3)))
        members.insert(0, f"  public R(int p0) {{ {body} }}")
    fields = "  private int f0;\n  private int f1;\n  private R peer;\n"
    return "@ThreadSafe\nclass R {\n" + fields + "\n".join(members) + "\n}\n"


def fact_keys(facts):
    return {(id(f.method), id(f.expr), id(f.access)) for f in facts}


@settings(max_examples=300, deadline=None)
@given(thread_safe_classes())
def test_worklist_fixpoint_matches_round_robin_reference(src):
    cm = model_from_source(src)
    # the exposed subset, and every access including constructor ones
    for exposed in (None, cm.field_accesses):
        facts = provides_access(cm, exposed)
        keys = fact_keys(facts)
        assert len(keys) == len(facts)  # each (method, expr, access) once
        assert keys == fact_keys(ap_reference.provides_access(cm, exposed))


@settings(max_examples=300, deadline=None)
@given(thread_safe_classes())
def test_lockset_transfer_matches_path_enumeration(src):
    """The transfer over the call graph gives, for every exposed access, the
    intersection over its public call paths of the monitors taken along each,
    and never less than the paper's forex over the public facts."""
    cm = model_from_source(src)
    info = MonitorAnalysis(cm, list(ap_reference.provides_access(cm)))
    for a in cm.exposed:
        assert info.monitors(a) == forex_reference.monitors(info, a), a
        assert info.has_public_path(a) == forex_reference.has_public_path(info, a), a
        assert forex_reference.forex(info, a) <= info.monitors(a), a
