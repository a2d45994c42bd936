"""Access collection, P1/P2, exposure, and modification classification."""

import pytest
from hypothesis import given, settings

import binder_reference
from conftest import corpus_source, full_size_sources, line_of, model_for, model_from_source
from test_accesspaths import thread_safe_classes

from threadlint.classmodel import (
    DEFAULT_MUTATOR_METHODS,
    AccessKind,
    ThreadSafeTypeAllowlist,
    build_class_model,
    check_no_escaping,
    check_safe_publication,
    exposed_accesses,
    is_default_initialized,
    is_modifying,
)
from threadlint.frontend import ast as A
from threadlint.frontend import annotated_as_thread_safe, parse_source
from threadlint.frontend.ast import canonical_text


def kinds(accesses):
    return [(a.field.name, a.kind.value, a.line) for a in accesses]


# --- build_class_model ---


@pytest.mark.parametrize("names,expected", [
    (("ThreadSafe",), {"A", "D"}),
    (("javax.annotation.concurrent.ThreadSafe",), {"A", "D"}),
    (("GuardedClass",), {"B"}),
    (("ThreadSafe", "GuardedClass"), {"A", "B", "D"}),
])
def test_the_model_and_the_frontend_read_annotations_alike(names, expected):
    """A class model is annotated exactly when ``annotated_as_thread_safe``
    lists its class: both read ``ClassDecl.has_annotation``."""
    ast = parse_source("@ThreadSafe class A { @GuardedClass class B { } class C { } }\n"
                       "@javax.annotation.concurrent.ThreadSafe class D { }\n@Other class E { }")
    assert {c.name for c in annotated_as_thread_safe(ast, names)} == expected
    assert {c.name for c in ast.iter_classes() if build_class_model(c, annotation_names=names).annotated} == expected


def test_counter_dr_accesses():
    src = corpus_source("CounterDR.java")
    cm = model_for("CounterDR.java")
    decl_line = line_of(src.content, "int cnt = 0;")
    read_line = line_of(src.content, "int temp = cnt;")
    write_line = line_of(src.content, "cnt = temp;")
    assert kinds(cm.field_accesses) == [
        ("cnt", "write", decl_line),
        ("cnt", "read", read_line),
        ("cnt", "write", write_line),
    ]
    assert [a.enclosing is None for a in cm.field_accesses] == [True, False, False]


def test_class_without_fields_has_no_accesses():
    cm = model_from_source("@ThreadSafe class N { public void f() { int x = 1; } }")
    assert cm.field_accesses == []


def test_a_kind_the_walk_does_not_handle_is_walked_through_its_children(monkeypatch):
    class Opaque(A.Expr):  # a kind with children that no line of the collector decides on
        __slots__ = ("inner",)

        def __init__(self, span, inner):
            self.span = span
            self.inner = inner

    monkeypatch.setitem(A._CHILDREN, Opaque, lambda n: [n.inner])
    decl = parse_source("@ThreadSafe class G { private int n; public int get() { return n; } }").classes[0]
    ret = decl.methods[0].body.stmts[0]
    ret.value = Opaque(ret.value.span, ret.value)
    assert kinds(build_class_model(decl).field_accesses) == [("n", "read", 1)]


def test_array_element_write():
    cm = model_from_source(
        "@ThreadSafe class A { private int[] arr = null; public void set(int i) { arr[i] = 3; } }"
    )
    method_accesses = [a for a in cm.field_accesses if a.enclosing is not None]
    assert [(a.field.name, a.kind) for a in method_accesses] == [
        ("arr", AccessKind.ARRAY_ELEMENT_WRITE)
    ]


def test_locals_shadow_fields():
    cm = model_from_source(
        """@ThreadSafe
class S {
  private int v = 0;
  public void f(int v) { v = v + 1; }
  public void g() { int v = 2; v = v + 1; }
  public int h() { return v; }
}
"""
    )
    non_init = [a for a in cm.field_accesses if a.enclosing is not None]
    assert kinds(non_init) == [("v", "read", 6)]


def test_compound_assignment_reads_and_writes():
    cm = model_from_source(
        "@ThreadSafe class C { private int n; public void f() { n += 2; n++; } }"
    )
    assert [a.kind.value for a in cm.field_accesses] == ["read", "write", "read", "write"]


def test_other_objects_fields_ignored():
    cm = model_from_source(
        "@ThreadSafe class O { private O peer = null; public void f() { peer.x = 1; int y = peer.x; } }"
    )
    non_init = [a for a in cm.field_accesses if a.enclosing is not None]
    # only the reads of `peer` itself, not peer.x
    assert [(a.field.name, a.kind.value) for a in non_init] == [
        ("peer", "read"), ("peer", "read"),
    ]


def test_static_field_access_via_class_name():
    cm = model_from_source(
        "@ThreadSafe class T { private static int total = 0; public void f() { T.total = 5; } }"
    )
    non_init = [a for a in cm.field_accesses if a.enclosing is not None]
    assert [(a.field.name, a.kind.value) for a in non_init] == [("total", "write")]


def test_parenthesized_targets_and_receivers_are_accesses():
    cm = model_from_source(
        "@ThreadSafe class P { private int x; private final int[] a = new int[1]; "
        "private final List<Integer> l = null; public void f() { (x)++; --((x)); (a)[0] = 1; ((a))[0]++; (l).clear(); } }"
    )
    non_init = [a for a in cm.field_accesses if a.enclosing is not None]
    assert [(a.field.name, a.kind.value) for a in non_init] == [
        ("x", "read"), ("x", "write"), ("x", "read"), ("x", "write"),
        ("a", "arrayElementWrite"), ("a", "arrayElementWrite"), ("l", "mutatorCall"),
    ]


# --- field_of: the one own-field binding ---


def bindings(cm, method_name):
    """(expression text, bound field name or None) for every name, field
    selection and parenthesized expression of one method, in source order."""
    m = next(m for m in cm.decl.methods if m.name == method_name)
    out = []
    for e in A.walk(m.body):
        if isinstance(e, (A.Name, A.FieldSel, A.Paren)):
            f = cm.field_of(e)
            out.append((canonical_text(e), f.name if f is not None else None))
    return out


SCOPES = """@ThreadSafe
class C {
  private int x;
  private static int S;
  private Object mu;
  public void param(Object mu) { synchronized (mu) { x = (x) + C.S; } }
  public void block() { { int x = 1; } x = 2; this.mu = null; }
  public void loop() { for (int x = 0; x < 1; x++) { S = x; } x = S; }
  public void local() { Object C = null; int v = C.S + x; }
}
"""


def test_field_of_scopes_parameters_and_locals_by_block():
    cm = model_from_source(SCOPES)
    assert bindings(cm, "param") == [
        ("mu", None), ("x", "x"), ("(x)", "x"), ("x", "x"), ("C.S", "S"), ("C", None),
    ]
    assert bindings(cm, "block") == [("x", "x"), ("this.mu", "mu")]
    assert bindings(cm, "loop") == [
        ("x", None), ("x", None), ("S", "S"), ("x", None), ("x", "x"), ("S", "S"),
    ]
    # a local named like the class hides it: C.S selects from the local
    assert bindings(cm, "local") == [("C.S", None), ("C", None), ("x", "x")]


def test_field_of_is_none_for_other_expressions():
    cm = model_from_source(SCOPES)
    m = next(m for m in cm.decl.methods if m.name == "param")
    assert cm.field_of(m.body.stmts[0].body.stmts[0].expr) is None  # the assignment
    assert all(cm.field_of(e) is None for e in A.walk(m.body) if isinstance(e, (A.Literal, A.This)))


# --- denotes and is_local: locals bound to their declarations ---


def denoted(cm, method_name):
    """(identifier, is_local, denoted field name or None) for every bare name
    of one method, in source order."""
    m = next(m for m in cm.decl.methods if m.name == method_name)
    out = []
    for e in A.walk(m.body):
        if isinstance(e, A.Name):
            f = cm.denotes(e)
            out.append((e.identifier, cm.is_local(e), f.name if f is not None else None))
    return out


LOCALS = """@ThreadSafe
class D {
  private final Object mu = new Object();
  private final Object other = new Object();
  private final java.util.List<Object> objs = null;
  private int x;
  public void foreach() { { Object o = mu; } for (Object o : objs) { o.hashCode(); } }
  public void header() { for (Object objs : objs) { objs.hashCode(); } }
  public void caught() { { Object e = mu; } try { x = 1; } catch (RuntimeException e) { e.hashCode(); } }
  public void siblings() { { Object o = other; o.hashCode(); } { Object o = mu; o.hashCode(); } }
  public void target(int[] a) { Object o = mu; a[(o = other).hashCode() & 1] = 1; o.hashCode(); }
  public int bumped() { int n = x; int m = x; int k = x; n++; k += 1; return n + m + k; }
  public void param(Object mu) { mu.hashCode(); (mu).hashCode(); }
  public void chain() { Object a = mu; Object b = (a); Object c; Object d = c; c = d; b.hashCode(); d.hashCode(); }
}
"""


def test_denotes_never_takes_a_foreach_variable_for_an_alias():
    cm = model_from_source(LOCALS)
    # the block's o is an alias of mu; the loop's o is another local
    assert denoted(cm, "foreach") == [("mu", False, "mu"), ("objs", False, "objs"), ("o", True, None)]
    # the loop variable's scope is the body, so the iterable is the field
    assert denoted(cm, "header") == [("objs", False, "objs"), ("objs", True, None)]


def test_denotes_never_takes_a_catch_parameter_for_an_alias():
    cm = model_from_source(LOCALS)
    assert denoted(cm, "caught") == [("mu", False, "mu"), ("x", False, "x"), ("e", True, None)]


def test_same_name_locals_in_sibling_blocks_are_two_locals():
    cm = model_from_source(LOCALS)
    assert denoted(cm, "siblings") == [
        ("other", False, "other"), ("o", True, "other"), ("mu", False, "mu"), ("o", True, "mu"),
    ]


def test_a_reassignment_inside_an_assignment_target_is_a_write():
    cm = model_from_source(LOCALS)
    assert denoted(cm, "target") == [
        ("mu", False, "mu"), ("a", True, None), ("o", True, None), ("other", False, "other"), ("o", True, None),
    ]


def test_denotes_follows_a_chain_of_single_assignment_aliases():
    cm = model_from_source(LOCALS)
    # b holds a, which holds mu; d and c hold each other and so nothing
    assert denoted(cm, "chain") == [
        ("mu", False, "mu"), ("a", True, "mu"), ("c", True, None), ("c", True, None), ("d", True, None),
        ("b", True, "mu"), ("d", True, None),
    ]


def test_increments_and_compound_assignments_are_writes_of_unknown_value():
    cm = model_from_source(LOCALS)
    names = denoted(cm, "bumped")
    assert names[-3:] == [("n", True, None), ("m", True, "x"), ("k", True, None)]


def test_parameters_are_locals_that_denote_no_field():
    cm = model_from_source(LOCALS)
    assert denoted(cm, "param") == [("mu", True, None), ("mu", True, None)]
    m = next(m for m in cm.decl.methods if m.name == "param")
    paren = m.body.stmts[1].expr.qualifier
    assert isinstance(paren, A.Paren) and cm.is_local(paren) and cm.denotes(paren) is None
    assert not cm.is_local(m.body.stmts[0].expr)  # a call is no local


# --- the flat scope table binds as the scope-list binder did ---


def assert_binds_as_the_scope_list_binder(decl):
    """``build_class_model`` records, for every class, the bindings, local
    writes, calls, synchronized blocks and field accesses, in the same order,
    that the reference binder's walk records; the locals bound to one
    declaration share one writes list in both, list for list."""
    cm = build_class_model(decl)
    ref = binder_reference.collect(decl, DEFAULT_MUTATOR_METHODS)
    assert cm.bindings == ref.bindings
    assert cm.calls == ref.calls
    assert cm.syncs == ref.syncs
    assert cm.local_writes.keys() == ref.local_writes.keys()
    lists = {}  # id(a writes list here) -> id(the reference's list for the same names)
    for key, writes in cm.local_writes.items():
        want = ref.local_writes[key]
        assert lists.setdefault(id(writes), id(want)) == id(want)
        assert len(writes) == len(want) and all(v is w for v, w in zip(writes, want))
    assert len(set(lists.values())) == len(lists)

    def rows(accesses):
        return [(a.field, a.kind, a.span, a.enclosing, a.expr) for a in accesses]

    assert rows(cm.field_accesses) == rows(sorted(ref.out, key=lambda a: (a.span.start, a.span.end)))


SHADOWS = """@ThreadSafe
class H {
  private int x;
  private int i;
  private int a;
  private static int S;
  private final Object mu = new Object();
  private int[] arr = new int[2];
  public void nested() { { int x = 1; { x = x + 1; { x++; int i = x; } i = x; } } x = 2; }
  public void siblings() { { int x = 1; x += this.x; } { int x = 2; x = x + 1; } x = 3; }
  public void forinit() { for (int i = 0; i < x; i++) { x = i; } i = 1; for (i = 0; i < 2; i++) { arr[i] = i; } }
  public void foreach(int[] arr) { for (int x : arr) { x = 1; mu.hashCode(); } x = arr[0]; }
  public void caught() { try { x = 1; } catch (RuntimeException x) { x.hashCode(); } finally { x = 3; } }
  public void declarators() { int a = 1, b = a; b = a + this.a; a = b; }
  public void twice() { int x = 1; int x = x + 1; x = 2; { int x = 3; x++; } x++; }
  public void twiceParam(int x) { int x = 2; x = 3; }
  public void twiceInBlock() { { Object x = mu; Object x = x; x.hashCode(); } x = 1; }
  public void shadowsClass() { Object H = mu; H.S = 1; { int S = H.S; } S = H.S; }
}
"""


def test_hand_cases_bind_as_the_scope_list_binder():
    cm = model_from_source(SHADOWS)
    for decl in parse_source(SHADOWS).iter_classes():
        assert_binds_as_the_scope_list_binder(decl)
    # a name declared twice in one block denotes the later declaration
    # until the block closes; past it, the name is the field again
    assert denoted(cm, "twiceInBlock") == [("mu", False, "mu"), ("x", True, "mu"), ("x", True, "mu"),
                                           ("x", False, "x")]
    assert denoted(cm, "forinit")[-6:] == [
        ("i", False, "i"), ("i", False, "i"), ("i", False, "i"), ("arr", False, "arr"), ("i", False, "i"),
        ("i", False, "i"),
    ]


def test_every_class_of_the_inputs_binds_as_the_scope_list_binder():
    """The corpus, the oracle probes and the three full-size workloads at seed 1."""
    classes = 0
    for text in full_size_sources():
        for decl in parse_source(text).iter_classes():
            assert_binds_as_the_scope_list_binder(decl)
            classes += 1
    assert classes > 100


@settings(max_examples=200, deadline=None, derandomize=True)
@given(thread_safe_classes())
def test_generated_classes_bind_as_the_scope_list_binder(src):
    for decl in parse_source(src).iter_classes():
        assert_binds_as_the_scope_list_binder(decl)


# --- P1 ---


def test_p1_counter_dr_package_visible_field():
    alerts = check_no_escaping(model_for("CounterDR.java"))
    assert [(a.rule, a.field) for a in alerts] == [("P1", "cnt")]


def test_p1_counter_ts_clean():
    assert check_no_escaping(model_for("CounterTS.java")) == []


def test_p1_ignores_final():
    cm = model_from_source("@ThreadSafe class F { public final int k = 1; }")
    assert [(a.rule, a.field) for a in check_no_escaping(cm)] == [("P1", "k")]


# --- P2 ---


def test_p2_counter_ts_clean():
    assert check_safe_publication(model_for("CounterTS.java")) == []


def test_p2_test_class_lock_field():
    alerts = check_safe_publication(model_for("Test.java"))
    assert [(a.rule, a.field) for a in alerts] == [("P2", "lock")]


def test_p2_volatile_uninitialized_clean():
    cm = model_from_source("@ThreadSafe class V { private volatile boolean flag; }")
    assert check_safe_publication(cm) == []


# --- is_default_initialized ---


@pytest.mark.parametrize(
    "field_src,expected",
    [
        ("int cnt = 0;", True),
        ("int x;", True),
        ("Lock l = new ReentrantLock();", False),
        ("long big = 0L;", True),
        ("long big = 0;", True),
        ("boolean done = false;", True),
        ("boolean done = true;", False),
        ("char c = '\\u0000';", True),
        ("Object o = null;", True),
        ("double d = 0.0;", True),
        ("int y = 1 - 1;", False),  # no constant folding, by design
        ("int z = 1;", False),
        # the value decides, not the spelling
        ("private int a = 0x0;", True),
        ("long b = 0x0L;", True),
        ("int g = 00;", True),
        ("int h = 0_0;", True),
        ("double e = 0.;", True),
        ("double d = 0e0;", True),
        ("float f = 0.0e0f;", True),
        ("char c = 0;", True),
        ("char c = '\\0';", True),
        ("char c = '\\000';", True),
        ("int i = '\\u0000';", True),
        ("int[] arr = null;", True),
        ("int x = 0x10;", False),
        ("long l = 0x0_1L;", False),
        ("double d = 0.5;", False),
        ("double d = 1e0;", False),
        ("double d = 0.0e5d;", True),
        ("char c = '0';", False),
        ("char c = '\\u0041';", False),
        ("char c = '\\\\';", False),
        ("int p = (0);", False),
        ("double n = -0.0;", False),
        ("boolean b = 0;", False),
        ("Integer boxed = 0;", False),
        ("Object o = false;", False),
        ("String s = \"\";", False),
    ],
)
def test_is_default_initialized(field_src, expected):
    ast = parse_source(f"class D {{ {field_src} }}")
    assert is_default_initialized(ast.classes[0].fields[0]) is expected


# --- exposure ---


def test_exposed_counter_dr_excludes_initializer():
    src = corpus_source("CounterDR.java")
    cm = model_for("CounterDR.java")
    assert kinds(exposed_accesses(cm)) == [
        ("cnt", "read", line_of(src.content, "int temp = cnt;")),
        ("cnt", "write", line_of(src.content, "cnt = temp;")),
    ]


def test_exposed_excludes_volatile():
    cm = model_from_source(
        "@ThreadSafe class V { private volatile int v; public void f() { v = v + 1; } }"
    )
    assert exposed_accesses(cm) == []


def test_exposed_excludes_constructor_accesses():
    cm = model_from_source(
        "@ThreadSafe class C { private int n; C() { n = 5; } public int get() { return n; } }"
    )
    assert [(a.kind.value, a.enclosing.name) for a in exposed_accesses(cm)] == [("read", "get")]


def test_exposed_excludes_allowlisted_types():
    src = """
import java.util.concurrent.ConcurrentHashMap;

@ThreadSafe
class M {
  private final ConcurrentHashMap map = new ConcurrentHashMap();
  public Object get(String k) { return map.get(k); }
}
"""
    cm = model_from_source(src)
    assert exposed_accesses(cm) == []
    # without the allowlist the read would be exposed
    ast = parse_source(src)
    bare = build_class_model(ast.classes[0], allowlist=ThreadSafeTypeAllowlist((), ()))
    assert [(a.field.name, a.kind.value) for a in exposed_accesses(bare)] == [("map", "read")]


def test_exposed_asks_the_allowlist_once_per_field(monkeypatch):
    asked = []
    contains_type = ThreadSafeTypeAllowlist.contains_type
    monkeypatch.setattr(ThreadSafeTypeAllowlist, "contains_type",
                        lambda self, *types: asked.append(types) or contains_type(self, *types))
    cm = model_from_source(
        "@ThreadSafe class C { private int n; private int[] a; volatile int v;"
        " public void f() { n = n + a[n]; a[0] = v + n; v = n; } }"
    )
    asked.clear()
    assert len(exposed_accesses(cm)) == 7
    assert sorted(asked) == [("int", "int"), ("int[]", "int[]")]


def test_exposed_requires_annotation():
    cm = model_from_source("class P { int n; public void f() { n = 1; } }")
    assert not cm.annotated
    assert exposed_accesses(cm) == []


def test_exposed_subset_of_field_accesses(corpus_names):
    for name in corpus_names:
        cm = model_for(name)
        all_ids = {id(a) for a in cm.field_accesses}
        for a in exposed_accesses(cm):
            assert id(a) in all_ids
            assert not a.field.is_volatile
            assert a.enclosing is not None and not a.enclosing.is_constructor


# --- is_modifying ---


def test_is_modifying_kinds():
    src = corpus_source("CounterDR.java")
    cm = model_for("CounterDR.java")
    read, write = exposed_accesses(cm)
    assert not is_modifying(read)
    assert is_modifying(write)


def test_mutator_call_is_modifying():
    cm = model_from_source(
        "@ThreadSafe class L { private java.util.List list = null; public void f(int x) { list.add(x); } }",
    )
    (access,) = [a for a in cm.field_accesses if a.enclosing is not None]
    assert access.kind is AccessKind.MUTATOR_CALL
    assert is_modifying(access)


def test_non_mutator_call_is_read():
    cm = model_from_source(
        "@ThreadSafe class L { private java.util.List list = null; public int f() { return list.size(); } }",
    )
    (access,) = [a for a in cm.field_accesses if a.enclosing is not None]
    assert access.kind is AccessKind.READ
    assert not is_modifying(access)


def test_allowlist_rejects_arrays_and_matches_prefix():
    al = ThreadSafeTypeAllowlist(("java.util.concurrent.",), ("com.acme.SafeBox",))
    assert al.contains_type("ConcurrentHashMap", "java.util.concurrent.ConcurrentHashMap")
    assert al.contains_type("SafeBox", "com.acme.SafeBox")
    assert not al.contains_type("SafeBox[]", "com.acme.SafeBox[]")
    assert not al.contains_type("HashMap", "java.util.HashMap")
    # an array of a generic thread-safe type is an array too
    ref = "java.util.concurrent.atomic.AtomicReference<String>"
    assert al.contains_type("AtomicReference<String>", ref)
    assert not al.contains_type("AtomicReference<String>[]", ref + "[]")
    assert not al.contains_type("AtomicReference<String>[][]", ref + "[][]")
    assert al.contains_type("AtomicReference<int[]>", "java.util.concurrent.atomic.AtomicReference<int[]>")
    with pytest.raises(ValueError):
        ThreadSafeTypeAllowlist(("",), ())
