"""Lexer and parser behavior: subset coverage, spans, round-trips, errors,
and the completeness of the shared child relation."""

import gc
import inspect
import os
import sys

import lex_reference
import parse_reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, benchmark_workloads, corpus_source, full_size_sources, line_of, parse_corpus
from test_accesspaths import thread_safe_classes
from test_raceanalysis import synchronized_classes

from threadlint.cli import EXIT_ERROR, main
from threadlint.errors import ParseError, SpanOutOfRange
from threadlint.frontend import (
    DEFAULT_ANNOTATIONS,
    SourceFile,
    annotated_as_thread_safe,
    annotation_pattern,
    parse_compilation_unit,
    parse_source,
    reconstruct_span,
    to_source,
    tokenize,
)
from threadlint.frontend import ast as A
from threadlint.frontend import lexer
from threadlint.frontend import parser as P
from threadlint.frontend.lexer import PRIMITIVE_TYPES, LineTable
from threadlint.frontend.parser import MAX_NESTING


def tokens_of(text):
    return [(kind, tok) for kind, tok, _, _ in tokenize(text)]


def positions(text):
    """Each token's text with the line and column of its start."""
    lines = LineTable(text)
    return [(tok, *lines.line_col(start)) for _, tok, start, _ in tokenize(text)]


# --- lexer ---


def test_tokens_have_positions():
    toks = positions("int x = 0;\nx = 1;")
    assert toks[:4] == [("int", 1, 1), ("x", 1, 5), ("=", 1, 7), ("0", 1, 9)]
    assert toks[5] == ("x", 2, 1)


def test_backslash_newline_in_a_literal_fails_at_the_literal():
    with pytest.raises(ParseError) as err:
        tokenize('int x;\nString s = "a\\\nb";')
    assert (err.value.line, err.value.col) == (2, 12)


def test_escapes_and_line_breaks_keep_later_lines():
    toks = positions('String s = "a\\\\";\nchar c = \'\\\'\';  /* one\ntwo */\nint x;')
    assert [t for t in toks if t[0] in (";", "int", "x")] == [
        (";", 1, 17), (";", 2, 14), ("int", 4, 1), ("x", 4, 5), (";", 4, 6),
    ]


def test_comments_discarded():
    assert tokens_of("a /* b */ c // d\ne") == tokens_of("a c\ne")


def test_multichar_operators():
    texts = [t[1] for t in tokenize("a >>>= b >>= c <<= d >>> e && f")][:-1]
    assert ">>>=" in texts and ">>=" in texts and "<<=" in texts and ">>>" in texts


@pytest.mark.parametrize(
    "src,msg",
    [
        ('"unterminated', "unterminated string"),
        ("'x", "unterminated character"),
        ('"a\\\nb"', "unterminated string"),
        ("'\\\n'", "unterminated character"),
        ("/* never closed", "unterminated block comment"),
        ("int € = 1;", "unexpected character"),
        ("'\\400'", "unterminated character"),  # octal escapes end at \377
        ("'\\1234'", "unterminated character"),
    ],
)
def test_lex_errors(src, msg):
    with pytest.raises(ParseError) as err:
        tokenize(src)
    assert msg in str(err.value)


@pytest.mark.parametrize("literal", ["'\\0'", "'\\7'", "'\\12'", "'\\77'", "'\\000'", "'\\377'", "'\\101'"])
def test_octal_escapes_in_char_literals(literal):
    assert tokens_of(f"char c = {literal};") == [
        ("keyword", "char"), ("ident", "c"), ("punct", "="), ("char", literal), ("punct", ";"), ("eof", ""),
    ]
    decl = parse_source(f"class O {{ void f() {{ char c = {literal}; }} }}").classes[0].methods[0].body.stmts[0]
    assert decl.declarators[0].init.text == literal


@pytest.mark.parametrize("literal", ["'\\8'", "'\\q'", '"\\q"', '"a\\8b"', '"\\x41"', '"\\uXYZW"'])
def test_illegal_escapes_fail_at_the_literal(literal):
    with pytest.raises(ParseError) as err:
        tokenize(f"int x;\n  y = {literal};")
    what = "string" if literal[0] == '"' else "character"
    assert (err.value.line, err.value.col) == (2, 7)
    assert err.value.message == f"illegal escape character in {what} literal"


def test_an_illegal_escape_exits_2_at_the_literal(tmp_path, capsys):
    path = tmp_path / "E.java"
    path.write_text("@ThreadSafe class E { private char c; public void f() { c = '\\8'; } }")
    assert main([str(path)]) == EXIT_ERROR
    assert capsys.readouterr().out == f"{path}:1:61 ERROR illegal escape character in character literal\n"


@pytest.mark.parametrize("body", ["\\b", "\\t", "\\n", "\\f", "\\r", "\\s", '\\"', "\\'", "\\\\",
                                  "\\u0041", "\\0", "\\7", "\\77", "\\377"])
def test_legal_escapes_lex_in_strings_and_chars(body):
    assert tokens_of(f"'{body}' \"<{body}{body}>\"")[:2] == [("char", f"'{body}'"), ("string", f'"<{body}{body}>"')]


def test_an_octal_escape_in_a_string_takes_at_most_three_digits():
    assert tokens_of('"\\1234\\400"')[0] == ("string", '"\\1234\\400"')


JAVA_FRAGMENTS = (
    "class", "C", "{", "}", "int", "x", "=", "0", ";", "public", "void", "m", "(", ")",
    "synchronized", "this", ".", "f", "+=", ">>>=", ">>", "<", "->", "::", "@ThreadSafe",
    "0x1F", "0L", "1.5e3f", ".5", "3.", "1_000", "\"s\"", "\"a\\\"b\"", "'c'", "'\\n'",
    "'\\u0041'", "\"\\u00e9\"", "$x_1", "/", "*", "/=",
)


@st.composite
def lexer_inputs(draw):
    """Java fragments with whitespace, comments, unterminated literals and stray characters."""
    piece = st.one_of(
        st.sampled_from(JAVA_FRAGMENTS),
        st.text(alphabet=" \t\r\n\f", min_size=1, max_size=4),
        st.sampled_from(["// note", "//", "/* c */", "/**/", "/* two\nlines */", "/*\n\n*/", "/* a * b / c */"]),
    )
    pieces = draw(st.lists(piece, max_size=30))
    if draw(st.integers(0, 2)) == 0:
        bad = draw(st.sampled_from(['"open', "'x", "'", '"', "/* open", "/* open\n", "#", "`", "\\", "\u20ac", "\"a\nb\""]))
        pieces.insert(draw(st.integers(0, len(pieces))), bad)
    return "".join(pieces)


def lexed(text):
    """The tokens with the line and column the line table gives their starts."""
    try:
        lines = LineTable(text)
        return [(*t, *lines.line_col(t[2])) for t in tokenize(text)]
    except ParseError as exc:
        return ("error", exc.line, exc.col, exc.message)


def lexed_by_reference(text):
    try:
        return [(t.kind, t.text, t.start, t.end, t.line, t.col) for t in lex_reference.tokenize(text)]
    except ParseError as exc:
        return ("error", exc.line, exc.col, exc.message)


@settings(max_examples=400, deadline=None)
@given(lexer_inputs())
def test_single_match_lexer_matches_reference(text):
    assert lexed(text) == lexed_by_reference(text)


def _real_lexer_inputs():
    """Every generated file of the three workloads at seeds 1 and 2, full
    size, and every Java file under tests/."""
    workloads = benchmark_workloads()
    for workload in workloads.WORKLOADS:
        for seed in (1, 2):
            for f in workloads.generate(workload, seed, "full", CORPUS_DIR):
                if not f.in_repo:
                    yield f"{workload}/{seed}/{f.relpath}", f.text
    tests_dir = os.path.dirname(CORPUS_DIR)
    for root, _, names in sorted(os.walk(tests_dir)):
        for name in sorted(names):
            if name.endswith(".java"):
                with open(os.path.join(root, name), encoding="utf-8", newline="") as fh:
                    yield os.path.relpath(os.path.join(root, name), tests_dir), fh.read()


def test_lexer_matches_reference_on_real_input():
    checked = 0
    for name, text in _real_lexer_inputs():
        assert lexed(text) == lexed_by_reference(text), name
        ref = lex_reference.tokenize(text)
        assert len(tokenize(text)) == sum(t.kind != "eof" for t in ref) + 1, name
        checked += len(ref)
    assert checked > 300_000


@pytest.mark.parametrize("text", [
    "/*", "x /* never closed", "/*/ */x", "a//b\n/*\n*/c", ".5e3f", "0x1F_L", "x>>>=y", "\r\n", "a\r\nb", "",
])
def test_lexer_matches_reference_on_edge_strings(text):
    assert lexed(text) == lexed_by_reference(text)
    if lexed(text)[0] != "error":
        assert len(tokenize(text)) == len(lex_reference.tokenize(text))


@pytest.mark.parametrize("eol", ["\n", "\r", "\r\n"])
def test_each_line_end_starts_a_line_as_in_javac(eol):
    """``\\n``, ``\\r`` and ``\\r\\n`` each end one line (JLS §3.4): in a line
    comment, in the line table and so in every span and error."""
    text = eol.join(["int a; // note", "int b;", "", "  /* x", "y */ int c;"])
    assert positions(text) == [
        ("int", 1, 1), ("a", 1, 5), (";", 1, 6), ("int", 2, 1), ("b", 2, 5), (";", 2, 6),
        ("int", 5, 6), ("c", 5, 10), (";", 5, 11), ("", 5, 12),
    ]
    cls = eol.join(["@ThreadSafe class A { private int x; // note",
                    "public void inc() { x = x + 1; }", "public int get() { return x; } }"])
    inc, get = parse_source(cls).classes[0].methods
    assert (inc.span.start_line, inc.span.start_col, inc.span.end_line, inc.span.end_col) == (2, 1, 2, 33)
    assert (get.span.start_line, get.span.start_col, get.span.end_line, get.span.end_col) == (3, 1, 3, 31)
    with pytest.raises(ParseError) as err:
        tokenize(eol.join(["int x;", '  String s = "a' + eol + 'b";']))
    assert (err.value.line, err.value.col, err.value.message) == (2, 14, "unterminated string literal")


def _calls_while(fn, *args) -> int:
    """The number of Python and built-in calls that ``fn(*args)`` makes; the
    collector is off, so no gc callback counts."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    old, gc_was_on = sys.getprofile(), gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(old)
        if gc_was_on:
            gc.enable()
    return calls


def test_lexing_makes_no_call_per_token():
    """Ten times the tokens cost tokenize not one more call, Python or
    built-in, and each token is a plain tuple: no token object is built."""
    line = "  public int f(int[] a) { x = a[0] + 'c' + 1.5e3f; return this.y; } // n\n"
    assert _calls_while(tokenize, line * 10) == _calls_while(tokenize, line * 100)
    assert {type(t) for t in tokenize(line * 10)} == {tuple}


def test_parsing_builds_no_token_object(monkeypatch):
    """The parser indexes the token columns and never iterates ``Tokens``,
    which would build a tuple per token."""

    def no_iteration(self):
        raise AssertionError("the token columns were iterated")

    monkeypatch.setattr(lexer.Tokens, "__iter__", no_iteration)
    ast = parse_corpus("Mixed.java")
    monkeypatch.undo()
    assert ast.classes and all(type(t) is tuple for t in tokenize(ast.source))


def _spans(obj):
    """Every span in the tree under ``obj``: nodes, declarators, catch
    clauses, parameters, annotations and imports."""
    if isinstance(obj, A.SourceSpan):
        yield obj
    elif isinstance(obj, list):
        for x in obj:
            yield from _spans(x)
    elif isinstance(obj, A.Syntax):
        for name in obj._fields:
            yield from _spans(getattr(obj, name))


def test_every_span_has_the_line_and_column_the_token_positions_give():
    """Each span's ``line:col`` pairs are those the reference lexer gives its
    first token's start and its last token's end, which is what the spans
    stored before they became offsets only."""
    checked = 0
    for text in full_size_sources():
        assert "\r" not in text
        tokens = lex_reference.tokenize(text)
        starts = {t.start: (t.line, t.col) for t in tokens}
        ends = {t.end: (t.line, t.col + len(t.text)) for t in tokens}
        for span in _spans(parse_source(text)):
            got = (span.start_line, span.start_col, span.end_line, span.end_col)
            assert got == (*starts[span.start], *ends[span.end]), span
            checked += 1
    assert checked > 100_000


# --- parser: paper examples ---


def test_counter_dr_structure():
    ast = parse_corpus("CounterDR.java")
    assert len(ast.classes) == 1
    c = ast.classes[0]
    assert c.name == "CounterDR"
    assert [f.name for f in c.fields] == ["cnt"]
    assert [m.name for m in c.methods] == ["inc"]
    assert c.fields[0].declared_type == "int"


def test_empty_input_parses_to_no_classes():
    ast = parse_source("")
    assert ast.classes == []


def test_unclosed_brace_is_parse_error():
    with pytest.raises(ParseError) as err:
        parse_source("class A {")
    assert err.value.line == 1


def test_annotated_as_thread_safe_matches_simple_and_qualified():
    ast = parse_corpus("Test.java")
    assert [c.name for c in annotated_as_thread_safe(ast)] == ["Test"]

    plain = parse_source("class A { }")
    assert annotated_as_thread_safe(plain) == []

    qualified = parse_source(
        "@javax.annotation.concurrent.ThreadSafe class B { }"
    )
    assert [c.name for c in annotated_as_thread_safe(qualified)] == ["B"]


def test_annotation_names_configurable():
    ast = parse_source("@GuardedClass class C { }")
    assert annotated_as_thread_safe(ast) == []
    assert [c.name for c in annotated_as_thread_safe(ast, ("GuardedClass",))] == ["C"]


# --- reconstruct_span ---


def test_reconstruct_statement_span():
    src = corpus_source("CounterDR.java")
    ast = parse_compilation_unit(src)
    inc = ast.classes[0].methods[0]
    write_stmt = inc.body.stmts[2]
    assert reconstruct_span(ast, write_stmt.span) == "cnt = temp;"


def test_reconstruct_zero_width_span():
    ast = parse_corpus("CounterDR.java")
    span = A.SourceSpan(ast.path, 5, 5, LineTable(ast.source))
    assert reconstruct_span(ast, span) == ""


def test_reconstruct_span_crossing_statements():
    src = corpus_source("CounterDR.java")
    ast = parse_compilation_unit(src)
    stmts = ast.classes[0].methods[0].body.stmts
    span = A.SourceSpan(ast.path, stmts[0].span.start, stmts[1].span.end, LineTable(ast.source))
    text = reconstruct_span(ast, span)
    assert text.startswith("int temp = cnt;") and text.endswith("temp += 1;")


def test_reconstruct_out_of_range():
    ast = parse_corpus("CounterDR.java")
    with pytest.raises(SpanOutOfRange):
        reconstruct_span(ast, A.SourceSpan(ast.path, 0, 10**6, LineTable(ast.source)))
    with pytest.raises(SpanOutOfRange):
        reconstruct_span(ast, A.SourceSpan("other.java", 0, 1, LineTable(ast.source)))


# --- round-trip and determinism properties ---


def _walk_nodes(node):
    yield node
    for name in ("classes", "fields", "methods", "constructors", "nested", "stmts",
                 "declarators", "params", "catches", "annotations"):
        for child in getattr(node, name, []) or []:
            yield from _walk_nodes(child)
    for name in ("body", "then", "els", "cond", "init", "update", "value", "monitor",
                 "iterable", "finally_block", "expr", "initializer", "qualifier",
                 "target", "left", "right", "operand", "inner", "base", "index"):
        child = getattr(node, name, None)
        if isinstance(child, (A.Node, A.Catch, A.Declarator)):
            yield from _walk_nodes(child)
        elif isinstance(child, list):
            for c in child:
                if isinstance(c, A.Node):
                    yield from _walk_nodes(c)


def _structure(node):
    kids = []
    for c in _walk_nodes(node):
        if c is not node:
            kids.append(_structure(c))
            break
    return (type(node).__name__, getattr(node, "span", None), tuple(kids))


def test_token_roundtrip_whole_corpus(corpus_names):
    for name in corpus_names:
        src = corpus_source(name)
        ast = parse_compilation_unit(src)
        reconstructed = to_source(ast)
        assert tokens_of(reconstructed) == tokens_of(src.content), name


def test_statement_spans_slice_original(corpus_names):
    for name in corpus_names:
        src = corpus_source(name)
        ast = parse_compilation_unit(src)
        for node in _walk_nodes(ast):
            span = getattr(node, "span", None)
            if span is None or not isinstance(node, A.Stmt):
                continue
            assert reconstruct_span(ast, span) in src.content, name


def test_span_nesting(corpus_names):
    for name in corpus_names:
        ast = parse_compilation_unit(corpus_source(name))
        for c in ast.iter_classes():
            for m in c.methods + c.constructors:
                assert c.span.contains(m.span)
                if m.body is not None:
                    assert m.span.contains(m.body.span)
                    for s in m.body.stmts:
                        assert m.body.span.contains(s.span)
            for f in c.fields:
                assert c.span.contains(f.span)
                if f.initializer is not None:
                    assert f.span.contains(f.initializer.span)


def test_parse_deterministic(corpus_names):
    for name in corpus_names:
        src = corpus_source(name)
        a1 = parse_compilation_unit(src)
        a2 = parse_compilation_unit(src)
        assert to_source(a1) == to_source(a2)
        spans1 = [n.span for n in _walk_nodes(a1) if hasattr(n, "span")]
        spans2 = [n.span for n in _walk_nodes(a2) if hasattr(n, "span")]
        assert spans1 == spans2


def test_pretty_print_idempotent(corpus_names):
    for name in corpus_names:
        src = corpus_source(name)
        once = to_source(parse_compilation_unit(src))
        twice = to_source(parse_compilation_unit(SourceFile(src.path, once)))
        assert once == twice


@settings(max_examples=300, deadline=None)
@given(st.one_of(thread_safe_classes(), synchronized_classes()))
def test_printer_round_trips_generated_classes(src):
    once = to_source(parse_source(src))
    assert to_source(parse_source(once)) == once
    assert [t[1] for t in tokenize(once)] == [t[1] for t in tokenize(src)]


@pytest.mark.parametrize("expr", ["new int[n][]", "new int[2][n][][]", "new Object[n][]"])
def test_printer_keeps_unsized_array_dimensions(expr):
    """Empty ``[]`` follow the sized dimensions."""
    src = f"class A {{ void f(int n) {{ Object o = {expr}; }} }}"
    once = to_source(parse_source(src))
    assert [t[1] for t in tokenize(once)] == [t[1] for t in tokenize(src)]
    assert parsed(parse_source, src) == parsed(parse_reference.parse_source, src)


# --- subset coverage ---


def test_statement_kinds_parse():
    src = """
class K {
  int[] data = new int[8];
  int n;

  public int work(int a, boolean flag) {
    int acc = 0;
    if (flag) { acc = a; } else acc = -a;
    while (acc < 10) { acc = acc + 1; }
    for (int i = 0; i < 3; i++) { acc += i; }
    synchronized (this) { n = acc; }
    try { acc = acc / a; } catch (ArithmeticException e) { acc = 0; } finally { n = acc; }
    data[0] = acc;
    return acc;
  }
}
"""
    ast = parse_source(src)
    body = ast.classes[0].methods[0].body
    kinds = [type(s).__name__ for s in body.stmts]
    assert kinds == ["LocalDecl", "If", "While", "For", "Sync", "Try", "ExprStmt", "Return"]


def test_expression_kinds_parse():
    src = """
class E {
  public void all(int x) {
    int a = (1 + 2) * x % 3;
    boolean b = !(a == 4) && a <= 5 || a != 6;
    long c = a << 2 >> 1;
    Object o = new Object();
    int[] arr = new int[x];
    arr[0] = arr[0] + 1;
    a++;
    --a;
    String s = "s" + 'c' + null + true + 0x1F + 1.5e3f;
    Class k = E.class;
  }
}
"""
    ast = parse_source(src)
    assert len(ast.classes[0].methods[0].body.stmts) == 10


def test_nested_class_and_constructor():
    src = """
class Outer {
  private int x;

  Outer(int seed) {
    this.x = seed;
  }

  class Inner {
    private int y = 0;
  }
}
"""
    ast = parse_source(src)
    outer = ast.classes[0]
    assert len(outer.constructors) == 1
    assert outer.constructors[0].is_constructor
    assert [n.name for n in outer.nested] == ["Inner"]
    assert [c.name for c in ast.iter_classes()] == ["Outer", "Inner"]
    assert list(ast.iter_classes())[1].qualified_name == "Outer.Inner"


def test_generics_opaque_and_imports_resolve():
    src = """
import java.util.concurrent.ConcurrentHashMap;

class G {
  private ConcurrentHashMap<String, Integer> m;
  private java.util.List<int[]> l;
}
"""
    ast = parse_source(src)
    f0, f1 = ast.classes[0].fields
    assert f0.declared_type == "ConcurrentHashMap<String,Integer>"
    assert f0.resolved_type == "java.util.concurrent.ConcurrentHashMap<String,Integer>"
    assert f1.declared_type == "java.util.List<int[]>"


def test_a_wildcard_import_qualifies_no_type():
    """``import java.util.concurrent.*;`` does not say that ``Box`` is
    declared in ``java.util.concurrent``, so its name is not qualified, and
    no allowlist prefix trusts it; an exact import still qualifies."""
    src = """
import java.util.concurrent.*;
import java.util.concurrent.atomic.AtomicLong;

class G {
  private Box box;
  private Box[] boxes;
  private AtomicLong n;
}
"""
    box, boxes, n = parse_source(src).classes[0].fields
    assert (box.resolved_type, boxes.resolved_type) == ("Box", "Box[]")
    assert n.resolved_type == "java.util.concurrent.atomic.AtomicLong"


@pytest.mark.parametrize(
    "src,fragment",
    [
        ("class A { void f() { switch (x) { } } }", "switch"),
        ("class A { void f() { Runnable r = () -> 1; } }", "not supported"),
        ("class A { void f() { outer: while (true) { } } }", "labeled statements"),
        ("interface I { }", "interface"),
        ("class A { public private int x; }", "visibility"),
        ("class A { volatile final int x = 0; }", "volatile and final"),
        ("class A { void f() { do { } while (c); } }", "do/while"),
    ],
)
def test_unsupported_constructs_error(src, fragment):
    with pytest.raises(ParseError) as err:
        parse_source(src)
    assert fragment in str(err.value)


def test_nesting_limit_counts_class_statement_and_expressions():
    # class, return statement and return expression take three levels
    def source(parens):
        return "class A { int f() { return " + "(" * parens + "1" + ")" * parens + "; } }"

    parse_source(source(MAX_NESTING - 3))
    with pytest.raises(ParseError) as err:
        parse_source(source(MAX_NESTING - 2))
    assert f"nesting deeper than {MAX_NESTING} levels" in str(err.value)


def test_operator_and_selector_chains_count_per_operand():
    parse_source("class A { int f() { return " + " + ".join(["x"] * (MAX_NESTING - 2)) + "; } }")
    for deep in (" + ".join(["x"] * (MAX_NESTING - 1)), "this" + ".x" * (MAX_NESTING - 2)):
        with pytest.raises(ParseError):
            parse_source("class A { int f() { return " + deep + "; } }")


def test_package_qualifies_class_names():
    ast = parse_source("package com.acme.util;\nclass Thing { }")
    assert ast.classes[0].qualified_name == "com.acme.util.Thing"


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_source("class A {\n  int x = ;\n}")
    assert err.value.line == 2


# --- the shared child relation ---

ALL_KINDS = """
class AllKinds {
  private int[] data = new int[8];
  private final Object mu = new Object();
  private int n = (1 + 2) * 3;

  public AllKinds(int start) { this.n = start; }

  public boolean work(int a, boolean flag, java.util.List<Integer> xs) throws Exception {
    int acc = 0, unset;
    ;
    if (flag) { acc = a; } else acc = -a;
    if (acc > 100) return false;
    while (acc < 10) { acc += 1; }
    for (int i = 0, j = 1; i < 3; i++, j--) { acc += i * j; }
    for (;;) { fail(); }
    for (int x : xs) { acc = acc + x; }
    synchronized (this.mu) { n = acc; }
    try { acc = acc / a; } catch (ArithmeticException e) { acc = 0; } catch (RuntimeException e) { throw e; } finally { n = acc; }
    try { acc++; } finally { --acc; }
    data[acc % 8] = data[0] + 1;
    Class k = AllKinds.class;
    String s = "s" + 'c' + null + true + 1.5e3f;
    helper(acc, this.n);
    this.helper(0, n);
    return !(acc == 4) && acc <= 5;
  }

  private void helper(int p, int q) { return; }
  private void fail() { throw new RuntimeException(); }
}
"""


def _field_children(node):
    """Sub-nodes of ``node`` read off its fields, in field order."""
    out = []
    for name in node._fields:
        value = getattr(node, name)
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, A.Node):
                out.append(v)
            elif isinstance(v, A.Declarator) and v.init is not None:
                out.append(v.init)
            elif isinstance(v, A.Catch):
                out.append(v.body)
    return out


def test_children_cover_every_subnode_in_source_order(corpus_names):
    asts = [parse_corpus(name) for name in corpus_names] + [parse_source(ALL_KINDS)]
    reached = set()
    for ast in asts:
        for c in ast.iter_classes():
            roots = [m.body for m in c.methods + c.constructors if m.body is not None]
            roots += [f.initializer for f in c.fields if f.initializer is not None]
            for root in roots:
                for node in A.walk(root):
                    reached.add(type(node))
                    kids = A.children(node)
                    assert [id(k) for k in kids] == [id(k) for k in _field_children(node)], node
                    starts = [k.span.start for k in kids]
                    assert starts == sorted(starts), node
    kinds = {k for k in vars(A).values() if isinstance(k, type) and issubclass(k, (A.Stmt, A.Expr))}
    assert reached == kinds - {A.Stmt, A.Expr}


# every kind a tree holds: the statements and expressions, and the rest
TREE_KINDS = [*A._CHILDREN, A.Declarator, A.Catch, A.Param, A.Annotation, A.FieldDecl, A.MethodDecl,
              A.ClassDecl, A.ImportDecl, A.Ast]


@pytest.mark.parametrize("kind", TREE_KINDS, ids=lambda k: k.__name__)
def test_a_kind_stores_each_init_parameter_in_its_own_slot(kind):
    """``_fields`` lists the ``__init__`` parameters in order, an instance has
    no ``__dict__``, and each argument lands in the field of its name."""
    params = list(inspect.signature(kind.__init__).parameters)[1:]
    assert kind._fields == tuple(params)
    sentinels = [object() for _ in params]
    node = kind(*sentinels)
    assert not hasattr(node, "__dict__")
    assert all(getattr(node, name) is s for name, s in zip(kind._fields, sentinels))


def test_walk_is_preorder_and_children_reject_non_nodes():
    expr = parse_source("class A { int f() { return (a + b) * c; } }").classes[0].methods[0].body.stmts[0].value
    names = [type(n).__name__ for n in A.walk(expr)]
    assert names == ["Binary", "Paren", "Binary", "Name", "Name", "Name"]
    with pytest.raises(TypeError):
        A.children(A.Catch("E", "e", None, expr.span))


# --- parity with the reference parser ---


def parsed(parse, text):
    """The tree's repr, or the (line, col, message) of the ParseError."""
    try:
        return repr(parse(text, "P.java"))
    except ParseError as exc:
        return ("error", exc.line, exc.col, exc.message)


class _CommitRecordingParser(P._Parser):
    """The shipped parser, noting each ParseError that leaves a declaration
    or for-each the lookahead committed to."""

    def __init__(self, *args):
        super().__init__(*args)
        self.committed_error = False

    def _parse_local_decl(self, *args):
        try:
            return super()._parse_local_decl(*args)
        except ParseError:
            self.committed_error = True
            raise


def error_left_a_committed_declaration(text):
    parser = _CommitRecordingParser(tokenize(text, "P.java"), SourceFile("P.java", text))
    with pytest.raises(ParseError):
        parser.parse_unit()
    return parser.committed_error


def error_at_a_type_javac_rejects(text, got):
    """Whether the error ``got`` is at type arguments after a primitive
    keyword, at ``[]`` after ``void``, or at a ``void`` member whose name no
    ``(`` follows. The reference parser reads these as types or as a field;
    javac and the shipped parser reject them."""
    _, line, col, message = got
    lines = LineTable(text)
    tokens = tokenize(text, "P.java")
    k = next(i for i, t in enumerate(tokens) if lines.line_col(t[2]) == (line, col))
    toks = [t[1] for t in tokens]
    here, before = toks[k], toks[k - 1] if k else ""
    after = toks[k + 1:k + 3]
    return (
        (here in PRIMITIVE_TYPES and after[:1] == ["<"])
        or (here == "<" and before in PRIMITIVE_TYPES)
        or (here == "[" and before == "void")
        or (message == "'void' is only valid as a return type" and here == "void" and after[1:] != ["("])
        or (message == "expected '(' after method name, found '{'" and toks[k - 2] == "void")
    )


def assert_parses_like_reference(text):
    """Same tree or same error as the reference parser. The reference
    backtracks out of a failed declaration or for-each and reports the
    retry's error, so where an error left a committed declaration the
    shipped parser may differ, but only by rejecting. It may also reject
    the types of ``error_at_a_type_javac_rejects``, which the reference
    accepts."""
    got = parsed(parse_source, text)
    if got != parsed(parse_reference.parse_source, text):
        assert isinstance(got, tuple), got
        assert error_left_a_committed_declaration(text) or error_at_a_type_javac_rejects(text, got), got


def _corpus_texts():
    return [corpus_source(n).content for n in sorted(os.listdir(CORPUS_DIR)) if n.endswith(".java")]


# tokens whose insertion starts, breaks or extends a type, a declaration or an expression
MUTATION_TOKENS = (
    "int", "void", "final", "x", "List", "<", ">", ">>", ">>>", "[", "]", "(", ")", "{", "}",
    ".", ",", ";", ":", "=", "+=", "?", "++", "--", "-", "!", "+", "*", "&&", "new", "this",
    "class", "extends", "super", "0", "'c'", "\"s\"", "null", "->", "::", "switch", "return",
    "synchronized", "for", "if", "else", "try", "finally", "@",
)


@st.composite
def mutated_sources(draw):
    """A generated class or a corpus file with one to three token-level edits."""
    src = draw(st.one_of(thread_safe_classes(), synchronized_classes(), st.sampled_from(_corpus_texts())))
    toks = [t[1] for t in tokenize(src)][:-1]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(toks) - 1))
        op = draw(st.sampled_from(("insert", "delete", "swap")))
        if op == "insert":
            toks.insert(i, draw(st.one_of(st.sampled_from(MUTATION_TOKENS), st.sampled_from(toks))))
        elif op == "delete" and len(toks) > 1:
            del toks[i]
        elif op == "swap" and i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
    return " ".join(toks)


@settings(max_examples=300, deadline=None)
@given(st.one_of(thread_safe_classes(), synchronized_classes()))
def test_parser_matches_reference_on_generated_classes(src):
    assert_parses_like_reference(src)


def test_parser_matches_reference_on_corpus():
    for text in _corpus_texts():
        assert_parses_like_reference(text)


@settings(max_examples=600, deadline=None)
@given(mutated_sources())
def test_parser_matches_reference_on_token_mutations(src):
    assert_parses_like_reference(src)


# each shape nests one level per repetition
NESTING_SHAPES = {
    "parens": lambda n: "(" * n + "x" + ")" * n,
    "unary": lambda n: "- " * n + "x",
    "prefix-increment": lambda n: "++ " * n + "x",
    "selectors": lambda n: "this" + ".x" * n,
    "calls": lambda n: "this" + ".m()" * n,
    "index": lambda n: "a" + "[0]" * n,
    "postfix": lambda n: "x" + "++" * n,
    "binary": lambda n: " + ".join(["x"] * n),
    "mixed-binary": lambda n: " ".join(f"x {'*+<&|'[i % 5]}" for i in range(n)) + " x",
    "assignments": lambda n: "x = " * n + "1",
    "arguments": lambda n: "m(" * n + ")" * n,
}
NESTING_CONTEXTS = (
    "class A {{ int f() {{ return {}; }} }}",
    "class A {{ void f() {{ int v = {}; }} }}",
    "class A {{ void f() {{ y = {}; }} }}",
    "class A {{ void f() {{ for (int i = {}; ; ) {{ }} }} }}",
    "class A {{ int v = {}; }}",
)


@pytest.mark.parametrize("shape", sorted(NESTING_SHAPES))
def test_parser_matches_reference_at_the_nesting_limit(shape):
    for n in range(MAX_NESTING - 3, MAX_NESTING + 2):
        for context in NESTING_CONTEXTS:
            assert_parses_like_reference(context.format(NESTING_SHAPES[shape](n)))


def test_parser_matches_reference_on_nested_blocks():
    for n in range(MAX_NESTING - 3, MAX_NESTING + 2):
        for inner in ("", "x = 1;", "int v = 0;", "if (c) x = 1;", "for (;;) { }"):
            assert_parses_like_reference("class A { void f() " + "{" * n + inner + "}" * n + " }")


# statements the lookahead commits to as declarations that then fail: the
# error is at the token at fault, where the reference retried them as
# expressions or classic for-headers and reported that retry's error
COMMITTED_ERRORS = {
    "a<b>c + 1;": (1, 28, "expected ';' after local declaration, found '+'"),
    "int x = c > 0 ? 1 : 2;": (1, 36, "conditional expressions are not supported"),
    "int x = ;": (1, 30, "unexpected token ';' in expression"),
    "x y z;": (1, 26, "expected ';' after local declaration, found 'z'"),
    "for (int x : xs) { y = ; }": (1, 45, "unexpected token ';' in expression"),
    "for (int x : ) { }": (1, 35, "unexpected token ')' in expression"),
    "for (final List<int> x : xs) y++;": (1, 38, "unexpected 'int' in type arguments"),
    "final int[ x = 1;": (1, 31, "expected name, found '['"),
}


@pytest.mark.parametrize(
    "stmt",
    [
        "a<b>c + 1;",  # a declaration that fails, though it is a valid expression
        "a<b>c;",
        "a<b<c>> d = e;",
        "a<b>>c;",
        "a < b;",
        "x = (a < b);",
        "x = (a < b) + c;",
        "x = (a<b>) - c;",
        "x = (List<String>) o.f;",
        "x = (List<int>) o;",
        "x = (List<int[]>) o;",
        "a.b.c d;",
        "a.b.c = d;",
        "a[] b = c;",
        "a[i] = b;",
        "int[] a = new int[3];",
        "final int x = 1, y;",
        "final x = 1;",
        "final int[ x = 1;",
        "void x;",
        "int x = c > 0 ? 1 : 2;",
        "int x = ;",
        "int x = () -> 1;",
        "List<? extends Number> l = null;",
        "Map<String, int[]> m;",
        "x y z;",
        "for (int x : xs) { y = ; }",
        "for (final List<int> x : xs) y++;",
        "for (a.b c = d; ; ) { }",
        "for (a<b>c; ; ) { }",
        "for (i = 0, j = 1; i < j; i++, j--) { }",
        "for (int x : ) { }",
        "for (;;) ;",
        "label: x = 1;",
        "++x;",
        "(x)++;",
        "o.m(x).n[0]++;",
        "Foo.class.getName();",
        "int.class;",
        "x.;",
        "new int[2][];",
        "-x;",
    ],
)
def test_parser_matches_reference_on_statements(stmt):
    text = "class A { void f() { " + stmt + " } }"
    assert_parses_like_reference(text)
    if stmt in COMMITTED_ERRORS:
        line, col, message = COMMITTED_ERRORS[stmt]
        assert parsed(parse_source, text) == ("error", line, col, message)
        assert parsed(parse_source, text) != parsed(parse_reference.parse_source, text)


# each unsupported expression, at the token that names it
UNSUPPORTED_EXPRESSIONS = {
    "x = c ? 1 : 2;": (28, "conditional expressions are not supported"),
    "f(o instanceof String);": (26, "instanceof expressions are not supported"),
    "f(Integer::valueOf);": (31, "method references are not supported"),
    "x = (long) a;": (27, "cast expressions are not supported"),
    "x = (int[]) o;": (27, "cast expressions are not supported"),
    "x = (String) o;": (27, "cast expressions are not supported"),
    "x = (java.lang.Object) new Object();": (27, "cast expressions are not supported"),
    "f((Object) null, (Runnable) this);": (25, "cast expressions are not supported"),
    "x = (java.util.List<String>) o;": (27, "cast expressions are not supported"),
    "x = (List<String>) o;": (27, "cast expressions are not supported"),
    "x = (List<int[]>) o;": (27, "cast expressions are not supported"),
    "x = (Map<String, Integer>) o;": (27, "cast expressions are not supported"),
    "c = int.class;": (26, "primitive class literals are not supported"),
    "c = long[].class;": (26, "primitive class literals are not supported"),
    "o = Collections.<String>emptyList();": (38, "explicit type arguments are not supported"),
}


@pytest.mark.parametrize("stmt", sorted(UNSUPPORTED_EXPRESSIONS))
def test_unsupported_expressions_are_named(stmt):
    """The error names the construct, where both parsers agree."""
    text = "class A { void f() { " + stmt + " } }"
    col, message = UNSUPPORTED_EXPRESSIONS[stmt]
    assert parsed(parse_source, text) == ("error", 1, col, message)
    assert parsed(parse_reference.parse_source, text) == ("error", 1, col, message)


# array creations as javac reads them: with no sized dimension an
# initializer must follow, and without one the error is at the next token
ARRAY_CREATIONS = {
    "o = new Object[];": ("error", 1, 38, "array dimension missing"),
    "o = new int[][];": ("error", 1, 37, "array dimension missing"),
    "o = new int[][n];": ("error", 1, 35, "array dimension missing"),
    "f(new java.util.List<String>[]);": ("error", 1, 52, "array dimension missing"),
    "o = new int[] {1};": ("error", 1, 36, "array initializer expressions are not supported"),
    "o = new int[n][];": "ok",
    "o = new int[n][m][];": "ok",
}


@pytest.mark.parametrize("stmt", sorted(ARRAY_CREATIONS))
def test_an_array_creation_needs_a_dimension_or_an_initializer(stmt):
    text = "class A { void f() { " + stmt + " } }"
    want = ARRAY_CREATIONS[stmt]
    got = [parsed(parse, text) for parse in (parse_source, parse_reference.parse_source)]
    if want == "ok":
        assert all(isinstance(tree, str) for tree in got)
    else:
        assert got == [want, want]


def test_expression_statements_start_no_declaration(monkeypatch):
    attempts = []
    parse_decl = P._Parser._parse_local_decl

    def counted(self, *args, **kw):
        attempts.append(self.pos)
        return parse_decl(self, *args, **kw)

    monkeypatch.setattr(P._Parser, "_parse_local_decl", counted)
    body = "x = 1; this.f = x; a[i] = 2; ++x; m(x, y); o.m(x); x++; a.b.c = d; f(g(h)).k = 3;"
    parse_source("class A { void f() { " + body + " } }")
    assert attempts == []
    parse_source("class A { void f() { int y = 0; java.util.List<int[]> l; " + body + " } }")
    assert len(attempts) == 2


# --- the annotation pre-filter ---

# name -> (source, the configured annotation names); the parser reads a class
# annotated with one of them, so the pre-filter must admit the source
FILTER_ADMITS = {
    "space": ("@ ThreadSafe class A {}", DEFAULT_ANNOTATIONS),
    "comment": ("@/*c*/ThreadSafe class A {}", DEFAULT_ANNOTATIONS),
    "line-comment": ("@ // c\n ThreadSafe class A {}", DEFAULT_ANNOTATIONS),
    "qualified": ("@ javax . /*x*/ annotation // y\n .concurrent.\tThreadSafe class A {}", DEFAULT_ANNOTATIONS),
    "after-another": ("@Deprecated @javax.annotation.concurrent.ThreadSafe(\"x\") class A {}", DEFAULT_ANNOTATIONS),
    "nested": ("class Outer { private int n; @ThreadSafe static class Inner {} }", DEFAULT_ANNOTATIONS),
    "added-simple": ("@Concurrent class A {}", DEFAULT_ANNOTATIONS + ("Concurrent",)),
    "added-qualified": ("@com.acme.Concurrent class A {}", DEFAULT_ANNOTATIONS + ("com.acme.Concurrent",)),
    "added-qualified-used-simple": ("@Concurrent class A {}", DEFAULT_ANNOTATIONS + ("com.acme.Concurrent",)),
}

# sources that name an annotation but annotate no class with it
FILTER_SKIPS = {
    "import-only": "import javax.annotation.concurrent.ThreadSafe;\nclass A {}",
    "longer-name": "@ThreadSafeX class A {}",
    "not-added": "@Concurrent class A {}",
}


@pytest.mark.parametrize("name", sorted(FILTER_ADMITS))
def test_annotation_filter_admits_every_annotation_the_parser_reads(name):
    text, names = FILTER_ADMITS[name]
    assert annotated_as_thread_safe(parse_source(text), names)
    assert annotation_pattern(names).search(text)


@pytest.mark.parametrize("name", sorted(FILTER_SKIPS))
def test_annotation_filter_skips_a_mention_that_annotates_nothing(name):
    text = FILTER_SKIPS[name]
    assert not annotated_as_thread_safe(parse_source(text), DEFAULT_ANNOTATIONS)
    assert not annotation_pattern(DEFAULT_ANNOTATIONS).search(text)


def test_every_file_the_annotation_filter_skips_declares_no_annotated_class():
    workloads = benchmark_workloads()
    texts = {corpus_source(n).content for n in os.listdir(CORPUS_DIR) if n.endswith(".java")}
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 7):
            texts.update(f.text for f in workloads.generate(workload, seed, "full", CORPUS_DIR))
    may_hold = annotation_pattern(DEFAULT_ANNOTATIONS).search
    skipped = [t for t in texts if not may_hold(t)]
    assert skipped and len(skipped) < len(texts)
    for text in skipped:
        assert not annotated_as_thread_safe(parse_source(text), DEFAULT_ANNOTATIONS), text
