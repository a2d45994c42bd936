"""Command-line behaviour: exit codes for paths, config files, --trace, --oracle
and over-deep input; --timings; the static run and the oracle on name-binding
probes; streaming; and the reports on the corpus, on the benchmark's
generated workloads and on parse errors, pinned byte for byte."""

import contextlib
import gc
import json
import os
import re
import subprocess
import sys
import threading
from collections import Counter

import pytest
import report_reference
from conftest import benchmark_workloads

import threadlint
from threadlint import cli
from threadlint.cli import EXIT_ALERTS, EXIT_CLEAN, EXIT_ERROR, main, oracle_check, run
from threadlint.config import OUTPUT_FORMATS, build_config
from threadlint.errors import IoError
from threadlint.hboracle import OracleVerdict
from threadlint.reporting import serialize_report


def run_trace(tmp_path, capsys, text):
    path = tmp_path / "t.trace"
    path.write_text(text)
    code = main(["--trace", str(path)])
    return code, capsys.readouterr()


def test_trace_clean_exits_0(tmp_path, capsys):
    code, out = run_trace(tmp_path, capsys, "0 default-init x\n1 read x\n2 write y # a comment\n\n")
    assert code == EXIT_CLEAN
    assert out.out == "3 actions, 0 race(s)\n"


def test_trace_racy_exits_1(tmp_path, capsys):
    trace = "0 default-init cnt\n1 read cnt\n2 read cnt\n1 write cnt\n2 write cnt\n"
    code, out = run_trace(tmp_path, capsys, trace)
    assert code == EXIT_ALERTS
    assert out.out.splitlines()[-1] == "5 actions, 3 race(s)"


def test_long_trace_has_no_action_cap(tmp_path, capsys):
    trace = "0 default-init x\n" + "1 read x\n" * 35 + "2 read x\n" * 35
    code, out = run_trace(tmp_path, capsys, trace)
    assert code == EXIT_CLEAN
    assert out.out == "71 actions, 0 race(s)\n"
    assert out.err == ""


@pytest.mark.parametrize(
    "trace,message",
    [
        ("1 unlock m\n", "unlocks 'm' without holding it"),
        ("1 lock m\n2 lock m\n", "locks 'm' while thread 1 holds it"),
        ("1 frob x\n", "unknown op 'frob'"),
        ("1 read\n", "read requires a target"),
        ("one read x\n", "thread must be an integer"),
    ],
    ids=["unlock-without-lock", "lock-held-elsewhere", "unknown-op", "missing-target", "bad-thread"],
)
def test_malformed_trace_exits_2(tmp_path, capsys, trace, message):
    code, out = run_trace(tmp_path, capsys, trace)
    assert code == EXIT_ERROR
    assert out.out == ""
    assert out.err.startswith("threadlint: error: ") and message in out.err


BIG = """\
@ThreadSafe
public class Big {
  private int a;

  public synchronized void inc() {
    a = a + 1;
    a = a + 1;
    a = a + 1;
    a = a + 1;
    a = a + 1;
    a = a + 1;
    a = a + 1;
  }
}
"""


def test_oracle_skips_a_class_over_the_action_budget(tmp_path):
    path = tmp_path / "Big.java"
    path.write_text(BIG)
    report, code = oracle_check([str(path)], build_config(None))
    assert code == EXIT_CLEAN
    [result] = report.oracle
    assert result.text_line() == (
        f"{path} Big static=0 oracle=budget-exceeded agreement=skipped "
        "(program has 33 actions; the oracle explores at most 16)"
    )


DEEP = {
    "nested-parens": "(" * 3000 + "x" + ")" * 3000,
    "long-sum": " + ".join(["x"] * 5000),
}


def run_cli(args, cwd=None, timeout=None):
    """Run the CLI in a fresh interpreter, as a user would."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(threadlint.__file__)))
    env.pop("THREADLINT_CONFIG", None)
    return subprocess.run(
        [sys.executable, "-m", "threadlint.cli", *args], capture_output=True, text=True, env=env, cwd=cwd,
        timeout=timeout,
    )


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_nesting_exits_2_without_traceback(tmp_path, name):
    path = tmp_path / "Deep.java"
    path.write_text(f"@ThreadSafe\nclass Deep {{\n  private int x;\n  public int get() {{ return {DEEP[name]}; }}\n}}\n")
    proc = run_cli([str(path)])
    assert proc.returncode == EXIT_ERROR
    assert "Traceback" not in proc.stderr
    assert proc.stdout.startswith(f"{path}:4:") and "nesting deeper than 100 levels" in proc.stdout


def finally_chain(depth):
    """A class whose method nests ``depth`` try statements, each in the
    finally block of the one before, each with a return; the innermost
    finally block unlocks what the method locked first."""
    body = "l.unlock();"
    for j in range(depth, 0, -1):
        body = f"try {{ if (c) {{ return {j}; }} x = {j}; }} finally {{ {body} }}"
    return ("@ThreadSafe\nclass Chain {\n  private int x;\n  private final Lock l = new ReentrantLock();\n"
            f"  public int f(boolean c) {{\n    l.lock();\n    {body}\n    return 0;\n  }}\n}}\n")


@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["static", "oracle"])
def test_finally_blocks_nested_past_the_limit_exit_2(tmp_path, oracle):
    """Each finally block is lowered once per way out, so the copies double
    with each finally block around it: 8 levels are checked, 9 are a parse
    error of the file."""
    checked = tmp_path / "Checked.java"
    checked.write_text(finally_chain(8))
    proc = run_cli([*oracle, str(checked)], timeout=60)
    assert proc.returncode == EXIT_CLEAN and proc.stderr == ""
    deep = tmp_path / "Deep.java"
    deep.write_text(finally_chain(9))
    proc = run_cli([*oracle, str(deep)], timeout=60)
    assert proc.returncode == EXIT_ERROR and "Traceback" not in proc.stderr
    assert proc.stdout.startswith(f"{deep}:7:") and "finally blocks nested deeper than 8 levels" in proc.stdout


CLEAN = "@ThreadSafe\nclass Clean {\n  private int n;\n  public synchronized void inc() { n = n + 1; }\n}\n"
OPEN = "@ThreadSafe\nclass Open {\n  int n;\n}\n"

# name -> (files to create, CLI arguments, exit code, text expected on stdout or stderr)
PATH_AND_CONFIG_CASES = {
    "clean-file": ({"Clean.java": CLEAN}, ["Clean.java"], EXIT_CLEAN, ""),
    "alert-file": ({"Open.java": OPEN}, ["Open.java"], EXIT_ALERTS, "Open.java:3:3 P1 n"),
    "missing-path": ({}, ["Nowhere.java"], EXIT_ERROR, "no such file or directory: Nowhere.java"),
    "invalid-utf8": ({"Bad.java": b"class Bad { \xff }"}, ["Bad.java"], EXIT_ERROR,
                     "Bad.java:1:1 ERROR file is not valid UTF-8"),
    "config-unknown-key": ({"Clean.java": CLEAN, "t.cfg": "colour = red\n"},
                           ["--config", "t.cfg", "Clean.java"], EXIT_ERROR, "t.cfg:1: unknown key 'colour'"),
    "config-two-formats": ({"Clean.java": CLEAN, "t.cfg": "format = text, json\n"},
                           ["--config", "t.cfg", "Clean.java"], EXIT_ERROR, "format takes exactly one value"),
    "config-unknown-rule": ({"Clean.java": CLEAN, "t.cfg": "rules = P9\n"},
                            ["--config", "t.cfg", "Clean.java"], EXIT_ERROR, "unknown rule 'P9'"),
    "config-unreadable": ({"Clean.java": CLEAN}, ["--config", "missing.cfg", "Clean.java"], EXIT_ERROR,
                          "cannot read config file missing.cfg"),
    "config-invalid-utf8": ({"Clean.java": CLEAN, "t.cfg": b"rules = P1 \xff\n"}, ["--config", "t.cfg", "Clean.java"],
                            EXIT_ERROR, "threadlint: error: cannot read config file t.cfg: file is not valid UTF-8"),
    "trace-invalid-utf8": ({"t.trace": b"1 read x \xff\n"}, ["--trace", "t.trace"], EXIT_ERROR,
                           "threadlint: error: cannot read t.trace: file is not valid UTF-8"),
    # an allowlist entry is checked when the configuration is built, before any class
    "allowlist-empty": ({"Clean.java": CLEAN}, ["--allowlist-add=", "Clean.java"], EXIT_ERROR,
                        "threadlint: error: allowlist entry '' must be nonempty and trimmed"),
    "allowlist-untrimmed": ({"Clean.java": CLEAN}, ["--allowlist-add= java.x", "Clean.java"], EXIT_ERROR,
                            "threadlint: error: allowlist entry ' java.x' must be nonempty and trimmed"),
    # javac rejects a line break in a literal, escaped or not
    "backslash-newline-in-string": ({"Esc.java": '@ThreadSafe class Esc {\n  String s = "a\\\nb";\n}\n'},
                                    ["Esc.java"], EXIT_ERROR, "Esc.java:2:14 ERROR unterminated string literal"),
}


@pytest.mark.parametrize("name", sorted(PATH_AND_CONFIG_CASES))
def test_path_and_config_exit_codes(tmp_path, name):
    files, args, code, expected = PATH_AND_CONFIG_CASES[name]
    for file_name, content in files.items():
        path = tmp_path / file_name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    proc = run_cli(args, cwd=tmp_path)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert expected in proc.stdout + proc.stderr
    if code == EXIT_CLEAN:
        assert proc.stdout == "" and proc.stderr == ""


def test_files_parsed_counts_only_files_that_parsed(tmp_path, capsys):
    (tmp_path / "A.java").write_text("@ThreadSafe class A {")
    (tmp_path / "Bad.java").write_bytes(b"class Bad { \xff }")
    (tmp_path / "Unguarded.java").write_text(OPEN)
    code = main(["--format", "json", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_ERROR
    report = json.loads(out)
    assert len(report["errors"]) == 2
    assert report["stats"]["files_parsed"] == 1


# Each probe binds a name or classifies a target where an earlier resolver
# went wrong. name -> (class source, (rule, field) of every static alert,
# whether the oracle finds a race); the oracle must agree with the static run.
BINDING_PROBES = {
    # the parameter mu is not the field mu, so a() and b() share no monitor
    "Shadow": ("@ThreadSafe class Shadow { private final Object mu = new Object(); private int x; "
               "public void a(Object mu) { synchronized (mu) { x = x + 1; } } "
               "public void b() { synchronized (mu) { x = x + 1; } } }",
               {("P3", "x")}, True),
    # each caller may pass a different mu, so the block guards nothing
    "ParamMon": ("@ThreadSafe class ParamMon { private int x; "
                 "public void a(Object mu) { synchronized (mu) { x = x + 1; } } }",
                 {("P3", "x")}, True),
    # each call locks a fresh object
    "LocalMon": ("@ThreadSafe class LocalMon { private int x; "
                 "public void a() { Object m = new Object(); synchronized (m) { x = x + 1; } } }",
                 {("P3", "x")}, True),
    # m aliases the field mu, so both methods hold the same monitor
    "AliasMon": ("@ThreadSafe class AliasMon { private final Object mu = new Object(); private int x; "
                 "public void a() { Object m = mu; synchronized (m) { x = x + 1; } } "
                 "public int b() { synchronized (mu) { return x; } } }",
                 set(), False),
    # the block's local x is out of scope at x = 2
    "BlockLocal": ("@ThreadSafe class BlockLocal { private int x; public void w() { { int x = 1; } x = 2; } "
                   "public synchronized int get() { return x; } }",
                   {("P3", "x")}, True),
    # l aliases the lock field, so both methods hold the same lock
    "Alias": ("import java.util.concurrent.locks.Lock; import java.util.concurrent.locks.ReentrantLock; "
              "@ThreadSafe class Alias { private final Lock lock = new ReentrantLock(); private int x; "
              "public void inc() { Lock l = lock; l.lock(); x = x + 1; l.unlock(); } "
              "public int get() { lock.lock(); int v = x; lock.unlock(); return v; } }",
              set(), False),
    "ParenInc": ("@ThreadSafe class ParenInc { private int x; public void inc() { (x)++; } "
                 "public synchronized int get() { return x; } }",
                 {("P3", "x")}, True),
    "ParenArr": ("@ThreadSafe class ParenArr { private final int[] a = new int[1]; public void put() { (a)[0] = 1; } "
                 "public synchronized int get() { return a[0]; } }",
                 {("P3", "a")}, True),
    "ParenCall": ("import java.util.List; import java.util.ArrayList; @ThreadSafe class ParenCall { "
                  "private final List<Integer> list = new ArrayList<>(); public void put() { (list).add(1); } "
                  "public synchronized int size() { return list.size(); } }",
                  {("P3", "list")}, True),
    "ArrInc": ("@ThreadSafe class ArrInc { private final int[] a = new int[1]; public void inc() { a[0]++; } "
               "public synchronized int get() { return a[0]; } }",
               {("P3", "a")}, True),
    # the two blocks declare two locals o; the second is an alias of mu
    "Prec": ("@ThreadSafe class Prec { private final Object mu = new Object(); "
             "private final Object other = new Object(); private int x; "
             "public void a() { { Object o = other; } { Object o = mu; synchronized (o) { x = x + 1; } } } "
             "public void b() { synchronized (mu) { x = x + 1; } } }",
             set(), False),
    # (this).f() is a same-class call, so a() writes x through f()
    "ParenThis": ("@ThreadSafe class ParenThis { private int x; private void f() { x = x + 1; } "
                  "public void a() { (this).f(); } public synchronized int get() { return x; } }",
                  {("P3", "x")}, True),
    # f(a) calls the other overload f(a, b), which is no recursion
    "NoRec": ("@ThreadSafe class NoRec { private int x; private void f(int a) { f(a, 1); } "
              "private void f(int a, int b) { x = x + b; } public void a() { f(0); } "
              "public synchronized int get() { return x; } }",
              {("P3", "x")}, True),
}


@pytest.mark.parametrize("name", sorted(BINDING_PROBES))
def test_binding_probes_static_run_and_oracle_agree(tmp_path, name):
    src, alerts, raced = BINDING_PROBES[name]
    path = tmp_path / f"{name}.java"
    path.write_text(src)
    report, code = oracle_check([str(path)], build_config(None))
    assert {(a.rule, a.field) for a in report.alerts} == alerts
    [result] = report.oracle
    assert (result.status, result.raced, result.agreement) == ("checked", raced, "ok")
    assert code == EXIT_CLEAN
    assert run([str(path)], build_config(None))[1] == (EXIT_ALERTS if alerts else EXIT_CLEAN)


# A for-each or catch variable is never an alias of a field, even where an
# earlier block declares a same-name alias; the oracle, which walks the loop
# and the catch handler, confirms each race.
STATIC_BINDING_PROBES = {
    "FE": "import java.util.List; import java.util.concurrent.locks.Lock; "
          "@ThreadSafe class FE { private final Lock lockA = null; private final List<Lock> locks = null; "
          "private int x; "
          "public void a() { { Lock l = lockA; } "
          "for (Lock l : locks) { l.lock(); try { x = x + 1; } finally { l.unlock(); } } } "
          "public void b() { lockA.lock(); try { x = x + 1; } finally { lockA.unlock(); } } }",
    "FE2": "import java.util.List; "
           "@ThreadSafe class FE2 { private final Object mu = new Object(); private final List<Object> objs = null; "
           "private int x; "
           "public void a() { { Object o = mu; } for (Object o : objs) { synchronized (o) { x = x + 1; } } } "
           "public void b() { synchronized (mu) { x = x + 1; } } }",
    "Catch": "@ThreadSafe class Catch { private final Object mu = new Object(); private int x; "
             "public void a() { { Object e = mu; } "
             "try { mu.hashCode(); } catch (RuntimeException e) { synchronized (e) { x = x + 1; } } } "
             "public void b() { synchronized (mu) { x = x + 1; } } }",
}


@pytest.mark.parametrize("name", sorted(STATIC_BINDING_PROBES))
def test_foreach_and_catch_variables_guard_nothing(tmp_path, name):
    path = tmp_path / f"{name}.java"
    src = STATIC_BINDING_PROBES[name]
    path.write_text(src)
    report, code = run([str(path)], build_config(None))
    assert code == EXIT_ALERTS
    assert {(a.rule, a.field) for a in report.alerts} == {("P3", "x")}
    # the unguarded write is the one in a(), under the loop's or the catch's variable
    assert src.index("x = x + 1") + 1 in {a.primary.start_col for a in report.alerts}
    [result] = oracle_check([str(path)], build_config(None))[0].oracle
    assert (result.status, result.raced, result.agreement) == ("checked", True, "ok")


# Calls the oracle does not inline: name -> (class source, reason in the detail)
UNINLINED_CALLS = {
    # argument types would pick the overload; the oracle does not resolve them
    "Ov": ("@ThreadSafe class Ov { private int x; private void f(String s) { x = x + 1; } "
           "private void f(Integer i) { synchronized (this) { x = x + 1; } } "
           "public void a() { f(\"s\"); } public synchronized void b() { x = x + 1; } }",
           "2 overloads of arity 1 match the call"),
    "Rec": ("@ThreadSafe class Rec { private int x; private void f(int a) { g(a); } "
            "private void g(int a) { f(a); } public void a() { f(0); } }",
            "recursive call chain"),
}


@pytest.mark.parametrize("name", sorted(UNINLINED_CALLS))
def test_a_call_the_oracle_cannot_inline_makes_the_class_unsupported(tmp_path, name):
    src, reason = UNINLINED_CALLS[name]
    path = tmp_path / f"{name}.java"
    path.write_text(src)
    report, code = oracle_check([str(path)], build_config(None))
    [result] = report.oracle
    assert (result.status, result.agreement) == ("unsupported", "skipped")
    assert reason in result.detail
    assert code == EXIT_CLEAN


@pytest.mark.parametrize("check", [run, oracle_check])
def test_each_file_is_analyzed_before_the_next_is_parsed(tmp_path, monkeypatch, check):
    (tmp_path / "A.java").write_text(CLEAN.replace("Clean", "A"))
    (tmp_path / "B.java").write_text(CLEAN.replace("Clean", "B"))
    events = []
    parse, class_alerts = cli.parse_compilation_unit, cli._class_alerts

    def logged_parse(src):
        events.append(("parse", os.path.basename(src.path)))
        return parse(src)

    def logged_class_alerts(decl, config):
        events.append(("analyze", decl.name))
        return class_alerts(decl, config)

    monkeypatch.setattr(cli, "parse_compilation_unit", logged_parse)
    monkeypatch.setattr(cli, "_class_alerts", logged_class_alerts)
    check([str(tmp_path)], build_config(None))
    assert events == [("parse", "A.java"), ("analyze", "A"), ("parse", "B.java"), ("analyze", "B")]


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO_ROOT, "tests", "golden")
# the project settings under which the corpus's custom lock and thread-safe types count
CORPUS_FLAGS = ["--lock-type-add", "MyLock", "--allowlist-add", "com.example.concurrent.AtomicRegistry"]
GOLDEN_SUFFIX = {"text": "txt", "json": "json", "sarif": "sarif"}


@pytest.mark.parametrize("oracle", [False, True], ids=["static", "oracle"])
@pytest.mark.parametrize("fmt", sorted(GOLDEN_SUFFIX))
def test_corpus_reports_match_golden_bytes(monkeypatch, capsysbinary, fmt, oracle):
    """The report contract: tests/corpus gives these exact bytes. A change
    that moves them must regenerate the golden files and say why."""
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.delenv("THREADLINT_CONFIG", raising=False)
    args = ["--format", fmt, *CORPUS_FLAGS, os.path.join("tests", "corpus")]
    code = main(["--oracle", *args] if oracle else args)
    out = capsysbinary.readouterr().out
    golden = os.path.join(GOLDEN_DIR, f"corpus{'_oracle' if oracle else ''}.{GOLDEN_SUFFIX[fmt]}")
    with open(golden, "rb") as fh:
        assert out == fh.read()
    if oracle:
        assert code == EXIT_CLEAN and b"disagree" not in out
    else:
        assert code == EXIT_ALERTS


def test_parse_errors_match_golden_bytes(monkeypatch, capsysbinary):
    """Each file of tests/parse_errors has one syntax error, reported at the
    token at fault, with exit 2 and nothing on stderr."""
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.delenv("THREADLINT_CONFIG", raising=False)
    code = main([os.path.join("tests", "parse_errors")])
    captured = capsysbinary.readouterr()
    with open(os.path.join(GOLDEN_DIR, "parse_errors.txt"), "rb") as fh:
        assert captured.out == fh.read()
    assert code == EXIT_ERROR and captured.err == b""


@pytest.mark.parametrize("fmt", ["json", "sarif"])
def test_parse_errors_match_golden_bytes_in_json_and_sarif(monkeypatch, capsysbinary, fmt):
    """The error path of both structured formats: JSON's ``errors`` list and
    SARIF's unsuccessful invocation with one notification per file. The
    golden is the reference encoder's rendering of the same report."""
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.delenv("THREADLINT_CONFIG", raising=False)
    parse_errors = os.path.join("tests", "parse_errors")
    code = main(["--format", fmt, parse_errors])
    captured = capsysbinary.readouterr()
    with open(os.path.join(GOLDEN_DIR, f"parse_errors.{fmt}"), "rb") as fh:
        golden = fh.read()
    assert captured.out == golden
    assert code == EXIT_ERROR and captured.err == b""
    report, _ = run([parse_errors], build_config(None))
    assert report_reference.reference_bytes(report, fmt) == golden


def test_oracle_probes_match_golden_bytes(monkeypatch, capsysbinary):
    """tests/oracle_probes: the oracle reads a monitor or lock reference
    before it locks (``Mon`` and ``LockRef`` race on it), a method that
    unlocks a lock it does not hold makes its class unsupported, and the
    oracle walks branches, loops and early exits through ``finally``
    (``ReturnInTry``, ``ThrowInTry`` and ``NestedFinally`` are race-free,
    ``BranchLock`` and ``LoopWrite`` race, ``ManyIfs`` is over the path
    cap). A class literal is the own class's monitor only when it names the
    class: ``q.ForeignClassLit.class`` in package ``p`` is another class, so
    ``ForeignClassLit`` has a P3 alert and races, while ``Inner.class``,
    ``NestedClassLit.Inner.class`` and ``p.NestedClassLit.Inner.class`` share
    one monitor and ``NestedClassLit.Inner`` is race-free. A string literal
    is its own monitor: ``"a b"`` and ``"ab"`` are two strings, so
    ``StringLitMonitors`` has a P3 alert and races, while
    ``StringLitShared`` locks ``"a b"`` twice and is race-free. An unlock
    between a lock call and an access ends the window, so ``Relock`` and
    ``RelockTry`` have P3 alerts and race, while holds are counted, so
    ``Reentrant`` is guarded after one of its two unlocks. A window needs no
    unlock: ``LeakOnReturn`` keeps the lock on an early return and
    ``LockOnly.set`` never unlocks, yet each write runs under the lock, so
    neither has a P3 alert and the oracle finds no race. An array of a
    generic thread-safe type is not thread-safe, so ``GenericArray`` has P3
    alerts and races. Exit 0."""
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.delenv("THREADLINT_CONFIG", raising=False)
    code = main(["--oracle", "--lock-type-add", "MyLock", os.path.join("tests", "oracle_probes")])
    captured = capsysbinary.readouterr()
    with open(os.path.join(GOLDEN_DIR, "oracle_probes.txt"), "rb") as fh:
        assert captured.out == fh.read()
    assert code == EXIT_CLEAN and captured.err == b""


def assert_oracle_probes_match_golden_bytes(fmt, monkeypatch, capsysbinary):
    """The probes' report in ``fmt``, oracle rows included; the golden is
    the reference encoder's rendering of it."""
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.delenv("THREADLINT_CONFIG", raising=False)
    probes = os.path.join("tests", "oracle_probes")
    code = main(["--oracle", "--format", fmt, "--lock-type-add", "MyLock", probes])
    captured = capsysbinary.readouterr()
    with open(os.path.join(GOLDEN_DIR, f"oracle_probes.{fmt}"), "rb") as fh:
        golden = fh.read()
    assert captured.out == golden
    assert code == EXIT_CLEAN and captured.err == b""
    report, _ = oracle_check([probes], build_config(None, lock_type_add=("MyLock",)))
    assert report_reference.reference_bytes(report, fmt) == golden


def test_oracle_probes_match_golden_bytes_in_json(monkeypatch, capsysbinary):
    assert_oracle_probes_match_golden_bytes("json", monkeypatch, capsysbinary)


def test_oracle_probes_match_golden_bytes_in_sarif(monkeypatch, capsysbinary):
    assert_oracle_probes_match_golden_bytes("sarif", monkeypatch, capsysbinary)


def test_no_probe_class_the_oracle_finds_race_free_has_a_p3_alert():
    """A P3 alert on a class the oracle checks and finds race-free is one no
    race confirms; among the probes, leaked locks included, there is none."""
    probes = os.path.join(REPO_ROOT, "tests", "oracle_probes")
    report, _ = oracle_check([probes], build_config(None, lock_type_add=("MyLock",)))
    race_free = {r.class_id for r in report.oracle if r.status == "checked" and not r.raced}
    assert {"LeakOnReturn", "LockOnly"} <= race_free
    assert {a.class_id for a in report.alerts if a.rule == "P3"} & race_free == set()


def test_racy_trace_matches_golden_bytes(monkeypatch, capsysbinary):
    """The trace example of hboracle/trace.py: three races, exit 1."""
    monkeypatch.chdir(REPO_ROOT)
    code = main(["--trace", os.path.join("tests", "traces", "racy.trace")])
    captured = capsysbinary.readouterr()
    with open(os.path.join(GOLDEN_DIR, "racy_trace.txt"), "rb") as fh:
        assert captured.out == fh.read()
    assert code == EXIT_ALERTS and captured.err == b""


@pytest.mark.parametrize("workload", ["lint-callchain", "lint-wide", "oracle"])
def test_generated_workload_reports_match_golden_bytes(tmp_path, monkeypatch, capsysbinary, workload):
    """The report contract over the benchmark's generated inputs: the
    ``--oracle`` text report of each workload's seed-1 smoke files, written
    to their relative paths and checked in generation order."""
    relpaths = []
    for f in benchmark_workloads().generate(workload, 1, "smoke", os.path.join(REPO_ROOT, "tests", "corpus")):
        path = tmp_path / f.relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f.text, encoding="utf-8")
        relpaths.append(f.relpath)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("THREADLINT_CONFIG", raising=False)
    code = main(["--oracle", *CORPUS_FLAGS, *relpaths])
    captured = capsysbinary.readouterr()
    with open(os.path.join(GOLDEN_DIR, "workloads", f"{workload}.txt"), "rb") as fh:
        assert captured.out == fh.read()
    assert code == EXIT_CLEAN and captured.err == b""


def _written(tmp_path, files) -> list[str]:
    """The paths of generated workload files: a corpus file in place, any
    other written under ``tmp_path``."""
    paths = []
    for f in files:
        if f.in_repo:
            paths.append(os.path.join(REPO_ROOT, f.relpath))
        else:
            path = tmp_path / f.relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(f.text, encoding="utf-8")
            paths.append(str(path))
    return paths


@pytest.mark.parametrize("workload", ["lint-callchain", "lint-wide", "oracle"])
def test_full_size_workload_verdicts_match_the_generator_labels(tmp_path, workload):
    """Ground truth over each workload's full-size seed-1 inputs, among them
    the recursive and 100-method call chains: an annotated class has a P3
    alert exactly when the generator built it racy, and its P1 and P2 alerts
    name exactly the fields built to break those rules. An unannotated class
    gets nothing. For ``oracle`` the happens-before oracle runs too, and each
    class it checks races exactly when it is labelled racy."""
    workloads = benchmark_workloads()
    files = workloads.generate(workload, 1, "full", os.path.join(REPO_ROOT, "tests", "corpus"))
    paths = _written(tmp_path, files)
    labels = [c for f in files for c in f.classes]
    config = build_config(None, **workloads.CONFIG_ARGS)
    report, _ = (oracle_check if workload == "oracle" else run)(paths, config)
    assert not report.errors
    fields: dict[tuple[str, str], set[str]] = {}
    for a in report.alerts:
        fields.setdefault((a.class_id, a.rule), set()).add(a.field)
    raced = {r.class_id: r.raced for r in report.oracle if r.status == "checked"}
    for c in labels:
        got = {rule: fields.get((c.name, rule), set()) for rule in ("P1", "P2", "P3")}
        if not c.annotated:
            assert got == {"P1": set(), "P2": set(), "P3": set()}, c
            continue
        assert (bool(got["P3"]), got["P1"], got["P2"]) == (c.racy, set(c.p1), set(c.p2)), c
        if c.name in raced:
            assert raced[c.name] == c.racy, c
    if workload == "oracle":
        assert raced


def test_oracle_race_on_a_statically_clean_class_is_a_disagreement(tmp_path, monkeypatch, capsys):
    path = tmp_path / "Clean.java"
    path.write_text(CLEAN)
    monkeypatch.setattr(cli, "check_class", lambda cm, **kw: OracleVerdict(cm.class_id, True, None, 1, "checked"))
    code = main(["--oracle", str(path)])
    assert code == EXIT_ALERTS
    assert capsys.readouterr().out.splitlines() == [f"{path} Clean static=0 oracle=race agreement=disagree"]


def test_oracle_run_with_a_parse_failure_exits_2(tmp_path, capsys):
    (tmp_path / "A.java").write_text("@ThreadSafe class A {")
    (tmp_path / "Clean.java").write_text(CLEAN)
    code = main(["--oracle", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_ERROR
    assert f"{tmp_path / 'A.java'}:1:1 ERROR" in out
    assert f"{tmp_path / 'Clean.java'} Clean static=0 oracle=race-free agreement=ok" in out


def test_a_file_that_annotates_no_class_is_not_parsed(tmp_path, capsys):
    """tests/unannotated holds a lambda and a switch, which the parser
    rejects, in a file with no annotated class: it neither stops the run nor
    changes the racy file's report."""
    racy = tmp_path / "Open.java"
    racy.write_text(OPEN)
    alone = main([str(racy)]), capsys.readouterr().out
    both = main([os.path.join(REPO_ROOT, "tests", "unannotated"), str(racy)]), capsys.readouterr().out
    assert both == alone and alone[0] == EXIT_ALERTS


@pytest.mark.parametrize(
    "added,written",
    [("Concurrent", "@Concurrent"), ("com.acme.Concurrent", "@com.acme.Concurrent")],
    ids=["simple", "qualified"],
)
def test_an_added_annotation_passes_the_file_filter(tmp_path, capsys, added, written):
    path = tmp_path / "Open.java"
    path.write_text(OPEN.replace("@ThreadSafe", written))
    assert main([str(path)]) == EXIT_CLEAN
    assert main(["--annotation-add", added, str(path)]) == EXIT_ALERTS
    assert f"{path}:3:3 P1 n" in capsys.readouterr().out


@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["static", "oracle"])
def test_timings_write_one_stderr_line_and_leave_stdout_alone(monkeypatch, capsysbinary, oracle):
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.delenv("THREADLINT_CONFIG", raising=False)
    args = [*oracle, *CORPUS_FLAGS, os.path.join("tests", "corpus")]
    code = main(args)
    plain = capsysbinary.readouterr()
    assert main(["--timings", *args]) == code
    timed = capsysbinary.readouterr()
    assert timed.out == plain.out and plain.err == b""
    assert re.fullmatch(rb"wall time: \d+\.\d{3}s\n", timed.err)


# --- the paused cyclic garbage collector ---


@pytest.fixture
def collector_setting():
    """The cyclic collector's setting, restored after the test."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def test_checking_leaves_no_cyclic_garbage(tmp_path, collector_setting):
    """Reference counting frees everything a check builds, so pausing the
    collector during a run leaks nothing: with the collector off, checking
    and serializing every input set, with and without the oracle, leaves no
    object that only a collection would free."""
    workloads = benchmark_workloads()
    corpus = os.path.join(REPO_ROOT, "tests", "corpus")
    inputs = [[os.path.join(REPO_ROOT, "tests", d)] for d in ("corpus", "oracle_probes", "parse_errors", "unannotated")]
    inputs += [_written(tmp_path / w, workloads.generate(w, 1, "full", corpus)) for w in workloads.WORKLOADS]
    config = build_config(None, **workloads.CONFIG_ARGS)
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for paths in inputs:
            for check in (run, oracle_check):
                report, _ = check(paths, config)
                for fmt in OUTPUT_FORMATS:
                    serialize_report(report, fmt)
        gc.collect()
        garbage = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
    assert not garbage, f"cyclic garbage by type: {dict(garbage.most_common())}"


def test_no_collection_starts_inside_a_run(tmp_path, collector_setting):
    """The largest annotated full-size lint-wide file allocates enough to
    trigger collections many times over; none starts while ``run`` is on
    the stack. The one that the allocations made meanwhile are due starts
    in the caller, after ``run`` has returned."""
    workloads = benchmark_workloads()
    files = workloads.generate("lint-wide", 1, "full", os.path.join(REPO_ROOT, "tests", "corpus"))
    annotated = [f for f in files if any(c.annotated for c in f.classes)]
    largest = max(annotated, key=lambda f: len(f.text))
    paths = _written(tmp_path, [largest])
    config = build_config(None, **workloads.CONFIG_ARGS)
    gc.enable()
    starts = []

    def count(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not run.__code__:
            frame = frame.f_back
        if frame is not None:
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        report, _ = run(paths, config)
    finally:
        gc.callbacks.remove(count)
    assert report.stats.annotated_classes and not report.errors
    assert starts == []


# name -> (files to create, the paths to check, the error the check raises or None)
COLLECTOR_CASES = {
    "clean": ({"Clean.java": CLEAN}, ["Clean.java"], None),
    "missing-path": ({}, ["Missing.java"], IoError),
    "parse-failure": ({"A.java": "@ThreadSafe class A {"}, ["A.java"], None),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("check", [run, oracle_check], ids=["run", "oracle"])
@pytest.mark.parametrize("case", sorted(COLLECTOR_CASES))
def test_the_callers_collector_setting_comes_back(tmp_path, collector_setting, case, check, enabled):
    files, args, error = COLLECTOR_CASES[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(error) if error else contextlib.nullcontext():
        check([str(tmp_path / a) for a in args], build_config(None))
    assert gc.isenabled() == enabled


def test_overlapping_checks_in_two_threads_restore_the_collector(tmp_path, monkeypatch, collector_setting):
    """Thread ``first`` enters while the collector is on, ``second`` while
    ``first`` has it paused; both analyze a class at once, and ``first``
    returns before ``second``. The collector stays paused until ``second``
    returns too, and is on afterwards. A check that saved and restored the
    setting on its own would resume it when ``first`` returns, or would
    leave it off because ``second`` found it off."""
    path = tmp_path / "Clean.java"
    path.write_text(CLEAN)
    gc.enable()
    barrier = threading.Barrier(2, timeout=30)
    first_in, first_done = threading.Event(), threading.Event()
    seen = {}
    class_alerts = cli._class_alerts

    def overlapping(decl, config):
        name = threading.current_thread().name
        if name == "first":
            first_in.set()
        barrier.wait()
        seen[name] = gc.isenabled()
        if name == "second":
            assert first_done.wait(30)
            seen["second, first done"] = gc.isenabled()
        return class_alerts(decl, config)

    def check(name):
        run([str(path)], build_config(None))
        if name == "first":
            first_done.set()

    monkeypatch.setattr(cli, "_class_alerts", overlapping)
    threads = {name: threading.Thread(target=check, args=(name,), name=name) for name in ("first", "second")}
    threads["first"].start()
    assert first_in.wait(30)
    threads["second"].start()
    for t in threads.values():
        t.join(60)
        assert not t.is_alive()
    assert seen == {"first": False, "second": False, "second, first done": False}
    assert gc.isenabled()
