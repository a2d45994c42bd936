"""Work counted, not timed: the Python-level calls a run makes into
threadlint, the drivers the oracle searches, and its walks over their
action lists.

Timing assertions flake on shared runners; a count of calls does not. The
counter sees every call of a function defined in the package, on a
``sys.setprofile`` hook, and leaves out code whose name starts with ``<``:
comprehensions, generator expressions and lambdas, which Python 3.12 inlines
in part, so that Python 3.10 to 3.13 count alike.
"""

import os
import random
import sys
from collections import Counter

import pytest

from conftest import benchmark_workloads

import threadlint
from threadlint import cli, hboracle
from threadlint.config import build_config
from threadlint.frontend import SourceFile, parse_compilation_unit
from threadlint.frontend import ast as A
from threadlint.hboracle import driver

PACKAGE_DIR = os.path.dirname(os.path.abspath(threadlint.__file__)) + os.sep

# calls per AST node of a lint run on the benchmark's wide class of 120
# methods, as measured when the gate was set (the same on Python 3.10-3.13)
CALLS_PER_NODE = {"clean": 8.17, "racy": 8.51}
# a run may make this much more work per node before the gate fails
SLACK = 1.10


def package_calls(fn) -> Counter:
    """The calls of the package's named functions that ``fn()`` makes, by name."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE_DIR) and not code.co_name.startswith("<"):
                calls[code.co_name] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def ast_nodes(text: str) -> int:
    """The file's statement and expression nodes, plus one per class,
    field and callable declaration."""
    nodes = 0
    for c in parse_compilation_unit(SourceFile("<count>.java", text)).iter_classes():
        nodes += 1 + len(c.fields)
        for f in c.fields:
            if f.initializer is not None:
                nodes += sum(1 for _ in A.walk(f.initializer))
        for m in c.constructors + c.methods:
            nodes += 1
            if m.body is not None:
                nodes += sum(1 for _ in A.walk(m.body))
    return nodes


def lint_work(tmp_path, n_methods: int, racy: bool) -> tuple[int, int]:
    """(calls, AST nodes) of ``cli.run`` on one wide class of ``n_methods``."""
    workloads = benchmark_workloads()
    f = workloads.wide_class(random.Random(7), "Wide", n_methods, annotated=True, racy=racy, i=0)
    path = tmp_path / f"{n_methods}" / f.relpath
    path.parent.mkdir()
    path.write_text(f.text, encoding="utf-8")
    config = build_config(None, **workloads.CONFIG_ARGS)
    report = []
    calls = sum(package_calls(lambda: report.append(cli.run([str(path)], config))).values())
    assert report[0][1] != cli.EXIT_ERROR
    return calls, ast_nodes(f.text)


@pytest.mark.parametrize("variant", ["clean", "racy"])
def test_lint_calls_grow_linearly_and_stay_within_the_measured_cost_per_node(tmp_path, variant):
    """Doubling the methods at most doubles the calls, with 10% to spare for
    the fixed part; and the calls per AST node stay within the measured
    constant plus 10%."""
    small, small_nodes = lint_work(tmp_path, 60, variant == "racy")
    large, large_nodes = lint_work(tmp_path, 120, variant == "racy")
    assert 1.9 < large_nodes / small_nodes < 2.1
    assert large / small <= 2.2, (small, large)
    assert large / large_nodes <= CALLS_PER_NODE[variant] * SLACK, (large, large_nodes)


TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize("inputs, flags, searched, drivers", [
    ("oracle_probes", {"lock_type_add": ("MyLock",)}, 15, 64),
    ("corpus", {"lock_type_add": ("MyLock",), "allowlist_add": ("com.example.concurrent.AtomicRegistry",)}, 2, 22),
])
def test_the_oracle_searches_only_the_drivers_that_may_race(monkeypatch, inputs, flags, searched, drivers):
    """``oracle_check`` searches the sync orders of a driver only where the
    lockset filter cannot clear it: the counts measured when the filter
    came in, of the drivers searched and of all drivers checked."""
    searches, verdicts = [], []
    search, check = driver.program_races, hboracle.check_class

    def counted_search(d, **kw):
        searches.append(d.name)
        return search(d, **kw)

    def counted_check(cm, **kw):
        verdicts.append(check(cm, **kw))
        return verdicts[-1]

    monkeypatch.setattr(driver, "program_races", counted_search)
    monkeypatch.setattr(hboracle, "check_class", counted_check)
    _, code = cli.oracle_check([os.path.join(TESTS_DIR, inputs)], build_config(None, **flags))
    assert code == cli.EXIT_CLEAN
    assert (len(searches), sum(v.drivers_checked for v in verdicts)) == (searched, drivers)


@pytest.mark.parametrize("inputs, flags, classes, lock_calls", [
    ("oracle_probes", {"lock_type_add": ("MyLock",)}, 25, 202),
    ("corpus", {"lock_type_add": ("MyLock",), "allowlist_add": ("com.example.concurrent.AtomicRegistry",)}, 9, 18),
], ids=["oracle_probes", "corpus"])
def test_the_oracle_walks_each_action_list_once(monkeypatch, inputs, flags, classes, lock_calls):
    """``oracle_check`` walks each class's init list and each of its distinct
    action lists once, by ``check_actions``, which checks the list and
    records its plain accesses; and it makes the ``_acquire``/``_release``
    calls measured when those two walks became one, of that walk, the
    searches and the witnesses, so a second walk over the lists fails."""
    lowered, checks = [], []  # (check_actions calls, distinct lists + 1) of each class that lowers
    check, lower = driver.check_actions, driver.two_thread_drivers

    def counted_check(t, actions):
        checks.append(t)
        return check(t, actions)

    def counted_lower(cm, **kw):
        before = len(checks)
        drivers = list(lower(cm, **kw))
        lowered.append((len(checks) - before, len({actions for d in drivers for actions in d.threads}) + 1))
        return iter(drivers)

    monkeypatch.setattr(driver, "check_actions", counted_check)
    monkeypatch.setattr(driver, "two_thread_drivers", counted_lower)
    config = build_config(None, **flags)
    codes = []
    calls = package_calls(lambda: codes.append(cli.oracle_check([os.path.join(TESTS_DIR, inputs)], config)[1]))
    assert codes == [cli.EXIT_CLEAN]
    assert all(walks == lists for walks, lists in lowered), lowered
    assert (len(lowered), calls["_acquire"] + calls["_release"]) == (classes, lock_calls)
