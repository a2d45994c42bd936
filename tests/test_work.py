"""Work counted, not timed: the Python-level calls a run makes into threadlint.

Timing assertions flake on shared runners; a count of calls does not. The
counter sees every call of a function defined in the package, on a
``sys.setprofile`` hook, and leaves out code whose name starts with ``<``:
comprehensions, generator expressions and lambdas, which Python 3.12 inlines
in part, so that Python 3.10 to 3.13 count alike.
"""

import os
import random
import sys

import pytest

from conftest import benchmark_workloads

import threadlint
from threadlint import cli
from threadlint.config import build_config
from threadlint.frontend import SourceFile, parse_compilation_unit
from threadlint.frontend import ast as A

PACKAGE_DIR = os.path.dirname(os.path.abspath(threadlint.__file__)) + os.sep

# calls per AST node of a lint run on the benchmark's wide class of 120
# methods, as measured when the gate was set (the same on Python 3.10-3.13)
CALLS_PER_NODE = {"clean": 8.17, "racy": 8.51}
# a run may make this much more work per node before the gate fails
SLACK = 1.10


def package_calls(fn) -> int:
    """The calls of the package's named functions that ``fn()`` makes."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE_DIR) and not code.co_name.startswith("<"):
                calls += 1

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
    calls = package_calls(lambda: report.append(cli.run([str(path)], config)))
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
