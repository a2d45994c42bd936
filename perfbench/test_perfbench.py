"""The benchmark's own tests, on the smoke size of each workload.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from layers import TracedLinter, resolve_entry_points  # noqa: E402
from measure import Linter, Verdict, score, untraced_pass, verdicts_from_json  # noqa: E402
from run import write_inputs  # noqa: E402
from workloads import CONFIG_ARGS, WORKLOADS, ClassLabel, JavaFile, generate  # noqa: E402

CORPUS = os.path.join(ROOT, "tests", "corpus")


@pytest.fixture
def workdir(request):
    d = os.path.join(ROOT, ".perfbench_work", f"test-{os.getpid()}-{request.node.name}")
    os.makedirs(d)
    yield d
    shutil.rmtree(d, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(d))
    except OSError:
        pass  # still in use


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_byte_identical_per_seed(workload):
    a = generate(workload, 7, "smoke", CORPUS)
    b = generate(workload, 7, "smoke", CORPUS)
    assert [(f.relpath, f.text, f.classes) for f in a] == [(f.relpath, f.text, f.classes) for f in b]
    c = generate(workload, 8, "smoke", CORPUS)
    assert [f.text for f in a] != [f.text for f in c]


def test_full_mix_does_not_depend_on_seed():
    for workload in WORKLOADS:
        shapes = [
            sorted((c.shape, c.annotated, c.racy) for f in generate(workload, s, "full", CORPUS) for c in f.classes)
            for s in (1, 2)
        ]
        assert shapes[0] == shapes[1]


def test_probes_are_labelled_race_free():
    for workload, probes in (("lint-callchain", {"probe-helper-locked", "probe-pub-inner"}),
                             ("oracle", {"probe-helper-locked", "probe-pub-inner"})):
        labels = [c for f in generate(workload, 3, "smoke", CORPUS) for c in f.classes]
        found = {c.shape for c in labels if c.shape.startswith("probe")}
        assert found == probes
        assert not any(c.racy for c in labels if c.shape.startswith("probe"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_verdicts_are_sound_and_traced_run_reproduces_them(workload, workdir):
    oracle = workload == "oracle"
    files = generate(workload, 5, "smoke", CORPUS)
    paths = write_inputs(files, os.path.join(workdir, "inputs"))
    plain = untraced_pass(Linter(CONFIG_ARGS, oracle), paths)
    assert all(out is not None for out in plain.outputs)
    cli_verdicts = [verdicts_from_json(out) for out in plain.outputs]
    sc = score(files, cli_verdicts, oracle)
    assert sc.missed_races == 0 and sc.rule_mismatches == 0 and sc.error_files == 0
    assert sc.racy > 0 and sc.race_free > 0

    entry, absent = resolve_entry_points()
    assert not absent
    linter = Linter(CONFIG_ARGS, oracle)
    traced = TracedLinter(entry, linter.config, oracle).run_pass(paths)
    assert traced.mismatches == []
    layered = [{k: v for k, v in per_file.items() if v != Verdict()} for per_file in traced.verdicts]
    assert layered == cli_verdicts
    if oracle:
        assert traced.counts.get("hboracle.replay_failures", 0) == 0
        assert traced.counts["hboracle.executions"] > 0


def _one_class(racy: bool, p1=()) -> list[JavaFile]:
    return [JavaFile("A.java", "", [ClassLabel("A", True, racy, tuple(p1))])]


def test_score_counts_missed_races_false_alarms_and_rule_mismatches():
    clean = [{}]
    p3 = [{"A": Verdict({"P3": {"x"}})}]
    assert score(_one_class(True), clean, False).missed_races == 1
    assert score(_one_class(True), p3, False).missed_races == 0
    assert score(_one_class(False), p3, False).false_alarms == 1
    assert score(_one_class(False, p1=["x"]), clean, False).rule_mismatches == 1
    # an oracle that checked a racy class and found no race misses it too
    cleared = [{"A": Verdict({"P3": {"x"}}, ("checked", False))}]
    assert score(_one_class(True), cleared, True).missed_races == 1
    undecided = [{"A": Verdict({"P3": {"x"}}, ("budget-exceeded", False))}]
    s = score(_one_class(True), undecided, True)
    assert (s.missed_races, s.decided) == (0, 0)
    assert score(_one_class(True), [None], False).error_files == 1


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_every_declared_metric(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    proc = _run(["--workload", workload, "--seed", "2", "--seconds", "0.1", "--trace", trace, "--size", "smoke"],
                ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    env = json.loads(lines[-2])["environment"]
    assert env["seed"] == 2 and env["backend"] and env["python"] and env["nproc"] >= 1
    work = os.path.join(ROOT, ".perfbench_work")
    assert not any(d.startswith(f"{workload}-2-") for d in (os.listdir(work) if os.path.isdir(work) else ()))


def test_run_fails_without_sources(workdir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    shutil.copytree(HERE, os.path.join(workdir, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"], workdir)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
