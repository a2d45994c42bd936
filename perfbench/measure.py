"""Untraced end-to-end measurement and the verdict check shared by both runs.

The untraced run reaches threadlint only through ``config.build_config``,
``cli.run`` / ``cli.oracle_check`` (one file per call, as a pre-commit hook
checks files) and ``reporting.serialize_report``.
"""

from __future__ import annotations

import gc
import json
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))

# what a fresh ``threadlint`` invocation pays before its first file
SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import threadlint.cli\n"
    "threadlint.cli.build_config(None)\n"
    "print(time.perf_counter() - t0)\n"
)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# --------------------------------------------------------------------------
# verdicts


@dataclass
class Verdict:
    """What threadlint said about one class: alert fields by rule, and the
    oracle's (status, raced) when the oracle ran."""

    rules: dict[str, set[str]] = field(default_factory=dict)
    oracle: tuple[str, bool] | None = None


def verdicts_from_json(data: bytes) -> dict[str, Verdict]:
    doc = json.loads(data)
    out: dict[str, Verdict] = {}
    for a in doc["alerts"]:
        out.setdefault(a["class"], Verdict()).rules.setdefault(a["rule"], set()).add(a["field"])
    for o in doc.get("oracle", ()):
        out.setdefault(o["class"], Verdict()).oracle = (o["status"], o["raced"])
    return out


@dataclass
class Score:
    files: int = 0
    error_files: int = 0
    classes: int = 0
    annotated: int = 0
    decided: int = 0
    racy: int = 0
    missed_races: int = 0
    race_free: int = 0
    false_alarms: int = 0
    rule_mismatches: int = 0

    def ratios(self) -> dict[str, float]:
        return {
            "decided_ratio": self.decided / max(self.annotated, 1),
            "ok_file_ratio": 1 - self.error_files / max(self.files, 1),
            "racy_caught_ratio": 1 - self.missed_races / max(self.racy, 1),
            "clean_passed_ratio": 1 - self.false_alarms / max(self.race_free, 1),
            "rule_match_ratio": 1 - self.rule_mismatches / max(self.classes, 1),
        }

    def counts(self) -> dict[str, int]:
        return dict(self.__dict__)


def score(files, per_file: list[dict[str, Verdict] | None], oracle: bool) -> Score:
    """Compare verdicts with the labels the generator wrote.

    ``per_file[i]`` is None when file i ended in a traceback or exit code 2;
    its classes count as undecided. A racy class is missed when the static
    P3 result calls it clean, or when the oracle checked it and found no
    race; a race-free class is a false alarm on a P3 alert or an oracle race.
    In the oracle workload only ``checked`` classes are decided.
    """
    s = Score(files=len(files))
    for f, verdicts in zip(files, per_file):
        if verdicts is None:
            s.error_files += 1
        for c in f.classes:
            s.classes += 1
            v = (verdicts or {}).get(c.name, Verdict())
            if not c.annotated:
                s.rule_mismatches += bool(v.rules or v.oracle)
                continue
            s.annotated += 1
            if verdicts is None:
                continue
            checked = v.oracle is not None and v.oracle[0] == "checked"
            s.decided += checked if oracle else 1
            p3 = bool(v.rules.get("P3"))
            if c.racy:
                s.racy += 1
                s.missed_races += (not p3) or (checked and not v.oracle[1])
            else:
                s.race_free += 1
                s.false_alarms += p3 or (checked and v.oracle[1])
            if v.rules.get("P1", set()) != set(c.p1) or v.rules.get("P2", set()) != set(c.p2):
                s.rule_mismatches += 1
    return s


# --------------------------------------------------------------------------
# untraced passes


class Linter:
    """One file at a time through the CLI's entry points."""

    def __init__(self, config_args: dict, oracle: bool):
        from threadlint import cli
        from threadlint.config import build_config
        from threadlint.reporting import serialize_report

        self.config = build_config(None, **config_args)
        self.check = cli.oracle_check if oracle else cli.run
        self.serialize = serialize_report
        self.error_exit = cli.EXIT_ERROR

    def check_file(self, path: str) -> tuple[int, bytes | None]:
        """Nanoseconds to a serialized verdict, and the report bytes (None on
        a traceback or exit code 2)."""
        t0 = time.perf_counter_ns()
        try:
            report, code = self.check([path], self.config)
            data = self.serialize(report, self.config.output_format)
        except Exception:  # a traceback is a measured outcome, not a crash
            return time.perf_counter_ns() - t0, None
        elapsed = time.perf_counter_ns() - t0
        return elapsed, (None if code == self.error_exit else data)


_REF_TEXT = "public long next(int n) { counter = counter + n; return other(counter, n); }\n" * 20
_REF_TOKEN = re.compile(r"\s+|[A-Za-z_]\w*|\d+|[{}();=+,]")


class _RefNode:
    __slots__ = ("text", "index", "edges")

    def __init__(self, text: str, index: int):
        self.text, self.index, self.edges = text, index, []


def reference_work() -> int:
    """A fixed piece of pure-Python work: tokenize, build nodes, index them,
    walk the graph. It uses nothing of threadlint, so no change to threadlint
    moves its time; timed next to every file, it measures how fast the host
    runs Python at that moment (about 1.2 ms on a 2-vCPU Xeon KVM guest)."""
    nodes = [_RefNode(m.group(), i) for i, m in enumerate(_REF_TOKEN.finditer(_REF_TEXT)) if not m.group().isspace()]
    by_text: dict[str, list[_RefNode]] = {}
    for n in nodes:
        by_text.setdefault(n.text, []).append(n)
    for n in nodes:
        n.edges = by_text[n.text][:3] + nodes[n.index + 1:n.index + 3]
    seen: set[int] = set()
    stack = [nodes[0]]
    while stack:
        n = stack.pop()
        if n.index not in seen:
            seen.add(n.index)
            stack.extend(n.edges)
    return len(seen) + sum(len(v) for v in by_text.values())


def _ref_ns() -> int:
    """Median of three timings of the reference work."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        reference_work()
        times.append(time.perf_counter_ns() - t0)
    return sorted(times)[1]


@dataclass
class PassResult:
    """Per-file times of one pass; ``ref_ns`` brackets every file with a
    timing of the reference work (one more entry than files)."""

    ns: list[int]
    outputs: list[bytes | None]
    ref_ns: list[int]

    @property
    def total_ns(self) -> int:
        return sum(self.ns)

    def in_refs(self) -> list[float]:
        """Each file's time in reference units: its time over the mean of
        the two reference timings around it."""
        return [t * 2 / (self.ref_ns[i] + self.ref_ns[i + 1]) for i, t in enumerate(self.ns)]


def untraced_pass(linter: Linter, paths: list[str]) -> PassResult:
    gc.collect()
    ns, outputs, refs = [], [], [_ref_ns()]
    for p in paths:
        t, data = linter.check_file(p)
        ns.append(t)
        outputs.append(data)
        refs.append(_ref_ns())
    return PassResult(ns, outputs, refs)


def run_passes(seconds: float, one_pass) -> list:
    """Whole passes, closed loop, at least one, while the next one is
    expected to end in time."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return results


def end_to_end_metrics(files, passes: list[PassResult], oracle: bool) -> tuple[dict, dict, Score, bool]:
    """Metric values, the same timings in plain units, the verdict score, and
    whether every pass produced the same report bytes as the first.

    Times are taken in reference units (see ``reference_work``): the host's
    speed drifts by a third within seconds, and the reference cancels it.
    Throughput is the median pass, so a burst of noise spoils one pass only.
    """
    classes = sum(c.annotated for f in files for c in f.classes)
    first = passes[0].outputs
    stable = all(p.outputs == first for p in passes[1:])
    verdicts = [None if out is None else verdicts_from_json(out) for out in first]
    sc = score(files, verdicts, oracle)
    refs = [t for p in passes for t in p.in_refs()]
    metrics = {
        "classes_per_kref": statistics.median([classes * 1e3 / sum(p.in_refs()) for p in passes]),
        "file_ref_p50": percentile(refs, 0.5),
        "file_ref_p90": percentile(refs, 0.9),
        **sc.ratios(),
    }
    samples_ms = [t / 1e6 for p in passes for t in p.ns]
    plain = {
        "classes_per_s": statistics.median([classes * 1e9 / p.total_ns for p in passes]),
        "file_ms_p50": percentile(samples_ms, 0.5),
        "file_ms_p90": percentile(samples_ms, 0.9),
        "reference_ms": statistics.median([t / 1e6 for p in passes for t in p.ref_ns]),
        "samples": len(samples_ms),
    }
    return metrics, plain, sc, stable


# --------------------------------------------------------------------------
# fresh processes


def child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    return env


def setup_seconds(src_dir: str, repeats: int) -> list[float]:
    """Import-and-configure time of fresh interpreters, after one warm-up
    that leaves the bytecode cache as an installed threadlint has it."""
    out = []
    for i in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET], env=child_env(src_dir), cwd=os.path.dirname(src_dir),
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            out.append(float(proc.stdout.strip()))
    return out


def peak_rss_mb(src_dir: str, workload: str, list_file: str) -> float:
    """Peak RSS of a fresh process that checks every file once."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "onepass.py"), workload, list_file],
        env=child_env(src_dir), cwd=os.path.dirname(src_dir),
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])
