"""threadlint's benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {lint-callchain,lint-wide,oracle} \\
        --seed N --seconds S --trace {0,1} [--size {full,smoke}]

The workload's Java files are generated from the seed into
``.perfbench_work/`` (removed on exit); ``tests/corpus`` is read in place.
Load is a closed loop on one thread: whole passes over the files, one file
per call, for about ``--seconds`` seconds.

``--trace 0`` prints the end-to-end metrics, measured with no tracing.
Their timings are in ``ref`` units: multiples of a fixed pure-Python routine
(``measure.reference_work``) timed around every file in the same process,
because a shared host's speed drifts by a third within seconds; the same
timings in ms are printed too. ``--trace 1`` runs untraced and
layer-by-layer passes in turn and prints the per-layer metrics, in ms.

The line before the last holds the run environment (Python version, oracle
kernel backend, CPU count, seed, commit, a digest of ``src/``), the verdict
counts and the plain-unit timings. The last line is the result object.
Results from different oracle backends (``pure`` or a compiled lane) must
not be compared.

Exit codes: 0 with a result, 2 when the checkout holds no threadlint
sources, 1 when the traced run cannot reach a layer it times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from statistics import median

from measure import (
    Linter,
    Verdict,
    end_to_end_metrics,
    peak_rss_mb,
    run_passes,
    score,
    setup_seconds,
    untraced_pass,
    verdicts_from_json,
)
from workloads import CONFIG_ARGS, SIZES, WORKLOADS, generate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "tests", "corpus")
WORK = os.path.join(ROOT, ".perfbench_work")

END_TO_END_UNITS = {
    "setup_s": "s",
    "classes_per_kref": "1/kref",
    "file_ref_p50": "ref",
    "file_ref_p90": "ref",
    "peak_rss_mb": "MB",
    "decided_ratio": "ratio",
    "ok_file_ratio": "ratio",
    "racy_caught_ratio": "ratio",
    "clean_passed_ratio": "ratio",
    "rule_match_ratio": "ratio",
}

SETUP_REPEATS = 7


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description="threadlint's benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    p.add_argument("--size", choices=SIZES, default="full", help="smoke: a tiny input set for tests")
    return p.parse_args(argv)


def git_commit(root: str) -> str | None:
    """HEAD's commit, read from ``.git`` without leaving the checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, names in os.walk(os.path.join(src, "threadlint")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(names):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    from threadlint.hboracle import BACKEND

    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "backend": BACKEND,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC),
    }


def write_inputs(files, workdir: str) -> list[str]:
    os.makedirs(workdir)
    paths = []
    for f in files:
        if f.in_repo:
            paths.append(os.path.join(ROOT, f.relpath))
            continue
        path = os.path.join(workdir, f.relpath)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f.text)
        paths.append(path)
    with open(os.path.join(workdir, "files.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(paths) + "\n")
    return paths


def end_to_end(args, files, paths, workdir) -> tuple[dict, dict]:
    oracle = args.workload == "oracle"
    setup = setup_seconds(SRC, SETUP_REPEATS)
    rss = peak_rss_mb(SRC, args.workload, os.path.join(workdir, "files.txt"))
    linter = Linter(CONFIG_ARGS, oracle)
    linter.check_file(paths[0])  # warm-up, untimed
    passes = run_passes(args.seconds, lambda: untraced_pass(linter, paths))
    values, plain, sc, stable = end_to_end_metrics(files, passes, oracle)
    values["setup_s"] = median(setup)
    values["peak_rss_mb"] = rss
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {
        "correct": stable and sc.missed_races == 0 and sc.rule_mismatches == 0,
        "attempted": len(paths) * len(passes),
        "failed": sum(out is None for p in passes for out in p.outputs),
        "metrics": metrics,
    }
    detail = {"passes": len(passes), "files": len(paths), "reports_stable": stable, "counts": sc.counts(),
              "plain_units": plain}
    return result, detail


def traced(args, files, paths) -> tuple[dict, dict]:
    from layers import TracedLinter, layer_metrics, per_layer_units, resolve_entry_points

    entry, absent = resolve_entry_points()
    if absent:
        for layer, names in absent.items():
            print(f"perfbench: layer {layer} absent; not found: {', '.join(names)}", file=sys.stderr)
        raise SystemExit(1)
    oracle = args.workload == "oracle"
    linter = Linter(CONFIG_ARGS, oracle)
    tracer = TracedLinter(entry, linter.config, oracle)
    linter.check_file(paths[0])  # warm-up, untimed

    def one_pair():
        return untraced_pass(linter, paths), tracer.run_pass(paths)

    pairs = run_passes(args.seconds, one_pair)
    plain = [u for u, _ in pairs]
    layered = [t for _, t in pairs]
    per_pass = [layer_metrics(t) for t in layered]
    values = {k: median([m[k] for m in per_pass]) for k in per_pass[0]}
    values["trace_overhead_ratio"] = median([t.pass_ns for t in layered]) / median([u.total_ns for u in plain])

    sc = score(files, layered[0].verdicts, oracle)
    for k in ("missed_races", "false_alarms", "rule_mismatches", "error_files"):
        values[f"verdicts.{k}"] = getattr(sc, k)

    # the layered verdicts must be the CLI's, file by file, pass after pass
    cli_verdicts = [None if out is None else verdicts_from_json(out) for out in plain[0].outputs]
    layered_verdicts = [
        None if v is None else {k: x for k, x in v.items() if x != Verdict()} for v in layered[0].verdicts
    ]
    mismatches = [m for t in layered for m in t.mismatches]
    agree = (
        cli_verdicts == layered_verdicts
        and all(t.verdicts == layered[0].verdicts for t in layered)
        and all(u.outputs == plain[0].outputs for u in plain)
    )
    for m in mismatches[:20]:
        print(f"perfbench: self-check: {m}", file=sys.stderr)
    if not agree:
        print("perfbench: self-check: verdicts differ between passes or from the CLI's report", file=sys.stderr)
    correct = (
        not mismatches and agree and values["hboracle.replay_failures"] == 0
        and sc.missed_races == 0 and sc.rule_mismatches == 0
    )
    metrics = {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}
    result = {
        "correct": correct,
        "attempted": len(paths) * len(layered),
        "failed": sum(v is None for t in layered for v in t.verdicts),
        "metrics": metrics,
    }
    detail = {"passes": len(pairs), "files": len(paths), "self_check_mismatches": len(mismatches),
              "cli_agrees": agree, "counts": sc.counts()}
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "threadlint", "__init__.py")) or not os.path.isdir(CORPUS):
        print(f"perfbench: no threadlint sources under {SRC} and corpus under {CORPUS}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    files = generate(args.workload, args.seed, args.size, CORPUS)
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        paths = write_inputs(files, workdir)
        if args.trace:
            result, detail = traced(args, files, paths)
        else:
            result, detail = end_to_end(args, files, paths, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"environment": environment(args), **detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
