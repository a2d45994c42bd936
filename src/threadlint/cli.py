"""Command-line entry point.

Exit codes mirror standard linters: 0 clean, 1 alerts found (or oracle
disagreement in --oracle mode, or races in --trace mode), 2 parse/config/IO
errors.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
import threading
import time
from typing import Optional

import threadlint
from threadlint.classmodel import build_class_model
from threadlint.config import ENV_CONFIG_PATH, OUTPUT_FORMATS, Config, build_config, read_text
from threadlint.errors import IoError, ParseError, ThreadlintError
from threadlint.frontend import SourceFile, annotated_as_thread_safe, annotation_pattern, parse_compilation_unit
from threadlint.raceanalysis import analyze_class
from threadlint.reporting import OracleResult, ParseFailure, Report, serialize_report

EXIT_CLEAN = 0
EXIT_ALERTS = 1
EXIT_ERROR = 2


def discover_files(paths: list[str]) -> tuple[list[str], list[ParseFailure]]:
    """All .java files under the given paths, each directory's sorted for
    determinism, and one ``cannot read`` row per directory that cannot be
    listed, a path or one under it; the walk goes on past such a directory.
    A file named more than once, directly, under a directory, or through
    another spelling or a link, is kept once, under the first of its names:
    files are told apart by device and inode. A path costs one ``stat``, and
    so does each entry found under a directory. Such an entry that is no
    regular file (a FIFO, a socket, a link to one) is never opened; one that
    cannot be stat'ed, such as a broken link, is kept."""
    files: list[str] = []
    unlisted: list[ParseFailure] = []
    seen: set = set()

    def unlistable(exc: OSError) -> None:
        unlisted.append(ParseFailure(exc.filename, 1, 1, f"cannot read: {exc.strerror or exc}"))

    def add(path: str, st: os.stat_result) -> None:
        key = (st.st_dev, st.st_ino) if st.st_ino else path  # some file systems give no inode
        if key not in seen:
            seen.add(key)
            files.append(path)

    for p in paths:
        try:
            st = os.stat(p)
        except (OSError, ValueError):  # ValueError: a NUL in the path
            raise IoError(f"no such file or directory: {p}") from None
        if stat.S_ISREG(st.st_mode):
            add(p, st)
        elif stat.S_ISDIR(st.st_mode):
            for root, dirs, names in os.walk(p, onerror=unlistable):
                dirs.sort()
                for name in sorted(names):
                    if name.endswith(".java"):
                        path = os.path.join(root, name)
                        try:
                            st = os.stat(path)
                        except OSError:
                            files.append(path)
                            continue
                        if stat.S_ISREG(st.st_mode):
                            add(path, st)
        else:
            raise IoError(f"not a regular file or directory: {p}")
    return files, unlisted


def _class_alerts(decl, config: Config):
    cm = build_class_model(
        decl,
        allowlist=config.allowlist(),
        annotation_names=config.annotations,
        mutator_methods=config.mutator_methods,
    )
    alerts = analyze_class(
        cm,
        rules=config.rules,
        lock_types=config.lock_types,
        lock_methods=config.lock_methods,
        unlock_methods=config.unlock_methods,
    )
    return cm, alerts


def _oracle_result(cm, path: str, alerts, config: Config) -> OracleResult:
    """The oracle's verdict on one class, judged against its static alerts."""
    from threadlint.hboracle import check_class  # loaded only when the oracle runs
    verdict = check_class(
        cm,
        lock_types=config.lock_types,
        lock_methods=config.lock_methods,
        unlock_methods=config.unlock_methods,
    )
    if verdict.status != "checked":
        agreement = "skipped"
    elif not alerts and verdict.raced:
        agreement = "disagree"
    else:
        agreement = "ok"
    return OracleResult(cm.class_id, path, len(alerts), verdict.status, verdict.raced, agreement, verdict.detail)


# The pipeline builds no reference cycles: reference counting frees each
# file's AST, class model and CFGs, so the cyclic collector's passes over
# them free nothing. _check pauses it for its whole run. Calls may overlap
# in threads, so one depth count decides: the first call in records whether
# the collector was on, and the last call out restores that.
_gc_lock = threading.Lock()
_gc_depth = 0
_gc_was_enabled = False


def _pause_gc() -> None:
    global _gc_depth, _gc_was_enabled
    with _gc_lock:
        if _gc_depth == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_depth += 1


def _resume_gc() -> None:
    global _gc_depth
    with _gc_lock:
        _gc_depth -= 1
        if _gc_depth == 0 and _gc_was_enabled:
            gc.enable()


def _check(paths: list[str], config: Config, oracle: bool) -> tuple[Report, int]:
    """Discover the files and check each with ``_check_file``; returns the
    report and an exit code. Only a path argument that is missing, or is no
    regular file or directory, raises ``IoError``; a directory that cannot
    be listed is one error row, as a file that cannot be read is. The cyclic
    garbage collector is paused meanwhile; each file's AST and class models
    are locals of ``_check_file``, freed before it resumes."""
    started = time.perf_counter()
    report = Report()
    may_hold_annotation = annotation_pattern(config.annotations).search
    _pause_gc()
    try:
        files, unlisted = discover_files(paths)
        report.errors.extend(unlisted)
        for path in files:
            _check_file(path, report, config, oracle, may_hold_annotation)
        report.finalize()
    finally:
        _resume_gc()
    report.stats.wall_time_s = time.perf_counter() - started
    if report.errors:
        return report, EXIT_ERROR
    if oracle:
        failed = any(r.agreement == "disagree" for r in report.oracle)
    else:
        failed = bool(report.alerts)
    return report, EXIT_ALERTS if failed else EXIT_CLEAN


def _check_file(path: str, report: Report, config: Config, oracle: bool, may_hold_annotation) -> None:
    """Read, pre-filter, parse and analyze one file into ``report``, and with
    ``oracle`` race-check each annotated class too. A file that ``read_text``
    refuses or that does not parse adds one ``ParseFailure`` row. One whose
    text ``may_hold_annotation`` finds nothing in declares no class the rules
    judge, so it is decoded but not parsed."""
    try:
        content = read_text(path)
        if not may_hold_annotation(content):
            return
        ast = parse_compilation_unit(SourceFile(path, content))
    except IoError as exc:
        report.errors.append(ParseFailure(path, 1, 1, str(exc)))
        return
    except ParseError as exc:
        report.errors.append(ParseFailure(path, exc.line, exc.col, exc.message))
        return
    report.stats.files_parsed += 1
    report.stats.classes_analyzed += sum(1 for _ in ast.iter_classes())
    for decl in annotated_as_thread_safe(ast, config.annotations):
        report.stats.annotated_classes += 1
        cm, alerts = _class_alerts(decl, config)
        report.alerts.extend(alerts)
        if oracle:
            report.oracle.append(_oracle_result(cm, path, alerts, config))


def run(paths: list[str], config: Config) -> tuple[Report, int]:
    """Discover, parse, and analyze; returns the report and an exit code."""
    return _check(paths, config, oracle=False)


def oracle_check(paths: list[str], config: Config) -> tuple[Report, int]:
    """Cross-validate static verdicts against the happens-before oracle.

    A class with zero static alerts must be race-free; any counterexample is
    a disagreement. Classes the oracle cannot model are listed as skipped.
    """
    return _check(paths, config, oracle=True)


def check_trace(path: str) -> tuple[str, int]:
    """Race-check a standalone trace file."""
    from threadlint.hboracle import detect_races, parse_trace
    execution = parse_trace(read_text(path, f" {path}"), path)
    races = detect_races(execution)
    canonical = sorted(
        {tuple(sorted((str(a), str(b)))) for a, b in races}
    )
    lines = [f"race {a} <-> {b}" for a, b in canonical]
    summary = f"{len(execution.actions)} actions, {len(canonical)} race(s)"
    out = "\n".join(lines + [summary]) + "\n"
    return out, (EXIT_ALERTS if canonical else EXIT_CLEAN)


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="threadlint",
        description="Check @ThreadSafe-annotated Java classes for escaping state, "
        "unsafe publication, and unsynchronized conflicting accesses.",
    )
    p.add_argument("paths", nargs="*", help=".java files or directories to analyze")
    p.add_argument("--config", help=f"config file (default: ${ENV_CONFIG_PATH} if set)")
    p.add_argument("--rule", action="append", choices=["P1", "P2", "P3"], dest="rules",
                   help="check only this rule (repeatable)")
    p.add_argument("--format", choices=list(OUTPUT_FORMATS), dest="output_format",
                   help="output format (default: text)")
    p.add_argument("--allowlist-add", action="append", default=[], metavar="TYPE_OR_PREFIX",
                   help="treat this type (or package prefix ending in '.') as thread-safe")
    p.add_argument("--lock-type-add", action="append", default=[], metavar="TYPE",
                   help="recognize this type as a lock")
    p.add_argument("--annotation-add", action="append", default=[], metavar="NAME",
                   help="also treat classes with this annotation as thread-safe")
    p.add_argument("--mutator-add", action="append", default=[], metavar="METHOD",
                   help="treat calls to this method on a field as modifications")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check static verdicts with the happens-before oracle")
    p.add_argument("--trace", metavar="FILE",
                   help="race-check a happens-before trace file and exit")
    p.add_argument("--timings", action="store_true", help="print wall time to stderr")
    p.add_argument("--version", action="version", version=f"threadlint {threadlint.__version__}")
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        if args.trace is not None:
            out, code = check_trace(args.trace)
            sys.stdout.write(out)
            return code
        if not args.paths:
            build_arg_parser().error("at least one path is required (or --trace FILE)")
        config_path = args.config if args.config is not None else os.environ.get(ENV_CONFIG_PATH) or None
        config = build_config(
            config_path,
            rules=tuple(args.rules) if args.rules else None,
            output_format=args.output_format,
            allowlist_add=tuple(args.allowlist_add),
            lock_type_add=tuple(args.lock_type_add),
            annotation_add=tuple(args.annotation_add),
            mutator_add=tuple(args.mutator_add),
        )
        report, code = (oracle_check if args.oracle else run)(args.paths, config)
        sys.stdout.buffer.write(serialize_report(report, config.output_format))
        sys.stdout.flush()
        if args.timings:
            print(f"wall time: {report.stats.wall_time_s:.3f}s", file=sys.stderr)
        return code
    except ThreadlintError as exc:
        print(f"threadlint: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
