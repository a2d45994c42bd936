"""Command-line entry point.

Exit codes mirror standard linters: 0 clean, 1 alerts found (or oracle
disagreement in --oracle mode, or races in --trace mode), 2 parse/config/IO
errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Iterator, Optional

import threadlint
from threadlint.classmodel import build_class_model
from threadlint.config import ENV_CONFIG_PATH, OUTPUT_FORMATS, Config, build_config
from threadlint.errors import IoError, ParseError, ThreadlintError
from threadlint.frontend import Ast, SourceFile, annotated_as_thread_safe, annotation_pattern, parse_compilation_unit
from threadlint.hboracle import check_class, detect_races
from threadlint.hboracle.trace import parse_trace
from threadlint.raceanalysis import analyze_class
from threadlint.reporting import OracleResult, ParseFailure, Report, serialize_report

EXIT_CLEAN = 0
EXIT_ALERTS = 1
EXIT_ERROR = 2


def discover_files(paths: list[str]) -> list[str]:
    """All .java files under the given paths, sorted for determinism."""
    files: list[str] = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs.sort()
                for name in sorted(names):
                    if name.endswith(".java"):
                        files.append(os.path.join(root, name))
        else:
            raise IoError(f"no such file or directory: {p}")
    return files


def _parse_all(files: list[str], report: Report, annotations: tuple[str, ...]) -> Iterator[Ast]:
    """Parse the files one at a time, yielding each AST in file order.

    A file whose text ``annotation_pattern(annotations)`` finds nothing in
    declares no class the rules judge, so it is decoded but neither lexed
    nor parsed. The caller analyzes an AST before the next file is read, so
    no more than one file's AST is alive at a time. Parse failures are
    collected, not fatal; ``stats.files_parsed`` counts the files that
    parsed.
    """
    may_hold_annotation = annotation_pattern(annotations).search
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                content = fh.read()
        except OSError as exc:
            raise IoError(f"cannot read {path}: {exc.strerror or exc}")
        except UnicodeDecodeError:
            report.errors.append(ParseFailure(path, 1, 1, "file is not valid UTF-8"))
            continue
        if not may_hold_annotation(content):
            continue
        try:
            ast = parse_compilation_unit(SourceFile(path, content))
        except ParseError as exc:
            report.errors.append(ParseFailure(path, exc.line, exc.col, exc.message))
            continue
        report.stats.files_parsed += 1
        yield ast


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


def _check(paths: list[str], config: Config, oracle: bool) -> tuple[Report, int]:
    """Discover, parse and analyze one file at a time, and with ``oracle``
    race-check each annotated class too; returns the report and an exit code."""
    started = time.perf_counter()
    report = Report()
    for ast in _parse_all(discover_files(paths), report, config.annotations):
        report.stats.classes_analyzed += sum(1 for _ in ast.iter_classes())
        for decl in annotated_as_thread_safe(ast, config.annotations):
            report.stats.annotated_classes += 1
            cm, alerts = _class_alerts(decl, config)
            report.alerts.extend(alerts)
            if oracle:
                report.oracle.append(_oracle_result(cm, ast.path, alerts, config))
    report.finalize()
    report.stats.wall_time_s = time.perf_counter() - started
    if report.errors:
        return report, EXIT_ERROR
    if oracle:
        failed = any(r.agreement == "disagree" for r in report.oracle)
    else:
        failed = bool(report.alerts)
    return report, EXIT_ALERTS if failed else EXIT_CLEAN


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc.strerror or exc}")
    execution = parse_trace(text, path)
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
        if args.trace:
            out, code = check_trace(args.trace)
            sys.stdout.write(out)
            return code
        if not args.paths:
            build_arg_parser().error("at least one path is required (or --trace FILE)")
        config_path = args.config or os.environ.get(ENV_CONFIG_PATH) or None
        config = build_config(
            config_path,
            rules=tuple(args.rules) if args.rules else None,
            output_format=args.output_format,
            allowlist_add=tuple(args.allowlist_add),
            lock_type_add=tuple(args.lock_type_add),
            annotation_add=tuple(args.annotation_add),
            mutator_add=tuple(args.mutator_add),
        )
        if args.oracle:
            report, code = oracle_check(args.paths, config)
        else:
            report, code = run(args.paths, config)
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
