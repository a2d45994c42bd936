"""Report assembly and serialization (text, JSON, SARIF).

Serialized output is a deterministic function of the analyzed sources: two
runs over identical inputs produce byte-identical bytes. Wall time is kept
on the Report object for logging but never serialized. Parse failures appear
in every format; in SARIF they are tool execution notifications of a run
whose invocation is marked unsuccessful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from threadlint.alerts import ALL_RULES, Alert, RULE_DESCRIPTIONS

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


@dataclass
class Stats:
    files_parsed: int = 0
    classes_analyzed: int = 0
    annotated_classes: int = 0
    rule_counts: dict = field(default_factory=lambda: {r: 0 for r in ALL_RULES})
    wall_time_s: float = 0.0  # not serialized: reports must be byte-stable


@dataclass(frozen=True)
class ParseFailure:
    path: str
    line: int
    col: int
    message: str

    def text_line(self) -> str:
        return f"{self.path}:{self.line}:{self.col} ERROR {self.message}"


@dataclass(frozen=True)
class OracleResult:
    class_id: str
    file: str
    static_alerts: int
    status: str  # checked | unsupported | budget-exceeded
    raced: bool
    agreement: str  # ok | disagree | skipped
    detail: str = ""

    def text_line(self) -> str:
        verdict = "race" if self.raced else "race-free"
        if self.status != "checked":
            verdict = self.status
        line = f"{self.file} {self.class_id} static={self.static_alerts} oracle={verdict} agreement={self.agreement}"
        if self.detail:
            line += f" ({self.detail})"
        return line


@dataclass
class Report:
    alerts: list[Alert] = field(default_factory=list)
    stats: Stats = field(default_factory=Stats)
    errors: list[ParseFailure] = field(default_factory=list)
    oracle: list[OracleResult] = field(default_factory=list)

    def finalize(self) -> None:
        self.alerts.sort(key=Alert.sort_key)
        self.stats.rule_counts = {r: 0 for r in ALL_RULES}
        for a in self.alerts:
            self.stats.rule_counts[a.rule] += 1


def _span_dict(span) -> dict:
    return {
        "file": span.file,
        "line": span.start_line,
        "col": span.start_col,
        "end_line": span.end_line,
        "end_col": span.end_col,
    }


def _alert_dict(a: Alert) -> dict:
    d = {
        "rule": a.rule,
        "class": a.class_id,
        "field": a.field,
        "message": a.message,
        **_span_dict(a.primary),
    }
    if a.secondary is not None:
        d["secondary"] = _span_dict(a.secondary)
    return d


def _json_bytes(r: Report) -> bytes:
    doc = {
        "alerts": [_alert_dict(a) for a in r.alerts],
        "stats": {
            "files_parsed": r.stats.files_parsed,
            "classes_analyzed": r.stats.classes_analyzed,
            "annotated_classes": r.stats.annotated_classes,
            "rule_counts": r.stats.rule_counts,
        },
        "errors": [
            {"file": e.path, "line": e.line, "col": e.col, "message": e.message}
            for e in r.errors
        ],
    }
    if r.oracle:
        doc["oracle"] = [
            {
                "class": o.class_id,
                "file": o.file,
                "static_alerts": o.static_alerts,
                "status": o.status,
                "raced": o.raced,
                "agreement": o.agreement,
                "detail": o.detail,
            }
            for o in r.oracle
        ]
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _sarif_location(span) -> dict:
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": span.file},
            "region": {
                "startLine": span.start_line,
                "startColumn": span.start_col,
                "endLine": span.end_line,
                "endColumn": span.end_col,
            },
        }
    }


def _sarif_bytes(r: Report) -> bytes:
    results = []
    for a in r.alerts:
        result = {
            "ruleId": a.rule,
            "level": "warning",
            "message": {"text": f"[{a.class_id}.{a.field}] {a.message}"},
            "locations": [_sarif_location(a.primary)],
        }
        if a.secondary is not None:
            result["relatedLocations"] = [_sarif_location(a.secondary)]
        results.append(result)
    run = {
        "tool": {
            "driver": {
                "name": "threadlint",
                "rules": [
                    {"id": rid, "shortDescription": {"text": RULE_DESCRIPTIONS[rid]}}
                    for rid in ALL_RULES
                ],
            }
        },
        "results": results,
    }
    if r.errors:
        run["invocations"] = [{
            "executionSuccessful": False,
            "toolExecutionNotifications": [
                {
                    "level": "error",
                    "message": {"text": e.message},
                    "locations": [{
                        "physicalLocation": {
                            "artifactLocation": {"uri": e.path},
                            "region": {"startLine": e.line, "startColumn": e.col},
                        }
                    }],
                }
                for e in r.errors
            ],
        }]
    doc = {"$schema": SARIF_SCHEMA, "version": SARIF_VERSION, "runs": [run]}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _text_bytes(r: Report) -> bytes:
    lines = [e.text_line() for e in r.errors]
    lines += [a.text_line() for a in r.alerts]
    lines += [o.text_line() for o in r.oracle]
    body = "\n".join(lines)
    return (body + "\n").encode("utf-8") if body else b""


def serialize_report(r: Report, output_format: str) -> bytes:
    """Render a report; identical reports serialize to identical bytes."""
    if output_format == "json":
        return _json_bytes(r)
    if output_format == "sarif":
        return _sarif_bytes(r)
    if output_format == "text":
        return _text_bytes(r)
    raise ValueError(f"unknown output format {output_format!r}")
