"""Reference encoder: the documented JSON and SARIF report shapes, built as
dicts and encoded with ``json.dumps(doc, indent=2, sort_keys=True)``.

This is the encoder the fixed-shape writer of ``threadlint.reporting``
replaced. It is kept only as the byte reference for the report tests, so it
favours plainness over speed and reuses nothing of the writer.
"""

from __future__ import annotations

import json

from threadlint.alerts import ALL_RULES, RULE_DESCRIPTIONS, Alert
from threadlint.reporting import SARIF_SCHEMA, SARIF_VERSION, Report


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


def json_doc(r: Report) -> dict:
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
    return doc


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


def sarif_doc(r: Report) -> dict:
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
    return {"$schema": SARIF_SCHEMA, "version": SARIF_VERSION, "runs": [run]}


_DOCS = {"json": json_doc, "sarif": sarif_doc}


def reference_bytes(r: Report, output_format: str) -> bytes:
    """The report in ``output_format`` ("json" or "sarif"), as the
    documented shape encoded by ``json.dumps(indent=2, sort_keys=True)``."""
    doc = _DOCS[output_format](r)
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
