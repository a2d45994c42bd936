"""Report assembly and serialization (text, JSON, SARIF).

Serialized output is a deterministic function of the analyzed sources: two
runs over identical inputs produce byte-identical bytes. Wall time is kept
on the Report object for logging but never serialized. Parse failures appear
in every format; in SARIF they are tool execution notifications of a run
whose invocation is marked unsuccessful.

JSON and SARIF have a fixed shape, so each record is one ``str.format``
template, built at import with its keys sorted, and filled with strings
from ``json``'s C encoder. The bytes are those of ``json.dumps(doc,
indent=2, sort_keys=True)`` of the documented shape (README "Output
formats"), whose indenting encoder is pure Python.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _str  # json.dumps' C string encoder
from typing import NamedTuple, Optional

from threadlint.alerts import ALL_RULES, Alert, RULE_DESCRIPTIONS

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


class Stats:
    __slots__ = ("files_parsed", "classes_analyzed", "annotated_classes", "rule_counts", "wall_time_s")

    def __init__(self, files_parsed: int = 0, classes_analyzed: int = 0, annotated_classes: int = 0,
                 rule_counts: Optional[dict] = None, wall_time_s: float = 0.0):
        self.files_parsed = files_parsed
        self.classes_analyzed = classes_analyzed
        self.annotated_classes = annotated_classes
        self.rule_counts = {r: 0 for r in ALL_RULES} if rule_counts is None else rule_counts
        self.wall_time_s = wall_time_s  # not serialized: reports must be byte-stable


class ParseFailure(NamedTuple):
    path: str
    line: int
    col: int
    message: str

    def text_line(self) -> str:
        return f"{self.path}:{self.line}:{self.col} ERROR {self.message}"


class OracleResult(NamedTuple):
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


class Report:
    __slots__ = ("alerts", "stats", "errors", "oracle")

    def __init__(self, alerts: Optional[list[Alert]] = None, stats: Optional[Stats] = None,
                 errors: Optional[list[ParseFailure]] = None, oracle: Optional[list[OracleResult]] = None):
        self.alerts = [] if alerts is None else alerts
        self.stats = Stats() if stats is None else stats
        self.errors = [] if errors is None else errors
        self.oracle = [] if oracle is None else oracle

    def finalize(self) -> None:
        self.alerts.sort(key=Alert.sort_key)
        self.stats.rule_counts = {r: 0 for r in ALL_RULES}
        for a in self.alerts:
            self.stats.rule_counts[a.rule] += 1


def _list(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A JSON array of rendered ``items``, or with ``brackets="{}"`` an
    object of rendered members, whose closing bracket is indented ``depth``
    levels, as ``json.dumps(indent=2)`` writes it."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def _const(s: str) -> str:
    """A constant JSON string, escaped for a ``str.format`` template."""
    return _str(s).replace("{", "{{").replace("}", "}}")


def _template(shape: dict, depth: int) -> str:
    """The ``str.format`` template of the JSON object ``shape`` whose
    closing brace is indented ``depth`` levels, with its keys sorted as
    ``json.dumps(indent=2, sort_keys=True)`` sorts them. In ``shape``, an
    int is the index of the format argument that fills the value; a bool or
    a str is a constant; a dict is a nested object and a list an array of
    them."""
    pad = "  " * (depth + 1)
    items = [f"{pad}{_const(key)}: {_value(shape[key], depth + 1)}" for key in sorted(shape)]
    return "{{\n" + ",\n".join(items) + "\n" + "  " * depth + "}}"


def _value(v, depth: int) -> str:
    if isinstance(v, bool):  # before int: bool is a subclass of int
        return "true" if v else "false"
    if isinstance(v, int):
        return f"{{{v}}}"
    if isinstance(v, str):
        return _const(v)
    if isinstance(v, dict):
        return _template(v, depth)
    return _list([_template(x, depth + 1) for x in v], depth)


# -- JSON ---------------------------------------------------------------------
# Record templates open at the nesting of their list's items: the document
# is level 0, its lists close at level 1 and their items at level 2.


def _span(i: int) -> dict:
    return {"file": i, "line": i + 1, "col": i + 2, "end_line": i + 3, "end_col": i + 4}


_ALERT = {"rule": 0, "class": 1, "field": 2, "message": 3, **_span(4)}
_JSON_ALERT = _template(_ALERT, 2).format
_JSON_ALERT_SECONDARY = _template({**_ALERT, "secondary": _span(9)}, 2).format
_JSON_ERROR = _template({"file": 0, "line": 1, "col": 2, "message": 3}, 2).format
_JSON_ORACLE = _template(
    {"class": 0, "file": 1, "static_alerts": 2, "status": 3, "raced": 4, "agreement": 5, "detail": 6}, 2
).format
_JSON_DOC = {
    "alerts": 0,
    "stats": {"files_parsed": 1, "classes_analyzed": 2, "annotated_classes": 3, "rule_counts": 4},
    "errors": 5,
}
_JSON_PLAIN = _template(_JSON_DOC, 0).format
_JSON_WITH_ORACLE = _template({**_JSON_DOC, "oracle": 6}, 0).format


def _line_cols(span) -> tuple[int, int, int, int]:
    """Start line and column, then end line and column."""
    return span.lines.line_col(span.start) + span.lines.line_col(span.end)


def _json_bytes(r: Report) -> bytes:
    alerts = []
    for a in r.alerts:
        p, s = a.primary, a.secondary
        head = (_str(a.rule), _str(a.class_id), _str(a.field), _str(a.message), _str(p.file), *_line_cols(p))
        if s is None:
            alerts.append(_JSON_ALERT(*head))
        else:
            alerts.append(_JSON_ALERT_SECONDARY(*head, _str(s.file), *_line_cols(s)))
    errors = [_JSON_ERROR(_str(e.path), e.line, e.col, _str(e.message)) for e in r.errors]
    st = r.stats
    counts = [f"{_str(rule)}: {n}" for rule, n in sorted(st.rule_counts.items())]
    args = (
        _list(alerts, 1), st.files_parsed, st.classes_analyzed, st.annotated_classes,
        _list(counts, 2, "{}"), _list(errors, 1),
    )
    if r.oracle:
        oracle = [
            _JSON_ORACLE(
                _str(o.class_id), _str(o.file), o.static_alerts, _str(o.status),
                "true" if o.raced else "false", _str(o.agreement), _str(o.detail),
            )
            for o in r.oracle
        ]
        doc = _JSON_WITH_ORACLE(*args, _list(oracle, 1))
    else:
        doc = _JSON_PLAIN(*args)
    return (doc + "\n").encode("utf-8")


# -- SARIF --------------------------------------------------------------------
# The run is the item of ``runs`` at level 2, so its results and its
# invocation open at level 4, and the invocation's notifications at level 6.


def _location(i: int) -> dict:
    region = {"startLine": i + 1, "startColumn": i + 2, "endLine": i + 3, "endColumn": i + 4}
    return {"physicalLocation": {"artifactLocation": {"uri": i}, "region": region}}


_RESULT = {"ruleId": 0, "level": "warning", "message": {"text": 1}, "locations": [_location(2)]}
_SARIF_RESULT = _template(_RESULT, 4).format
_SARIF_RESULT_RELATED = _template({**_RESULT, "relatedLocations": [_location(7)]}, 4).format
_SARIF_NOTIFICATION = _template({
    "level": "error",
    "message": {"text": 0},
    "locations": [{
        "physicalLocation": {"artifactLocation": {"uri": 1}, "region": {"startLine": 2, "startColumn": 3}}
    }],
}, 6).format
_RUN = {
    "tool": {
        "driver": {
            "name": "threadlint",
            "rules": [{"id": rid, "shortDescription": {"text": RULE_DESCRIPTIONS[rid]}} for rid in ALL_RULES],
        }
    },
    "results": 0,
}
_FAILED_RUN = {**_RUN, "invocations": [{"executionSuccessful": False, "toolExecutionNotifications": 1}]}
_SARIF_PLAIN = _template({"$schema": SARIF_SCHEMA, "version": SARIF_VERSION, "runs": [_RUN]}, 0).format
_SARIF_FAILED = _template({"$schema": SARIF_SCHEMA, "version": SARIF_VERSION, "runs": [_FAILED_RUN]}, 0).format


def _sarif_bytes(r: Report) -> bytes:
    results = []
    for a in r.alerts:
        p, s = a.primary, a.secondary
        head = (_str(a.rule), _str(f"[{a.class_id}.{a.field}] {a.message}"), _str(p.file), *_line_cols(p))
        if s is None:
            results.append(_SARIF_RESULT(*head))
        else:
            results.append(_SARIF_RESULT_RELATED(*head, _str(s.file), *_line_cols(s)))
    if r.errors:
        notes = [_SARIF_NOTIFICATION(_str(e.message), _str(e.path), e.line, e.col) for e in r.errors]
        doc = _SARIF_FAILED(_list(results, 3), _list(notes, 5))
    else:
        doc = _SARIF_PLAIN(_list(results, 3))
    return (doc + "\n").encode("utf-8")


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
