"""Report serialization: determinism, parse failures in every format, and
the JSON and SARIF bytes against the reference encoder."""

import json
import os

import pytest
from conftest import CORPUS_DIR, benchmark_workloads
from hypothesis import example, given, settings
from hypothesis import strategies as st
from report_reference import reference_bytes

from threadlint.alerts import Alert
from threadlint.cli import EXIT_ERROR, main, oracle_check, run
from threadlint.config import build_config
from threadlint.frontend.ast import SourceSpan
from threadlint.frontend.lexer import LineTable
from threadlint.reporting import OracleResult, ParseFailure, Report, Stats, serialize_report

ONE_ALERT = "@ThreadSafe\nclass Open {\n  int n;\n}\n"
BROKEN = "@ThreadSafe\nclass Broken {\n  private int n;\n"


def _sarif_run(data: bytes) -> dict:
    [sarif_run] = json.loads(data)["runs"]
    return sarif_run


def _mixed_tree(tmp_path):
    (tmp_path / "Open.java").write_text(ONE_ALERT)
    (tmp_path / "Broken.java").write_text(BROKEN)
    return str(tmp_path)


def test_sarif_reports_parse_failure_as_unsuccessful_invocation():
    report = Report(errors=[ParseFailure("Broken.java", 3, 7, "expected '}'")])
    sarif_run = _sarif_run(serialize_report(report, "sarif"))
    assert sarif_run["results"] == []
    assert sarif_run["invocations"] == [{
        "executionSuccessful": False,
        "toolExecutionNotifications": [{
            "level": "error",
            "message": {"text": "expected '}'"},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": "Broken.java"},
                    "region": {"startLine": 3, "startColumn": 7},
                }
            }],
        }],
    }]


def test_sarif_without_errors_has_no_invocations():
    sarif_run = _sarif_run(serialize_report(Report(), "sarif"))
    assert set(sarif_run) == {"tool", "results"}


def test_cli_sarif_lists_every_parse_failure(tmp_path, capsys):
    (tmp_path / "A.java").write_text(BROKEN)
    (tmp_path / "B.java").write_bytes(b"class B { \xff }")
    code = main(["--format", "sarif", str(tmp_path)])
    assert code == EXIT_ERROR
    [invocation] = _sarif_run(capsys.readouterr().out.encode())["invocations"]
    assert invocation["executionSuccessful"] is False
    notes = invocation["toolExecutionNotifications"]
    uris = [n["locations"][0]["physicalLocation"]["artifactLocation"]["uri"] for n in notes]
    assert uris == [str(tmp_path / "A.java"), str(tmp_path / "B.java")]
    assert notes[1]["message"]["text"] == "cannot read: file is not valid UTF-8"


@pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
def test_report_with_alert_and_error_is_deterministic(tmp_path, fmt):
    root = _mixed_tree(tmp_path)
    config = build_config(None)
    first, code = run([root], config)
    second, _ = run([root], config)
    assert code == EXIT_ERROR
    assert len(first.alerts) == 1 and len(first.errors) == 1
    data = serialize_report(first, fmt)
    assert data == serialize_report(second, fmt)
    assert b"Broken.java" in data and b"Open.java" in data


# --- the writer against the reference encoder ---

# characters json.dumps escapes: quotes, backslashes, control characters,
# non-ASCII, astral and lone-surrogate code points, besides plain ones and
# the braces of the writer's format templates
_TRICKY = '"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f{}\xe9\u20ac\u2028\U0001f600\ud800\udbff\udc00\udfff'
texts = st.text(alphabet=st.one_of(st.sampled_from(_TRICKY), st.characters()), max_size=8)
counts = st.integers(-3, 2**40)


@st.composite
def spans(draw, file=None):
    source = draw(st.text(alphabet="ab\n\r", max_size=20))
    start = draw(st.integers(0, len(source)))
    end = draw(st.integers(start, len(source)))
    return SourceSpan(draw(texts) if file is None else file, start, end, LineTable(source))


@st.composite
def alerts(draw):
    return Alert(
        rule=draw(st.one_of(st.sampled_from(("P1", "P2", "P3")), texts)),
        primary=draw(spans()),
        field=draw(texts),
        message=draw(texts),
        class_id=draw(texts),
        secondary=draw(st.none() | spans()),
    )


failures = st.builds(ParseFailure, texts, counts, counts, texts)
oracle_rows = st.builds(OracleResult, texts, texts, counts, texts, st.booleans(), texts, texts)
stats = st.builds(
    Stats, counts, counts, counts, st.dictionaries(st.one_of(st.sampled_from(("P1", "P2", "P3")), texts), counts),
)
reports = st.builds(
    Report, st.lists(alerts(), max_size=3), stats, st.lists(failures, max_size=3), st.lists(oracle_rows, max_size=3),
)

_SPAN = SourceSpan("A.java", 2, 7, LineTable("ab\ncdef\r\ngh"))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(reports)
@example(Report())
@example(Report(
    alerts=[Alert("P1", _SPAN, "f", "m", "A"), Alert("P3", _SPAN, "g", "\"q\"", "A", secondary=_SPAN)],
    errors=[ParseFailure("B.java", 1, 2, "expected '}'")],
    oracle=[OracleResult("A", "A.java", 1, "checked", True, "ok"), OracleResult("B", "B.java", 0, "checked", False, "ok")],
))
def test_json_and_sarif_bytes_match_the_reference_encoder(report):
    for fmt in ("json", "sarif"):
        assert serialize_report(report, fmt) == reference_bytes(report, fmt)


@pytest.mark.parametrize("with_oracle", [False, True], ids=["static", "oracle"])
@pytest.mark.parametrize("workload", ["lint-callchain", "lint-wide", "oracle"])
def test_workload_reports_match_the_reference_encoder(tmp_path, workload, with_oracle):
    """Every per-file report of each workload's full-size seed-1 files, as
    the benchmark writes them, in both structured formats."""
    workloads = benchmark_workloads()
    config = build_config(None, **workloads.CONFIG_ARGS)
    check = oracle_check if with_oracle else run
    repo_root = os.path.dirname(os.path.dirname(CORPUS_DIR))
    checked = 0
    for f in workloads.generate(workload, 1, "full", CORPUS_DIR):
        path = os.path.join(repo_root, f.relpath) if f.in_repo else str(tmp_path / f.relpath)
        if not f.in_repo:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f.text)
        report, _ = check([path], config)
        for fmt in ("json", "sarif"):
            assert serialize_report(report, fmt) == reference_bytes(report, fmt), (path, fmt)
        checked += bool(report.alerts)
    assert checked
