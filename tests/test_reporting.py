"""Report serialization: determinism and parse failures in every format."""

import json

import pytest

from threadlint.cli import EXIT_ERROR, main, run
from threadlint.config import build_config
from threadlint.reporting import ParseFailure, Report, serialize_report

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
    assert notes[1]["message"]["text"] == "file is not valid UTF-8"


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
