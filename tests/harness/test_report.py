"""Tests for the markdown report generator and its CLI command."""

import json
from pathlib import Path

from repro.harness.cli import main
from repro.harness.experiments import ExperimentResult
from repro.harness.report import run_all, to_markdown, write_report


def test_to_markdown_structure():
    results = {
        "figA": ExperimentResult("figA", "SERIES A", checks={"a": True}),
        "figB": ExperimentResult("figB", "SERIES B", checks={"b": False}),
    }
    doc = to_markdown(results)
    assert doc.startswith("# Beltway reproduction report")
    assert "**1/2 experiments pass all shape checks.**" in doc
    assert "## figA" in doc and "SERIES A" in doc
    assert "- [x] a" in doc
    assert "- [ ] b" in doc


def test_run_all_filters_names():
    results = run_all(names=["figure23"])
    assert list(results) == ["figure23"]
    assert results["figure23"].all_checks_pass


def test_write_report(tmp_path):
    path = tmp_path / "report.md"
    results = write_report(path, names=["figure23"])
    assert path.exists()
    text = path.read_text()
    assert "figure23" in text
    assert "report generated in" in text
    assert results["figure23"].all_checks_pass


def test_cli_report(tmp_path, capsys):
    out = tmp_path / "r.md"
    code = main(["report", "--only", "figure23", "--output", str(out)])
    assert code == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out


def test_cli_report_closes_its_trace(tmp_path, capsys):
    """Every exit of ``report`` prints the ``trace:`` row, and the JSONL
    is complete on disk when ``main`` returns, not at interpreter teardown."""
    trace = tmp_path / "t.jsonl"
    code = main(["report", "--only", "figure4", "--scale", "0.05",
                 "--output", str(tmp_path / "r.md"), "--trace", str(trace)])
    assert code in (0, 1)  # shape checks may not hold at this scale
    events = trace.read_text().splitlines()
    assert events and json.loads(events[-1])["kind"]
    assert f"trace: {len(events)} events -> {trace}\n" in capsys.readouterr().out
    # The unwritable-report exit closes the trace too.
    assert main(["report", "--only", "figure23", "--trace", str(trace),
                 "--output", str(tmp_path / "no-such-dir" / "r.md")]) == 1
    assert f"trace: 0 events -> {trace}" in capsys.readouterr().out
