"""``beltway-bench trace`` and the uniform ``--trace`` campaign flag.

The contract: every grid-executing subcommand (minheap/serve/slo/
experiment/all/report) accepts ``--trace PATH`` through one shared flag
group; the ``trace`` subcommand converts any such artefact to Perfetto
JSON; usage errors exit 2.
"""

import json

from repro.harness.cli import build_parser, main
from repro.analysis.compare import extract_metrics
from repro.obs.sinks import iter_jsonl
from repro.obs.trace import build_timeline, validate_perfetto

SCALE = "0.05"


def test_trace_flag_is_uniform_across_grid_commands():
    parser = build_parser()
    for command in ("minheap", "serve", "slo", "experiment", "all", "report"):
        actions = {
            a.dest
            for a in parser._subparsers._group_actions[0].choices[command]._actions
        }
        assert "trace" in actions, f"{command} lost --trace"


def test_minheap_trace_roundtrip_to_perfetto(tmp_path, capsys):
    trace = tmp_path / "min.jsonl"
    code = main(["minheap", "--benchmark", "jess", "--collector", "25.25.100",
                 "--scale", SCALE, "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert f"-> {trace}" in out

    target = tmp_path / "min.perfetto.json"
    assert main(["trace", str(trace), "-o", str(target)]) == 0
    out = capsys.readouterr().out
    assert "spans from" in out
    doc = json.loads(target.read_text())
    assert validate_perfetto(doc) > 0

    # ``compare`` sees the span builder's runs: one per probe, all job 0.
    runs = build_timeline(iter_jsonl(trace)).of_cat("run")
    assert len(runs) > 1
    assert {name.split(".")[0] for name in extract_metrics(trace)} == {
        span.sid.split("/")[0].replace(":", "") for span in runs
    }


def test_trace_subcommand_missing_artefact_exits_2(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
    assert "error:" in capsys.readouterr().err


def test_trace_subcommand_empty_artefact_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["trace", str(empty)]) == 2
    assert "no telemetry events" in capsys.readouterr().err


def test_trace_subcommand_default_output_name(tmp_path, capsys, monkeypatch):
    trace = tmp_path / "campaign.jsonl"
    code = main(["minheap", "--benchmark", "jess", "--collector", "25.25.100",
                 "--scale", SCALE, "--trace", str(trace)])
    assert code == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert main(["trace", str(trace)]) == 0
    assert "campaign.perfetto.json" in capsys.readouterr().out
    assert (tmp_path / "campaign.perfetto.json").exists()
