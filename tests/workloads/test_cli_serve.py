"""``beltway-bench serve``: config-only server runs from the command
line, plus workload-file refs flowing through the other subcommands."""

import json
from pathlib import Path

import pytest

from repro.harness.cli import main

REPO = Path(__file__).resolve().parents[2]
KVSTORE = str(REPO / "examples" / "workloads" / "kvstore.json")
WEBFRONT = str(REPO / "examples" / "workloads" / "webfront.yaml")


def mini_file(tmp_path, rate=700):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps({
        "name": "mini",
        "duration_s": 0.05,
        "arrival": {"rate_rps": rate},
        "tasks": [{"name": "get",
                   "sites": [{"type": "small", "lifetime": "request"}]}],
    }))
    return str(path)


def test_serve_validate_examples(capsys):
    assert main(["serve", KVSTORE, "--validate"]) == 0
    out = capsys.readouterr().out
    assert "kvstore: valid server workload" in out
    assert "poisson @ 1200" in out
    assert main(["serve", WEBFRONT, "--validate"]) == 0
    assert "webfront: valid server workload" in capsys.readouterr().out


def test_serve_runs_and_prints_latency_line(tmp_path, capsys):
    spec = mini_file(tmp_path)
    code = main(["serve", spec, "--collector", "25.25.100", "--heap-kb", "96"])
    assert code == 0
    out = capsys.readouterr().out
    assert "latency-cycles mini/25.25.100:" in out
    assert "p99=" in out and "queue_peak=" in out


def test_serve_is_bit_identical_across_invocations(tmp_path, capsys):
    spec = mini_file(tmp_path)
    args = ["serve", spec, "--collector", "25.25.100", "--heap-kb", "96"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    line = [l for l in first.splitlines() if l.startswith("latency-cycles")]
    assert line and line == \
        [l for l in second.splitlines() if l.startswith("latency-cycles")]


def test_serve_rate_override_changes_offered_load(tmp_path, capsys):
    spec = mini_file(tmp_path)
    base = ["serve", spec, "--collector", "25.25.100", "--heap-kb", "96"]
    assert main(base) == 0
    slow = capsys.readouterr().out
    assert main(base + ["--rate", "2000"]) == 0
    fast = capsys.readouterr().out
    def count(out):
        row = next(l for l in out.splitlines() if "requests=" in l)
        return int(row.split("requests=")[1].split()[0])
    assert count(fast) > count(slow)


@pytest.mark.parametrize("section, pointer, message", [
    ({"arrival": {"rate_rps": -5}}, "/arrival/rate_rps", "must be > 0"),
    ({"sessions": {"slots": 2, "seed_objects": 3}}, "/sessions/seed_objects",
     "must be in [0, sessions.slots"),
], ids=["rate_rps", "seed_objects"])
def test_serve_bad_spec_is_a_clean_error(tmp_path, capsys, section, pointer, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad",
        **section,
        "tasks": [{"name": "get",
                   "sites": [{"type": "small", "lifetime": "request"}]}],
    }))
    code = main(["serve", str(path), "--validate"])
    assert code == 1
    err = capsys.readouterr().err
    assert f"bad.json:{pointer}:" in err and "Traceback" not in err
    assert message in err


def test_serve_rejects_closed_loop_benchmarks(tmp_path):
    with pytest.raises(SystemExit):
        main(["serve", "jess", "--heap-kb", "96"])


def test_serve_through_grid_store(tmp_path, capsys):
    """Second serve of the same cell replays from the store."""
    spec = mini_file(tmp_path)
    args = ["serve", spec, "--collector", "25.25.100", "--heap-kb", "96",
            "--store", str(tmp_path / "store")]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "grid:" in second
    line = [l for l in first.splitlines() if l.startswith("latency-cycles")]
    assert line == \
        [l for l in second.splitlines() if l.startswith("latency-cycles")]


def test_serve_rate_ladder_prints_one_line_per_rate(tmp_path, capsys):
    spec = mini_file(tmp_path)
    code = main(["serve", spec, "--collector", "25.25.100",
                 "--heap-kb", "96", "--rate", "400,800"])
    assert code == 0
    out = capsys.readouterr().out
    assert "latency-cycles mini/25.25.100@400rps:" in out
    assert "latency-cycles mini/25.25.100@800rps:" in out


def test_serve_single_rate_keeps_unsuffixed_format(tmp_path, capsys):
    spec = mini_file(tmp_path)
    code = main(["serve", spec, "--collector", "25.25.100",
                 "--heap-kb", "96", "--rate", "2000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "latency-cycles mini/25.25.100:" in out
    assert "@" not in next(
        l for l in out.splitlines() if l.startswith("latency-cycles"))


def test_serve_rate_ladder_traces_one_merged_timeline(tmp_path, capsys):
    """A ladder plus --trace yields one JSONL timeline covering every
    rung (this combination used to be rejected; the campaign bus made
    the restriction obsolete)."""
    from repro.obs.sinks import iter_jsonl
    from repro.obs.trace import build_timeline

    spec = mini_file(tmp_path)
    trace = tmp_path / "t.jsonl"
    code = main(["serve", spec, "--heap-kb", "96",
                 "--rate", "400,800", "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert f"-> {trace}" in out
    timeline = build_timeline(list(iter_jsonl(trace, validate=True)))
    runs = timeline.of_cat("run")
    assert len(runs) == 2
    assert len(timeline.of_cat("grid")) == 2
    assert timeline.of_cat("request")


def test_serve_rate_ladder_rejects_garbage(tmp_path):
    spec = mini_file(tmp_path)
    for bad in ("0", "400,-8", "nope", ","):
        with pytest.raises(SystemExit):
            main(["serve", spec, "--heap-kb", "96", "--rate", bad])


def test_run_subcommand_accepts_workload_file(tmp_path, capsys):
    spec = mini_file(tmp_path)
    code = main(["run", "--benchmark", spec, "--collector", "25.25.100",
                 "--heap-kb", "96"])
    assert code == 0
    assert "mini" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--rate", "inf"], ["--rate", "nan"], ["--rate", "600,inf"],
    ["--duration", "inf"], ["--duration", "nan"],
], ids=" ".join)
def test_serve_non_finite_rate_or_duration_is_a_usage_error(argv, capsys):
    """Exit 2 before anything is built — at an infinite rate or window
    the arrival generator would never stop."""
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", KVSTORE, "--validate"] + argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err


def test_serve_spec_with_non_finite_number_is_an_invalid_spec(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text(Path(mini_file(tmp_path)).read_text().replace("700", "Infinity"))
    assert main(["serve", str(path), "--validate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid workload spec: ") and "/arrival/rate_rps" in err
