"""``beltway-bench slo``: frontier and search modes end to end."""

import json
from pathlib import Path

import pytest

from repro.harness.cli import main

REPO = Path(__file__).resolve().parents[2]


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


def test_slo_frontier_prints_table_and_grep_lines(tmp_path, capsys):
    spec = mini_file(tmp_path)
    code = main(["slo", spec, "--heap-kb", "96", "--rates", "400,800"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rate(rps)" in out  # the frontier table header
    assert "slo-frontier mini/25.25.100@400rps:" in out
    assert "slo-frontier mini/25.25.100@800rps:" in out
    assert "overhead_pct=" in out


def test_slo_frontier_multi_collector_comparison_and_knee(tmp_path, capsys):
    spec = mini_file(tmp_path)
    code = main(["slo", spec, "--heap-kb", "96",
                 "--rates", "400,800",
                 "--collector", "25.25.100", "--collector", "gctk:Appel",
                 "--slo-p99-ms", "1000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "slo-frontier mini/25.25.100@400rps:" in out
    assert "slo-frontier mini/gctk:Appel@400rps:" in out
    # A comparison section shows up once there is more than one collector.
    assert "p99" in out
    # A generous p99 bound makes every point sustainable: knee = top rate.
    assert "knee mini/25.25.100: 800 rps under" in out
    assert "knee mini/gctk:Appel: 800 rps under" in out


def test_slo_frontier_no_distill_drops_overheads(tmp_path, capsys):
    spec = mini_file(tmp_path)
    code = main(["slo", spec, "--heap-kb", "96",
                 "--rates", "400", "--no-distill"])
    assert code == 0
    out = capsys.readouterr().out
    assert "overhead_pct=None" in out


def test_slo_frontier_json_and_output_artefacts(tmp_path, capsys):
    spec = mini_file(tmp_path)
    report = tmp_path / "report.txt"
    artefact = tmp_path / "slo.json"
    code = main(["slo", spec, "--heap-kb", "96",
                 "--rates", "400,800",
                 "--output", str(report), "--json", str(artefact)])
    assert code == 0
    out = capsys.readouterr().out
    assert f"slo report -> {report}" in out
    assert f"slo JSON -> {artefact}" in out
    text = report.read_text()
    assert "slo-frontier mini/25.25.100@400rps:" in text
    data = json.loads(artefact.read_text())
    frontiers = data["frontiers"]
    assert len(frontiers) == 1
    assert [p["rate_rps"] for p in frontiers[0]["points"]] == [400.0, 800.0]
    assert frontiers[0]["points"][0]["distilled"]["baseline_collections"] == 0


def test_slo_search_finds_a_rate_and_writes_json(tmp_path, capsys):
    spec = mini_file(tmp_path)
    artefact = tmp_path / "search.json"
    code = main(["slo", spec, "--heap-kb", "96", "--search",
                 "--slo-p99-ms", "1000", "--rate-step", "200",
                 "--max-rate", "3200", "--json", str(artefact)])
    assert code == 0
    out = capsys.readouterr().out
    assert "slo-search 25.25.100@98304B:" in out
    assert "max_rate=" in out and "probes=" in out
    data = json.loads(artefact.read_text())
    result = data["search"]["results"][0]
    assert result["collector"] == "25.25.100"
    assert result["rate_rps"] % 200 == 0
    assert result["probes"] >= 1
    assert data["search"]["benchmark"] == "mini"


def test_slo_search_is_deterministic(tmp_path, capsys):
    spec = mini_file(tmp_path)
    args = ["slo", spec, "--heap-kb", "96", "--search",
            "--slo-p99-ms", "1000", "--rate-step", "200",
            "--max-rate", "1600"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    lines = [l for l in first.splitlines() if l.startswith("slo-search")]
    assert lines and lines == \
        [l for l in second.splitlines() if l.startswith("slo-search")]


def test_slo_through_grid_store_replays_warm(tmp_path, capsys):
    spec = mini_file(tmp_path)
    args = ["slo", spec, "--heap-kb", "96", "--rates", "400,800",
            "--store", str(tmp_path / "store")]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert " 0 executed" in second.splitlines()[-1]
    assert [l for l in first.splitlines() if l.startswith("slo-frontier")] \
        == [l for l in second.splitlines() if l.startswith("slo-frontier")]


def test_slo_usage_errors(tmp_path):
    spec = mini_file(tmp_path)
    # Neither --rates nor --search.
    with pytest.raises(SystemExit):
        main(["slo", spec, "--heap-kb", "96"])
    # --search without any SLO bound.
    with pytest.raises(SystemExit):
        main(["slo", spec, "--heap-kb", "96", "--search"])
    # Closed-loop benchmark names are not servable.
    with pytest.raises(SystemExit):
        main(["slo", "jess", "--heap-kb", "96", "--rates", "400"])
