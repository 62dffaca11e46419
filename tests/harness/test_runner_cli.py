"""Tests for the runner, min-heap search, experiments machinery and CLI."""

import json

import pytest

from repro.harness.cli import build_parser, main
from repro.harness.experiments import ExperimentResult, figure23
from repro.harness.runner import (
    FRAME_BYTES,
    RunOptions,
    RunReport,
    find_min_heap,
    run,
)


def _stats(benchmark, collector, heap_bytes, scale):
    return run(
        benchmark, collector, heap_bytes, options=RunOptions(scale=scale)
    ).stats


def test_run_success():
    report = run("jess", "25.25.100", 48 * 1024, options=RunOptions(scale=0.2))
    assert isinstance(report, RunReport)
    assert report.completed
    assert report.stats.benchmark == "jess"
    assert report.stats.collector == "25.25.100"
    # No telemetry requested -> no telemetry artefacts.
    assert report.phases is None
    assert report.counters is None
    assert report.events is None
    assert report.trace_events_written == 0


def test_run_failure_reported_not_raised():
    report = run("jess", "gctk:Appel", 2 * 1024, options=RunOptions(scale=0.2))
    assert not report.completed
    assert report.stats.failure


def test_run_default_options():
    assert run("jess", "25.25.100", 48 * 1024).completed


def test_run_profile_phases():
    report = run(
        "jess", "25.25.100", 48 * 1024,
        options=RunOptions(scale=0.1, profile=True),
    )
    phases = report.phases
    assert set(phases) == {"mutator", "barrier", "collect", "verify", "total"}
    assert phases["total"] > 0
    assert phases["collect"] > 0
    assert phases["mutator"] + phases["barrier"] + phases["collect"] <= (
        phases["total"] + 1e-9
    )


def test_run_trace_writes_jsonl(tmp_path):
    out = tmp_path / "trace.jsonl"
    report = run(
        "jess", "25.25.100", 48 * 1024,
        options=RunOptions(scale=0.1, trace=str(out)),
    )
    assert report.completed
    lines = [json.loads(l) for l in out.read_text().splitlines() if l.strip()]
    assert len(lines) == report.trace_events_written > 0
    kinds = {line["kind"] for line in lines}
    assert {"run.start", "gc.start", "gc.end", "heap.snapshot",
            "phase", "run.end"} <= kinds


def test_run_ring_buffer_and_counters():
    report = run(
        "jess", "25.25.100", 48 * 1024,
        options=RunOptions(scale=0.1, ring_buffer=0, counters=True),
    )
    assert report.events
    assert any(e.kind == "gc.end" for e in report.events)
    assert report.counters["run_completed"] == 1.0
    assert report.counters["gc_collections_total"] == float(
        report.stats.collections
    )


def test_find_min_heap_is_minimal():
    minimum = find_min_heap("jess", "gctk:Appel", scale=0.2)
    assert minimum % FRAME_BYTES == 0
    assert _stats("jess", "gctk:Appel", minimum, 0.2).completed
    below = minimum - FRAME_BYTES
    assert not _stats("jess", "gctk:Appel", below, 0.2).completed


def test_experiment_result_checks():
    result = ExperimentResult("x", "text", checks={"a": True, "b": False})
    assert not result.all_checks_pass
    assert result.failed_checks() == ["b"]
    assert ExperimentResult("y", "t", checks={"a": True}).all_checks_pass


def test_figure23_structural():
    result = figure23()
    assert result.all_checks_pass, result.failed_checks()
    assert "BSS" in result.text
    assert "belt 0" in result.text
    # increment ids are the heap's, not the process's: same text every call
    assert figure23().text == result.text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "jess" in out
    assert "25.25.100" in out
    assert "figure9" in out


def test_cli_run(capsys):
    code = main(
        ["run", "--benchmark", "jess", "--collector", "25.25.100",
         "--heap-kb", "48", "--scale", "0.1"]
    )
    assert code == 0
    assert "jess" in capsys.readouterr().out


def test_cli_run_failure_exit_code(capsys):
    code = main(
        ["run", "--benchmark", "jess", "--collector", "gctk:Appel",
         "--heap-kb", "2", "--scale", "0.1"]
    )
    assert code == 1


def test_cli_run_trace(tmp_path, capsys):
    out = tmp_path / "cli-trace.jsonl"
    code = main(
        ["run", "--benchmark", "jess", "--collector", "25.25.100",
         "--heap-kb", "48", "--scale", "0.1", "--trace", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "trace:" in printed
    lines = [json.loads(l) for l in out.read_text().splitlines() if l.strip()]
    assert any(line["kind"] == "gc.end" for line in lines)


def test_cli_run_profile(capsys):
    code = main(
        ["run", "--benchmark", "jess", "--collector", "25.25.100",
         "--heap-kb", "48", "--scale", "0.1", "--profile"]
    )
    assert code == 0
    assert "phase breakdown" in capsys.readouterr().out


def test_cli_minheap(capsys):
    code = main(["minheap", "--benchmark", "jess", "--scale", "0.1"])
    assert code == 0
    assert "min heap" in capsys.readouterr().out


def test_cli_experiment_figure23(capsys):
    code = main(["experiment", "figure23"])
    assert code == 0
    assert "shape checks PASS" in capsys.readouterr().out


def test_cli_degraded_tier_is_announced_on_stderr_only(capsys, monkeypatch):
    """A tier request that did not resolve to itself says so once, on
    stderr; stdout (grepped against goldens in CI) does not change."""
    from repro import kernels

    argv = ["run", "--benchmark", "jess", "--collector", "25.25.100",
            "--heap-kb", "48", "--scale", "0.1"]
    kernels.available()  # fill the cache the next line patches
    monkeypatch.setitem(kernels._availability_cache, "cffi",
                        "unavailable: simulated")
    seen = {}
    for request in ("python", "numpy", "cffi"):
        # numpy is no --tier choice any more: the variable is its only way in.
        monkeypatch.setenv(kernels.TIER_ENV, request)
        assert main(argv if request == "numpy" else argv + ["--tier", request]) == 0
        seen[request] = capsys.readouterr()
    assert seen["python"].err == ""
    assert seen["numpy"].err == (
        "tier: requested numpy, running python (retired)\n")
    assert seen["cffi"].err == (
        "tier: requested cffi, running python (unavailable: simulated)\n")
    assert seen["python"].out == seen["numpy"].out == seen["cffi"].out != ""


@pytest.mark.parametrize("argv", [
    ["run", "--benchmark", "jess", "--heap-kb", "25", "--trace", "{}/x.jsonl"],
    ["minheap", "--benchmark", "jess", "--trace", "{}/x.jsonl"],
    ["minheap", "--benchmark", "jess", "--store", "{}/store"],
])
def test_cli_unopenable_artefact_is_an_error_line(argv, tmp_path, capsys):
    """Exit 1, "an output artefact that could not be written", also holds
    for the flags no command wraps itself — never a traceback."""
    blocker = tmp_path / "a-file"
    blocker.write_text("")  # nothing *under* a regular file can be opened
    assert main([arg.format(blocker) for arg in argv] + ["--scale", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "figure99"])


@pytest.mark.parametrize("argv", [
    ["experiment", "figure5", "--points", "1"],
    ["all", "--points", "0"],
    ["report", "--points", "1"],
    ["run", "--benchmark", "jess", "--heap-kb", "25", "--trace", "t.jsonl",
     "--snapshot-every", "-1"],
    ["slo", "kvstore.json", "--heap-kb", "256", "--rates", "100",
     "--mmu-window", "2"],
    ["slo", "kvstore.json", "--heap-kb", "256", "--rates", "100",
     "--mmu-window", "-1"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_cli_out_of_range_flag_is_a_usage_error(argv, capsys):
    """Exit 2 from argparse, before anything runs — not a ValueError from
    wherever the value would first have landed."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and argv[-2] in err and "Traceback" not in err
