"""Repository-level smoke tests: every module imports, every __all__
export exists, the version is set, and the README quickstart runs."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
]


def test_every_module_imports():
    assert len(MODULES) > 30
    for name in MODULES:
        importlib.import_module(name)


@pytest.mark.parametrize(
    "package",
    ["repro", "repro.heap", "repro.core", "repro.analysis", "repro.sim",
     "repro.bench", "repro.runtime", "repro.gctk", "repro.obs",
     "repro.harness", "repro.sanitizer", "repro.workloads", "repro.grid",
     "repro.slo"],
)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.{name} missing"


def test_removed_shims_stay_removed():
    """The surface shrank on purpose (CHANGES, PR 13): the deprecated
    shims and the second tracer's entry point are gone, not hidden."""
    for module, name in (("repro.harness", "run_benchmark"),
                         ("repro.harness.runner", "run_benchmark_profiled"),
                         ("repro.bench", "get_spec"),
                         ("repro.gctk", "cheney_trace")):
        assert not hasattr(importlib.import_module(module), name)
    assert "repro.heap.verify" not in MODULES
    # The numpy tier and its caller-less batched mutator API (PR 17).
    assert "repro.kernels.npk" not in MODULES
    for name in ("alloc_batch", "write_ref_batch"):
        assert not hasattr(repro.VM, name)
    assert repro.heap.HeapVerifier is repro.sanitizer.heapcheck.HeapVerifier
    # The census deletions (DESIGN §9): twins only their own tests called.
    for name in ("Tracer", "attach_tracer", "load_jsonl"):
        assert name not in repro.__all__ and not hasattr(repro, name)
    assert not hasattr(repro.obs, "load_jsonl")
    for module in ("repro.sim.trace", "repro.heap.dump", "repro.analysis.profile"):
        assert module not in MODULES
    # The options census (DESIGN §9): ProfileOptions is gone with its knobs.
    assert "ProfileOptions" not in repro.__all__
    assert not hasattr(repro.obs, "ProfileOptions")


def test_run_options_fields_are_pinned():
    """The options census (DESIGN §9) counted these; a field added or a
    deleted one brought back has to change this list on purpose."""
    import dataclasses

    assert [f.name for f in dataclasses.fields(repro.RunOptions)] == [
        "scale", "seed", "profile", "trace", "snapshot_every",
        "ring_buffer", "counters", "sinks", "sanitize", "faults",
    ]


def test_cli_surface_is_pinned():
    """Every ``beltway-bench`` subcommand with its flags and positionals
    (DESIGN §9's options census): a deleted knob cannot come back
    unnoticed, and a new one is a deliberate edit here."""
    import argparse

    from repro.harness.cli import build_parser

    (sub,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    surface = {
        name: [
            action.option_strings[-1] if action.option_strings else action.dest
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        for name, parser in sub.choices.items()
    }
    grid = ["--store", "--workers", "--trace"]
    assert surface == {
        "list": [],
        "run": ["--benchmark", "--collector", "--heap-kb", "--profile", "--trace",
                "--snapshot-every", "--scale", "--seed"],
        "check": ["--benchmark", "--collector", "--heap-kb", "--fault",
                  "--scale", "--seed"],
        "profile": ["--benchmark", "--collector", "--heap-kb", "--output", "--json",
                    "--snapshot-every", "--scale", "--seed"],
        "minheap": ["--benchmark", "--collector", "--scale", "--seed",
                    "--store", "--trace"],
        "serve": ["spec", "--collector", "--heap-kb", "--rate", "--duration",
                  "--validate", "--scale", "--seed"] + grid,
        "slo": ["spec", "--collector", "--heap-kb", "--rates", "--no-distill",
                "--mmu-window", "--search", "--slo-p50-ms", "--slo-p99-ms",
                "--slo-p999-ms", "--slo-mmu", "--rate-step", "--max-rate",
                "--start-rate", "--json", "--output", "--scale", "--seed"] + grid,
        "experiment": ["names", "--points", "--scale"] + grid,
        "trace": ["artefact", "--output"],
        "compare": ["baseline", "candidate", "--threshold", "--metric-threshold",
                    "--verbose"],
        "report": ["names", "--output", "--points", "--scale"] + grid,
    }


def test_version():
    assert repro.__version__ == "3.0.0"
    # The packaged version cannot drift from the imported one again.
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    (packaged,) = re.findall(r'^version = "(.+)"$', pyproject.read_text(), re.M)
    assert packaged == repro.__version__


def test_stable_run_surface():
    """The consolidated public API: four entry points, importable flat."""
    for name in ("run", "run_many", "sweep", "find_min_heap",
                 "RunOptions", "RunReport",
                 "TelemetryBus", "attach_sanitizer",
                 "arm_faults", "FaultSpec",
                 "load_spec", "fingerprint", "load_workload",
                 "ServerWorkloadSpec", "RequestTask", "ArrivalSpec",
                 "RequestStats",
                 "SLOBound", "sweep_frontier", "max_sustainable_rate",
                 "build_timeline", "TraceExportSink", "write_perfetto",
                 "compare_artefacts", "extract_metrics", "iter_jsonl"):
        assert name in repro.__all__
        assert callable(getattr(repro, name))


def test_readme_quickstart_runs():
    from repro import VM, MutatorContext

    vm = VM(heap_bytes=32 * 1024, collector="25.25.100")
    node = vm.define_type("node", nrefs=2, nscalars=1)
    mu = MutatorContext(vm)
    head = mu.alloc(node)
    child = mu.alloc(node)
    mu.write(head, 0, child)
    vm.collect()
    assert "belt" in vm.plan.describe_structure()
    stats = vm.finish()
    assert stats.collections >= 1
    assert "25.25.100" in stats.summary_row()


def test_exceptions_form_hierarchy():
    from repro import (
        BarrierError,
        ConfigError,
        HeapCorruption,
        InvalidAddress,
        OutOfMemory,
        ReproError,
    )

    for exc in (BarrierError, ConfigError, HeapCorruption, OutOfMemory):
        assert issubclass(exc, ReproError)
    assert issubclass(InvalidAddress, HeapCorruption)
