"""Golden request-latency snapshots: one example server workload on two
collector families, bit-identical across runs and substrate tiers.

``tests/data/golden_server.json`` was captured by
``tests/data/capture_golden_server.py``; these tests replay the identical
fixed-seed runs and compare every RequestStats field and the core cycle
counters exactly.  The pinned ``latency_line`` is the same line
``beltway-bench serve`` prints, so the CI grep and these asserts witness
the same bytes.
"""

import json
from pathlib import Path

import pytest

from repro.harness.runner import RunOptions, run
from repro.kernels import available
from repro.runtime.vm import VM
from repro.specs import load as load_spec
from repro.workloads import ServerMutator

REPO = Path(__file__).resolve().parents[2]
GOLDEN = json.loads(
    (REPO / "tests" / "data" / "golden_server.json").read_text()
)

COMPARED = ("completed", "collections", "allocations", "allocated_bytes",
            "total_cycles", "gc_cycles", "mutator_cycles")


def replay(cell: dict) -> dict:
    report = run(REPO / cell["spec"], cell_collector(cell),
                 cell["heap_bytes"], options=RunOptions(seed=GOLDEN["seed"]))
    requests = report.requests
    got = {name: getattr(report.stats, name) for name in COMPARED}
    got["requests"] = requests.to_dict()
    spec = load_spec(REPO / cell["spec"])
    got["latency_line"] = (
        f"latency-cycles {spec.name}/{cell_collector(cell)}: "
        f"p50={requests.p50_cycles!r} p99={requests.p99_cycles!r} "
        f"p99.9={requests.p999_cycles!r} max={requests.max_cycles!r}"
    )
    return got


def cell_collector(cell: dict) -> str:
    return cell["_collector"]


def _cells():
    cells = []
    for key, cell in sorted(GOLDEN["cells"].items()):
        cell = dict(cell)
        cell["_collector"] = key.split("/", 1)[1]
        cells.append(pytest.param(cell, id=key))
    return cells


@pytest.mark.parametrize("cell", _cells())
def test_latency_golden_bit_identical(cell):
    got = replay(cell)
    for name in COMPARED:
        assert got[name] == cell[name], name
    assert got["requests"] == cell["requests"]
    assert got["latency_line"] == cell["latency_line"]


@pytest.mark.parametrize("tier", ("python", "cffi"))
def test_latency_golden_on_every_tier(tier):
    """Request latencies are substrate-independent: the fastest-available
    kernel tier must reproduce the golden percentiles bit for bit."""
    status = available().get(tier, "unknown tier")
    if not status.startswith("ok"):
        pytest.skip(f"{tier} tier unavailable: {status}")
    key = sorted(GOLDEN["cells"])[0]
    cell = GOLDEN["cells"][key]
    collector = key.split("/", 1)[1]
    spec = load_spec(REPO / cell["spec"])
    vm = VM(cell["heap_bytes"], collector=collector, locality=spec.locality,
            benchmark_name=spec.name, tier=tier)
    engine = ServerMutator(vm, spec, seed=GOLDEN["seed"])
    stats = engine.run()
    assert stats.requests.to_dict() == cell["requests"]
    assert stats.total_cycles == cell["total_cycles"]
