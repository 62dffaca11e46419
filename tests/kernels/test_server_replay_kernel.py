"""The server tape through the compiled kernel (DESIGN §13 + §15): the
cffi half of ``tests/workloads/test_server_tape.py``.

``k_replay`` runs a request's fast-path records and hands every mark back
to the engine; the run must equal the interleaved loop the reference file
was captured from, and the Python replay, down to the root table.
"""

import json

import pytest

from repro import RunOptions, run
from repro.bench.engine import TAPES
from repro.kernels import TIER_ENV, available

from ..workloads.server_reference import (
    CELLS, REFERENCE, SEED, cell_id, mini_spec, observe_cell,
)

pytestmark = pytest.mark.skipif(
    not available()["cffi"].startswith("ok"),
    reason=f"cffi tier unavailable: {available()['cffi']}",
)

WANT = json.loads(REFERENCE.read_text())["cells"]


@pytest.fixture(autouse=True)
def empty_cache_on_the_cffi_tier(monkeypatch):
    monkeypatch.setenv(TIER_ENV, "cffi")
    TAPES.clear()
    yield
    TAPES.clear()


@pytest.mark.parametrize("cell", CELLS, ids=[cell_id(*cell) for cell in CELLS])
def test_cell_equals_the_interleaved_loop_on_miss_and_hit(cell):
    want = WANT[cell_id(*cell)]
    miss, engine = observe_cell(*cell, tier="cffi")
    hit, again = observe_cell(*cell, tier="cffi")
    assert miss == want and hit == want
    python, reference = observe_cell(*cell, tier="python")
    assert python == want
    path = again.replay_path
    assert path == engine.replay_path
    assert path.path == "cffi" and path.why is None
    assert path.bails["fault"] == 0
    ran = path.in_c + sum(path.bails.values()) + path.marks
    # (a run that dies mid-chunk has counted the chunk but not run it)
    assert ran <= path.records if want["failure"] else ran == path.records
    assert (path.records, path.marks) == (
        reference.replay_path.records, reference.replay_path.marks
    )
    assert path.bail_ratio == sum(path.bails.values()) / path.records
    requests = want["requests"]
    if not want["failure"]:
        assert path.marks == requests["count"] + requests["cache_inserts"]


@pytest.mark.parametrize("collector", ["25.25.100", "gctk:Appel"])
def test_bundled_workload_replays_in_c_with_few_misses(collector):
    from pathlib import Path

    spec = Path(__file__).resolve().parents[2] / "examples/workloads/kvstore.json"
    report = run(str(spec), collector, 192 * 1024, options=RunOptions(seed=SEED))
    path = report.replay
    assert path.path == "cffi" and path.marks > report.requests.count
    assert 0.5 < path.in_c / path.records and path.bail_ratio < 0.15


@pytest.mark.parametrize(
    "attached", [{"sanitize": True}, {"counters": True}, {"ring_buffer": 0}],
    ids=["sanitize", "counters", "ring_buffer"],
)
def test_attached_server_runs_execute_nothing_in_c(attached):
    spec = mini_spec(4.0)
    plain = run(spec, "gctk:Appel", 8 * 1024, options=RunOptions(seed=SEED))
    assert plain.replay.path == "cffi" and plain.replay.in_c > 0
    report = run(spec, "gctk:Appel", 8 * 1024,
                 options=RunOptions(seed=SEED, **attached))
    assert report.stats == plain.stats
    assert (report.replay.path, report.replay.why) == ("python", "attached")
    assert report.replay.in_c == 0 and not any(report.replay.bails.values())
    assert report.replay.marks == plain.replay.marks
