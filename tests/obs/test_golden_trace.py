"""The golden span timeline: tier- and replay-invariance (ISSUE 10).

``tests/data/golden_trace.json`` pins the canonical projection (run + gc
spans) of a small fixed-seed campaign.  Every substrate tier must
reproduce it bit for bit, cold or warm — span ids are built from input
ordinals and collection ordinals, never from store keys or host state,
precisely so this test can exist.

Regenerate (only after an intentional engine/cost-model change)::

    PYTHONPATH=src python tests/data/capture_golden_trace.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.grid import ResultStore, execute_jobs
from repro.kernels import TIER_ENV, available
from repro.obs import RingBufferSink, TelemetryBus
from repro.obs.trace import build_timeline

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "data" / "golden_trace.json")
    .read_text()
)
JOBS = [tuple(job) for job in GOLDEN["jobs"]]
TIERS = ("python", "cffi")


def _canonical(store=None):
    bus = TelemetryBus()
    ring = bus.subscribe(RingBufferSink(capacity=65536))
    execute_jobs(JOBS, store=store, parallel=False, bus=bus)
    return build_timeline(ring.events).canonical()


@pytest.fixture
def tier_env():
    saved = os.environ.get(TIER_ENV)
    yield
    if saved is None:
        os.environ.pop(TIER_ENV, None)
    else:
        os.environ[TIER_ENV] = saved


@pytest.mark.parametrize("tier", TIERS)
def test_canonical_timeline_matches_golden_on_every_tier(tier, tier_env):
    status = available().get(tier, "unknown tier")
    if not status.startswith("ok"):
        pytest.skip(f"{tier} tier unavailable: {status}")
    os.environ[TIER_ENV] = tier
    assert _canonical() == GOLDEN["canonical"]


def test_warm_replay_matches_golden(tmp_path):
    store = ResultStore(tmp_path / "s")
    assert _canonical(store) == GOLDEN["canonical"]  # cold fill
    warm = _canonical(store)  # pure run.replay synthesis
    assert warm == GOLDEN["canonical"]
