"""Golden SLO frontier: fixed-seed sweeps pinned bit for bit.

``tests/data/golden_slo.json`` was captured by
``tests/data/capture_golden_slo.py``; these tests replay the identical
sweeps — kvstore x two collector families x a three-rate ladder, with
the no-GC distillation — and compare every FrontierPoint field exactly,
cold, warm (store replay executes zero cells) and on every available
substrate tier.  The pinned ``frontier_lines`` are the same lines
``beltway-bench slo`` prints, so the CI grep and these asserts witness
the same bytes.
"""

import json
from pathlib import Path

import pytest

from repro.grid.store import ResultStore
from repro.kernels import TIER_ENV, available
from repro.slo import sweep_frontier

REPO = Path(__file__).resolve().parents[2]
GOLDEN = json.loads((REPO / "tests" / "data" / "golden_slo.json").read_text())


def replay(collector, **kwargs):
    return sweep_frontier(
        REPO / GOLDEN["spec"],
        collector,
        GOLDEN["heap_bytes"],
        GOLDEN["rates"],
        scale=GOLDEN["scale"],
        seed=GOLDEN["seed"],
        **kwargs,
    )


def assert_matches_golden(frontier, collector):
    golden = dict(GOLDEN["frontiers"][collector])
    golden_lines = golden.pop("frontier_lines")
    golden.pop("spec")
    assert frontier.to_dict() == golden
    assert frontier.point_lines() == golden_lines


@pytest.mark.parametrize("collector", sorted(GOLDEN["frontiers"]))
def test_frontier_golden_bit_identical(collector):
    assert_matches_golden(replay(collector), collector)


@pytest.mark.parametrize("collector", sorted(GOLDEN["frontiers"]))
def test_frontier_warm_replay_executes_nothing(collector, tmp_path):
    store = ResultStore(tmp_path / "grid-store")
    cold = replay(collector, store=store)
    assert cold.executed > 0
    assert_matches_golden(cold, collector)
    warm = replay(collector, store=store)
    assert warm.executed == 0, "warm frontier replay re-executed cells"
    assert warm.cached == cold.executed + cold.cached
    assert_matches_golden(warm, collector)
    store.close()


@pytest.mark.parametrize("tier", ("python", "cffi"))
def test_frontier_golden_on_every_tier(tier, monkeypatch):
    """Frontiers are substrate-independent: every available kernel tier
    reproduces the golden points (distilled fields included) bit for
    bit."""
    status = available().get(tier, "unknown tier")
    if not status.startswith("ok"):
        pytest.skip(f"{tier} tier unavailable: {status}")
    monkeypatch.setenv(TIER_ENV, tier)
    collector = sorted(GOLDEN["frontiers"])[0]
    assert_matches_golden(replay(collector, parallel=False), collector)


def test_distillation_is_present_and_clean():
    """The golden's no-GC references never collected, so every point's
    distilled cost is trustworthy (`clean`), and a point with zero
    collections shows zero overhead by construction."""
    for golden in GOLDEN["frontiers"].values():
        for point in golden["points"]:
            distilled = point["distilled"]
            assert distilled["baseline_collections"] == 0
            if point["collections"] == 0:
                assert distilled["overhead_pct"] == 0.0
                assert distilled["p99_inflation"] == 1.0
            else:
                assert distilled["overhead_pct"] > 0.0
