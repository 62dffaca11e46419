import json
import math

import pytest

import layers
import repro
import run
from repro.grid.store import stats_from_dict, stats_to_dict
from workloads import WORKLOADS, digest, tail_quantile


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_span_self_time_is_duration_minus_children():
    # cell [0, 10] holds load [1, 3] and run [4, 9]; run holds gc [5, 7].
    spans = layers.Spans(clock=fake_clock([0, 1, 3, 4, 5, 7, 9, 10]))
    with spans.span("cell", cell=4):
        with spans.span("load"):
            pass
        with spans.span("run"):
            with spans.span("gc"):
                pass
    assert spans.durations() == [10, 2, 5, 2]
    assert spans.self_times() == [3, 2, 3, 2]
    assert spans.self_time_by_name() == {"cell": 3, "load": 2, "run": 3, "gc": 2}
    assert spans.coverage("cell") == [0.7]
    assert [r["parent"] for r in spans.records] == [None, 0, 0, 2]
    assert {r["cell"] for r in spans.records} == {4}  # children inherit the cell id


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_quantile(192) == 0.9
    assert tail_quantile(100) == 0.9
    assert tail_quantile(99) == 0.75  # p90 of 99 leaves only 9 beyond
    assert tail_quantile(200) == 0.95
    assert tail_quantile(40) == 0.75
    assert tail_quantile(39) is None
    for n in range(1, 400):
        q = tail_quantile(n)
        if q is not None:
            assert n - math.ceil(q * n) >= 10


def test_digest_is_canonical_and_exact():
    assert digest({"a": 1, "b": [1.5, 2]}) == digest({"b": [1.5, 2], "a": 1})
    assert digest({"a": 0.1 + 0.2}) != digest({"a": 0.3})  # no rounding
    with pytest.raises(ValueError):
        digest({"a": float("nan")})
    stats = repro.run("raytrace", "gctk:Appel", 32 * 1024).stats
    payload = stats_to_dict(stats)
    through_json = json.loads(json.dumps(payload))
    assert digest(through_json) == digest(payload)
    assert stats_from_dict(through_json) == stats


@pytest.mark.parametrize("seed", [13, 7])
@pytest.mark.parametrize("name", ["spec_mix", "gc_tight", "serve_ladder"])
def test_every_cell_completes(name, seed, tmp_path):
    outcome = WORKLOADS[name].cold_round(seed, 1.0, tmp_path)
    assert outcome.problems == []
    assert outcome.attempted >= len(outcome.walls) > 0


def test_campaign_cells_complete_and_replay_warm(tmp_path):
    campaign = WORKLOADS["campaign"]
    store_dir = tmp_path / "store"
    cold = campaign.stored_round(13, 1.0, store_dir, None)
    assert cold.problems == [] and cold.executed == 75
    warm = campaign.stored_round(13, 1.0, store_dir, None)
    assert warm.executed == 0 and digest(warm.result) == digest(cold.result)
    assert len(campaign.jobs(13, 1.0, store_dir)) == 75


def test_frontier_jobs_are_the_cells_sweep_frontier_runs(tmp_path):
    ladder = WORKLOADS["serve_ladder"]
    ladder.stored_round(13, 0.25, tmp_path / "store", None)
    keys = {repro.cell_key(*job) for job in ladder.jobs(13, 0.25)}
    store = repro.ResultStore(tmp_path / "store")
    assert len(keys) == len(store) == 32
    assert all(key in store for key in keys)


def test_traced_cell_matches_run_and_exports_valid_perfetto():
    spans = layers.Spans()
    jobs = WORKLOADS["spec_mix"].jobs(7, 0.25)[:2] + WORKLOADS["serve_ladder"].jobs(7, 0.25)[:1]
    with spans.span("round"):
        traced = [layers.traced_cell(spans, i, job) for i, job in enumerate(jobs)]
    for job, stats in zip(jobs, traced):
        assert stats == layers.plain_run(job)[1].stats
    assert min(spans.coverage("cell")) >= 0.95
    document = json.loads(json.dumps(spans.to_chrome("test")))
    assert repro.validate_perfetto(document) == 1 + len(jobs) * 5


def contract():
    return run.load_contract()


def test_contract_names_workloads_and_bounds():
    doc = contract()
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in doc["workloads"])
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert max(m["bound"] for m in doc["end_to_end"]) == doc["end_to_end"][0]["bound"]  # setup_s


def result_set(path, scale=1.0, digest_="d", failed=0):
    runs = []
    for name in run.WORKLOAD_NAMES:
        metrics = {
            m["name"]: {"value": 2.0 * scale, "unit": m["unit"]}
            for m in contract()["end_to_end"]
        }
        runs.append({
            "workload": name, "trace": 0, "metrics": metrics, "sim_digest": digest_,
            "failed": failed, "comparable": True, "quick": False,
        })
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_agree_exit_codes(tmp_path, capsys):
    base = result_set(tmp_path / "a.json")
    assert run.main(["--agree", base, result_set(tmp_path / "b.json", scale=1.01)]) == 0
    assert "agree" in capsys.readouterr().out.splitlines()[-1]
    assert run.main(["--agree", base, result_set(tmp_path / "c.json", scale=1.5)]) == 1
    assert run.main(["--agree", base, result_set(tmp_path / "d.json", digest_="x")]) == 1
    assert run.main(["--agree", base, result_set(tmp_path / "e.json", failed=1)]) == 1
    assert run.main(["--agree", base, str(tmp_path / "missing.json")]) == 2
