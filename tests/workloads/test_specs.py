"""The unified spec-ref surface (ISSUE 8 satellite): one loader for
benchmark names, workload files and spec objects; content-addressed
fingerprints; every run entry point accepting all three ref kinds."""

import json
import shutil
from pathlib import Path

import pytest

from repro.bench.engine import WorkloadSpec
from repro.bench.spec import benchmark_spec
from repro.errors import ConfigError
from repro.harness.runner import RunOptions, find_min_heap, run, run_many
from repro.specs import describe, fingerprint, is_file_ref, load
from repro.workloads import ServerWorkloadSpec, from_mapping

REPO = Path(__file__).resolve().parents[2]
KVSTORE = REPO / "examples" / "workloads" / "kvstore.json"

MINI = {
    "name": "mini",
    "duration_s": 0.05,
    "arrival": {"rate_rps": 600},
    "tasks": [{"name": "get",
               "sites": [{"type": "small", "lifetime": "request"}]}],
}


# ----------------------------------------------------------------------
# load(): the three ref kinds
# ----------------------------------------------------------------------
def test_load_benchmark_name():
    spec = load("jess")
    assert isinstance(spec, WorkloadSpec)
    assert spec.name == "jess"


def test_load_file_path_str_and_pathlike():
    by_path = load(KVSTORE)
    by_str = load(str(KVSTORE))
    assert isinstance(by_path, ServerWorkloadSpec)
    assert by_path == by_str
    assert by_path.name == "kvstore"


def test_load_spec_object_passthrough():
    spec = from_mapping(MINI)
    assert load(spec) is spec
    bench = benchmark_spec("db")
    assert load(bench) is bench


def test_load_applies_scale():
    half = load(KVSTORE, scale=0.5)
    full = load(KVSTORE)
    assert half.duration_s == pytest.approx(full.duration_s * 0.5)
    scaled_obj = load(from_mapping(MINI), scale=0.5)
    assert scaled_obj.duration_s == pytest.approx(0.025)


def test_load_rejects_unresolvable_refs():
    with pytest.raises(ConfigError, match="unknown benchmark"):
        load("no-such-benchmark")
    with pytest.raises(ConfigError, match="cannot resolve"):
        load(12345)


def test_is_file_ref_by_suffix():
    assert is_file_ref("shop.yaml")
    assert is_file_ref("shop.JSON")
    assert is_file_ref(Path("shop.yml"))
    assert not is_file_ref("jess")


def test_describe_names():
    assert describe("jess") == "jess"
    assert describe(KVSTORE) == "kvstore"
    assert describe(from_mapping(MINI)) == "mini"


# ----------------------------------------------------------------------
# fingerprint(): content addressing
# ----------------------------------------------------------------------
def test_fingerprint_benchmark_is_canonical_name():
    assert fingerprint("jess") == "jess"
    assert fingerprint("_202_jess") == "jess"


def test_fingerprint_survives_rename(tmp_path):
    renamed = tmp_path / "totally-different-name.json"
    shutil.copyfile(KVSTORE, renamed)
    assert fingerprint(KVSTORE) == fingerprint(renamed)
    assert fingerprint(KVSTORE).startswith("server:kvstore:")


def test_fingerprint_changes_on_edit(tmp_path):
    doc = json.loads(KVSTORE.read_text())
    doc["arrival"]["rate_rps"] = 999
    edited = tmp_path / "kvstore.json"
    edited.write_text(json.dumps(doc))
    assert fingerprint(edited) != fingerprint(KVSTORE)


def test_fingerprint_object_equals_file():
    assert fingerprint(load(KVSTORE)) == fingerprint(KVSTORE)


def test_fingerprints_of_the_examples_are_pinned():
    """Store keys: a change to the canonical form orphans every stored
    cell of a server spec, so it must be deliberate."""
    assert fingerprint(KVSTORE) == "server:kvstore:17e5f0a69954260da8488aca"
    webfront = REPO / "examples" / "workloads" / "webfront.yaml"
    assert fingerprint(webfront) == "server:webfront:8b53acf9ea81ee4bebc7b86b"
    spec = load(KVSTORE)
    assert hash(spec) == hash(from_mapping(spec.to_dict()))


def test_fingerprint_handbuilt_workloadspec_is_none():
    assert fingerprint(benchmark_spec("db")) is None


# ----------------------------------------------------------------------
# Entry points accept every ref kind
# ----------------------------------------------------------------------
def test_run_accepts_file_ref():
    report = run(KVSTORE, "25.25.100", 192 * 1024,
                 options=RunOptions(seed=13, scale=0.2))
    assert report.completed
    assert report.requests.count > 0


def test_run_many_mixes_ref_kinds():
    jobs = [
        (from_mapping(MINI), "25.25.100", 96 * 1024, 1.0, 13),
        ("jess", "25.25.100", 96 * 1024, 0.05, 13),
    ]
    server_stats, bench_stats = run_many(jobs, parallel=False)
    assert server_stats.requests is not None
    assert server_stats.requests.count > 0
    assert bench_stats.requests is None
    assert bench_stats.completed


def test_find_min_heap_accepts_server_spec(monkeypatch):
    from repro.grid import minsearch

    monkeypatch.setattr(minsearch, "MAX_HEAP_BYTES", 512 * 1024)
    spec = from_mapping(MINI)
    min_heap = find_min_heap(spec, "gctk:Appel")
    assert 0 < min_heap <= 512 * 1024
    assert run(spec, "gctk:Appel", min_heap,
               options=RunOptions(seed=13)).completed
