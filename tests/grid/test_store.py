"""The content-addressed result store: keys, round trips, corruption.

The store's contract (DESIGN.md §14): a cell's key is a deterministic
fingerprint of everything that determines its result — benchmark,
collector, heap size, scale, seed, substrate tier and the store format
version — and a corrupt or truncated entry is *identical* to a missing
one: detected, recomputed, never trusted.
"""

import json
from pathlib import Path

import pytest

from repro.grid import ResultStore, cell_key, execute_jobs
from repro.grid.store import STORE_FORMAT_VERSION, stats_from_dict, stats_to_dict
from repro.harness.runner import run

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "data" / "golden_counters.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_key_is_deterministic():
    a = cell_key("jess", "25.25.100", 24576, 0.2, 13)
    b = cell_key("jess", "25.25.100", 24576, 0.2, 13)
    assert a == b
    assert len(a) == 32 and all(c in "0123456789abcdef" for c in a)


@pytest.mark.parametrize(
    "other",
    [
        ("javac", "25.25.100", 24576, 0.2, 13),
        ("jess", "gctk:Appel", 24576, 0.2, 13),
        ("jess", "25.25.100", 24832, 0.2, 13),
        ("jess", "25.25.100", 24576, 0.4, 13),
        ("jess", "25.25.100", 24576, 0.2, 14),
    ],
)
def test_key_separates_every_identity_field(other):
    assert cell_key("jess", "25.25.100", 24576, 0.2, 13) != cell_key(*other)


def test_key_is_tier_independent(monkeypatch):
    """Tiers are bit-identical by contract, so a cell is one cell on both:
    the key never resolves (or compiles) a tier."""
    from repro import kernels

    keys = set()
    for tier in ("python", "cffi"):
        monkeypatch.setenv(kernels.TIER_ENV, tier)
        keys.add(cell_key("jess", "25.25.100", 24576, 0.2, 13))
    assert len(keys) == 1


def test_scale_key_distinguishes_float_identity():
    # repr-based float identity: 0.1 + 0.2 is not 0.3 and must not alias.
    assert cell_key("jess", "25.25.100", 24576, 0.1 + 0.2, 13) != cell_key(
        "jess", "25.25.100", 24576, 0.3, 13
    )


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
def _fresh_stats(benchmark, collector, heap_bytes, scale, seed=13):
    from repro.harness.runner import RunOptions

    return run(
        benchmark, collector, heap_bytes, options=RunOptions(scale=scale, seed=seed)
    ).stats


def test_round_trip_is_bit_identical(tmp_path):
    stats = _fresh_stats("jess", "25.25.100", 24 * 1024, 0.2)
    key = cell_key("jess", "25.25.100", 24 * 1024, 0.2, 13)
    with ResultStore(tmp_path / "store") as store:
        store.put(key, stats)
    reloaded = ResultStore(tmp_path / "store")
    assert reloaded.get(key) == stats  # dataclass ==: every field, pauses too


def test_serialisation_round_trips_pause_records():
    stats = _fresh_stats("jess", "25.25.100", 24 * 1024, 0.2)
    assert stats.pauses, "fixture run must collect at least once"
    assert stats_from_dict(json.loads(json.dumps(stats_to_dict(stats)))) == stats


@pytest.mark.parametrize(
    "cell",
    sorted(GOLDEN["cells"]),
    ids=[cell.replace("/", "-") for cell in sorted(GOLDEN["cells"])],
)
def test_store_round_trip_matches_golden_counters(tmp_path, cell):
    """Executor → shard → fresh store: counters equal the checked-in goldens.

    Covers every (benchmark, collector) golden cell, so the store path is
    proven bit-faithful on all six benchmarks and all four collectors."""
    name, collector = cell.split("/")
    golden = GOLDEN["cells"][cell]
    scale, seed = GOLDEN["scale"], GOLDEN["seed"]
    heap = golden["heap_bytes"]
    key = cell_key(name, collector, heap, scale, seed)
    with ResultStore(tmp_path / "s") as store:
        report = execute_jobs(
            [(name, collector, heap, scale, seed)], store=store, parallel=False
        )
    stats = ResultStore(tmp_path / "s").get(key)
    assert stats == report.results[0]
    for field in (
        "completed",
        "allocations",
        "allocated_bytes",
        "copied_bytes",
        "collections",
        "full_heap_collections",
        "peak_remset_entries",
        "total_cycles",
        "gc_cycles",
        "mutator_cycles",
    ):
        assert getattr(stats, field) == golden[field], field


# ----------------------------------------------------------------------
# Corruption: a bad entry is a missing entry
# ----------------------------------------------------------------------
def _one_stored_cell(root, close=True):
    """Write one cell; ``close=False`` models a writer killed mid-campaign
    (shard appended and flushed, but no index snapshot ever built)."""
    stats = _fresh_stats("jess", "25.25.100", 24 * 1024, 0.2)
    key = cell_key("jess", "25.25.100", 24 * 1024, 0.2, 13)
    store = ResultStore(root)
    store.put(key, stats)
    if close:
        store.close()
    return key, stats


def _shards(root):
    return sorted(Path(root).glob("cells-*.jsonl"))


def test_truncated_shard_entry_is_recomputed(tmp_path):
    root = tmp_path / "store"
    key, stats = _one_stored_cell(root, close=False)
    shard = _shards(root)[0]
    shard.write_bytes(shard.read_bytes()[:-20])  # tear the tail mid-record
    store = ResultStore(root)
    assert store.get(key) is None
    report = execute_jobs(
        [("jess", "25.25.100", 24 * 1024, 0.2, 13)], store=store, parallel=False
    )
    assert report.cached == 0 and len(report.executed) == 1
    assert report.results[0] == stats


def test_flipped_payload_fails_digest_and_is_ignored(tmp_path):
    root = tmp_path / "store"
    key, stats = _one_stored_cell(root, close=False)
    shard = _shards(root)[0]
    line = shard.read_text()
    assert '"collections": ' in line
    shard.write_text(line.replace('"collections": ', '"collections": 9'))
    store = ResultStore(root)
    assert store.get(key) is None
    assert store.corrupt_entries >= 1


def test_corrupted_index_entry_fails_digest_and_is_ignored(tmp_path):
    root = tmp_path / "store"
    key, stats = _one_stored_cell(root)  # closed: the cell lives in the index
    for shard in _shards(root):
        shard.unlink()  # the index is now the only copy
    index = root / "index.json"
    text = index.read_text()
    assert '"collections": ' in text
    index.write_text(text.replace('"collections": ', '"collections": 9'))
    store = ResultStore(root)
    assert store.get(key) is None
    assert store.corrupt_entries >= 1


def test_corrupt_index_is_rebuilt_from_shards(tmp_path):
    root = tmp_path / "store"
    key, stats = _one_stored_cell(root)
    (root / "index.json").write_text("{ not json")
    store = ResultStore(root)
    assert store.get(key) == stats  # shards are the source of truth


def test_stale_index_is_superseded_by_newer_shards(tmp_path):
    root = tmp_path / "store"
    key1, stats1 = _one_stored_cell(root)
    stats2 = _fresh_stats("jess", "gctk:Appel", 24 * 1024, 0.2)
    key2 = cell_key("jess", "gctk:Appel", 24 * 1024, 0.2, 13)
    with ResultStore(root) as late:  # appends a shard after the index above
        late.put(key2, stats2)
    store = ResultStore(root)
    assert store.get(key1) == stats1
    assert store.get(key2) == stats2


# ----------------------------------------------------------------------
# Concurrent writers
# ----------------------------------------------------------------------
def test_concurrent_writers_lose_nothing(tmp_path):
    root = tmp_path / "store"
    stats = _fresh_stats("jess", "25.25.100", 24 * 1024, 0.2)
    writers = [ResultStore(root) for _ in range(3)]
    keys = []
    for i, writer in enumerate(writers):
        # Distinct (synthetic) keys so all three cells must coexist.
        key = cell_key("jess", "25.25.100", 24 * 1024, 0.2, 100 + i)
        writer.put(key, stats)
        keys.append(key)
    # Interleaved index rebuilds must not drop other writers' shards.
    for writer in writers:
        writer.close()
    merged = ResultStore(root)
    for key in keys:
        assert merged.get(key) == stats
    index = json.loads((root / "index.json").read_text())
    assert index["format"] == STORE_FORMAT_VERSION
    assert len(index["cells"]) == 3


# ----------------------------------------------------------------------
# File-based server-workload cells (ISSUE 8)
# ----------------------------------------------------------------------
def _mini_spec_file(path, rate=700):
    path.write_text(json.dumps({
        "name": "mini",
        "duration_s": 0.05,
        "arrival": {"rate_rps": rate},
        "tasks": [{"name": "get",
                   "sites": [{"type": "small", "lifetime": "request"}]}],
    }))
    return path


def test_file_workload_key_is_content_addressed(tmp_path):
    """Editing a workload file invalidates its cells; renaming does not;
    a spec object with the file's content shares the file's cells."""
    from repro.specs import load as load_spec

    original = _mini_spec_file(tmp_path / "a.json")
    (tmp_path / "b").mkdir()
    renamed = _mini_spec_file(tmp_path / "b" / "renamed.json")
    edited = _mini_spec_file(tmp_path / "edited.json", rate=900)
    args = ("25.25.100", 96 * 1024, 1.0, 13)
    base = cell_key(original, *args)
    assert cell_key(renamed, *args) == base
    assert cell_key(load_spec(original), *args) == base
    assert cell_key(edited, *args) != base


def test_handbuilt_workloadspec_has_no_key(tmp_path):
    from repro.bench.spec import benchmark_spec
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="fingerprint"):
        cell_key(benchmark_spec("db"), "25.25.100", 96 * 1024, 1.0, 13)


def test_server_cell_round_trips_request_stats(tmp_path):
    """put → shard → fresh store: the rebuilt RunStats carries an equal
    RequestStats, not a bare dict (the v2 format's new field)."""
    from repro.workloads.latency import RequestStats

    spec_file = _mini_spec_file(tmp_path / "mini.json")
    stats = _fresh_stats(spec_file, "25.25.100", 96 * 1024, 1.0)
    assert stats.requests is not None and stats.requests.count > 0
    key = cell_key(spec_file, "25.25.100", 96 * 1024, 1.0, 13)
    with ResultStore(tmp_path / "store") as store:
        store.put(key, stats)
    reloaded = ResultStore(tmp_path / "store").get(key)
    assert isinstance(reloaded.requests, RequestStats)
    assert reloaded == stats


def test_executor_serves_server_cells_from_store(tmp_path):
    """run_many with a store: the second batch replays the server cell
    from disk, bit-identically, executing nothing."""
    from repro.harness.runner import run_many

    spec_file = _mini_spec_file(tmp_path / "mini.json")
    job = [(spec_file, "25.25.100", 96 * 1024, 1.0, 13)]
    with ResultStore(tmp_path / "store") as store:
        first = run_many(job, parallel=False, store=store)[0]
        assert store.puts == 1
    with ResultStore(tmp_path / "store") as store:
        second = run_many(job, parallel=False, store=store)[0]
        assert store.hits == 1 and store.puts == 0
    assert first == second
    assert second.requests == first.requests
