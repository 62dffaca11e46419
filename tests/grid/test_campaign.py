"""Campaign-level wiring: sweep defaults, experiment routing, CLI flags.

Satellite coverage: ``sweep``/``sweep_grid`` share the auto-parallel
default (the old ``False``-vs-``True`` split is gone), the experiment
layer routes through a configured store, and the ``beltway-bench``
``--store`` flag behaves end to end.
"""

import inspect
import json
import sys

import pytest

from repro.analysis.sweep import heap_multipliers, sweep, sweep_grid
from repro.grid import ResultStore
from repro.harness import experiments as E
from repro.harness.cli import main

SCALE = 0.2


# ----------------------------------------------------------------------
# sweep defaults (satellite: the parallel=False/parallel=True split)
# ----------------------------------------------------------------------
def test_sweep_and_sweep_grid_share_the_auto_default():
    assert inspect.signature(sweep).parameters["parallel"].default is None
    assert inspect.signature(sweep_grid).parameters["parallel"].default is None


def test_default_sweep_matches_explicit_serial():
    kwargs = dict(
        min_heap_bytes=24 * 1024,
        multipliers=heap_multipliers(3),
        scale=SCALE,
        seed=13,
    )
    auto = sweep("jess", "25.25.100", **kwargs)
    serial = sweep("jess", "25.25.100", parallel=False, **kwargs)
    assert auto.runs == serial.runs
    assert auto.execution_mode in ("parallel", "serial")
    assert serial.execution_mode == "serial"


def test_sweep_checkpoints_into_store(tmp_path):
    store = ResultStore(tmp_path / "s")
    kwargs = dict(
        min_heap_bytes=24 * 1024,
        multipliers=heap_multipliers(3),
        scale=SCALE,
        seed=13,
        store=store,
    )
    cold = sweep("jess", "25.25.100", **kwargs)
    assert store.puts == 3
    warm = sweep("jess", "25.25.100", **kwargs)
    assert store.puts == 3  # nothing re-executed
    assert warm.runs == cold.runs


def test_sweep_execution_mode_is_the_executors_report(tmp_path, monkeypatch):
    """``execution_mode`` is copied from the batch's GridReport, not a
    second pool decision made before the store was consulted: a sweep a
    warm store served entirely ran nowhere."""
    # (repro.analysis re-exports the function under the module's name)
    sweep_module = sys.modules["repro.analysis.sweep"]
    reports = []
    real = sweep_module.execute_jobs

    def recording(jobs, **grid):
        reports.append(real(jobs, **grid))
        return reports[-1]

    monkeypatch.setattr(sweep_module, "execute_jobs", recording)
    kwargs = dict(
        min_heap_bytes=24 * 1024,
        multipliers=heap_multipliers(3),
        scale=SCALE,
        seed=13,
        store=ResultStore(tmp_path / "s"),
    )
    cold = sweep("jess", "25.25.100", **kwargs)
    warm = sweep("jess", "25.25.100", **kwargs)
    assert cold.execution_mode == reports[0].execution_mode != "none"
    assert warm.execution_mode == reports[1].execution_mode == "none"
    assert warm.runs == cold.runs


def test_sweep_grid_serves_cells_computed_by_sweep(tmp_path):
    """One shared store: grid cells and single-sweep cells are the same
    cells, so work done by either API is never repeated by the other."""
    store = ResultStore(tmp_path / "s")
    multipliers = heap_multipliers(3)
    sweep(
        "jess", "25.25.100", 24 * 1024, multipliers,
        scale=SCALE, seed=13, store=store,
    )
    executed_before = store.puts
    grid = sweep_grid(
        ["jess"], ["25.25.100"], {"jess": 24 * 1024}, multipliers,
        scale=SCALE, seed=13, store=store,
    )
    assert store.puts == executed_before  # grid replayed, not recomputed
    assert len(grid[("jess", "25.25.100")].runs) == 3


# ----------------------------------------------------------------------
# experiment-layer routing
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def _clean_experiment_state():
    E.clear_caches()
    E.configure_grid()
    yield
    E.clear_caches()
    E.configure_grid()


def test_experiments_route_through_configured_store(tmp_path):
    store = ResultStore(tmp_path / "s")
    E.configure_grid(store=store)
    assert E._grid["store"] is store
    cold = E.figure4(scale=SCALE)
    assert store.puts > 0
    store.close()

    E.clear_caches()
    warm_store = ResultStore(tmp_path / "s")
    E.configure_grid(store=warm_store)
    warm = E.figure4(scale=SCALE)
    assert warm_store.puts == 0  # every cell replayed from disk
    assert warm.data == cold.data
    assert warm.checks == cold.checks


def test_min_heaps_batch_fills_the_cache():
    minima = E.min_heaps(["jess", "db"], SCALE)
    assert set(minima) == {"jess", "db"}
    assert E._min_heap_cache[("jess", SCALE)] == minima["jess"]
    # Subsequent singles are cache hits, not fresh searches.
    assert E.min_heap("db", SCALE) == minima["db"]


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
def test_cli_minheap_store_cold_then_warm(tmp_path, capsys):
    root = tmp_path / "store"
    argv = ["minheap", "--benchmark", "jess", "--scale", str(SCALE),
            "--store", str(root)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "min heap" in cold and "grid: 0 cached" in cold
    assert (root / "index.json").exists()

    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert ", 0 executed" in warm  # the same --store again re-ran nothing

    index = json.loads((root / "index.json").read_text())
    assert index["cells"]  # the campaign is on disk


def test_cli_experiment_with_store(tmp_path, capsys):
    root = tmp_path / "store"
    argv = ["experiment", "figure4", "--scale", str(SCALE),
            "--store", str(root)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "grid:" in cold and "executed" in cold

    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert ", 0 executed" in warm
