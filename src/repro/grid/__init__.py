"""repro.grid: the sharded grid executor and its on-disk result store.

Every figure in the paper is a (benchmark × collector × heap-size) grid
of fixed-seed cells, and every cell is a pure function of its key: the
run re-derives its entire world from ``(benchmark, collector, heap_bytes,
scale, seed)`` on a given substrate tier.  That purity is what this
package spends:

* :mod:`repro.grid.store` — a content-addressed on-disk
  :class:`ResultStore`.  Each cell is keyed by a deterministic
  fingerprint of its identity (including the substrate tier and the
  store-format version) and persisted as checksummed JSONL shard
  entries plus an atomically rebuilt index, so any cell ever computed —
  by a previous process, a CI job, or an interrupted campaign — is a
  dictionary lookup.  Corrupt or truncated entries are detected and
  recomputed, never trusted (DESIGN §14).

* :mod:`repro.grid.executor` — a fault-tolerant executor replacing
  static ``pool.map`` chunking with as-completed dispatch over a shared
  job queue: cost-model ordering (smaller heaps do more GCs — longest
  first, to kill tail idling), per-cell retry with failures recorded
  rather than the batch lost, ``grid.job`` progress events on the
  telemetry bus, and checkpointing through the store (every finished
  cell is durable immediately, so re-running an interrupted campaign
  executes only the missing cells).

* :mod:`repro.grid.monotone` — the doubling/bisection search over a
  monotone predicate as a resumable state machine
  (:class:`MonotoneSearch`) and its one lockstep driver
  (``drive_searches``), shared by the minimum-heap search and the SLO
  max-sustainable-rate search.

* :mod:`repro.grid.minsearch` — the minimum-heap instantiation, so the
  six benchmarks' searches fan their probes out together instead of
  bisecting serially.

The experiment layer (``repro.harness.experiments``, ``beltway-bench
exp/all/report --store DIR``) runs entirely on top of these; results are
bit-identical to fresh serial runs by construction and by test.
"""

from .executor import GridFailure, GridReport, execute_jobs
from .minsearch import find_min_heaps
from .monotone import MonotoneSearch, round_to_step
from .store import STORE_FORMAT_VERSION, ResultStore, cell_key

__all__ = [
    "ResultStore",
    "cell_key",
    "STORE_FORMAT_VERSION",
    "GridReport",
    "GridFailure",
    "MonotoneSearch",
    "round_to_step",
    "execute_jobs",
    "find_min_heaps",
]
