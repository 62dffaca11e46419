"""The content-addressed on-disk result store (DESIGN §14).

Layout of a store directory::

    store/
      cells-<pid>-<token>.jsonl   one shard per writer process
      index.json                  atomically rebuilt consolidated snapshot

Each shard line is one cell: ``{"key": <fingerprint>, "sha": <digest>,
"stats": {...}}``.  Writers never share a shard — every
:class:`ResultStore` instance appends to its own uniquely named file and
flushes after each record — so concurrent processes (a parallel sweep's
workers' parent, several CI jobs on a cache, an interrupted campaign's
successor) can populate one directory without a lock and without losing
cells.  The index is pure acceleration: a single-file snapshot of every
validated cell, rebuilt via write-to-temp + :func:`os.replace` so readers
see either the old or the new index, never a torn one.  Loading a store
reads the index and then scans only shard entries the index does not
cover yet.

Trust model: **a corrupt entry is a missing entry.**  Every record
carries a digest of its payload; a line that fails to parse (torn
append, truncated file) or fails its digest is skipped and counted, and
the executor recomputes the cell.  The store never serves bytes it
cannot verify.

Keys are deterministic fingerprints of the *complete* cell identity —
``(benchmark, collector, heap_bytes, scale, seed, store-format
version)``.  The substrate tier is not part of it: tiers are
bit-identical by contract, and the tier-1 suite runs on both tiers to
hold that contract, so a cell computed on one tier is the cell on the
other.  Bump :data:`STORE_FORMAT_VERSION` whenever the serialised form
*or the meaning of a run* changes (new counters, cost model
recalibration): every old key goes stale at once, which is the correct
failure mode for a cache of experiment results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..sim.clock import PauseRecord
from ..sim.stats import RunStats

#: Bump on any change to the serialised form or to what a run means.
#: v2: RunStats grew the ``requests`` field (server-workload latency).
#: v3: the substrate tier left the key.
STORE_FORMAT_VERSION = 3

_INDEX_NAME = "index.json"
_SHARD_GLOB = "cells-*.jsonl"


def cell_key(benchmark, collector, heap_bytes: int, scale: float, seed: int) -> str:
    """Deterministic fingerprint of one grid cell.

    ``benchmark`` is any spec ref :func:`repro.specs.load` accepts; its
    identity component comes from :func:`repro.specs.fingerprint`, so
    file-based workloads are keyed by *content digest*: editing a YAML
    invalidates its cells, renaming or moving the file does not, and a
    spec object equal to the file's content shares the file's cells.
    Refs with no canonical identity (hand-built ``WorkloadSpec`` objects)
    raise :class:`~repro.errors.ConfigError` — the executor runs those
    uncached.

    ``collector`` is fingerprinted as ``str(collector)``: a spec string
    as written, a parsed :class:`~repro.core.config.BeltwayConfig` as its
    full dataclass ``repr``, which names every field and so cannot alias
    a spec string or another configuration.  ``scale`` is fingerprinted
    via ``repr(float(...))`` so ``0.4`` and ``0.40`` agree and the key
    survives JSON round trips.
    """
    from ..errors import ConfigError
    from ..specs import fingerprint

    spec_id = fingerprint(benchmark)
    if spec_id is None:
        raise ConfigError(
            f"workload ref {benchmark!r} has no canonical fingerprint; "
            "grid cells for it cannot be cached"
        )
    identity = json.dumps(
        {
            "format": STORE_FORMAT_VERSION,
            "benchmark": spec_id,
            "collector": str(collector),
            "heap_bytes": int(heap_bytes),
            "scale": repr(float(scale)),
            "seed": int(seed),
        },
        sort_keys=True,
    )
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()[:32]


def stats_to_dict(stats: RunStats) -> Dict:
    """JSON-serialisable form of a :class:`RunStats`, bit-exact.

    ``dataclasses.asdict`` recurses into the pause records; JSON
    round-trips Python floats exactly (repr-based), so deserialising
    yields a dataclass that compares ``==`` to the original.
    """
    return dataclasses.asdict(stats)


def stats_from_dict(payload: Dict) -> RunStats:
    """Inverse of :func:`stats_to_dict`."""
    data = dict(payload)
    data["pauses"] = [PauseRecord(**p) for p in payload.get("pauses", ())]
    if data.get("requests") is not None:
        # Imported lazily: sim.stats must not depend on the workloads
        # layer, so the field is rebuilt here at the serialisation edge.
        from ..workloads.latency import RequestStats

        data["requests"] = RequestStats(**data["requests"])
    return RunStats(**data)


def _digest(stats_json: str) -> str:
    return hashlib.sha256(stats_json.encode("utf-8")).hexdigest()[:16]


class ResultStore:
    """A directory of every grid cell this machine has ever computed.

    Open is cheap (index load + incremental shard scan); ``get`` is a
    dictionary lookup; ``put`` is one flushed append to this process's
    private shard.  ``hits``/``misses``/``puts``/``corrupt_entries``
    count this instance's traffic so callers can report cache behaviour
    (the CLI's ``grid:`` summary line, the resume-only-missing tests).
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt_entries = 0
        self._cache: Dict[str, Dict] = {}
        #: shard name -> validated line count (for incremental rescans).
        self._scanned: Dict[str, int] = {}
        self._shard_path: Optional[Path] = None
        self._shard_file = None
        self.refresh()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """(Re)load the index and scan shard entries it does not cover."""
        self._load_index()
        for shard in sorted(self.root.glob(_SHARD_GLOB)):
            self._scan_shard(shard)

    def _load_index(self) -> None:
        path = self.root / _INDEX_NAME
        try:
            snapshot = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return  # absent or torn: the shards are the ground truth
        if snapshot.get("format") != STORE_FORMAT_VERSION:
            return  # stale format: ignore, keys would not match anyway
        for key, entry in snapshot.get("cells", {}).items():
            # The index gets the same trust model as the shards: every
            # entry re-proves its digest or is dropped and recomputed.
            try:
                payload, sha = entry["stats"], entry["sha"]
            except (KeyError, TypeError):
                self.corrupt_entries += 1
                continue
            if _digest(json.dumps(payload, sort_keys=True)) != sha:
                self.corrupt_entries += 1
                continue
            self._cache.setdefault(key, payload)
        for shard, lines in snapshot.get("shards", {}).items():
            if int(lines) > self._scanned.get(shard, 0):
                self._scanned[shard] = int(lines)

    def _scan_shard(self, shard: Path) -> None:
        """Validate every line past what was already scanned/indexed."""
        skip = self._scanned.get(shard.name, 0)
        seen = 0
        valid = skip
        try:
            with shard.open("r", encoding="utf-8") as stream:
                for line in stream:
                    seen += 1
                    if seen <= skip:
                        continue
                    record = self._validate_line(line)
                    if record is None:
                        self.corrupt_entries += 1
                        continue
                    key, payload = record
                    self._cache[key] = payload
                    valid = seen
        except OSError:
            return
        self._scanned[shard.name] = valid

    @staticmethod
    def _validate_line(line: str) -> Optional[Tuple[str, Dict]]:
        line = line.strip()
        if not line:
            return None
        try:
            record = json.loads(line)
            key = record["key"]
            stats = record["stats"]
            sha = record["sha"]
        except (ValueError, KeyError, TypeError):
            return None  # torn or truncated append
        if _digest(json.dumps(stats, sort_keys=True)) != sha:
            return None  # bit rot / partial overwrite: never trust it
        return key, stats

    def get(self, key: str) -> Optional[RunStats]:
        """The cell's stats, or ``None`` (miss, or corrupt-and-dropped)."""
        payload = self._cache.get(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return stats_from_dict(payload)

    def __contains__(self, key: str) -> bool:
        return key in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def put(self, key: str, stats: RunStats) -> None:
        """Persist one cell: append to this writer's shard, flushed."""
        payload = stats_to_dict(stats)
        stats_json = json.dumps(payload, sort_keys=True)
        record = json.dumps(
            {"key": key, "sha": _digest(stats_json), "stats": payload},
            sort_keys=True,
        )
        if self._shard_file is None:
            token = os.urandom(4).hex()
            self._shard_path = self.root / f"cells-{os.getpid()}-{token}.jsonl"
            self._shard_file = self._shard_path.open("a", encoding="utf-8")
        self._shard_file.write(record + "\n")
        self._shard_file.flush()
        self._cache[key] = payload
        name = self._shard_path.name
        self._scanned[name] = self._scanned.get(name, 0) + 1
        self.puts += 1

    def rebuild_index(self) -> None:
        """Consolidate every validated cell into ``index.json``, atomically.

        Re-scans shards first so cells appended by *other* writers since
        our last refresh are not dropped from the snapshot; the
        temp-write + :func:`os.replace` means a concurrent rebuild races
        to a last-writer-wins, both of whose snapshots are complete.
        """
        self.refresh()
        snapshot = {
            "format": STORE_FORMAT_VERSION,
            "shards": dict(self._scanned),
            "cells": {
                key: {
                    "sha": _digest(json.dumps(payload, sort_keys=True)),
                    "stats": payload,
                }
                for key, payload in self._cache.items()
            },
        }
        tmp = self.root / f".{_INDEX_NAME}.{os.getpid()}.{os.urandom(2).hex()}"
        tmp.write_text(json.dumps(snapshot, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.root / _INDEX_NAME)

    def close(self) -> None:
        """Flush and drop the shard handle; rebuild the index snapshot."""
        if self._shard_file is not None:
            self._shard_file.close()
            self._shard_file = None
        self.rebuild_index()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResultStore {self.root} cells={len(self._cache)} "
            f"hits={self.hits} puts={self.puts}>"
        )
