"""Per-frame-pair remembered sets (paper §3.3.2), SSB-backed.

Beltway keeps a *distinct* remembered set for every (source frame, target
frame) pair.  This buys two cheap operations the paper relies on:

* when a frame is collected or released, every remset into or out of it can
  be deleted wholesale;
* when two increments are collected together, the remsets between them are
  simply ignored (never consulted) rather than filtered entry by entry.

Entries are *slot addresses* (the address of the field the pointer was
stored into).  At collection time each slot is re-read, so stale entries —
the field was later overwritten — cost one load and are dropped.

Layout (the collection-critical fast paths, ISSUE 2)
----------------------------------------------------
The paper's GCTk stores each per-pair remset as a *sequential store
buffer*: the barrier's slow path is a bounded append, and all set
semantics (dedup) are the collector's problem.  This module mirrors that
split:

* ``insert`` appends the slot to a per-pair ``array('q')`` buffer — one
  dict probe and one C append, nothing else;
* dedup happens at *drain* time (``_sync``): pending buffers are merged
  into per-pair Python sets, counting ``duplicate_inserts`` exactly as
  insert-time dedup would (duplicate counts are order-independent, so the
  cumulative counters are bit-identical to the eager implementation);
* ``slots_into`` consults a target-frame → pair-keys index, so drain cost
  scales with the number of *matching* pairs, not all pairs
  (``pairs_scanned`` counts the examined candidates for the regression
  test); a source-frame index gives ``drop_frames`` the same property.

Counter-equivalence invariant: every externally visible statistic —
``inserts``, ``duplicate_inserts``, ``total_entries``/``len()``, the
values yielded by ``slots_into`` *and their order*, and ``drop_frames``
return values — is pinned by the golden-counter suite and must be
bit-identical across substrate tiers (DESIGN §13).  Drain order is
*canonically first-insertion order at both levels*: pairs drain in
pair-creation order (``_seq`` reproduces dict insertion order, including
re-insertion after a drop moving a key to the back), and within a pair
slots drain in the order they were first inserted (``_synced`` holds an
insertion-ordered dict-as-set, never a hash-ordered ``set``).  First-
insertion order is the one ordering every tier — a Python loop or a C
kernel replay — can reproduce exactly; CPython set iteration order is not.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Set, Tuple

#: Pair keys are ``(src << _KEY_SHIFT) | tgt`` — frame indices are table
#: offsets and stay far below 2**32 even for multi-GB simulated heaps.
_KEY_SHIFT = 32
_KEY_MASK = (1 << _KEY_SHIFT) - 1


class RememberedSets:
    """All remsets of one collector, keyed by (src_frame, tgt_frame)."""

    def __init__(self) -> None:
        #: Drained (deduplicated) entries per pair, in pair-creation order.
        #: Each value is a dict-as-set: keys are slot addresses in
        #: first-insertion order (the canonical cross-tier drain order).
        self._synced: Dict[int, Dict[int, None]] = {}
        #: Pending SSB tails per pair (appended by ``insert``).
        self._pending: Dict[int, array] = {}
        #: Pair-creation stamps: reproduces dict insertion order for drains.
        self._seq: Dict[int, int] = {}
        self._next_seq = 0
        #: tgt frame -> pair keys, src frame -> pair keys.
        self._by_target: Dict[int, Set[int]] = {}
        self._by_source: Dict[int, Set[int]] = {}
        self._total_entries = 0
        self._duplicate_inserts = 0
        #: Monotonic counters for the statistics runs (§4.1).
        self.inserts = 0
        #: Candidate pairs examined by ``slots_into`` (regression metric:
        #: must scale with matching pairs, not total pairs).
        self.pairs_scanned = 0

    # ------------------------------------------------------------------
    # Mutator fast path
    # ------------------------------------------------------------------
    def insert(self, src_frame: int, tgt_frame: int, slot_addr: int) -> None:
        """Remember that ``slot_addr`` (in src) points into tgt.

        This is the barrier's slow path: a bounded append into the pair's
        sequential store buffer.  No dedup happens here.
        """
        self.inserts += 1
        key = (src_frame << _KEY_SHIFT) | tgt_frame
        buf = self._pending.get(key)
        if buf is None:
            buf = self._new_pair(src_frame, tgt_frame, key)
        buf.append(slot_addr)

    def _new_pair(self, src_frame: int, tgt_frame: int, key: int) -> array:
        buf = array("q")
        self._pending[key] = buf
        self._synced[key] = {}
        self._seq[key] = self._next_seq
        self._next_seq += 1
        self._by_target.setdefault(tgt_frame, set()).add(key)
        self._by_source.setdefault(src_frame, set()).add(key)
        return buf

    # ------------------------------------------------------------------
    # Drain-time dedup
    # ------------------------------------------------------------------
    def _sync(self, key: int) -> Dict[int, None]:
        """Merge the pair's pending buffer into its deduplicated dict-set.

        The returned mapping's keys iterate in first-insertion order —
        the canonical drain order every substrate tier reproduces.
        """
        entries = self._synced[key]
        buf = self._pending[key]
        if buf:
            before = len(entries)
            for slot in buf:
                entries[slot] = None
            fresh = len(entries) - before
            self._duplicate_inserts += len(buf) - fresh
            self._total_entries += fresh
            del buf[:]
        return entries

    def _sync_all(self) -> None:
        for key, buf in self._pending.items():
            if buf:
                self._sync(key)

    # ------------------------------------------------------------------
    # Collector interface
    # ------------------------------------------------------------------
    def slots_into(
        self, target_frames: Set[int], exclude_sources: Set[int]
    ) -> Iterator[int]:
        """All remembered slots pointing into ``target_frames`` whose source
        frame is *not* in ``exclude_sources``.

        ``exclude_sources`` is normally the collected frame set itself: slots
        inside from-space objects are dead (their objects are copied and the
        copies re-scanned), and remsets *between* increments collected
        together are ignored per the paper's optimisation.

        Only pairs targeting ``target_frames`` are examined (via the
        target-frame index); they drain in pair-creation order, matching
        the eager implementation's dict-iteration order exactly.
        """
        by_target = self._by_target
        matched: List[int] = []
        for tgt in target_frames:
            keys = by_target.get(tgt)
            if not keys:
                continue
            self.pairs_scanned += len(keys)
            matched.extend(
                key for key in keys
                if (key >> _KEY_SHIFT) not in exclude_sources
            )
        matched.sort(key=self._seq.__getitem__)
        for key in matched:
            yield from self._sync(key)

    def drop_frames(self, frames: Set[int]) -> int:
        """Delete every remset whose source or target frame is in ``frames``.

        Returns the number of (deduplicated) entries dropped.  Pending
        buffers of doomed pairs are drained first so ``duplicate_inserts``
        accounting matches the eager implementation.
        """
        doomed: Set[int] = set()
        for frame in frames:
            doomed.update(self._by_source.get(frame, ()))
            doomed.update(self._by_target.get(frame, ()))
        dropped = 0
        for key in doomed:
            dropped += len(self._sync(key))
            self._remove_pair(key)
        self._total_entries -= dropped
        return dropped

    def _remove_pair(self, key: int) -> None:
        src = key >> _KEY_SHIFT
        tgt = key & _KEY_MASK
        del self._synced[key]
        del self._pending[key]
        del self._seq[key]
        keys = self._by_source[src]
        keys.discard(key)
        if not keys:
            del self._by_source[src]
        keys = self._by_target[tgt]
        keys.discard(key)
        if not keys:
            del self._by_target[tgt]

    # ------------------------------------------------------------------
    # Introspection (statistics runs, MOS train reclamation, tests)
    # ------------------------------------------------------------------
    @property
    def duplicate_inserts(self) -> int:
        self._sync_all()
        return self._duplicate_inserts

    @property
    def total_entries(self) -> int:
        self._sync_all()
        return self._total_entries

    def counters(self) -> Dict[str, float]:
        """Prometheus-style export for the telemetry layer.

        Reading ``total_entries`` drains pending SSB buffers; that is
        counter-safe (dedup totals are order-independent, see the module
        docstring), so telemetry may snapshot at any point.
        """
        return {
            "remset_inserts_total": float(self.inserts),
            "remset_duplicates_total": float(self.duplicate_inserts),
            "remset_entries": float(self.total_entries),
            "remset_pairs": float(len(self._synced)),
            "remset_pairs_scanned_total": float(self.pairs_scanned),
        }

    def pairs(self) -> Iterable[Tuple[int, int]]:
        """All (src, tgt) pairs, in creation order (dict-order parity)."""
        return [
            (key >> _KEY_SHIFT, key & _KEY_MASK) for key in self._synced
        ]

    def entries_for_pair(self, src_frame: int, tgt_frame: int) -> Set[int]:
        key = (src_frame << _KEY_SHIFT) | tgt_frame
        if key not in self._synced:
            return set()
        return set(self._sync(key))

    def __len__(self) -> int:
        return self.total_entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RememberedSets pairs={len(self._synced)} "
            f"entries={self.total_entries}>"
        )
