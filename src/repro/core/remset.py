"""Per-frame-pair remembered sets (paper §3.3.2).

Beltway keeps a *distinct* remembered set for every (source frame, target
frame) pair.  This buys two cheap operations the paper relies on:

* when a frame is collected or released, every remset into or out of it can
  be deleted wholesale;
* when two increments are collected together, the remsets between them are
  simply ignored (never consulted) rather than filtered entry by entry.

Entries are *slot addresses* (the address of the field the pointer was
stored into).  At collection time each slot is re-read, so stale entries —
the field was later overwritten — cost one load and are dropped.

Layout
------
One level: each pair owns an insertion-ordered dict-as-set of slots, and
``insert`` deduplicates eagerly (the sets stay tiny — a drain meets one
or two entries on every measured workload, DESIGN §9 — so there is
nothing for a staging buffer to amortise).  Every statistic is a plain
O(1) read.

* ``slots_into`` consults a target-frame → pair-keys index, so drain cost
  scales with the number of *matching* pairs, not all pairs
  (``pairs_scanned`` counts the examined candidates for the regression
  test); a source-frame index gives ``drop_frames`` the same property.
  It returns a list: the collector inserts while it consumes the drain,
  and an insert must never meet a live iterator over a pair's dict.

Counter-equivalence invariant: every externally visible statistic —
``inserts``, ``duplicate_inserts``, ``total_entries``/``len()``, the
values returned by ``slots_into`` *and their order*, and ``drop_frames``
return values — is pinned by the golden-counter suite and must be
bit-identical across substrate tiers (DESIGN §13).  Drain order is
*canonically first-insertion order at both levels*: pairs drain in
pair-creation order (``_seq`` reproduces dict insertion order, including
re-insertion after a drop moving a key to the back), and within a pair
slots drain in the order they were first inserted (an insertion-ordered
dict-as-set, never a hash-ordered ``set``).  First-insertion order is the
one ordering every tier — a Python loop or a C kernel replay — can
reproduce exactly; CPython set iteration order is not.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

#: Pair keys are ``(src << _KEY_SHIFT) | tgt`` — frame indices are table
#: offsets and stay far below 2**32 even for multi-GB simulated heaps.
_KEY_SHIFT = 32
_KEY_MASK = (1 << _KEY_SHIFT) - 1


class RememberedSets:
    """All remsets of one collector, keyed by (src_frame, tgt_frame)."""

    def __init__(self) -> None:
        #: Entries per pair, in pair-creation order.  Each value is a
        #: dict-as-set: keys are slot addresses in first-insertion order
        #: (the canonical cross-tier drain order).
        self._entries: Dict[int, Dict[int, None]] = {}
        #: Pair-creation stamps: reproduces dict insertion order for drains.
        self._seq: Dict[int, int] = {}
        self._next_seq = 0
        #: tgt frame -> pair keys, src frame -> pair keys.
        self._by_target: Dict[int, Set[int]] = {}
        self._by_source: Dict[int, Set[int]] = {}
        #: Monotonic counters for the statistics runs (§4.1).
        self.inserts = 0
        self.duplicate_inserts = 0
        #: Distinct (pair, slot) entries currently held; also ``len()``.
        self.total_entries = 0
        #: Candidate pairs examined by ``slots_into`` (regression metric:
        #: must scale with matching pairs, not total pairs).
        self.pairs_scanned = 0

    # ------------------------------------------------------------------
    # Mutator slow path
    # ------------------------------------------------------------------
    def insert(self, src_frame: int, tgt_frame: int, slot_addr: int) -> None:
        """Remember that ``slot_addr`` (in src) points into tgt."""
        self.inserts += 1
        key = (src_frame << _KEY_SHIFT) | tgt_frame
        entries = self._entries.get(key)
        if entries is None:
            entries = self._new_pair(src_frame, tgt_frame, key)
        if slot_addr in entries:
            self.duplicate_inserts += 1
        else:
            entries[slot_addr] = None
            self.total_entries += 1

    def _new_pair(self, src_frame: int, tgt_frame: int, key: int) -> Dict[int, None]:
        entries = self._entries[key] = {}
        self._seq[key] = self._next_seq
        self._next_seq += 1
        self._by_target.setdefault(tgt_frame, set()).add(key)
        self._by_source.setdefault(src_frame, set()).add(key)
        return entries

    # ------------------------------------------------------------------
    # Collector interface
    # ------------------------------------------------------------------
    def slots_into(
        self, target_frames: Set[int], exclude_sources: Set[int]
    ) -> List[int]:
        """All remembered slots pointing into ``target_frames`` whose source
        frame is *not* in ``exclude_sources``.

        ``exclude_sources`` is normally the collected frame set itself: slots
        inside from-space objects are dead (their objects are copied and the
        copies re-scanned), and remsets *between* increments collected
        together are ignored per the paper's optimisation.

        Only pairs targeting ``target_frames`` are examined (via the
        target-frame index); they drain in pair-creation order, and each
        pair's slots in first-insertion order.
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
        slots: List[int] = []
        for key in matched:
            slots.extend(self._entries[key])
        return slots

    def drop_frames(self, frames: Set[int]) -> int:
        """Delete every remset whose source or target frame is in ``frames``.

        Returns the number of entries dropped.
        """
        doomed: Set[int] = set()
        for frame in frames:
            doomed.update(self._by_source.get(frame, ()))
            doomed.update(self._by_target.get(frame, ()))
        dropped = 0
        for key in doomed:
            dropped += len(self._entries[key])
            self._remove_pair(key)
        self.total_entries -= dropped
        return dropped

    def _remove_pair(self, key: int) -> None:
        src = key >> _KEY_SHIFT
        tgt = key & _KEY_MASK
        del self._entries[key]
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
    def counters(self) -> Dict[str, float]:
        """Prometheus-style export for the telemetry layer."""
        return {
            "remset_inserts_total": float(self.inserts),
            "remset_duplicates_total": float(self.duplicate_inserts),
            "remset_entries": float(self.total_entries),
            "remset_pairs": float(len(self._entries)),
            "remset_pairs_scanned_total": float(self.pairs_scanned),
        }

    def pairs(self) -> Iterable[Tuple[int, int]]:
        """All (src, tgt) pairs, in creation order (dict-order parity)."""
        return [
            (key >> _KEY_SHIFT, key & _KEY_MASK) for key in self._entries
        ]

    def entries_for_pair(self, src_frame: int, tgt_frame: int) -> Set[int]:
        return set(self._entries.get((src_frame << _KEY_SHIFT) | tgt_frame, ()))

    def __len__(self) -> int:
        return self.total_entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RememberedSets pairs={len(self._entries)} "
            f"entries={self.total_entries}>"
        )
