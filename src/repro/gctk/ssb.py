"""The classic address-order boundary barrier and its store buffer.

The paper's tuned generational baseline uses "a very fast address-order
write barrier" [Blackburn & McKinley, ISMM'02]: the nursery sits on one
side of a boundary and every store that creates an old→young pointer is
appended to a sequential store buffer (SSB).  Two behavioural differences
from the Beltway frame barrier matter to the evaluation and are modelled
faithfully:

* the SSB does not deduplicate — repeated stores of the same slot are
  re-processed at the next collection;
* boot-image writes are *not* caught, so the collector must rescan the
  boot image at every collection (§4.2.1) — charged via
  ``boot_slots_scanned``.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..core.barrier import CompiledBarrier
from ..heap.space import AddressSpace


class SequentialStoreBuffer:
    """Slot addresses of recorded old→young stores (duplicates kept)."""

    def __init__(self) -> None:
        self.slots: List[int] = []
        self.inserts = 0
        self.duplicate_inserts = 0  # interface parity; SSBs never dedup

    def append(self, slot_addr: int) -> None:
        self.slots.append(slot_addr)
        self.inserts += 1

    def clear(self) -> None:
        self.slots.clear()

    def __len__(self) -> int:
        return len(self.slots)

    def counters(self) -> Dict[str, float]:
        """Prometheus-style export, key-compatible with
        :meth:`repro.core.remset.RememberedSets.counters` (an SSB has no
        per-pair structure, so the pair metrics are 0)."""
        return {
            "remset_inserts_total": float(self.inserts),
            "remset_duplicates_total": float(self.duplicate_inserts),
            "remset_entries": float(len(self.slots)),
            "remset_pairs": 0.0,
            "remset_pairs_scanned_total": 0.0,
        }


class BoundaryBarrier(CompiledBarrier):
    """Remember stores whose target is in the nursery and source is not."""

    #: The boundary rule, filling the one hole of the compiled store-path
    #: templates in :mod:`repro.core.barrier`: nursery membership instead
    #: of the order compare, an append to the non-deduplicating SSB instead
    #: of a remset insert.
    record_rule = """\
nursery = _barrier.nursery_frames
if (value >> __SHIFT__) in nursery and s not in nursery:
    _stats.slow_path += 1
    _append(__SLOT__)
"""

    def __init__(self, space: AddressSpace, ssb: SequentialStoreBuffer):
        super().__init__(space)
        self.ssb = ssb
        #: Frame indices currently forming the nursery ("high memory").
        self.nursery_frames: Set[int] = set()

    def record_names(self) -> Dict[str, object]:
        return {"_barrier": self, "_append": self.ssb.append}

    def write_ref(self, source_obj: int, slot_addr: int, target: int) -> None:
        space = self.space
        shift = space.frame_shift
        self.stats.fast_path += 1
        if target == 0:
            self.stats.null_stores += 1
            space.store(slot_addr, target)
            return
        if (target >> shift) in self.nursery_frames and (
            (source_obj >> shift) not in self.nursery_frames
        ):
            self.stats.slow_path += 1
            self.ssb.append(slot_addr)
        space.store(slot_addr, target)
