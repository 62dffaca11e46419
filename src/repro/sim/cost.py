"""Deterministic cost model: abstract time from counted work.

The paper reports wall-clock seconds on a 733 MHz PowerMac G4.  We cannot
(and need not) model that machine: every claim in the evaluation is about
*relative* time — curves normalised to the best configuration in each
figure, crossover heap sizes, robustness across heap sizes.  Those are
functions of the work each collector performs, which this reproduction
counts exactly: words allocated and copied, reference slots scanned, write
barrier fast/slow paths, root and remset processing, and per-collection
fixed overhead.

The unit is the abstract *cycle*; :data:`CYCLES_PER_SECOND` converts to
pseudo-seconds only for presentation.  Constants are calibrated to the
relative magnitudes measured for Jikes RVM-era copying collectors (e.g.
Hosking, Moss & Stefanović's barrier measurements; copying an object costs
roughly an order of magnitude more per word than allocating one): barrier
fast paths are a few cycles, remset inserts several times that, copying
dominates collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: The components one pause decomposes into, in charge order: the keys of
#: :meth:`CostModel.collection_components`, the columns of the profiler's
#: cost attribution and the phase spans a trace tiles a pause with.
COLLECTION_COMPONENTS = ("setup", "copy", "scan", "roots", "remset", "free", "boot")


@dataclass(frozen=True)
class CostModel:
    """Cycle costs for every counted operation."""

    # --- mutator ------------------------------------------------------
    alloc_object: float = 6.0  # size check, bump, header init
    alloc_word: float = 1.0  # zeroing and cache traffic per word
    barrier_fast: float = 3.0  # shift, compare (paper Fig. 4 fast path)
    barrier_slow: float = 24.0  # remset hash + insert
    field_read: float = 1.0
    field_write: float = 1.0  # the store itself, barrier charged separately
    work_unit: float = 300.0  # benchmark-declared computation: one "work
    # unit" is a few hundred cycles of application code, calibrated so the
    # SPEC-like workloads spend ~35-45% of time in GC at their minimum
    # heaps and ~10-15% at 3x (paper Fig. 1a)

    # --- collector ----------------------------------------------------
    gc_setup: float = 8_000.0  # stop-the-world handshake, flip, unlog
    copy_word: float = 10.0  # load+store+allocation in copy space
    copy_object: float = 20.0  # forwarding-pointer install, size decode
    scan_slot: float = 6.0  # load, from-space test per reference slot
    root_slot: float = 8.0  # stack/global map decoding per root
    remset_slot: float = 12.0  # remset iteration, re-read, re-insert test
    free_frame: float = 50.0  # unmapping and pool bookkeeping
    boot_scan_slot: float = 6.0  # per boot-image slot, for collectors that
    #                              rescan the boot image (the Appel baseline)

    def mutator_alloc_cost(self, size_words: int) -> float:
        return self.alloc_object + self.alloc_word * size_words

    def collection_cost(
        self,
        copied_objects: int,
        copied_words: int,
        scanned_ref_slots: int,
        root_slots: int,
        remset_slots: int,
        freed_frames: int,
        boot_slots_scanned: int = 0,
    ) -> float:
        """Pause cost of one collection, from its work counters."""
        return (
            self.gc_setup
            + self.copy_object * copied_objects
            + self.copy_word * copied_words
            + self.scan_slot * scanned_ref_slots
            + self.root_slot * root_slots
            + self.remset_slot * remset_slots
            + self.free_frame * freed_frames
            + self.boot_scan_slot * boot_slots_scanned
        )

    def collection_components(
        self,
        copied_objects: int = 0,
        copied_words: int = 0,
        scanned_ref_slots: int = 0,
        root_slots: int = 0,
        remset_slots: int = 0,
        freed_frames: int = 0,
        boot_slots_scanned: int = 0,
        **_other,
    ) -> Dict[str, float]:
        """:meth:`collection_cost` term by term, keyed by
        :data:`COLLECTION_COMPONENTS`; the values sum to it.  Takes the
        work counters by name so an enriched ``gc.end`` payload can be
        splatted in (its other fields are ignored, absent counters are
        zero)."""
        return {
            "setup": float(self.gc_setup),
            "copy": float(
                self.copy_object * copied_objects + self.copy_word * copied_words
            ),
            "scan": float(self.scan_slot * scanned_ref_slots),
            "roots": float(self.root_slot * root_slots),
            "remset": float(self.remset_slot * remset_slots),
            "free": float(self.free_frame * freed_frames),
            "boot": float(self.boot_scan_slot * boot_slots_scanned),
        }


#: Conversion used only for presentation (pseudo-seconds in the tables).
CYCLES_PER_SECOND = 733e6 / 16.0  # a "733 MHz" machine at 16 cycles/op headroom


def cycles_to_seconds(cycles: float) -> float:
    return cycles / CYCLES_PER_SECOND


DEFAULT_COST_MODEL = CostModel()
