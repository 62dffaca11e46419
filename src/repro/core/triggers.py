"""Collection triggers (paper §3.3.3).

It is not always best to collect only when the heap is completely full.
Three triggers can preempt later performance problems:

* **Nursery trigger** — bound the nursery belt so young objects are
  collected frequently.  Expressed structurally: the nursery belt allows a
  single increment of bounded size (``max_increments=1`` in the config), so
  the heap collects as soon as that increment cannot grow.  This is the
  only trigger the paper's reported X.X / X.X.100 configurations use.
* **Remset trigger** — remset entries are collection roots, so survival
  rate and scanning cost climb with remset size; collect when total entries
  exceed a threshold.
* **Time-to-die trigger** — keep *two* nursery increments, and once the
  heap is within TTD bytes of full, direct allocation into the second so
  the objects allocated in the last TTD bytes are never part of the next
  collection (they are "too young to die").
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..heap.address import WORD_BYTES
from .config import BeltwayConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .beltway import BeltwayHeap


class Triggers:
    """Evaluates the configured triggers at each allocation poll."""

    def __init__(self, config: BeltwayConfig):
        self.config = config
        self.remset_threshold = config.remset_trigger_entries
        self.ttd_words = config.time_to_die_bytes // WORD_BYTES

    def poll(self, heap: "BeltwayHeap") -> Optional[str]:
        """A reason string if a trigger demands collection now, else None.

        Called when the mutator needs a new frame — the same granularity at
        which Jikes RVM polls for GC.
        """
        if self.remset_threshold and len(heap.remsets) >= self.remset_threshold:
            return "remset"
        return None

    def should_switch_nursery_increment(
        self, heap: "BeltwayHeap", ahead: int = 0
    ) -> bool:
        """Time-to-die: start the second nursery increment when the heap is
        within TTD bytes of full, so the youngest objects escape the next
        collection (``ahead``: once the allocation increment has grown
        that many frames more)."""
        if not self.ttd_words:
            return False
        nursery = heap.belts[heap.policy.allocation_belt_index(heap)]
        if nursery.num_increments != 1:
            return False
        free_words = (heap.space.heap_frames_free() - ahead) * heap.space.frame_words
        reserve_words = heap.current_reserve_frames(ahead) * heap.space.frame_words
        return free_words - reserve_words <= self.ttd_words
