"""Promotion and scheduling policies for the three Beltway styles.

A policy answers four questions the collector machinery needs:

* *priority order* — in what order would the belts' increments be collected
  (this drives the frame collection-order stamps);
* *promotion target* — which belt receives a belt's survivors;
* *what to collect now* — the FIFO-oldest increment of the lowest
  non-empty belt, possibly batched with the next belt's increment when the
  promotion would immediately force that belt's collection anyway (the
  paper's collect-together optimisation, §3.3.2);
* *post-collection bookkeeping* — the BOF belt flip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..errors import ConfigError
from .belt import Belt, Increment
from .config import BeltwayConfig, PromotionStyle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .beltway import BeltwayHeap


def make_policy(config: BeltwayConfig) -> "Policy":
    """Instantiate the policy implementing ``config.style``."""
    if config.mos_top_belt:
        from .mos import MOSPolicy

        return MOSPolicy(config)
    if config.style is PromotionStyle.GENERATIONAL:
        return GenerationalPolicy(config)
    if config.style is PromotionStyle.OLDER_FIRST_MIX:
        return OlderFirstMixPolicy(config)
    if config.style is PromotionStyle.OLDER_FIRST:
        return OlderFirstPolicy(config)
    raise ConfigError(f"unknown promotion style {config.style}")


class Policy:
    """Shared interface; see module docstring."""

    #: Whether the compiled substrate trace engine may run collections
    #: under this policy.  True means every copy routes by target belt
    #: alone (root/slot destination contexts are always None); policies
    #: that steer copies through contexts (MOS trains) set this False and
    #: always trace on the Python engine (DESIGN §9).
    kernel_traceable = True

    def __init__(self, config: BeltwayConfig):
        self.config = config

    # -- structure ------------------------------------------------------
    def priority_belts(self, heap: "BeltwayHeap") -> List[Belt]:
        """Belts ordered soonest-collected first, for stamping."""
        raise NotImplementedError

    def target_belt_index(self, belt_index: int) -> int:
        """The belt receiving survivors of ``belt_index``'s increments."""
        raise NotImplementedError

    def allocation_belt_index(self, heap: "BeltwayHeap") -> int:
        """The belt new objects are allocated into."""
        return 0

    @property
    def copies_into_allocation_increment(self) -> bool:
        """OFM mixes survivors into the allocation increment itself."""
        return False

    # -- scheduling ------------------------------------------------------
    def choose_collection(self, heap: "BeltwayHeap") -> List[Increment]:
        """The increments to collect together now ([] = nothing to do)."""
        raise NotImplementedError

    def after_collection(self, heap: "BeltwayHeap") -> None:
        """Post-collection bookkeeping (only BOF needs any)."""

    def pre_collection(self, heap: "BeltwayHeap", reason: str):
        """A chance to reclaim without copying (MOS whole-train
        reclamation).  Returns a CollectionResult or None."""
        return None

    def min_reserve_frames(self, heap: "BeltwayHeap", ahead: int = 0) -> int:
        """Extra copy-reserve floor a policy's batching requires (MOS
        service cycles collect the lower belts plus one car together);
        ``ahead``: once the allocation increment grew that many frames."""
        return 0

    # -- destination contexts (train-aware policies only) ----------------
    def manages_belt(self, belt_index: int) -> bool:
        """True if copies into ``belt_index`` are routed by this policy."""
        return False

    def root_dest_context(self, heap: "BeltwayHeap", from_frames):
        """Context for objects reached from mutator roots."""
        return None

    def slot_dest_context(self, heap: "BeltwayHeap", slot_addr: int, from_frames):
        """Context for objects reached from a remembered slot."""
        return None

    def external_dest_context(self, heap: "BeltwayHeap", from_frames):
        """Context for promotions arriving from lower belts."""
        raise NotImplementedError  # pragma: no cover - managed belts only

    def copy_alloc_in_context(
        self, heap: "BeltwayHeap", ctx, size_words: int, from_frames
    ) -> int:
        """Copy allocation inside a managed belt."""
        raise NotImplementedError  # pragma: no cover - managed belts only


class GenerationalPolicy(Policy):
    """BSS, Appel, fixed-nursery, Beltway X.X and X.X.100 (§3.1–3.2).

    Survivors of belt *b* promote to belt *b+1*; the top belt copies to a
    fresh increment at its own back.
    """

    def priority_belts(self, heap: "BeltwayHeap") -> List[Belt]:
        return list(heap.belts)

    def target_belt_index(self, belt_index: int) -> int:
        return min(belt_index + 1, self.config.top_belt)

    def choose_collection(self, heap: "BeltwayHeap") -> List[Increment]:
        for belt in heap.belts:
            inc = belt.oldest_collectible()
            if inc is None:
                continue
            batch = [inc]
            self._maybe_combine(heap, batch)
            return batch
        return []

    def _maybe_combine(self, heap: "BeltwayHeap", batch: List[Increment]) -> None:
        """Batch a growable receiver belt *in its entirety*, together with
        every increment below it, when promotion would leave the receiver
        uncollectible (its future reserve would no longer fit).

        For Appel this is exactly the classic full-heap major collection;
        for X.X.100 it is the paper's "collect [the third belt] in its
        entirety only once it has grown to consume all usable memory",
        batched with the lower belts so no staging leftovers waste the
        tight-heap margin (and so the remsets between them are ignored,
        §3.3.2).
        """
        while True:
            source = batch[-1]
            target_index = self.target_belt_index(source.belt.index)
            if target_index == source.belt.index:
                return  # top belt: survivors go to a fresh increment
            receiver_belt = heap.belts[target_index]
            if receiver_belt.increment_frames is not None:
                return  # fixed-size receivers overflow into new increments
            receiver = receiver_belt.oldest_collectible()
            if receiver is None or receiver in batch:
                return
            # Combine only when the receiver belt will have to be collected
            # immediately anyway: its occupancy (which is also the reserve
            # its own collection needs) leaves no room for a minimum
            # nursery.  For Appel this is the classic "mature space reached
            # half the heap" major trigger; firing any earlier would turn
            # every minor collection into a full-heap one.
            headroom = heap.space.heap_frames - 2 * receiver_belt.num_frames
            if headroom >= self.config.min_nursery_frames:
                return
            for belt in heap.belts[: target_index + 1]:
                for inc in belt.increments:
                    if not inc.is_empty and inc not in batch:
                        batch.append(inc)


class OlderFirstMixPolicy(Policy):
    """BOFM: one belt; survivors join new allocation at the belt's back."""

    def priority_belts(self, heap: "BeltwayHeap") -> List[Belt]:
        return list(heap.belts)

    def target_belt_index(self, belt_index: int) -> int:
        return 0

    @property
    def copies_into_allocation_increment(self) -> bool:
        return True

    def choose_collection(self, heap: "BeltwayHeap") -> List[Increment]:
        inc = heap.belts[0].oldest_collectible()
        return [inc] if inc is not None else []


class OlderFirstPolicy(Policy):
    """BOF: allocation belt A and copy belt C, flipped when A empties.

    ``heap.of_alloc_belt`` tracks which physical belt currently plays A.
    """

    def priority_belts(self, heap: "BeltwayHeap") -> List[Belt]:
        a = heap.of_alloc_belt
        return [heap.belts[a], heap.belts[1 - a]]

    def target_belt_index(self, belt_index: int) -> int:
        # Survivors always go to the copy belt; the copy belt itself is
        # never collected until it becomes the allocation belt.
        return 1 - self._alloc_index

    def allocation_belt_index(self, heap: "BeltwayHeap") -> int:
        return heap.of_alloc_belt

    def __init__(self, config: BeltwayConfig):
        super().__init__(config)
        self._alloc_index = 0

    def choose_collection(self, heap: "BeltwayHeap") -> List[Increment]:
        belt_a = heap.belts[heap.of_alloc_belt]
        inc = belt_a.oldest_collectible()
        if inc is not None:
            return [inc]
        # A is empty: flip, then collect the first increment of the new A.
        self._flip(heap)
        belt_a = heap.belts[heap.of_alloc_belt]
        inc = belt_a.oldest_collectible()
        return [inc] if inc is not None else []

    def _flip(self, heap: "BeltwayHeap") -> None:
        heap.of_alloc_belt = 1 - heap.of_alloc_belt
        self._alloc_index = heap.of_alloc_belt
        heap.note_flip()

    def after_collection(self, heap: "BeltwayHeap") -> None:
        self._alloc_index = heap.of_alloc_belt
