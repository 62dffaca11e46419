"""The dynamic conservative copy reserve (paper §3.3.4).

Every copying collector must keep enough memory free to accommodate the
worst-case survival of the next collection.  Classic semi-space and
generational collectors fix the reserve at half the heap; Beltway computes
a *dynamic conservative* reserve:

    reserve = max( largest increment size,
                   max over increments i of potential(i) )

    potential(i) = occupancy(i) + max occupancy of any other increment
                   from which the collector could copy into i

Copies land in the *youngest* increment of the target belt, so only that
increment accrues a potential term.  Increments on fixed-size belts cap
their potential at the increment size — overflow opens a fresh increment
whose own potential is bounded the same way.

The paper recomputes the reserve before every frame acquisition for the
mutator, so it "automatically falls back to a smaller size" after a big
collection, exactly as §3.3.4 describes for the X.X.100 third belt.
Between two structural changes (an increment opened, retired or flipped, a
collection) only the allocation increment's frame count moves, so the heap
keeps :func:`reserve_terms` — everything else frozen — and evaluates
:func:`reserve_at` in O(1) per acquisition; :func:`required_reserve_frames`
stays the from-scratch spec both must equal.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .belt import Belt, Increment

#: Extra frames reserved for packing slack: "the copy reserve must be
#: slightly more generous because the copied data may not pack as well as
#: the original data" (paper footnote 1).
SLACK_FRAMES = 1


def required_reserve_frames(
    belts: List[Belt],
    target_belt_index,
    alloc_increment: Optional[Increment],
) -> int:
    """Frames that must stay free to guarantee the next collections succeed.

    Parameters
    ----------
    belts:
        All belts, indexable by belt index.
    target_belt_index:
        ``f(belt_index) -> belt_index`` giving each belt's promotion target.
    alloc_increment:
        The increment the mutator is currently allocating into (its future
        growth to the belt's increment size is anticipated).
    """
    # Worst-case contribution of each increment as a *source* of copies.
    def source_frames(inc: Increment) -> int:
        if inc is alloc_increment and inc.max_frames is not None:
            # The allocation increment may fill up to its bound before it
            # is collected.
            return inc.max_frames
        return inc.num_frames

    largest_source = 0
    incoming_max: Dict[int, int] = {}  # largest single promoter, per belt
    incoming_sum: Dict[int, int] = {}  # cumulative promoters, per belt
    receivers: Dict[int, Optional[Increment]] = {}
    for belt in belts:
        receivers[belt.index] = belt.youngest()
    for belt in belts:
        tgt = target_belt_index(belt.index)
        receiver = receivers[tgt]
        for inc in belt.increments:
            frames = source_frames(inc)
            if frames == 0:
                continue
            largest_source = max(largest_source, frames)
            if inc is receiver:
                # An increment never copies into itself; its own collection
                # sends survivors to a fresh increment.
                continue
            incoming_max[tgt] = max(incoming_max.get(tgt, 0), frames)
            incoming_sum[tgt] = incoming_sum.get(tgt, 0) + frames

    reserve = largest_source
    for belt in belts:
        receiver = receivers[belt.index]
        occupied = receiver.num_frames if receiver is not None else 0
        if belt.increment_frames is not None:
            # Fixed-size belt: overflow spills into a new increment, so no
            # single increment's next collection exceeds the increment size
            # (this is X.X's small-reserve, high-utilisation advantage).
            potential = min(
                occupied + incoming_max.get(belt.index, 0), belt.increment_frames
            )
        else:
            # Growable belt (Appel's old generation, the X.X.100 third
            # belt): everything its promoters hold can accumulate in it
            # before it is next collected en masse, so the reserve must
            # cover the belt plus its whole inflow.  This is how "the copy
            # reserve grows until it is finally half of the heap" (§3.3.4)
            # and what guarantees the eventual full belt collection fits.
            potential = occupied + incoming_sum.get(belt.index, 0)
        reserve = max(reserve, potential)
    return reserve + SLACK_FRAMES if reserve else 0


def reserve_terms(belts: List[Belt], target_belt_index, alloc: Optional[Increment]):
    """:func:`required_reserve_frames` with every increment frozen but
    ``alloc``, whose frame count :func:`reserve_at` takes: (the largest
    frozen term, ``alloc``'s source size — None: its frame count — and per
    belt whose potential moves with that count, (receiver frames — None:
    ``alloc``'s —, incoming max, incoming sum, fed by ``alloc``, increment
    size))."""
    receivers = {belt.index: belt.youngest() for belt in belts}
    largest, incoming_max, incoming_sum = 0, {}, {}
    for belt in belts:
        tgt = target_belt_index(belt.index)
        for inc in belt.increments:
            frames = inc.num_frames
            if frames and inc is not alloc:
                largest = max(largest, frames)
                if inc is not receivers[tgt]:
                    incoming_max[tgt] = max(incoming_max.get(tgt, 0), frames)
                    incoming_sum[tgt] = incoming_sum.get(tgt, 0) + frames
    fed = None
    if alloc is not None:
        fed = target_belt_index(alloc.belt.index)
        fed = None if alloc is receivers[fed] else fed
    dependent = []
    for belt in belts:
        i, receiver = belt.index, receivers[belt.index]
        grows = receiver is not None and receiver is alloc
        term = (None if grows else receiver.num_frames if receiver else 0,
                incoming_max.get(i, 0), incoming_sum.get(i, 0), i == fed,
                belt.increment_frames)
        if grows or i == fed:
            dependent.append(term)
        else:
            largest = max(largest, _potential(term, 0, 0))
    return largest, alloc.max_frames if alloc else None, tuple(dependent)


def _potential(term: tuple, frames: int, source: int) -> int:
    occupied, inc_max, inc_sum, fed, cap = term
    occupied = frames if occupied is None else occupied
    if cap is not None:
        return min(occupied + (max(inc_max, source) if fed else inc_max), cap)
    return occupied + inc_sum + (source if fed else 0)


def reserve_at(terms, frames: int) -> int:
    """``required_reserve_frames`` with the allocation increment at
    ``frames`` frames, from its :func:`reserve_terms`."""
    largest, source, dependent = terms
    source = frames if source is None else source
    reserve = max(largest, source)
    for term in dependent:
        reserve = max(reserve, _potential(term, frames, source))
    return reserve + SLACK_FRAMES if reserve else 0
