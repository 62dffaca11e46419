"""Collection-order stamping of frames (paper §3.3.1).

Every frame carries a number giving its *relative collection order*; the
write barrier compares these numbers to decide whether a pointer must be
remembered.  The invariant maintained here:

    frame X is stamped lower than frame Y  ⇒  X's increment will be
    collected no later than Y's.

Stamps are recomputed from scratch whenever the increment structure changes
(an increment opens, closes or is collected; BOF flips its belts).  This is
O(#frames), and is sound because the *relative* order of two surviving
increments never changes under any Beltway policy: belts keep their
priority, increments leave only from the front of a belt and join only at
the back.  The one exception — the BOF flip — happens only when belt A is
empty, so no pointer out of A can have been skipped under the old order.

Frames of the same increment share a stamp, so intra-increment pointers are
never recorded even when the increment spans frames (§3.3.1).
"""

from __future__ import annotations

from typing import Iterable

from ..heap.space import AddressSpace
from .belt import Belt


def restamp(space: AddressSpace, belts_in_priority: Iterable[Belt]) -> int:
    """Stamp every increment of every belt in predicted collection order.

    ``belts_in_priority`` must be ordered soonest-collected first (for
    generational policies: nursery upward; for BOF: belt A then belt C).
    Returns the number of increments stamped.
    """
    space.order_epoch += 1
    stamp = 1
    for belt in belts_in_priority:
        for inc in belt.increments:  # deque order: oldest (front) first
            inc.stamp = stamp
            for frame in inc.region.frames:
                space.set_order(frame, stamp)
            stamp += 1
    return stamp - 1
