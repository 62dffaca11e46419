"""Standalone collector invariants, checked at collection boundaries.

These checks need no shadow graph — they hold between the real heap and
the collector's own bookkeeping, so they run even where the differential
walk has nothing to say:

* **remset completeness** (before a collection): every reference from a
  later-collected frame into a sooner-collected frame is covered by a
  remembered-set entry.  For Beltway plans the order relation is the
  flat ``orders`` stamp table (boot frames carry an infinite order, so
  boot→heap edges must be remembered too); for the GCTk baselines it is
  nursery membership, with boot sources exempt because the boot image is
  rescanned wholesale.
* **forwarding coherence**: nothing reachable carries a forwarding
  status or points into an unmapped/unstamped frame (the walk shared
  with the differential checker enforces this per object).
* **belt/increment FIFO ordering** (Beltway): along each belt the
  increment stamps strictly increase front to back, and every frame of
  an increment agrees with its increment's stamp in both the ``Frame``
  header and the flat ``orders`` table the compiled barrier reads.
* **copy-reserve accounting** (Beltway): the reserve the plan *claims*
  equals an independent recomputation from scratch — the spec
  ``required_reserve_frames`` plus the policy floor, never the plan's
  incremental terms — so neither an instance-level lie (exactly what the
  reserve fault plants) nor a stale cache can hide.

All heap access goes through the counter-free
:class:`~repro.sanitizer.heapcheck.RawHeapReader`; remset reads use the
read-only accessors (``pairs`` / ``entries_for_pair``).
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.reserve import required_reserve_frames
from ..heap.address import WORD_BYTES
from ..heap.objectmodel import HEADER_WORDS
from .heapcheck import RawHeapReader
from .report import Violation


def _is_beltway(plan) -> bool:
    return hasattr(plan, "belts")


def check_remset_completeness(
    plan, reader: RawHeapReader, collection: int = -1
) -> Tuple[List[Violation], int]:
    """Walk the live heap and demand a remset entry for every edge the
    next collection would otherwise miss.  Returns ``(violations,
    edges_checked)``."""
    violations: List[Violation] = []
    order, walk_error = reader.walk(plan.roots())
    if walk_error:
        violations.append(Violation(
            check="forwarding", message=walk_error, collection=collection,
        ))
        return violations, 0
    shift = reader.space.frame_shift
    edges = 0
    if _is_beltway(plan):
        orders = plan.space.orders
        remsets = plan.remsets
        entry_sets = {}
        for addr in order:
            source_frame = addr >> shift
            for index, target in enumerate(reader.view(addr).refs):
                if not target:
                    continue
                target_frame = target >> shift
                if target_frame == source_frame:
                    continue
                if orders[target_frame] >= orders[source_frame]:
                    continue
                edges += 1
                key = (source_frame, target_frame)
                entries = entry_sets.get(key)
                if entries is None:
                    entries = set(
                        remsets.entries_for_pair(source_frame, target_frame)
                    )
                    entry_sets[key] = entries
                slot = addr + (index + HEADER_WORDS) * WORD_BYTES
                if slot not in entries:
                    violations.append(Violation(
                        check="remset-completeness",
                        message=(
                            f"edge {addr:#x}[{index}] -> {target:#x} "
                            f"(frame {source_frame} order "
                            f"{orders[source_frame]} -> frame "
                            f"{target_frame} order {orders[target_frame]}) "
                            f"has no remset entry for slot {slot:#x}"
                        ),
                        addr=slot,
                        frame=source_frame,
                        collection=collection,
                    ))
    else:
        nursery = plan.barrier.nursery_frames
        remembered = set(plan.ssb.slots)
        for addr in order:
            source_frame = addr >> shift
            if source_frame in nursery:
                continue
            if reader.is_boot(addr):
                continue  # the boot image is rescanned wholesale
            for index, target in enumerate(reader.view(addr).refs):
                if not target or (target >> shift) not in nursery:
                    continue
                edges += 1
                slot = addr + (index + HEADER_WORDS) * WORD_BYTES
                if slot not in remembered:
                    violations.append(Violation(
                        check="remset-completeness",
                        message=(
                            f"old->young edge {addr:#x}[{index}] -> "
                            f"{target:#x} has no SSB entry for slot "
                            f"{slot:#x}"
                        ),
                        addr=slot,
                        frame=source_frame,
                        collection=collection,
                    ))
    return violations, edges


def check_structure(plan, collection: int = -1) -> List[Violation]:
    """Belt/increment FIFO ordering and stamp coherence (Beltway only)."""
    if not _is_beltway(plan):
        return []
    violations: List[Violation] = []
    orders = plan.space.orders
    for belt in plan.belts:
        previous = 0
        for position, inc in enumerate(belt.increments):
            label = f"increment {belt.index}.{position}"
            if inc.stamp <= previous:
                violations.append(Violation(
                    check="belt-fifo",
                    message=(
                        f"belt {belt.index}: {label} stamp "
                        f"{inc.stamp} does not increase over the "
                        f"increment in front of it ({previous})"
                    ),
                    collection=collection,
                ))
            previous = inc.stamp
            for frame in inc.region.frames:
                if frame.collect_order != inc.stamp:
                    violations.append(Violation(
                        check="order-stamp",
                        message=(
                            f"frame {frame.index} carries order "
                            f"{frame.collect_order} but its "
                            f"{label} is stamped {inc.stamp}"
                        ),
                        frame=frame.index,
                        collection=collection,
                    ))
                if orders[frame.index] != inc.stamp:
                    violations.append(Violation(
                        check="order-stamp",
                        message=(
                            f"orders[{frame.index}] = "
                            f"{orders[frame.index]} disagrees with "
                            f"{label} stamp {inc.stamp} — the "
                            f"compiled barrier is reading a stale order"
                        ),
                        frame=frame.index,
                        collection=collection,
                    ))
    return violations


def check_reserve(plan, collection: int = -1) -> List[Violation]:
    """Copy-reserve accounting: the plan's claimed reserve must equal an
    honest from-scratch recomputation (Beltway only)."""
    if not _is_beltway(plan):
        return []
    claimed = plan.current_reserve_frames()
    if plan.config.fixed_half_reserve:
        honest = plan.space.heap_frames // 2
    else:
        honest = max(
            required_reserve_frames(plan.belts, plan.policy.target_belt_index,
                                    plan.allocation_increment),
            plan.policy.min_reserve_frames(plan),
        )
    if claimed == honest:
        return []
    return [Violation(
        check="copy-reserve",
        message=(
            f"plan claims a copy reserve of {claimed} frame(s) but the "
            f"policy arithmetic requires {honest}"
        ),
        collection=collection,
    )]
