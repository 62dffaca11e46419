"""Object-lifetime demographics: birth stamps, death walks, survival.

Every allocation is stamped with the *bytes-allocated-so-far* clock (the
standard GC age measure: an object's age is how much allocation happened
during its lifetime, not wall time).  Stamps are kept per frame, so the
death walk is driven by the one seam every collector in this repository
already funnels reclamation through: ``space.release_frame``.  When a
frame is released at the end of a collection its stamped objects are
resolved by reading the frame's raw storage directly (``frame.words``,
never ``space.load`` — the walk must be counter-free):

* status word odd → the object was copied; the stamp follows the
  forwarding pointer to its new frame (age keeps accumulating);
* status word even → the object died; its age is folded into a log2
  age histogram and into the per-belt accounting of the open collection.

Objects still stamped when the run ends are *censored* — alive at exit,
lifetime unknown — and are reported separately rather than counted as
deaths (counting them would bias the survival curve down).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Forwarding-pointer convention shared by every collector here: an odd
#: status word holds ``new_addr | 1`` (see ``heap.cheney``).
_FORWARDED_BIT = 1


class CollectionTally:
    """Per-(label, increment) survivor/death accounting of one collection."""

    __slots__ = ("cells",)

    def __init__(self) -> None:
        #: (label, increment id) -> [survived_objs, survived_bytes,
        #:                           died_objs, died_bytes]
        self.cells: Dict[Tuple[str, int], List[int]] = {}

    def _cell(self, label: str, increment: int) -> List[int]:
        key = (label, increment)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = [0, 0, 0, 0]
        return cell

    def survived(self, label: str, increment: int, size_bytes: int) -> None:
        cell = self._cell(label, increment)
        cell[0] += 1
        cell[1] += size_bytes

    def died(self, label: str, increment: int, size_bytes: int) -> None:
        cell = self._cell(label, increment)
        cell[2] += 1
        cell[3] += size_bytes

    def rows(self, collection: int) -> List[dict]:
        """One flat dict per (label, increment) touched, sorted stably."""
        out = []
        for (label, inc), (so, sb, do, db) in sorted(self.cells.items()):
            denominator = sb + db
            out.append({
                "collection": collection,
                "label": label,
                "increment": inc,
                "survived_objects": so,
                "survived_bytes": sb,
                "died_objects": do,
                "died_bytes": db,
                "survivor_fraction": sb / denominator if denominator else 0.0,
            })
        return out


class LifetimeCensus:
    """Birth-stamped allocation accounting and the survival histogram."""

    def __init__(self, frame_shift: int):
        self._frame_shift = frame_shift
        #: frame index -> {addr: (birth_bytes, size_bytes)} for every
        #: stamped object currently living in that frame.
        self._by_frame: Dict[int, Dict[int, Tuple[int, int]]] = {}
        self.stamped_objects = 0
        self.stamped_bytes = 0
        self.died_objects = 0
        self.died_bytes = 0
        self.moved_objects = 0
        #: log2(age bytes) bucket -> [objects, bytes] for completed deaths.
        self._died_buckets: Dict[int, List[int]] = {}
        #: Same bucketing for censored (alive-at-exit) objects.
        self._alive_buckets: Dict[int, List[int]] = {}
        self.censored_objects = 0
        self.censored_bytes = 0

    # ------------------------------------------------------------------
    def birth(self, addr: int, birth_bytes: int, size_bytes: int) -> None:
        """Stamp a fresh allocation with the current allocation clock."""
        frame = addr >> self._frame_shift
        stamps = self._by_frame.get(frame)
        if stamps is None:
            stamps = self._by_frame[frame] = {}
        stamps[addr] = (birth_bytes, size_bytes)
        self.stamped_objects += 1
        self.stamped_bytes += size_bytes

    # ------------------------------------------------------------------
    def frame_released(
        self,
        frame,
        frame_base: int,
        now_bytes: int,
        tally: Optional[CollectionTally],
    ) -> None:
        """Resolve every stamped object of a frame about to be recycled.

        Must run *before* the space zeroes the frame: the walk reads the
        raw status words to distinguish forwarded survivors from deaths.
        ``frame_base`` is the frame's byte base address; ``now_bytes`` the
        current allocation clock; ``tally`` the open collection's
        accumulator (survivor fractions), or None outside a collection.
        """
        stamps = self._by_frame.pop(frame.index, None)
        if not stamps:
            return
        words = frame.words
        shift = self._frame_shift
        label = frame.space_name
        increment = getattr(frame.increment, "id", -1)
        by_frame = self._by_frame
        for addr, stamp in stamps.items():
            status = words[(addr - frame_base) >> 2]
            if status & _FORWARDED_BIT:
                new_addr = status & ~_FORWARDED_BIT
                dest = by_frame.get(new_addr >> shift)
                if dest is None:
                    dest = by_frame[new_addr >> shift] = {}
                dest[new_addr] = stamp
                self.moved_objects += 1
                if tally is not None:
                    tally.survived(label, increment, stamp[1])
            else:
                self._record_death(now_bytes - stamp[0], stamp[1])
                if tally is not None:
                    tally.died(label, increment, stamp[1])

    def _record_death(self, age_bytes: int, size_bytes: int) -> None:
        bucket = int(age_bytes).bit_length()
        cell = self._died_buckets.get(bucket)
        if cell is None:
            cell = self._died_buckets[bucket] = [0, 0]
        cell[0] += 1
        cell[1] += size_bytes
        self.died_objects += 1
        self.died_bytes += size_bytes

    # ------------------------------------------------------------------
    def finalise(self, end_bytes: int) -> None:
        """Classify everything still stamped as censored (alive at exit)."""
        for stamps in self._by_frame.values():
            for birth_bytes, size_bytes in stamps.values():
                bucket = int(end_bytes - birth_bytes).bit_length()
                cell = self._alive_buckets.get(bucket)
                if cell is None:
                    cell = self._alive_buckets[bucket] = [0, 0]
                cell[0] += 1
                cell[1] += size_bytes
                self.censored_objects += 1
                self.censored_bytes += size_bytes
        self._by_frame.clear()

    # ------------------------------------------------------------------
    def survival_curve(self) -> List[dict]:
        """Byte-weighted survival by age: one row per log2 age bucket.

        ``surviving_fraction`` at bucket ``b`` is the fraction of all
        *resolved* bytes (died + censored) not yet observed dead at ages
        below the bucket's upper edge; censored objects only ever raise
        it — they are known to have lived at least to their last age.
        """
        buckets = sorted(set(self._died_buckets) | set(self._alive_buckets))
        total = self.died_bytes + self.censored_bytes
        if not buckets or not total:
            return []
        rows = []
        dead_so_far = 0
        for bucket in buckets:
            died = self._died_buckets.get(bucket, (0, 0))
            alive = self._alive_buckets.get(bucket, (0, 0))
            dead_so_far += died[1]
            rows.append({
                "age_lo_bytes": 0 if bucket == 0 else 1 << (bucket - 1),
                "age_hi_bytes": (1 << bucket) - 1,
                "died_objects": died[0],
                "died_bytes": died[1],
                "censored_objects": alive[0],
                "censored_bytes": alive[1],
                "surviving_fraction": 1.0 - dead_so_far / total,
            })
        return rows

    def summary(self) -> dict:
        return {
            "stamped_objects": self.stamped_objects,
            "stamped_bytes": self.stamped_bytes,
            "died_objects": self.died_objects,
            "died_bytes": self.died_bytes,
            "moved_objects": self.moved_objects,
            "censored_objects": self.censored_objects,
            "censored_bytes": self.censored_bytes,
        }
