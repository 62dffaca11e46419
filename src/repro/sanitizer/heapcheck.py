"""Heap verifier and raw heap access for the sanitizer.

It carries two readers over the same frame-walk logic:

* :class:`HeapVerifier` — the historical debug verifier.  It goes through
  the *counted* :class:`~repro.heap.objectmodel.ObjectModel` accessors, so
  a verifying run charges loads exactly as it always has (``--verify``
  runs and golden counters depend on that accounting staying put).
* :class:`RawHeapReader` — the sanitizer's accessor.  It reads frame
  storage directly and never touches ``load_count`` / ``store_count`` or
  the address-space frame cache, so the differential checker can walk the
  whole heap at every ``gc.end`` while the checked run's statistics stay
  bit-identical to an unchecked run (the reads-never-acts rule of
  DESIGN.md §10, extended to the sanitizer in §11).

Both share :func:`frame_bounds_error` so the "object overruns its frame's
used prefix" check cannot drift between the two paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from ..errors import HeapCorruption
from ..heap.address import WORD_BYTES
from ..heap.frame import BOOT_ORDER, UNASSIGNED_ORDER, Frame
from ..heap.objectmodel import (
    FORWARDED_BIT,
    HEADER_WORDS,
    ObjectModel,
    TypeDescriptor,
)
from ..heap.space import AddressSpace


def frame_bounds_error(
    space: AddressSpace, frame: Frame, addr: int, size_words: int
) -> Optional[str]:
    """Shared used-prefix bounds check; ``None`` when the object fits."""
    offset_words = (addr - space.frame_base(frame)) // WORD_BYTES
    if offset_words + size_words > frame.used_words:
        return (
            f"object {addr:#x} ({size_words} words) overruns frame "
            f"{frame.index} used prefix ({frame.used_words} words)"
        )
    return None


@dataclass
class VerifyReport:
    """Summary of a successful verification pass."""

    objects: int
    words: int
    ref_slots: int

    @property
    def live_bytes(self) -> int:
        return self.words * WORD_BYTES


class HeapVerifier:
    """Breadth-first verification of everything reachable from the roots."""

    def __init__(self, space: AddressSpace, model: ObjectModel):
        self.space = space
        self.model = model

    def check_object(self, addr: int) -> int:
        """Validate a single object header; returns its size in words."""
        if addr % WORD_BYTES:
            raise HeapCorruption(f"object address {addr:#x} misaligned")
        if not self.space.is_mapped(addr):
            raise HeapCorruption(f"object address {addr:#x} unmapped")
        frame = self.space.frame_containing(addr)
        if frame.collect_order == UNASSIGNED_ORDER:
            raise HeapCorruption(
                f"object {addr:#x} lives in unstamped frame {frame.index}"
            )
        status = self.model.status(addr)
        if status & FORWARDED_BIT:
            raise HeapCorruption(
                f"object {addr:#x} is forwarded outside a collection"
            )
        size = self.model.size_words(addr)  # raises if the type is bogus
        error = frame_bounds_error(self.space, frame, addr, size)
        if error:
            raise HeapCorruption(error)
        return size

    def verify(self, roots: Iterable[int]) -> VerifyReport:
        """Walk the heap from ``roots``; raises :class:`HeapCorruption` on
        the first violated invariant, otherwise reports live totals."""
        visited: Set[int] = set()
        queue = []
        ref_slots = 0
        for root in roots:
            if root and root not in visited:
                visited.add(root)
                queue.append(root)
        words = 0
        model = self.model
        while queue:
            obj = queue.pop()
            words += self.check_object(obj)
            _, type_value, _, ref_values = model.scan_ref_slots(obj)
            ref_slots += 1 + len(ref_values)
            if type_value and type_value not in visited:
                visited.add(type_value)
                queue.append(type_value)
            for target in ref_values:
                if target == 0:
                    continue
                if target not in visited:
                    visited.add(target)
                    queue.append(target)
        return VerifyReport(objects=len(visited), words=words, ref_slots=ref_slots)


# ----------------------------------------------------------------------
# Counter-free access (sanitizer side)
# ----------------------------------------------------------------------
@dataclass
class ObjectView:
    """A decoded object, read without charging a single simulated load."""

    addr: int
    frame_index: int
    status: int
    type_addr: int
    desc: TypeDescriptor
    length: int
    refs: Tuple[int, ...]
    scalars: Tuple[int, ...]

    @property
    def forwarded(self) -> bool:
        return bool(self.status & FORWARDED_BIT)

    @property
    def size_words(self) -> int:
        return HEADER_WORDS + len(self.refs) + len(self.scalars)


class RawHeapReader:
    """Counter-free heap reads for the differential checker.

    Everything here goes straight to ``Frame.words`` storage: no
    ``load_count`` charge, no frame-cache fill, no RNG draw — a reader
    that cannot perturb the run it is checking.
    """

    def __init__(self, space: AddressSpace, model: ObjectModel):
        self.space = space
        self.model = model
        self._by_addr = model.types._by_addr

    # -- frames --------------------------------------------------------
    def frame_index(self, addr: int) -> int:
        return addr >> self.space.frame_shift

    def frame_of(self, addr: int) -> Optional[Frame]:
        index = addr >> self.space.frame_shift
        frames = self.space._frames
        if 0 <= index < len(frames):
            return frames[index]
        return None

    def order_of(self, addr: int) -> int:
        frame = self.frame_of(addr)
        return UNASSIGNED_ORDER if frame is None else frame.collect_order

    def is_boot(self, addr: int) -> bool:
        return self.order_of(addr) == BOOT_ORDER

    # -- words / objects ----------------------------------------------
    def word(self, addr: int) -> int:
        frame = self.frame_of(addr)
        if frame is None:
            raise HeapCorruption(f"raw read from unmapped address {addr:#x}")
        return frame.words[(addr >> 2) & self.space._word_mask]

    def check_object(self, addr: int) -> Optional[str]:
        """:meth:`HeapVerifier.check_object`'s counter-free twin; returns
        an error string instead of raising (``None`` = well formed)."""
        if addr % WORD_BYTES:
            return f"object address {addr:#x} misaligned"
        frame = self.frame_of(addr)
        if frame is None:
            return f"object address {addr:#x} unmapped"
        if frame.collect_order == UNASSIGNED_ORDER:
            return f"object {addr:#x} lives in unstamped frame {frame.index}"
        base = (addr >> 2) & self.space._word_mask
        words = frame.words
        status = words[base]
        if status & FORWARDED_BIT:
            return f"object {addr:#x} is forwarded outside a collection"
        desc = self._by_addr.get(words[base + 1])
        if desc is None:
            return (
                f"object {addr:#x} has bogus type word "
                f"{words[base + 1]:#x}"
            )
        size = desc.size_words(words[base + 2])
        return frame_bounds_error(self.space, frame, addr, size)

    def view(self, addr: int) -> ObjectView:
        """Decode the whole object; raises :class:`HeapCorruption` when the
        header is malformed (callers usually :meth:`check_object` first)."""
        frame = self.frame_of(addr)
        if frame is None:
            raise HeapCorruption(f"object address {addr:#x} unmapped")
        base = (addr >> 2) & self.space._word_mask
        words = frame.words
        type_addr = words[base + 1]
        desc = self._by_addr.get(type_addr)
        if desc is None:
            raise HeapCorruption(
                f"object {addr:#x} has bogus type word {type_addr:#x}"
            )
        length = words[base + 2]
        code = desc.ref_code
        nrefs = length if code < 0 else code
        code = desc.scalar_code
        nscalars = length if code < 0 else code
        first = base + HEADER_WORDS
        return ObjectView(
            addr=addr,
            frame_index=frame.index,
            status=words[base],
            type_addr=type_addr,
            desc=desc,
            length=length,
            refs=tuple(words[first:first + nrefs]),
            scalars=tuple(words[first + nrefs:first + nrefs + nscalars]),
        )

    def walk(self, roots: Iterable[int]) -> Tuple[List[int], Optional[str]]:
        """Reachable mutator-heap objects from ``roots`` (boot objects and
        type edges are not followed), in deterministic visit order.

        Returns ``(addresses, error)``; a structural error aborts the walk
        at the offending object.
        """
        visited: Set[int] = set()
        order: List[int] = []
        queue: List[int] = []
        for root in roots:
            if root and root not in visited:
                visited.add(root)
                queue.append(root)
        while queue:
            obj = queue.pop()
            error = self.check_object(obj)
            if error:
                return order, error
            order.append(obj)
            for target in self.view(obj).refs:
                if target and target not in visited and not self.is_boot(target):
                    visited.add(target)
                    queue.append(target)
        return order, None
