"""GC-safe handles: the only way mutator code may hold object references.

A collection moves objects and rewrites every root slot; any raw address a
benchmark kept in a Python variable across an allocation would silently
dangle.  A :class:`Handle` is an index into a registered root array, so
the collector's root scan updates it in place — the moral equivalent of
the JNI local-reference discipline Jikes RVM's own Java code follows.

The table's storage is two ``array('q')`` buffers, so the compiled replay
kernel (:mod:`repro.kernels.cik`, DESIGN §13) acquires and releases slots
in the very words this class does: nothing is copied when execution moves
between the two.
"""

from __future__ import annotations

from array import array

from ..errors import HeapCorruption


class Handle:
    """A rooted reference; ``addr`` is always current, even across GCs."""

    __slots__ = ("_table", "_index")

    def __init__(self, table: "RootTable", index: int):
        self._table = table
        self._index = index

    @property
    def addr(self) -> int:
        slots = self._table.slots
        if self._index < 0:
            raise HeapCorruption("use of a dropped handle")
        return slots[self._index]

    @addr.setter
    def addr(self, value: int) -> None:
        if self._index < 0:
            raise HeapCorruption("write through a dropped handle")
        self._table.slots[self._index] = value

    @property
    def is_null(self) -> bool:
        return self.addr == 0

    def drop(self) -> None:
        """Release the root slot; the handle becomes unusable."""
        self._table.release(self._index)
        self._index = -1

    def __bool__(self) -> bool:
        return not self.is_null

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._index < 0:
            return "<Handle dropped>"
        return f"<Handle #{self._index} -> {self.addr:#x}>"


class RootTable:
    """A growable root array with slot reuse, registered with the plan."""

    def __init__(self) -> None:
        #: One word per slot ever handed out; only ``acquire`` appends.
        self.slots = array("q")
        #: The released slots, a LIFO stack: ``_free[:_nfree]`` is live.
        #: It is kept as long as ``slots`` (all a well-formed program can
        #: ever release), so a push never has to grow it.
        self._free = array("q")
        self._nfree = 0

    def acquire(self, addr: int = 0) -> Handle:
        n = self._nfree
        if n:
            self._nfree = n = n - 1
            index = self._free[n]
            self.slots[index] = addr
        else:
            index = len(self.slots)
            self.slots.append(addr)
            self._free.append(0)
        return Handle(self, index)

    def release(self, index: int) -> None:
        if index < 0 or index >= len(self.slots):
            raise HeapCorruption(f"releasing bogus root slot {index}")
        self.slots[index] = 0
        n = self._nfree
        if n < len(self._free):
            self._free[n] = index
        else:  # a slot released twice: keep the old (list) behaviour
            self._free.append(index)
        self._nfree = n + 1

    @property
    def live_slots(self) -> int:
        return len(self.slots) - self._nfree
