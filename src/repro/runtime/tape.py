"""Mutator tapes: a program's heap operations recorded once, replayed often.

What a benchmark program does to its :class:`~.mutator.MutatorContext` —
allocate, take and drop roots, store and load fields, compute — does not
depend on which collector sits underneath, so a figure that holds the
program constant across dozens of collector × heap cells need decide it
only once.  :class:`TapeRecorder` stands in for the context while the
program runs and writes the operations down; :func:`replay` drives a real
context from what was written, through the same VM entry points in the
same order.  This module is the only one that knows the encoding.

A tape is a sequence of *chunks*, each an ``array('i')`` of fixed-width
records ``(op, a, b, c)`` — 16 bytes an operation — plus two small side
tables the records index into (type names, work-unit floats).  Handles
are recorded as root-slot indices: the recorder simulates
:class:`~.roots.RootTable`'s LIFO free list, so slot *k* on the tape is
slot *k* of the replaying context's table, and root-scan order (hence
copy order, addresses and the load/store counters) is reproduced exactly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from struct import Struct
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.barrier import FrameBarrier
from ..errors import ConfigError, HeapCorruption
from ..gctk.ssb import BoundaryBarrier
from ..heap.objectmodel import TypeDescriptor
from ..kernels.cik import BAIL_REASONS  # importable without cffi
from .mutator import MutatorContext

# Record layouts, (op, a, b, c); unused fields are 0.
OP_ALLOC = 0  # (type, length, -)       acquire(vm.alloc(desc, length))
OP_ALLOC_INT = 1  # (type, value, -)    ...then write_int(new, 0, value)
OP_WORK = 2  # (work-unit index, -, -)
OP_DROP = 3  # (slot, -, -)
OP_COUNT_READ = 4  # (slot, index, -)   ref_count_of, then read_ref
OP_COUNT = 5  # (slot, -, -)            ref_count_of: two charged loads
OP_WRITE_REF = 6  # (dst slot, index, src slot | -1 for null)
OP_WRITE_INT = 7  # (slot, index, value)
OP_READ_REF = 8  # (slot, index, -)     read_ref, result discarded
OP_READ_ROOTED = 9  # (slot, index, -)  acquire(read_ref(...))
OP_ACQUIRE = 10  # (src slot, -, -)    acquire(slots[src]): copy_handle
OP_READ_HIT = 11  # (slot, index, -)    read_ref; mu.read_hits += 1 if non-null
OP_MARK = 12  # (kind, a, b)            on_mark(kind, a, b): never run in C

_RECORD = Struct("4i")
_INT_MIN, _INT_MAX = -(1 << 31), (1 << 31) - 1


class RecordedHandle:
    """A :class:`~.roots.Handle` stand-in: a root slot, not an address.

    ``refs`` (the object's reference-slot count, from type and length) and
    ``is_null`` are plain attributes known at record time; they are left
    unset on a handle produced by a rooted *read*, whose referent only a
    replay knows — asking for them raises ``AttributeError``.
    """

    __slots__ = ("_recorder", "slot", "refs", "is_null")

    def __init__(self, recorder: "TapeRecorder", slot: int):
        self._recorder = recorder
        self.slot = slot

    def drop(self) -> None:
        """Release the root slot; the handle becomes unusable."""
        recorder = self._recorder
        slot = self.slot
        if slot < 0:
            raise HeapCorruption("drop of a dropped handle")
        recorder._free.append(slot)
        recorder.ops.extend((OP_DROP, slot, 0, 0))
        self.slot = -1


class TapeRecorder:
    """Quacks like :class:`~.mutator.MutatorContext`; records, touches no heap.

    It offers the context's ``alloc``, ``copy_handle``, ``write``,
    ``write_int`` and ``work``, and its loads (``read``, ``read_addr``) *for
    their cost only*: heap contents do not exist at record time, so
    nothing can be read back — which is also what keeps a recorded program
    collector-independent.  ``ref_count`` and the two fused operations are
    the recorder's own additions for the benchmark engine.
    """

    def __init__(self):
        #: The chunk being written: flat ints, four per record.
        self.ops: List[int] = []
        self.type_names: List[str] = []
        self.work_units: List[float] = []
        self._type_index = {}
        self._work_index = {}
        #: Objects allocated so far.
        self.allocs = 0
        # RootTable's slot discipline, simulated.
        self._slots = 0
        self._free: List[int] = []

    def take_chunk(self) -> array:
        """The records written since the last call, as one tape chunk."""
        chunk = array("i", self.ops)
        del self.ops[:]
        return chunk

    # ------------------------------------------------------------------
    def type_index(self, desc: TypeDescriptor) -> int:
        """``desc``'s index in this tape's type table (interned by name)."""
        index = self._type_index.get(desc.name)
        if index is None:
            index = self._type_index[desc.name] = len(self.type_names)
            self.type_names.append(desc.name)
        return index

    def _take_slot(self) -> int:
        free = self._free
        if free:
            return free.pop()
        slot = self._slots
        self._slots = slot + 1
        return slot

    def _allocated(self, refs: int) -> RecordedHandle:
        self.allocs += 1
        handle = RecordedHandle(self, self._take_slot())
        handle.refs = refs
        handle.is_null = False
        return handle

    # ------------------------------------------------------------------
    # The MutatorContext surface
    # ------------------------------------------------------------------
    def copy_handle(self, source: RecordedHandle) -> RecordedHandle:
        self.ops.extend((OP_ACQUIRE, source.slot, 0, 0))
        copy = RecordedHandle(self, self._take_slot())
        if hasattr(source, "refs"):
            copy.refs = source.refs
            copy.is_null = source.is_null
        return copy

    def alloc(self, desc: TypeDescriptor, length: int = 0) -> RecordedHandle:
        self.ops.extend((OP_ALLOC, self.type_index(desc), length, 0))
        code = desc.ref_code
        return self._allocated(length if code < 0 else code)

    def write(self, dst, index: int, src) -> None:
        self.ops.extend(
            (OP_WRITE_REF, dst.slot, index, src.slot if src is not None else -1)
        )

    def read(self, src, index: int) -> RecordedHandle:
        self.ops.extend((OP_READ_ROOTED, src.slot, index, 0))
        return RecordedHandle(self, self._take_slot())

    def read_addr(self, src, index: int) -> None:
        self.ops.extend((OP_READ_REF, src.slot, index, 0))

    def read_hit(self, src, index: int) -> None:
        """``read_addr``, non-null results tallied in ``mu.read_hits``: the
        one thing a recorded program learns from the heap, as a count."""
        self.ops.extend((OP_READ_HIT, src.slot, index, 0))

    def write_int(self, dst, index: int, value: int) -> None:
        if not _INT_MIN <= value <= _INT_MAX:
            raise ConfigError(
                f"a recorded write_int value must fit 32 bits, got {value}"
            )
        self.ops.extend((OP_WRITE_INT, dst.slot, index, value))

    def work(self, units: float) -> None:
        index = self._work_index.get(units)
        if index is None:
            index = self._work_index[units] = len(self.work_units)
            self.work_units.append(units)
        self.ops.extend((OP_WORK, index, 0, 0))

    # ------------------------------------------------------------------
    # Engine extensions
    # ------------------------------------------------------------------
    def ref_count(self, h) -> int:
        """The object's reference-slot count, charged as the header decode
        the real lookup performs."""
        self.ops.extend((OP_COUNT, h.slot, 0, 0))
        return h.refs

    def count_and_read(self, h, index: int) -> None:
        """``ref_count(h)`` then ``read_addr(h, index)`` as one record."""
        self.ops.extend((OP_COUNT_READ, h.slot, index, 0))

    def mark(self, kind: int, a: int = 0, b: int = 0) -> None:
        """Hand the replaying engine control (``on_mark``): the clock's place."""
        self.ops.extend((OP_MARK, kind, a, b))

    def alloc_int(self, type_index: int, refs: int, value: int):
        """``alloc`` of a fixed-shape type then ``write_int(new, 0, value)``
        as one record; the caller holds the type's ``type_index`` and
        ``refs`` and has masked ``value`` to 31 bits."""
        self.ops.extend((OP_ALLOC_INT, type_index, value, 0))
        return self._allocated(refs)


#: The record rules ``k_replay`` mirrors, by their source text (so a
#: barrier with any other rule is never handed to it) -> its rule code.
_KERNEL_RULES = {FrameBarrier.record_rule: 0, BoundaryBarrier.record_rule: 1}


@dataclass
class ReplayPath:
    """Which code replayed a tape: host-side tier reality (counts, not
    timings), never part of ``RunStats``."""

    #: ``"cffi"`` if any chunk went through the compiled kernel.
    path: str = "python"
    #: Why Python, if Python: ``"tier"`` (no compiled kernel), ``"plan"``
    #: (no single mutator region, or an unknown record rule) or
    #: ``"attached"`` (something wraps the VM and must see every call).
    why: Optional[str] = None
    records: int = 0
    #: Records executed in C; the rest ran on the Python path, ``bails``
    #: of them one at a time because the kernel handed them back.
    in_c: int = 0
    bails: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(BAIL_REASONS, 0)
    )
    #: ``OP_MARK`` records run, on either path: scheduled hand-backs to
    #: the engine, not fast-path misses, so never part of ``bails``.
    marks: int = 0

    @property
    def bail_ratio(self) -> float:
        return sum(self.bails.values()) / self.records if self.records else 0.0

    def add(self, other: "ReplayPath") -> None:
        """Fold another replay's counts into this one (a campaign's row)."""
        if other.path == "cffi":
            self.path = "cffi"
        self.why = self.why or other.why
        self.records += other.records
        self.in_c += other.in_c
        self.marks += other.marks
        for reason, n in other.bails.items():
            self.bails[reason] += n

    def summary_row(self) -> str:
        marks = f", {self.marks} marks" if self.marks else ""
        if self.path == "python":
            return f"tape replay: python ({self.why}), {self.records} records{marks}"
        bails = ", ".join(f"{k} {v}" for k, v in self.bails.items())
        return (
            f"tape replay: cffi, {self.in_c} of {self.records} records in C, "
            f"bail ratio {self.bail_ratio:.4f} ({bails}){marks}"
        )


def replay(
    mu: MutatorContext,
    chunks: Iterable[array],
    type_names: Sequence[str],
    work_units: Sequence[float],
    path: Optional[ReplayPath] = None,
    on_mark: Optional[Callable[[int, int, int], None]] = None,
) -> ReplayPath:
    """Drive ``mu`` through ``chunks`` in order; ``path`` (returned) is
    filled in with which code did it, also when an error ends the tape.
    ``on_mark`` answers the tape's ``OP_MARK`` records, on every path.

    ``chunks`` may be a generator still recording ahead of the replay, so
    the side tables are read as each chunk arrives (they only grow).

    There is one body of per-record code, below, and two ways a chunk
    reaches it.  With anything attached (``vm.seam.active``, a
    ``mutator_observer``), below the cffi tier, or on a plan the kernel
    does not know, every record runs through it: the VM entry points are
    looked up the way ``MutatorContext`` reaches them — ``vm.alloc`` at
    run time, the stores and loads through the context's bound-method
    caches, ``table.release`` on the instance — so sanitizer, profiler
    and telemetry wrappers see every operation.  Otherwise the chunk goes
    to the compiled kernel (``cik.Replayer``) and the body runs only the
    records that kernel hands back, each of which would leave the fast
    path (DESIGN §13, the bail-out rule).  The choice is made per chunk.
    Errors (``OutOfMemory`` above all) propagate from mid-tape.
    """
    vm = mu.vm
    path = path or ReplayPath()
    kernel = None
    rule = _KERNEL_RULES.get(vm.plan.barrier.record_rule)
    if vm.kernels.cik is None:
        path.why = "tier"
    elif rule is None or not hasattr(vm.plan, "mutator_region"):
        path.why = "plan"
    else:
        kernel = vm.kernels.replayer(vm, mu, rule, path)
    by_name = vm.types.by_name
    ref_count_of = vm.model.compile_ref_count()
    vm_alloc = vm.alloc
    vm_work = vm.work
    acquire = mu._acquire
    release = mu.table.release
    slots = mu.table.slots
    write_ref = mu._vm_write_ref
    write_int = mu._vm_write_int
    read_ref = mu._vm_read_ref
    unpack = _RECORD.iter_unpack
    descs: List[TypeDescriptor] = []
    for chunk in chunks:
        descs.extend(by_name(name) for name in type_names[len(descs):])
        path.records += len(chunk) >> 2
        if kernel is None:
            records = unpack(chunk)
        elif vm.seam.active or vm.mutator_observer is not None:
            path.why = "attached"
            records = unpack(chunk)
        else:
            path.path = "cffi"
            records = kernel.bailed(chunk, descs, work_units)
        for op, a, b, c in records:
            if op == OP_ALLOC_INT:
                addr = vm_alloc(descs[a], 0)
                acquire(addr)
                write_int(addr, 0, b)
            elif op == OP_WORK:
                vm_work(work_units[a])
            elif op == OP_DROP:
                release(a)
            elif op == OP_COUNT_READ:
                addr = slots[a]
                ref_count_of(addr)
                read_ref(addr, b)
            elif op == OP_ALLOC:
                acquire(vm_alloc(descs[a], b))
            elif op == OP_WRITE_REF:
                addr = slots[a]
                if addr == 0:
                    raise HeapCorruption("reference store through a null handle")
                write_ref(addr, b, slots[c] if c >= 0 else 0)
            elif op == OP_COUNT:
                ref_count_of(slots[a])
            elif op == OP_WRITE_INT:
                write_int(slots[a], b, c)
            elif op == OP_READ_REF or op == OP_READ_ROOTED:
                addr = slots[a]
                if addr == 0:
                    raise HeapCorruption("reference load through a null handle")
                addr = read_ref(addr, b)
                if op == OP_READ_ROOTED:
                    acquire(addr)
            elif op == OP_ACQUIRE:
                acquire(slots[a])
            elif op == OP_MARK:
                path.marks += 1
                on_mark(a, b, c)
            elif op == OP_READ_HIT:
                addr = slots[a]
                if addr == 0:
                    raise HeapCorruption("reference load through a null handle")
                if read_ref(addr, b):
                    mu.read_hits += 1
            else:
                raise HeapCorruption(f"unknown tape op {op}")
    return path


class Tape:
    """A recording: chunks, side tables, and the program's bookkeeping —
    final (what ``SyntheticMutator`` reports after a run), or, where a tape
    grows on demand, the live ``RequestProgram`` itself (the side tables
    are then its recorder's own, still-growing lists)."""

    __slots__ = ("chunks", "type_names", "work_units", "summary", "nbytes")

    def __init__(self, chunks, type_names, work_units, summary):
        self.chunks: List[array] = []
        self.type_names: Sequence[str] = type_names
        self.work_units: Sequence[float] = work_units
        self.summary = summary
        self.nbytes = 0
        for chunk in chunks:
            self.append(chunk)

    def append(self, chunk: array) -> None:
        self.chunks.append(chunk)
        self.nbytes += len(chunk) * chunk.itemsize


class TapeCache:
    """Most-recent-first tapes under a byte budget.

    Keys are compared with ``==`` (a linear scan: the cache holds a handful
    of entries), so unhashable keys work and two equal specs built apart
    share a tape.  A tape larger than the whole budget is never admitted.
    """

    def __init__(self, budget_bytes: int):
        self.budget_bytes = budget_bytes
        self._entries: List[Tuple[object, Tape]] = []
        #: What this process has replayed, summed (``harness.runner.run``
        #: adds each cell's path): the CLI's campaign ``tape replay:`` row.
        self.replayed = ReplayPath()

    @property
    def nbytes(self) -> int:
        return sum(tape.nbytes for _key, tape in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        del self._entries[:]

    def fetch(self, key, take: bool = False) -> Optional[Tape]:
        """The tape cached under ``key``, now the most recent — or, with
        ``take``, checked out: a tape that will grow is out of the cache
        until its user ``admit``s it again, so the budget follows it."""
        entries = self._entries
        for i, (have, tape) in enumerate(entries):
            if have == key:
                entry = entries.pop(i)
                if not take:
                    entries.insert(0, entry)
                return tape
        return None

    def retaining(self, chunks: Iterable[array], kept: List[array]):
        """Pass ``chunks`` through, collecting them in ``kept`` — until
        they outgrow the budget, when ``kept`` is emptied and stays empty:
        a tape too big to cache is streamed, never materialised."""
        size = 0
        for chunk in chunks:
            if size <= self.budget_bytes:
                size += len(chunk) * chunk.itemsize
                if size > self.budget_bytes:
                    kept.clear()
                else:
                    kept.append(chunk)
            yield chunk

    def admit(self, key, tape: Tape) -> None:
        """Cache ``tape`` under ``key`` (which the cache now owns: pass a
        private copy of anything mutable), evicting from the cold end."""
        if tape.nbytes > self.budget_bytes:
            return
        entries = self._entries
        entries.insert(0, (key, tape))
        total = self.nbytes
        while total > self.budget_bytes:
            total -= entries.pop()[1].nbytes
