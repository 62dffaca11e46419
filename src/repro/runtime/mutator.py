"""MutatorContext: the handle-based API benchmark programs are written in.

All object references a program holds live in a registered root table
(see :mod:`repro.runtime.roots`); every reference store goes through the
plan's write barrier; every operation is charged to the VM's cost model.
This is the discipline that makes the synthetic SPEC workloads real
mutators from the collector's point of view.
"""

from __future__ import annotations

from typing import Optional

from ..errors import HeapCorruption
from ..heap.objectmodel import TypeDescriptor
from .roots import Handle, RootTable
from .vm import VM


class MutatorContext:
    """A single mutator thread bound to a VM."""

    def __init__(self, vm: VM):
        self.vm = vm
        self.table = RootTable()
        vm.plan.register_roots(self.table.slots)
        if vm.mutator_observer is not None:
            # Sanitizer hook: lets the shadow graph mirror this table's
            # acquire/release before the bound-method caches below freeze
            # the unobserved paths in.
            vm.mutator_observer.observe_mutator(self)
        # Bound-method caches for the store/read inner loops: every
        # benchmark operation funnels through these, so shave the
        # per-call attribute walks off the mutator fast paths.
        self._acquire = self.table.acquire
        self._vm_write_ref = vm.write_ref
        self._vm_read_ref = vm.read_ref
        self._vm_write_int = vm.write_int
        self._vm_read_int = vm.read_int
        #: Counted reads (the tape's ``OP_READ_HIT``) that found a reference.
        self.read_hits = 0

    # ------------------------------------------------------------------
    # Handles
    # ------------------------------------------------------------------
    def handle(self, addr: int = 0) -> Handle:
        """A fresh rooted handle (NULL unless ``addr`` given)."""
        return self.table.acquire(addr)

    def copy_handle(self, source: Handle) -> Handle:
        return self.table.acquire(source.addr)

    @property
    def live_roots(self) -> int:
        return self.table.live_slots

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, desc: TypeDescriptor, length: int = 0) -> Handle:
        """Allocate an object and return a rooted handle to it."""
        return self._acquire(self.vm.alloc(desc, length))

    def alloc_named(self, type_name: str, length: int = 0) -> Handle:
        return self.alloc(self.vm.types.by_name(type_name), length)

    # ------------------------------------------------------------------
    # Field access (reference fields / array elements share indices)
    # ------------------------------------------------------------------
    def write(self, dst: Handle, index: int, src: Optional[Handle]) -> None:
        """``dst.field[index] = src`` through the write barrier."""
        addr = dst.addr
        if addr == 0:
            raise HeapCorruption("reference store through a null handle")
        self._vm_write_ref(addr, index, src.addr if src is not None else 0)

    def read(self, src: Handle, index: int) -> Handle:
        """``handle(src.field[index])`` — the result is rooted."""
        addr = src.addr
        if addr == 0:
            raise HeapCorruption("reference load through a null handle")
        return self._acquire(self._vm_read_ref(addr, index))

    def read_addr(self, src: Handle, index: int) -> int:
        """Unrooted read: valid only until the next allocation."""
        addr = src.addr
        if addr == 0:
            raise HeapCorruption("reference load through a null handle")
        return self._vm_read_ref(addr, index)

    def write_int(self, dst: Handle, index: int, value: int) -> None:
        self._vm_write_int(dst.addr, index, value)

    def read_int(self, src: Handle, index: int) -> int:
        return self._vm_read_int(src.addr, index)

    def length_of(self, h: Handle) -> int:
        return self.vm.model.length_of(h.addr)

    # ------------------------------------------------------------------
    def work(self, units: float) -> None:
        """Charge benchmark computation to the clock."""
        self.vm.work(units)
