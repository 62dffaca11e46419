"""The boot image: immortal objects mapped outside the collected heap.

Jikes RVM pre-compiles the VM into a boot image whose objects are never
moved or reclaimed.  Two aspects matter to the paper and are reproduced
here:

* **Type (TIB) objects.**  Every heap object's type slot points at a type
  object in the boot image.  Because the type object is (much) older than
  the heap object, the initialising store is exactly the barrier-heavy
  pattern §3.3.2 discusses.
* **Boot → heap pointers.**  Writes into boot-image objects that create
  pointers into the heap must be remembered.  Boot frames carry
  :data:`~repro.heap.frame.BOOT_ORDER`, so the ordinary Beltway barrier
  records these writes and no collector ever scans the boot image
  (unlike the paper's Appel baseline, which re-scans it — a difference the
  paper calls out in §4.2.1 and which our gctk baseline mirrors).
"""

from __future__ import annotations

from typing import List

from ..errors import HeapCorruption
from .address import WORD_BYTES
from .allocator import BumpRegion
from .frame import Frame
from .objectmodel import (
    HEADER_WORDS,
    ObjectModel,
    TypeDescriptor,
    TypeKind,
    TypeRegistry,
)
from .space import AddressSpace

#: The meta-type: the type of type objects.  Its own type slot points at
#: itself, closing the usual metaclass knot.
METATYPE_NAME = "<type>"


class BootImage:
    """Immortal bump-allocated space holding type objects and globals."""

    def __init__(self, space: AddressSpace, types: TypeRegistry, model: ObjectModel):
        self.space = space
        self.types = types
        self.model = model
        self._region = BumpRegion(space)
        self.frames: List[Frame] = []
        self._objects: List[int] = []
        self._metatype = types.define(METATYPE_NAME, nrefs=0, nscalars=1)
        self._install_type_object(self._metatype)

    # ------------------------------------------------------------------
    def _acquire(self) -> Frame:
        frame = self.space.acquire_frame("boot", boot=True)
        self.frames.append(frame)
        self._region.add_frame(frame)
        return frame

    def _alloc_raw(self, size_words: int) -> int:
        addr = self._region.alloc(size_words)
        if addr == 0:
            self._acquire()
            addr = self._region.alloc(size_words)
        if addr == 0:
            raise HeapCorruption("boot-image allocation failed after new frame")
        self._objects.append(addr)
        return addr

    def _install_type_object(self, desc: TypeDescriptor) -> int:
        """Allocate the boot-image object mirroring ``desc``."""
        addr = self._alloc_raw(self._metatype.size_words())
        self.model.init_header(addr, self._metatype)
        meta_addr = self._metatype.addr or addr  # self for the metatype
        # Boot-time raw store: the collector is not live yet and boot
        # objects are never collected, so no barrier is required here.
        self.space.store(addr + WORD_BYTES, meta_addr)
        # Install before touching scalar fields: decoding the metatype's own
        # scalar slots requires its address to already be in the registry.
        self.types.install(desc, addr)
        self.model.set_scalar(addr, 0, desc.type_id)
        return addr

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def define_type(self, name: str, nrefs: int = 0, nscalars: int = 0) -> TypeDescriptor:
        """Define a scalar type and install its boot-image type object."""
        desc = self.types.define(name, nrefs=nrefs, nscalars=nscalars)
        self._install_type_object(desc)
        return desc

    def define_ref_array(self, name: str) -> TypeDescriptor:
        desc = self.types.define_ref_array(name)
        self._install_type_object(desc)
        return desc

    def define_scalar_array(self, name: str) -> TypeDescriptor:
        desc = self.types.define_scalar_array(name)
        self._install_type_object(desc)
        return desc

    def alloc_ballast(self, ref_slots: int) -> int:
        """Populate the boot image with VM-code ballast objects.

        Jikes RVM's boot image is tens of megabytes of pre-compiled VM
        whose reference slots a boundary-barrier collector must rescan at
        every collection (§4.2.1).  The scaled reproduction models it as
        chained 8-ref objects totalling ``ref_slots`` reference slots;
        collectors that scan the boot image pay for every one of them,
        collectors with a boot-filtering barrier (Beltway) pay nothing.
        Returns the number of objects created.
        """
        if ref_slots <= 0:
            return 0
        name = "<boot-code>"
        if name not in {d.name for d in self.types}:
            desc = self.define_type(name, nrefs=8, nscalars=1)
        else:
            desc = self.types.by_name(name)
        created = 0
        previous = 0
        remaining = ref_slots
        while remaining > 0:
            addr = self._alloc_raw(desc.size_words())
            self.model.init_header(addr, desc)
            self.space.store(addr + WORD_BYTES, desc.addr)
            if previous:
                # boot->boot chain: scanned, never copied
                self.model.set_ref_raw(addr, 0, previous)
            previous = addr
            created += 1
            remaining -= desc.nrefs
        return created

    def iter_objects(self):
        """Every boot-image object, in allocation order.

        Collectors without boot-pointer remembering (the gctk baselines)
        scan all of these at every collection; the verifier treats them
        as roots."""
        return iter(self._objects)
