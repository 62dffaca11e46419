"""Object model: headers, type descriptors, field access.

The layout mirrors a simplified Jikes RVM object:

====  =======================================================
word  contents
====  =======================================================
0     status word: 0 normally; ``forwarding_address | 1`` once
      the object has been copied during a collection
1     type reference — a *real* reference slot pointing at the
      type's boot-image object.  Its initialising store goes
      through the write barrier, reproducing the TIB-pointer
      barrier traffic the paper discusses in §3.3.2.
2     array length (0 for non-arrays)
3..   reference slots (``nrefs`` of them, or ``length`` for a
      reference array)
..    scalar words (``nscalars``, or ``length`` for a scalar
      array)
====  =======================================================

Object addresses point at word 0.  Objects never span frames.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import HeapCorruption, InvalidAddress
from .address import WORD_BYTES
from .space import AddressSpace

#: Header word offsets (in words).
STATUS_WORD = 0
TYPE_WORD = 1
LENGTH_WORD = 2
HEADER_WORDS = 3

#: Low bit of the status word marks a forwarded object.
FORWARDED_BIT = 1


class TypeKind(enum.Enum):
    """The three object shapes the model supports."""

    SCALAR = "scalar"  # fixed number of ref and scalar fields
    REF_ARRAY = "ref_array"  # variable number of reference elements
    SCALAR_ARRAY = "scalar_array"  # variable number of scalar words


class TypeDescriptor:
    """Immutable description of an object type.

    The descriptor itself is pure Python metadata; the *type object* it is
    mirrored by lives in the boot image, and ``addr`` is that object's
    address once installed (see :mod:`repro.heap.bootimage`).
    """

    __slots__ = (
        "name", "kind", "nrefs", "nscalars", "addr", "type_id",
        "ref_code", "scalar_code", "size_code",
    )

    def __init__(
        self,
        name: str,
        kind: TypeKind,
        nrefs: int = 0,
        nscalars: int = 0,
        type_id: int = -1,
    ):
        if nrefs < 0 or nscalars < 0:
            raise HeapCorruption(f"negative field counts for type {name}")
        self.name = name
        self.kind = kind
        self.nrefs = nrefs
        self.nscalars = nscalars
        self.addr = 0  # installed by the boot image
        self.type_id = type_id
        # Shape codes for the compiled fast paths: a non-negative code is
        # the count itself; -1 means "use the instance's length word".
        if kind is TypeKind.SCALAR:
            self.ref_code = nrefs
            self.scalar_code = nscalars
            self.size_code = HEADER_WORDS + nrefs + nscalars
        elif kind is TypeKind.REF_ARRAY:
            self.ref_code = -1
            self.scalar_code = 0
            self.size_code = -1
        else:  # SCALAR_ARRAY
            self.ref_code = 0
            self.scalar_code = -1
            self.size_code = -1

    def size_words(self, length: int = 0) -> int:
        """Total object size in words for an instance of this type."""
        if self.kind is TypeKind.SCALAR:
            return HEADER_WORDS + self.nrefs + self.nscalars
        if self.kind is TypeKind.REF_ARRAY:
            return HEADER_WORDS + length
        return HEADER_WORDS + length  # SCALAR_ARRAY

    def size_bytes(self, length: int = 0) -> int:
        return self.size_words(length) * WORD_BYTES

    def ref_count(self, length: int = 0) -> int:
        """Number of reference slots, excluding the type-reference slot."""
        if self.kind is TypeKind.SCALAR:
            return self.nrefs
        if self.kind is TypeKind.REF_ARRAY:
            return length
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Type {self.name} {self.kind.value} refs={self.nrefs} scalars={self.nscalars}>"


class TypeRegistry:
    """Registry of all type descriptors, addressable by name and address."""

    def __init__(self) -> None:
        self._by_name: Dict[str, TypeDescriptor] = {}
        self._by_addr: Dict[int, TypeDescriptor] = {}
        self._all: List[TypeDescriptor] = []

    def define(
        self, name: str, nrefs: int = 0, nscalars: int = 0
    ) -> TypeDescriptor:
        """Define a scalar (fixed-shape) object type."""
        return self._add(TypeDescriptor(name, TypeKind.SCALAR, nrefs, nscalars))

    def define_ref_array(self, name: str) -> TypeDescriptor:
        """Define a reference-array type."""
        return self._add(TypeDescriptor(name, TypeKind.REF_ARRAY))

    def define_scalar_array(self, name: str) -> TypeDescriptor:
        """Define a scalar-array type (payload counted in words)."""
        return self._add(TypeDescriptor(name, TypeKind.SCALAR_ARRAY))

    def _add(self, desc: TypeDescriptor) -> TypeDescriptor:
        if desc.name in self._by_name:
            raise HeapCorruption(f"duplicate type name {desc.name!r}")
        desc.type_id = len(self._all)
        self._by_name[desc.name] = desc
        self._all.append(desc)
        return desc

    def install(self, desc: TypeDescriptor, addr: int) -> None:
        """Record the boot-image address of ``desc``'s type object."""
        desc.addr = addr
        self._by_addr[addr] = desc

    def by_name(self, name: str) -> TypeDescriptor:
        return self._by_name[name]

    def by_addr(self, addr: int) -> TypeDescriptor:
        try:
            return self._by_addr[addr]
        except KeyError:
            raise HeapCorruption(
                f"address {addr:#x} is not a type object"
            ) from None

    def __iter__(self) -> Iterator[TypeDescriptor]:
        return iter(self._all)

    def __len__(self) -> int:
        return len(self._all)


class ObjectModel:
    """Field access and header manipulation over an :class:`AddressSpace`."""

    def __init__(self, space: AddressSpace, types: TypeRegistry):
        self.space = space
        self.types = types

    # ------------------------------------------------------------------
    # Header access
    # ------------------------------------------------------------------
    def status(self, obj: int) -> int:
        return self.space.load(obj + STATUS_WORD * WORD_BYTES)

    def is_forwarded(self, obj: int) -> bool:
        return bool(self.status(obj) & FORWARDED_BIT)

    def forwarding_address(self, obj: int) -> int:
        status = self.status(obj)
        if not status & FORWARDED_BIT:
            raise HeapCorruption(f"object {obj:#x} is not forwarded")
        return status & ~FORWARDED_BIT

    def set_forwarding(self, obj: int, new_addr: int) -> None:
        self.space.store(obj + STATUS_WORD * WORD_BYTES, new_addr | FORWARDED_BIT)

    def type_of(self, obj: int) -> TypeDescriptor:
        return self.types.by_addr(self.space.load(obj + TYPE_WORD * WORD_BYTES))

    def length_of(self, obj: int) -> int:
        return self.space.load(obj + LENGTH_WORD * WORD_BYTES)

    def size_words(self, obj: int) -> int:
        """Total size of the object at ``obj``, decoded from its header."""
        return self.type_of(obj).size_words(self.length_of(obj))

    # ------------------------------------------------------------------
    # Slot addressing
    # ------------------------------------------------------------------
    def type_slot_addr(self, obj: int) -> int:
        """Address of the type-reference slot."""
        return obj + TYPE_WORD * WORD_BYTES

    def ref_slot_addr(self, obj: int, index: int) -> int:
        """Address of reference slot ``index`` (0-based, excludes type slot)."""
        desc = self.type_of(obj)
        count = desc.ref_count(self.length_of(obj))
        if not 0 <= index < count:
            raise HeapCorruption(
                f"ref slot {index} out of range [0,{count}) for "
                f"{desc.name} object {obj:#x}"
            )
        return obj + (HEADER_WORDS + index) * WORD_BYTES

    def scalar_slot_addr(self, obj: int, index: int) -> int:
        """Address of scalar word ``index``."""
        desc = self.type_of(obj)
        length = self.length_of(obj)
        refs = desc.ref_count(length)
        scalars = desc.size_words(length) - HEADER_WORDS - refs
        if not 0 <= index < scalars:
            raise HeapCorruption(
                f"scalar slot {index} out of range [0,{scalars}) for "
                f"{desc.name} object {obj:#x}"
            )
        return obj + (HEADER_WORDS + refs + index) * WORD_BYTES

    def scan_ref_slots(self, obj: int) -> Tuple[int, int, int, List[int]]:
        """Bulk read of every reference slot of ``obj`` for collector scans.

        Returns ``(type_slot_addr, type_value, ref_base_addr, ref_values)``
        where ``ref_values[i]`` lives at ``ref_base_addr + i * WORD_BYTES``.
        The type slot is included (see :meth:`iter_ref_slot_addrs`); the
        ``nrefs`` proper reference slots are read with one
        :meth:`~repro.heap.space.AddressSpace.load_slice` call.

        Access accounting is identical to the word-at-a-time walk it
        replaces (``count + 3`` loads: type word twice — once as descriptor
        decode, once as the scanned slot value — the length word, and the
        ``count`` reference slots), so cost-model inputs are unchanged.
        """
        space = self.space
        type_slot = obj + TYPE_WORD * WORD_BYTES
        desc = self.types.by_addr(space.load(type_slot))
        count = desc.ref_count(space.load(obj + LENGTH_WORD * WORD_BYTES))
        type_value = space.load(type_slot)
        base = obj + HEADER_WORDS * WORD_BYTES
        return type_slot, type_value, base, space.load_slice(base, count)

    def iter_ref_slot_addrs(self, obj: int) -> Iterator[int]:
        """Addresses of every reference slot, *including* the type slot.

        The type slot points into the boot image, which is immortal, so
        scanning it during collection is a guaranteed no-op copy-wise — but
        it is real scanning work, and the cost model charges for it, just
        as Jikes RVM's collectors traverse TIB pointers.
        """
        yield obj + TYPE_WORD * WORD_BYTES
        desc = self.type_of(obj)
        count = desc.ref_count(self.length_of(obj))
        base = obj + HEADER_WORDS * WORD_BYTES
        for i in range(count):
            yield base + i * WORD_BYTES

    # ------------------------------------------------------------------
    # Compiled mutator fast paths (ISSUE 2)
    # ------------------------------------------------------------------
    def compile_field_ops(self):
        """Specialised closures for the mutator field-access inner loops.

        Returns ``(read_ref, read_scalar, write_scalar)``, each equivalent
        to the :meth:`get_ref` / :meth:`get_scalar` / :meth:`set_scalar`
        reference paths — same bounds errors, same ``load_count`` /
        ``store_count`` accounting (header decode charges two loads, the
        slot access one more) — but with the object's frame resolved once
        and the header words read straight out of the frame's typed array.

        Counter-equivalence invariant: these closures may bypass the
        word-at-a-time :class:`~repro.heap.space.AddressSpace` API only
        because they replicate its accounting exactly; see DESIGN.md.
        """
        space = self.space
        types = self.types
        by_addr = types._by_addr
        shift = space.frame_shift
        word_mask = space._word_mask
        resolve = space._resolve

        def _decode(obj: int):
            """Resolve the frame and read the header (two charged loads)."""
            if obj & 3:
                raise InvalidAddress(f"misaligned load from {obj + 4:#x}")
            fi = obj >> shift
            frame = (
                space._cache_frame
                if fi == space._cache_index
                else resolve(fi, obj + 4, "load from")
            )
            words = frame.words
            base = (obj >> 2) & word_mask
            space.load_count += 1
            desc = by_addr.get(words[base + 1])
            if desc is None:
                desc = types.by_addr(words[base + 1])
            space.load_count += 1
            return words, base, desc, words[base + 2]

        def read_ref(obj: int, index: int) -> int:
            words, base, desc, length = _decode(obj)
            code = desc.ref_code
            count = length if code < 0 else code
            if not 0 <= index < count:
                raise HeapCorruption(
                    f"ref slot {index} out of range [0,{count}) for "
                    f"{desc.name} object {obj:#x}"
                )
            space.load_count += 1
            return words[base + HEADER_WORDS + index]

        def read_scalar(obj: int, index: int) -> int:
            words, base, desc, length = _decode(obj)
            code = desc.ref_code
            refs = length if code < 0 else code
            code = desc.scalar_code
            scalars = length if code < 0 else code
            if not 0 <= index < scalars:
                raise HeapCorruption(
                    f"scalar slot {index} out of range [0,{scalars}) for "
                    f"{desc.name} object {obj:#x}"
                )
            space.load_count += 1
            return words[base + HEADER_WORDS + refs + index]

        def write_scalar(obj: int, index: int, value: int) -> None:
            words, base, desc, length = _decode(obj)
            code = desc.ref_code
            refs = length if code < 0 else code
            code = desc.scalar_code
            scalars = length if code < 0 else code
            if not 0 <= index < scalars:
                raise HeapCorruption(
                    f"scalar slot {index} out of range [0,{scalars}) for "
                    f"{desc.name} object {obj:#x}"
                )
            words[base + HEADER_WORDS + refs + index] = value
            space.store_count += 1

        return read_ref, read_scalar, write_scalar

    def compile_ref_count(self):
        """Specialised ``ref_count`` of the object at ``obj`` (the benchmark
        engine's random-slot picker): equivalent to ``type_of`` +
        ``length_of`` — two charged loads, same errors — in one call."""
        space = self.space
        types = self.types
        by_addr = types._by_addr
        shift = space.frame_shift
        word_mask = space._word_mask
        resolve = space._resolve

        def ref_count_of(obj: int) -> int:
            if obj & 3:
                raise InvalidAddress(f"misaligned load from {obj + 4:#x}")
            fi = obj >> shift
            frame = (
                space._cache_frame
                if fi == space._cache_index
                else resolve(fi, obj + 4, "load from")
            )
            words = frame.words
            b = (obj >> 2) & word_mask
            space.load_count += 1
            desc = by_addr.get(words[b + 1])
            if desc is None:
                desc = types.by_addr(words[b + 1])
            space.load_count += 1
            code = desc.ref_code
            return words[b + 2] if code < 0 else code

        return ref_count_of

    # ------------------------------------------------------------------
    # Raw field access (no barrier — the runtime layers barriers on top)
    # ------------------------------------------------------------------
    def get_ref(self, obj: int, index: int) -> int:
        return self.space.load(self.ref_slot_addr(obj, index))

    def set_ref_raw(self, obj: int, index: int, value: int) -> None:
        """Store a reference without a write barrier.  GC internals only."""
        self.space.store(self.ref_slot_addr(obj, index), value)

    def get_scalar(self, obj: int, index: int) -> int:
        return self.space.load(self.scalar_slot_addr(obj, index))

    def set_scalar(self, obj: int, index: int, value: int) -> None:
        self.space.store(self.scalar_slot_addr(obj, index), value)

    # ------------------------------------------------------------------
    # Object initialisation
    # ------------------------------------------------------------------
    def init_header(self, addr: int, desc: TypeDescriptor, length: int = 0) -> None:
        """Write a fresh header.  The type slot is *not* written here: the
        runtime writes it through the write barrier so that barrier traffic
        matches the paper's description of allocation in Jikes RVM."""
        self.space.store(addr + STATUS_WORD * WORD_BYTES, 0)
        self.space.store(addr + LENGTH_WORD * WORD_BYTES, length)
