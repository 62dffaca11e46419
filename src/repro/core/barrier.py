"""The frame-based, unidirectional Beltway write barrier (paper Fig. 4).

The Java original::

    public static final void writeBarrier(ADDRESS source, ADDRESS target) {
        int s = (source >>> FRAME_SIZE_LOG);
        int t = (target >>> FRAME_SIZE_LOG);
        if ((s != t)                                  // pointer is inter-frame
            && (Belt.collect_[t] < Belt.collect_[s])) {
            // target will be collected before source
            int rsidx = (s << REMSET_SHIFT) | t;
            GCTk_RememberedSet.insert(rsidx, source);
        }
    }

is transcribed below, with the flat ``orders`` table of the address space
playing the role of ``Belt.collect_[]``.  The barrier is *not*
address-ordered (unlike the Appel baseline's boundary barrier) but it is
unidirectional with respect to frames: only pointers into sooner-collected
frames are recorded.  Boot-image frames carry an infinite order, so
boot→heap pointers are always recorded and TIB-pointer stores (heap→boot)
never are.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import Callable, Dict

from ..errors import HeapCorruption, InvalidAddress
from ..heap.space import AddressSpace
from .remset import RememberedSets


#: Barriered reference-field store, specialised per heap (Fig. 4 inlined
#: into the mutator store path).  Equivalent to ``ref_slot_addr`` + the
#: barrier's ``write_ref`` — identical bounds/unmapped errors, identical
#: load/store/fast/slow/null accounting (two header-decode loads, one slot
#: store) — with the object's frame resolved once.  ``__RECORD__`` is the
#: one hole: the owning barrier's record rule (see
#: :class:`CompiledBarrier`), run for every non-NULL store with ``s`` (the
#: source frame) and ``value`` in scope and ``__SLOT__`` naming the slot.
_WRITE_FIELD_SRC = """\
def write_ref_field(obj, index, value):
    if obj & 3:
        raise InvalidAddress(f"misaligned load from {obj + 4:#x}")
    s = obj >> __SHIFT__
    frame = (
        _space._cache_frame
        if s == _space._cache_index
        else _resolve(s, obj + 4, "load from")
    )
    words = frame.words
    base = (obj >> 2) & __WORD_MASK__
    _space.load_count += 1
    desc = _by_addr.get(words[base + 1])
    if desc is None:
        desc = _types.by_addr(words[base + 1])
    code = desc.ref_code
    count = words[base + 2] if code < 0 else code
    _space.load_count += 1
    if not 0 <= index < count:
        raise HeapCorruption(
            f"ref slot {index} out of range [0,{count}) for "
            f"{desc.name} object {obj:#x}"
        )
    _stats.fast_path += 1
    if value == 0:
        _stats.null_stores += 1
        words[base + 3 + index] = 0
        _space.store_count += 1
        return
__RECORD__
    words[base + 3 + index] = value
    _space.store_count += 1
"""

#: Object initialisation (status, length, barriered TIB store) for the
#: allocation fast path.  Equivalent to ``init_header`` + a barriered
#: type-slot store: three counted stores, same fast/slow/null accounting
#: (the TIB store is §3.3.2's barrier traffic; Beltway's order compare
#: filters it because type objects live in infinite-order boot frames).
_INIT_OBJECT_SRC = """\
def init_object(addr, desc, length):
    if addr & 3:
        raise InvalidAddress(f"misaligned store to {addr:#x}")
    s = addr >> __SHIFT__
    frame = (
        _space._cache_frame
        if s == _space._cache_index
        else _resolve(s, addr, "store to")
    )
    words = frame.words
    base = (addr >> 2) & __WORD_MASK__
    words[base] = 0
    words[base + 2] = length
    value = desc.addr
    _stats.fast_path += 1
    if value == 0:
        _stats.null_stores += 1
        words[base + 1] = 0
        _space.store_count += 3
        return
__RECORD__
    words[base + 1] = value
    _space.store_count += 3
"""


@dataclass
class BarrierStats:
    """Fast/slow-path counts, mirroring the paper's statistics runs."""

    fast_path: int = 0  # barrier executed (every reference store)
    slow_path: int = 0  # remset insert performed
    null_stores: int = 0  # stores of NULL (filtered before the compare)

    def counters(self) -> Dict[str, float]:
        """Prometheus-style export for the telemetry layer."""
        return {
            "barrier_fast_total": float(self.fast_path),
            "barrier_slow_total": float(self.slow_path),
            "barrier_null_total": float(self.null_stores),
        }


class CompiledBarrier:
    """A write barrier whose mutator store paths compile from the one
    template pair above, specialised by the subclass's record rule.

    This is the Python rendition of the paper's compiled-in write barrier
    (Fig. 4): per-space constants (frame shift, word mask) are baked into
    the bytecode as literals and the captured objects (space, stats, the
    rule's names) live in the function's globals, so the per-store work is
    a handful of shifts, compares and one append, with no intermediate
    call layers.
    """

    #: Source of the record rule: which non-NULL stores are remembered,
    #: and how.  Must bump ``_stats.slow_path`` for each one it records.
    record_rule: str

    def __init__(self, space: AddressSpace):
        self.space = space
        self.stats = BarrierStats()

    def record_names(self) -> Dict[str, object]:
        """The names :attr:`record_rule` refers to beyond the template's."""
        raise NotImplementedError  # pragma: no cover - abstract

    def _compile(self, template: str, name: str, slot: str, model) -> Callable:
        space = self.space
        source = template.replace(
            "__RECORD__\n", textwrap.indent(self.record_rule, "    ")
        )
        for token, value in (
            ("__SLOT__", slot),
            ("__SHIFT__", space.frame_shift),
            ("__WORD_MASK__", space._word_mask),
        ):
            source = source.replace(token, str(value))
        namespace = {
            "_space": space,
            "_resolve": space._resolve,
            "_stats": self.stats,
            "_by_addr": model.types._by_addr,
            "_types": model.types,
            "InvalidAddress": InvalidAddress,
            "HeapCorruption": HeapCorruption,
            **self.record_names(),
        }
        exec(compile(source, f"<compiled {name}>", "exec"), namespace)
        # Popped, so that the function's globals do not point back at it:
        # no cycle keeps the space alive once its VM is gone.
        return namespace.pop(name)

    def compile_write_field(self, model) -> Callable[[int, int, int], None]:
        """The compiled mutator store inner loop: slot decode + barrier +
        store in one call frame (see :data:`_WRITE_FIELD_SRC`)."""
        return self._compile(
            _WRITE_FIELD_SRC, "write_ref_field", "obj + ((index + 3) << 2)",
            model,
        )

    def compile_init_object(self, model) -> Callable[[int, object, int], None]:
        """The compiled allocation-initialisation path (see
        :data:`_INIT_OBJECT_SRC`)."""
        return self._compile(_INIT_OBJECT_SRC, "init_object", "addr + 4", model)


class FrameBarrier(CompiledBarrier):
    """Write barrier + store, bound to one address space and remset table."""

    #: Fig. 4's test: the pointer is inter-frame and its target will be
    #: collected before its source.
    record_rule = """\
t = value >> __SHIFT__
if t != s and _orders[t] < _orders[s]:
    _stats.slow_path += 1
    _insert(s, t, __SLOT__)
"""

    def __init__(self, space: AddressSpace, remsets: RememberedSets):
        super().__init__(space)
        self.remsets = remsets

    def record_names(self) -> Dict[str, object]:
        return {"_orders": self.space.orders, "_insert": self.remsets.insert}

    def write_ref(self, source_obj: int, slot_addr: int, target: int) -> None:
        """Store ``target`` into ``slot_addr`` of ``source_obj``, remembering
        the pointer when the target frame is collected before the source's.
        """
        space = self.space
        shift = space.frame_shift
        self.stats.fast_path += 1
        if target == 0:
            self.stats.null_stores += 1
            space.store(slot_addr, target)
            return
        s = source_obj >> shift
        t = target >> shift
        if s != t:  # pointer is inter-frame
            orders = space.orders
            if orders[t] < orders[s]:
                # target will be collected before source
                self.stats.slow_path += 1
                self.remsets.insert(s, t, slot_addr)
        space.store(slot_addr, target)

    def record_collector_pointer(self, source_obj: int, slot_addr: int, target: int) -> None:
        """Barrier check without the store, for pointers the collector has
        already written while copying (scan-time remset maintenance).

        Not counted as mutator barrier activity: Jikes RVM's copy loop does
        this work inside the collector, not via the mutator barrier.
        """
        if target == 0:
            return
        space = self.space
        shift = space.frame_shift
        s = source_obj >> shift
        t = target >> shift
        if s != t:
            orders = space.orders
            if orders[t] < orders[s]:
                self.remsets.insert(s, t, slot_addr)
