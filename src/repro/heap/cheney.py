"""The one Cheney copy-trace engine every plan traces through.

The paper built Beltway and its Appel / fixed-nursery baselines in one
toolkit over Jikes RVM's single scan/copy mechanism; what differed was the
*plan* — which frames are from-space, where survivors go, which pointers
are remembered.  This module is that mechanism.  A plan opens one engine
per collection and drives it (roots → remembered slots → [boot rescan] →
drain); the engine knows nothing about belts, trains, nurseries or
store buffers.

What a plan supplies (the same three things the compiled C engine of
:mod:`repro.kernels.cik` takes — both engines share this surface, so a
plan's driver runs unchanged on whichever one ``kernels`` hands back):

``from_frames``
    ``{frame index: destination lane}`` for every collected frame.  A lane
    is a plan-defined bump destination (Beltway: the target belt; the gctk
    baselines: lane 0).
``to_space``
    ``alloc(lane, size_words, ctx) -> addr`` is the plan's reference copy
    allocation — grow, overflow, ``OutOfMemory``.  ``ctx`` is an opaque
    destination context handed to ``forward`` and inherited by the
    children of the object it copied (MOS trains; None everywhere else).
    ``tail(lane) -> (owner, BumpRegion) | None`` names the lane's open
    bump region so a compiled engine can allocate from its tail directly;
    this engine never calls it.
``remember``
    Optional ``remember(src_frame, tgt_frame, slot_addr)``: when given,
    the drain re-runs the frame-order compare for every pointer of every
    copied object (copying changed the pointer's *source* frame) and
    reports those into sooner-collected frames.  Beltway passes
    ``remsets.insert``; the gctk baselines pass nothing.

The trace bypasses the word-at-a-time AddressSpace API, reading headers
and reference-slot runs straight out of the frames' typed arrays, and
replicates the layered paths' load/store accounting and error behaviour
exactly (the counter-equivalence invariant, DESIGN §9): a forwarded visit
charges 2 loads (status twice); a copying visit 3 loads (status, type,
length) + ``size`` loads and stores (the bulk copy) + 1 store (the
forwarding pointer); a scan ``count + 3`` loads (type twice, length,
``count`` slots) and 1 store per updated slot.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Callable, Dict, Iterable, List, Optional

from ..errors import InvalidAddress
from .objectmodel import HEADER_WORDS, ObjectModel


class CheneyEngine:
    """One collection's trace state: forwarding, gray queue, scan loop.

    The methods are closures bound in ``__init__`` (one call frame per
    forward, locals instead of attribute loads): ``forward(obj, ctx)``,
    ``forward_roots(array, ctx)``, ``scan_boot(objs)``, ``drain()``.
    Work counters accumulate into ``result``.
    """

    def __init__(
        self,
        model: ObjectModel,
        from_frames: Dict[int, int],
        to_space,
        result,
        remember: Optional[Callable[[int, int, int], None]] = None,
    ):
        space = model.space
        shift = space.frame_shift
        word_mask = space._word_mask
        resolve = space._resolve
        types = model.types
        by_addr = types._by_addr
        copy_alloc = to_space.alloc
        orders = space.orders
        worklist: List = []  # (copied addr, dest context), FIFO
        worklist_append = worklist.append

        # Private one-entry frame caches (index -> words array).  The trace
        # ping-pongs between the scan frame, the from-space object and the
        # copy destination, so the space's shared single-entry cache
        # thrashes; frames stay mapped for the whole trace, so caching the
        # words arrays locally is safe.
        src_fi = dst_fi = -1
        src_words = dst_words = None

        def forward(obj: int, ctx=None) -> int:
            nonlocal src_fi, src_words, dst_fi, dst_words
            if obj & 3:
                raise InvalidAddress(f"misaligned load from {obj:#x}")
            fi = obj >> shift
            if fi != src_fi:
                src_words = resolve(fi, obj, "load from").words
                src_fi = fi
            words = src_words
            b = (obj >> 2) & word_mask
            space.load_count += 1
            status = words[b]
            if status & 1:
                space.load_count += 1
                return status & ~1
            space.load_count += 1
            desc = by_addr.get(words[b + 1])
            if desc is None:
                desc = types.by_addr(words[b + 1])
            sc = desc.size_code
            size = (HEADER_WORDS + words[b + 2]) if sc < 0 else sc
            space.load_count += 1
            new_addr = copy_alloc(from_frames[fi], size, ctx)
            # Inline single-frame copy (objects never span frames): same
            # ``size`` loads + ``size`` stores as a word-at-a-time copy.
            di = new_addr >> shift
            if di != dst_fi:
                dst_words = resolve(di, new_addr, "store to").words
                dst_fi = di
            d = (new_addr >> 2) & word_mask
            space.load_count += size
            space.store_count += size
            dst_words[d : d + size] = words[b : b + size]
            words[b] = new_addr | 1
            space.store_count += 1
            worklist_append((new_addr, ctx))
            result.copied_objects += 1
            result.copied_words += size
            return new_addr

        def forward_roots(array: List[int], ctx=None) -> None:
            for i, value in enumerate(array):
                result.root_slots += 1
                if value and (value >> shift) in from_frames:
                    array[i] = forward(value, ctx)

        def scan(objs: Iterable, boot: bool) -> None:
            # The boot rescan charges ``boot_slots_scanned`` and never
            # remembers (its sources are not copies); the drain charges the
            # scan counters and applies the plan's remembering rule.
            rule = None if boot else remember
            scan_fi = -1
            scan_words = None
            for obj, ctx in objs:
                if not boot:
                    result.scanned_objects += 1
                if obj & 3:
                    raise InvalidAddress(f"misaligned load from {obj + 4:#x}")
                s = obj >> shift
                if s != scan_fi:
                    scan_words = resolve(s, obj + 4, "load from").words
                    scan_fi = s
                words = scan_words
                b = (obj >> 2) & word_mask
                space.load_count += 1
                type_addr = words[b + 1]
                desc = by_addr.get(type_addr)
                if desc is None:
                    desc = types.by_addr(type_addr)
                code = desc.ref_code
                count = words[b + 2] if code < 0 else code
                space.load_count += count + 2
                if boot:
                    result.boot_slots_scanned += 1 + count
                else:
                    result.scanned_ref_slots += 1 + count
                # One snapshot of the type word (offset 1), the length word
                # (offset 2, not a reference: skipped) and the ``count``
                # reference slots, taken before any forwarding store like
                # the load_slice-then-iterate reference path.
                for i, target in enumerate(words[b + 1 : b + 3 + count], 1):
                    if not target or i == 2:
                        continue
                    t = target >> shift
                    if t in from_frames:
                        target = forward(target, ctx)
                        words[b + i] = target
                        space.store_count += 1
                        t = target >> shift
                    # forward() may open a fresh increment, which restamps
                    # every frame in place: compare orders only afterwards.
                    if rule is not None and t != s and orders[t] < orders[s]:
                        rule(s, t, obj + (i << 2))

        self.forward = forward
        self.forward_roots = forward_roots
        self.scan_boot = lambda objs: scan(zip(objs, repeat(None)), True)
        # A list iterator picks up items appended during the loop (defined
        # Python semantics), which is exactly the Cheney gray-queue FIFO.
        self.drain = lambda: scan(worklist, False)

    # Engines are opened with ``with``: the compiled engine has C state to
    # fold back on every exit path, this one has none.
    def __enter__(self) -> "CheneyEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


def trace_engine(model: ObjectModel, kernels=None) -> Callable:
    """The engine a plan traces with, resolved once at plan construction.

    Returns ``open(from_frames, to_space, result, remember=None)``: the
    compiled engine when ``kernels`` (a :class:`repro.kernels.KernelSet`,
    or None) carries one, else :class:`CheneyEngine`.
    """
    compiled = kernels.trace_engine(model) if kernels is not None else None
    return compiled or partial(CheneyEngine, model)
