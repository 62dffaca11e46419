"""numpy substrate kernels: vectorised batch paths over the slab storage.

Frame storage is carved out of contiguous ``array('q')`` slabs (see
:mod:`repro.heap.space`), so ``addr >> 2`` is a *global* word index and
one ``np.frombuffer`` view per slab addresses the whole heap.  The
kernels here exploit that for the batchable hot loops:

* :func:`remset_sync` — drain-time SSB dedup via first-occurrence
  ``np.unique``, preserving the canonical first-insertion drain order;
* :class:`BatchOps` — per-VM batched mutator kernels: ``write_ref_batch``
  (the Fig. 4 barrier vectorised: order compares, null filtering and the
  store scatter in numpy, remset inserts replayed in original order) and
  ``alloc_batch`` (frame-tail segments of bump allocations with strided
  header initialisation).

Counter bit-identity (DESIGN §13): a batch call is defined as equivalent
to the scalar sequence it replaces.  The vector paths therefore
*validate everything first* using uncounted peeks, and apply counted
effects only when no element can fault; any anomaly — misalignment, an
unmapped frame, an unknown type, an out-of-range slot, anything attached
through ``vm.seam`` — reruns the whole batch through the
scalar reference path from the start, reproducing partial effects and
the exact exception at the exact counter state.
"""

from __future__ import annotations

import numpy as np

from ..heap.objectmodel import HEADER_WORDS

#: Pending SSB buffers shorter than this drain through the reference
#: loop; the numpy dedup's fixed overhead only pays off beyond it.
SYNC_THRESHOLD = 16


def remset_sync(entries: dict, buf) -> tuple:
    """Merge pending SSB ``buf`` into the ``entries`` dict-as-set.

    Returns ``(fresh, dups)`` with the identical dedup accounting and
    the identical first-insertion ordering of new keys as the reference
    loop in :meth:`repro.core.remset.RememberedSets._sync`.
    """
    arr = np.frombuffer(buf, dtype=np.int64)
    uniq, first = np.unique(arr, return_index=True)
    if len(uniq) == len(arr):
        ordered = arr  # no duplicates inside the buffer: keep raw order
    else:
        ordered = uniq[np.argsort(first, kind="stable")]
    if entries:
        existing = np.fromiter(entries.keys(), np.int64, len(entries))
        ordered = ordered[
            ~np.isin(ordered, existing, assume_unique=True)
        ]
    fresh = len(ordered)
    for slot in ordered.tolist():
        entries[slot] = None
    return fresh, len(arr) - fresh


class BatchOps:
    """Batched mutator kernels bound to one VM (numpy tiers).

    Only the Beltway frame barrier is vectorised; gctk plans (boundary
    barrier) and any batch that trips a validation guard run the scalar
    reference loop instead — same effects, same counters.  So does every
    batch while ``vm.seam.active``: batching is only sound when nothing
    wraps the scalar paths (sanitizer, profiler, armed faults), and the
    seam's answer is stricter than necessary — telemetry alone also
    falls back.
    """

    def __init__(self, vm):
        self.vm = vm
        self.space = vm.space
        plan = vm.plan
        self.plan = plan
        self._is_beltway = hasattr(plan, "belts")
        self._np_slabs = []
        self._slab_words = self.space.slab_frames * self.space.frame_words

    # ------------------------------------------------------------------
    def _views(self):
        slabs = self.space._slabs
        if len(self._np_slabs) != len(slabs):
            self._np_slabs = [np.frombuffer(s, dtype=np.int64) for s in slabs]
        return self._np_slabs

    def _gather(self, idx):
        """Read words at global slot indices ``idx`` (uncounted peek)."""
        views = self._views()
        if len(views) == 1:
            return views[0][idx]
        out = np.empty(len(idx), dtype=np.int64)
        slab = idx // self._slab_words
        for si in range(len(views)):
            mask = slab == si
            if mask.any():
                out[mask] = views[si][idx[mask] - si * self._slab_words]
        return out

    def _scatter(self, idx, values):
        """Write ``values`` at global slot indices (duplicate indices:
        last occurrence wins, matching the sequential final state)."""
        views = self._views()
        if len(views) == 1:
            views[0][idx] = values
            return
        slab = idx // self._slab_words
        for si in range(len(views)):
            mask = slab == si
            if mask.any():
                views[si][idx[mask] - si * self._slab_words] = values[mask]

    def _mapped_mask(self) -> np.ndarray:
        frames = self.space._frames
        return np.fromiter(
            (f is not None and f.allocated for f in frames),
            dtype=bool,
            count=len(frames),
        )

    # ------------------------------------------------------------------
    # Batched barriered stores
    # ------------------------------------------------------------------
    def try_write_ref_batch(self, objs, indexes, values) -> bool:
        """Vector path for ``vm.write_ref_batch``.

        Returns True having performed every write (counters identical to
        the scalar sequence), or False having performed *nothing* — the
        caller then replays the batch through the scalar path.
        """
        if not self._is_beltway or self.vm.seam.active:
            return False
        space = self.space
        o = np.ascontiguousarray(objs, dtype=np.int64)
        i = np.ascontiguousarray(indexes, dtype=np.int64)
        v = np.ascontiguousarray(values, dtype=np.int64)
        n = len(o)
        if n == 0:
            return True
        if len(i) != n or len(v) != n:
            raise ValueError("write_ref_batch arrays must share one length")
        # -- validation (uncounted peeks) --------------------------------
        if (((o | v) & 3) != 0).any():
            return False
        shift = space.frame_shift
        fi = o >> shift
        mapped = self._mapped_mask()
        if (fi <= 0).any() or (fi >= len(mapped)).any() or not mapped[fi].all():
            return False
        w = o >> 2  # global slot index of the status word
        type_addrs = self._gather(w + 1)
        types = self.plan.model.types
        by_addr = types._by_addr
        tab = sorted(by_addr)
        tab_np = np.asarray(tab, dtype=np.int64)
        pos = np.searchsorted(tab_np, type_addrs)
        if (pos >= len(tab_np)).any() or (tab_np[np.minimum(pos, len(tab_np) - 1)] != type_addrs).any():
            return False
        ref_codes = np.asarray(
            [by_addr[a].ref_code for a in tab], dtype=np.int64
        )[pos]
        counts = np.where(ref_codes < 0, self._gather(w + 2), ref_codes)
        if ((i < 0) | (i >= counts)).any():
            return False
        vfi = v >> shift
        if (vfi < 0).any() or (vfi >= len(mapped)).any():
            return False
        # -- apply (counted, no element can fault now) -------------------
        space.load_count += 2 * n
        stats = self.plan.barrier.stats
        stats.fast_path += n
        nulls = v == 0
        nnull = int(nulls.sum())
        stats.null_stores += nnull
        orders = np.fromiter(space.orders, np.int64, len(space.orders))
        slow = (~nulls) & (vfi != fi) & (orders[vfi] < orders[fi])
        nslow = int(slow.sum())
        slots = o + ((i + 3) << 2)
        if nslow:
            stats.slow_path += nslow
            insert = self.plan.remsets.insert
            for k in np.flatnonzero(slow).tolist():
                insert(int(fi[k]), int(vfi[k]), int(slots[k]))
        self._scatter(slots >> 2, v)
        space.store_count += n
        return True

    # ------------------------------------------------------------------
    # Batched allocation + header init
    # ------------------------------------------------------------------
    def try_alloc_segment(self, desc, length: int, count: int):
        """Bump-allocate up to ``count`` ``desc`` objects from the current
        frame tail in one strided operation.

        Returns a list of addresses (possibly shorter than ``count``; the
        caller scalar-allocates the remainder) or None when the vector
        path does not apply.  Counter accounting is identical to the same
        number of scalar ``plan.alloc`` calls.
        """
        if not self._is_beltway or self.vm.seam.active:
            return None
        plan = self.plan
        inc = plan.allocation_increment
        if inc is None:
            return None
        region = inc.region
        size = desc.size_words(length)
        if size <= 0:
            return None
        k = min(count, region.frame_tail_words() // size)
        if k <= 0:
            return None
        space = self.space
        base = region._cursor
        s = base >> space.frame_shift
        t = desc.addr >> space.frame_shift
        if desc.addr == 0 or (t != s and space.orders[t] < space.orders[s]):
            # TIB stores into heap objects are boot-targeted in every real
            # configuration; anything else takes the scalar barrier path.
            return None
        # Raw bump of k objects (equivalent to k region.alloc calls).
        new_cursor = base + k * size * 4
        region._cursor = new_cursor
        region._current.used_words = (new_cursor - region._frame_base) // 4
        region.allocated_words += k * size
        plan.allocations += k
        plan.allocated_words += k * size
        # Strided header init: status=0, type, length (3 stores/object).
        g0 = base >> 2
        si = g0 // self._slab_words
        view = self._views()[si]
        idx = (g0 - si * self._slab_words) + np.arange(k, dtype=np.int64) * size
        view[idx] = 0
        view[idx + 1] = desc.addr
        view[idx + 2] = length
        space.store_count += 3 * k
        plan.barrier.stats.fast_path += k
        return list(range(base, base + k * size * 4, size * 4))
