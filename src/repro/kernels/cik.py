"""cffi substrate kernels: the compiled C engine for the copy-trace loop.

numpy cannot batch a Cheney trace — it is a pointer-chasing loop whose
next load depends on the previous copy — so the ``cffi`` tier lowers the
whole trace (forward, bulk copy, gray-queue scan) into an
ahead-of-time-compiled C extension working directly on the slab storage
(:mod:`repro.heap.space`): every simulated word is one int64 slot, frame
``i`` lives at global word ``i * frame_words``, and slabs never move, so
a C pointer per slab addresses the entire heap for the life of a space.

Counter bit-identity (DESIGN §13) is preserved by construction:

* the C loops charge ``loads``/``stores`` and the ``CollectionResult``
  work counters in exactly the reference order, so even an abort mid-
  trace (OutOfMemory, a corrupt header) leaves the same counter state;
* copy allocation bumps a per-lane (cursor, limit) pair C-side and calls
  back into Python (``kr_refill``) only when the current frame tail is
  exhausted — the callback runs the plan's own ``to_space.alloc`` (the
  contract of :mod:`repro.heap.cheney`), so frame acquisition, increment
  overflow, restamping, waste accounting and OutOfMemory behaviour are
  literally the plan's;
* inserts discovered by the C scan are logged as (src, tgt, slot) triples
  and replayed through the plan's ``remember`` rule when the engine
  closes (batch-boundary semantics: nothing reads the remsets between
  the pre-trace ``slots_into`` drain and the post-trace ``drop_frames``,
  so deferral is unobservable; replay order is the discovery order);
* frame collection-order stamps are snapshotted into a C buffer at trace
  start and kept current incrementally: the space's acquire hook reports
  each frame a refill maps (patching just that entry), and a wholesale
  re-snapshot happens only when the space's ``order_epoch`` moved — the
  only points where orders can change during a trace.

Two deliberate deviations, documented in DESIGN §13: a non-null pointer
whose frame index falls outside the frame table aborts the trace with
``HeapCorruption`` where the reference would raise ``IndexError`` (or
silently wrap a negative index), and a worklist overflow — impossible on
a well-formed heap, the capacity is ``from_words // HEADER_WORDS`` — is
also ``HeapCorruption``.

The extension is compiled once into ``src/repro/kernels/_build/``
(gitignored), keyed by a hash of the C source; later processes load the
cached build.  :func:`build_error` reports why the backend is
unavailable (no cffi, no C compiler) without ever raising.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import tempfile
from typing import Dict, List, Optional

from ..errors import HeapCorruption, InvalidAddress
from ..heap.objectmodel import HEADER_WORDS

# The C trace assumes the 3-word header layout (status, type, length).
assert HEADER_WORDS == 3

#: Abort codes shared with the C source (k_* set ctx->abort_code).
_AB_PYERR = 1      # a Python callback stored an exception
_AB_MISALIGN = 2   # misaligned object pointer (abort_addr = faulting addr)
_AB_UNMAPPED = 3   # unmapped frame (abort_addr = faulting addr)
_AB_TYPE = 4       # unknown type word (abort_addr = the bogus word)
_AB_BADFRAME = 5   # pointer targets a frame outside the table
_AB_WL = 6         # worklist overflow (impossible on well-formed heaps)

#: Capacity of the C-side insert log, in (src, tgt, slot) triples; a full
#: log flushes to Python (kr_flush) rather than aborting.
_INS_TRIPLES = 4096

_CDEF = r"""
typedef struct {
    int64_t **slabs;
    int64_t slab_shift;
    int64_t slab_mask;
    int64_t n_slabs;
    int64_t shift;
    int64_t n_frames;
    int64_t frame_words;
    int64_t *orders;
    uint8_t *mapped;
    uint8_t *in_from;
    int8_t  *frame_belt;
    int64_t *type_addr;
    int32_t *type_ref;
    int32_t *type_size;
    int64_t n_types;
    int64_t *wl;
    int64_t wl_len, wl_cap, wl_head;
    int64_t *ins;
    int64_t ins_len, ins_cap;
    int64_t *cursor;
    int64_t *limit;
    int64_t loads, stores;
    int64_t copied_objects, copied_words;
    int64_t scanned_objects, scanned_ref_slots;
    int64_t boot_slots, root_slots;
    int64_t abort_code, abort_addr;
} kctx;

int64_t k_forward(kctx *c, int64_t obj);
int k_drain(kctx *c, int mode);
int k_scan_boot(kctx *c, int64_t *objs, int64_t n);
int k_roots(kctx *c, int64_t *arr, int64_t n);
extern "Python" int64_t kr_refill(kctx *, int, int64_t);
extern "Python" int kr_flush(kctx *);
"""

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

typedef struct {
    int64_t **slabs;
    int64_t slab_shift;
    int64_t slab_mask;
    int64_t n_slabs;
    int64_t shift;
    int64_t n_frames;
    int64_t frame_words;
    int64_t *orders;
    uint8_t *mapped;
    uint8_t *in_from;
    int8_t  *frame_belt;
    int64_t *type_addr;
    int32_t *type_ref;
    int32_t *type_size;
    int64_t n_types;
    int64_t *wl;
    int64_t wl_len, wl_cap, wl_head;
    int64_t *ins;
    int64_t ins_len, ins_cap;
    int64_t *cursor;
    int64_t *limit;
    int64_t loads, stores;
    int64_t copied_objects, copied_words;
    int64_t scanned_objects, scanned_ref_slots;
    int64_t boot_slots, root_slots;
    int64_t abort_code, abort_addr;
} kctx;

static int64_t kr_refill(kctx *, int, int64_t);
static int kr_flush(kctx *);

enum {
    AB_PYERR = 1, AB_MISALIGN = 2, AB_UNMAPPED = 3,
    AB_TYPE = 4, AB_BADFRAME = 5, AB_WL = 6
};

static inline int64_t *wordp(kctx *c, int64_t gw) {
    return c->slabs[gw >> c->slab_shift] + (gw & c->slab_mask);
}

static inline int frame_ok(kctx *c, int64_t fi) {
    return fi > 0 && fi < c->n_frames && c->mapped[fi];
}

static int64_t typefind(kctx *c, int64_t addr) {
    int64_t lo = 0, hi = c->n_types - 1;
    while (lo <= hi) {
        int64_t mid = (lo + hi) >> 1;
        int64_t v = c->type_addr[mid];
        if (v == addr) return mid;
        if (v < addr) lo = mid + 1; else hi = mid - 1;
    }
    return -1;
}

/* Forward one object: returns the to-space address, or -1 with
 * ctx->abort_code set.  Counter charging mirrors the reference
 * forward() closure exactly, including the partial charges left
 * behind by every abort path. */
int64_t k_forward(kctx *c, int64_t obj) {
    if (obj & 3) {
        c->abort_code = AB_MISALIGN; c->abort_addr = obj; return -1;
    }
    int64_t fi = obj >> c->shift;
    if (!frame_ok(c, fi)) {
        c->abort_code = AB_UNMAPPED; c->abort_addr = obj; return -1;
    }
    int64_t *w = wordp(c, obj >> 2);
    c->loads += 1;
    int64_t status = w[0];
    if (status & 1) {
        c->loads += 1;
        return status & ~(int64_t)1;
    }
    c->loads += 1;
    int64_t ti = typefind(c, w[1]);
    if (ti < 0) {
        c->abort_code = AB_TYPE; c->abort_addr = w[1]; return -1;
    }
    int32_t sc = c->type_size[ti];
    int64_t size = sc < 0 ? 3 + w[2] : sc;
    c->loads += 1;
    int belt = c->frame_belt[fi];
    int64_t need = size * 4;
    int64_t addr;
    if (need <= c->limit[belt] - c->cursor[belt]) {
        addr = c->cursor[belt];
        c->cursor[belt] += need;
    } else {
        /* Frame tail exhausted (or an oversize object): the Python
         * refill runs the reference grow/overflow/OutOfMemory path and
         * re-exports this belt's (cursor, limit).  Slabs never move, so
         * the source pointer w stays valid across the callback. */
        addr = kr_refill(c, belt, size);
        if (addr <= 0) { c->abort_code = AB_PYERR; return -1; }
    }
    int64_t *d = wordp(c, addr >> 2);
    c->loads += size;
    c->stores += size;
    memcpy(d, w, (size_t)size * 8);
    w[0] = addr | 1;
    c->stores += 1;
    if (c->wl_len >= c->wl_cap) { c->abort_code = AB_WL; return -1; }
    c->wl[c->wl_len++] = addr;
    c->copied_objects += 1;
    c->copied_words += size;
    return addr;
}

static int log_insert(kctx *c, int64_t s, int64_t t, int64_t slot) {
    if (c->ins_len + 3 > c->ins_cap) {
        if (kr_flush(c)) { c->abort_code = AB_PYERR; return -1; }
    }
    int64_t *p = c->ins + c->ins_len;
    p[0] = s; p[1] = t; p[2] = slot;
    c->ins_len += 3;
    return 0;
}

/* Scan one copied (or boot) object.
 * mode 0: gctk gray-queue drain (no barrier re-checks)
 * mode 1: Beltway gray-queue drain (order compares + insert logging)
 * mode 2: gctk boot-image rescan (charges boot_slots, not scan counters)
 */
static int scan1(kctx *c, int64_t obj, int mode) {
    if (mode != 2) c->scanned_objects += 1;
    if (obj & 3) {
        c->abort_code = AB_MISALIGN; c->abort_addr = obj + 4; return -1;
    }
    int64_t s = obj >> c->shift;
    if (!frame_ok(c, s)) {
        c->abort_code = AB_UNMAPPED; c->abort_addr = obj + 4; return -1;
    }
    int64_t *w = wordp(c, obj >> 2);
    c->loads += 1;
    int64_t target = w[1];
    int64_t ti = typefind(c, target);
    if (ti < 0) {
        c->abort_code = AB_TYPE; c->abort_addr = target; return -1;
    }
    int32_t rc = c->type_ref[ti];
    int64_t count = rc < 0 ? w[2] : rc;
    c->loads += count + 2;
    if (mode == 2) c->boot_slots += 1 + count;
    else c->scanned_ref_slots += 1 + count;
    if (target) {
        /* The type slot: always a boot-resident type object, but the
         * reference path runs the generic check, so mirror it. */
        int64_t t = target >> c->shift;
        if (t > 0 && t < c->n_frames && c->in_from[t]) {
            target = k_forward(c, target);
            if (target < 0) return -1;
            w[1] = target;
            c->stores += 1;
            t = target >> c->shift;
        }
        if (mode == 1 && t != s) {
            if (t < 0 || t >= c->n_frames) {
                c->abort_code = AB_BADFRAME; c->abort_addr = target;
                return -1;
            }
            if (c->orders[t] < c->orders[s]) {
                if (log_insert(c, s, t, obj + 4)) return -1;
            }
        }
    }
    for (int64_t i = 0; i < count; i++) {
        int64_t v = w[3 + i];
        if (!v) continue;
        int64_t t = v >> c->shift;
        if (t > 0 && t < c->n_frames && c->in_from[t]) {
            /* k_forward may refill, which restamps every frame: the
             * refill handler refreshes c->orders in place, so the
             * compares below read post-restamp stamps like the
             * reference's re-read of space.orders. */
            v = k_forward(c, v);
            if (v < 0) return -1;
            w[3 + i] = v;
            c->stores += 1;
            t = v >> c->shift;
        }
        if (mode == 1 && t != s) {
            if (t < 0 || t >= c->n_frames) {
                c->abort_code = AB_BADFRAME; c->abort_addr = v; return -1;
            }
            if (c->orders[t] < c->orders[s]) {
                if (log_insert(c, s, t, obj + ((i + 3) << 2))) return -1;
            }
        }
    }
    return 0;
}

int k_drain(kctx *c, int mode) {
    while (c->wl_head < c->wl_len) {
        int64_t obj = c->wl[c->wl_head++];
        if (scan1(c, obj, mode)) return -1;
    }
    return 0;
}

int k_scan_boot(kctx *c, int64_t *objs, int64_t n) {
    for (int64_t i = 0; i < n; i++)
        if (scan1(c, objs[i], 2)) return -1;
    return 0;
}

/* Forward one root array: the reference loop is
 *   for i, value in enumerate(array):
 *       result.root_slots += 1
 *       if value and (value >> shift) in from_frames:
 *           array[i] = forward(value)
 * The membership test skips (never aborts on) out-of-range indices,
 * so the range guard here is equivalence, not a deviation.  On abort
 * the caller copies the buffer back anyway: entries before the abort
 * carry their forwarded values, later ones their originals — exactly
 * the reference's partial effect. */
int k_roots(kctx *c, int64_t *arr, int64_t n) {
    for (int64_t i = 0; i < n; i++) {
        c->root_slots += 1;
        int64_t v = arr[i];
        if (!v) continue;
        int64_t fi = v >> c->shift;
        if (fi > 0 && fi < c->n_frames && c->in_from[fi]) {
            int64_t nv = k_forward(c, v);
            if (nv < 0) return -1;
            arr[i] = nv;
        }
    }
    return 0;
}
"""

# ----------------------------------------------------------------------
# Build / load machinery
# ----------------------------------------------------------------------
_ffi = None
_lib = None
_build_err: Optional[str] = None
_tried = False

#: The trace state the extern-Python callbacks dispatch to.  Collections
#: are stop-the-world and never nest, so a one-deep stack suffices; kept
#: as a stack anyway so a buggy nesting fails loudly in finalize.
_ACTIVE: List["_TraceState"] = []


def _build_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "_build")


def _module_name() -> str:
    tag = hashlib.sha256((_CDEF + _SOURCE).encode()).hexdigest()[:16]
    return f"_repro_ck_{tag}"


def _load_cached(builddir: str, modname: str):
    if not os.path.isdir(builddir):
        return None
    for fn in sorted(os.listdir(builddir)):
        if fn.startswith(modname) and fn.endswith((".so", ".pyd", ".dylib")):
            spec = importlib.util.spec_from_file_location(
                modname, os.path.join(builddir, fn)
            )
            if spec is None or spec.loader is None:  # pragma: no cover
                return None
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            return mod
    return None


def _register_externs() -> None:
    @_ffi.def_extern("kr_refill")
    def kr_refill(ctx, belt, size):  # noqa: F811 - registered by name
        state = _ACTIVE[-1]
        try:
            return state.refill(int(belt), int(size))
        except BaseException as error:
            state.error = error
            return -1

    @_ffi.def_extern("kr_flush")
    def kr_flush(ctx):  # noqa: F811 - registered by name
        state = _ACTIVE[-1]
        try:
            state.drain_insert_log()
            return 0
        except BaseException as error:  # pragma: no cover - list.extend
            state.error = error
            return 1


def _build() -> None:
    """Compile (or load the cached build of) the C extension, once."""
    global _ffi, _lib, _build_err, _tried
    if _tried:
        return
    _tried = True
    try:
        import cffi
    except Exception as error:  # pragma: no cover - environment-specific
        _build_err = f"cffi is not importable: {error}"
        return
    modname = _module_name()
    builddir = _build_dir()
    try:
        mod = _load_cached(builddir, modname)
        if mod is None:
            os.makedirs(builddir, exist_ok=True)
            builder = cffi.FFI()
            builder.cdef(_CDEF)
            builder.set_source(modname, _SOURCE)
            # Compile in a scratch dir, then atomically publish the
            # extension so concurrent processes never load a half-written
            # file (os.replace is atomic within a filesystem).
            with tempfile.TemporaryDirectory(dir=builddir) as tmp:
                out = builder.compile(tmpdir=tmp, verbose=False)
                os.replace(
                    out, os.path.join(builddir, os.path.basename(out))
                )
            mod = _load_cached(builddir, modname)
        if mod is None:  # pragma: no cover - defensive
            _build_err = "compiled extension did not appear in the build dir"
            return
        _ffi, _lib = mod.ffi, mod.lib
        _register_externs()
    except Exception as error:  # pragma: no cover - no compiler, etc.
        _build_err = f"C build failed: {type(error).__name__}: {error}"


def build_error() -> Optional[str]:
    """None when the compiled backend is ready, else why it is not."""
    _build()
    return _build_err


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class _TypeTable:
    """The sorted (addr -> ref_code/size_code) table the C binary search
    walks.  Types are only registered at boot, but staleness is guarded
    by comparing registry size before each trace."""

    def __init__(self, by_addr: Dict[int, object]):
        self.size = len(by_addr)
        addrs = sorted(by_addr)
        self.addr_buf = _ffi.new("int64_t[]", addrs)
        self.ref_buf = _ffi.new(
            "int32_t[]", [by_addr[a].ref_code for a in addrs]
        )
        self.size_buf = _ffi.new(
            "int32_t[]", [by_addr[a].size_code for a in addrs]
        )


class _TraceState:
    """One collection's compiled engine: the C context plus the
    Python-side sync bookkeeping, behind the surface of
    :class:`repro.heap.cheney.CheneyEngine` (``forward``,
    ``forward_roots``, ``scan_boot``, ``drain``, opened with ``with``).

    Destination contexts are not modelled — a plan whose policy routes
    copies through them must not be handed this engine
    (``Policy.kernel_traceable``) — so the ``ctx`` arguments are accepted
    and ignored.
    """

    def __init__(self, model, type_table: _TypeTable, from_frames,
                 to_space, result, remember):
        space = model.space
        self.space = space
        self.types = model.types
        self.to_space = to_space
        self.result = result
        #: The plan's remembering rule; a drain with one runs the order
        #: compares (mode 1) and logs inserts, one without (gctk) never
        #: reads ``ctx.orders``.
        self.remember = remember
        self.error: Optional[BaseException] = None
        self.inserts: List[int] = []  # flat (s, t, slot) triples
        n_lanes = 1 + max(from_frames.values(), default=0)
        #: Per-lane (owner or None, BumpRegion) whose cursor the C side is
        #: bumping; ``synced`` holds the cursor value the Python region
        #: last agreed with.  Lists indexed by lane: the refill round-trip
        #: is the compiled trace's hot Python edge.
        self.belt_state: List[Optional[tuple]] = [None] * n_lanes
        self.synced: List[int] = [0] * n_lanes
        self._n_slabs = 0
        self._slab_keep: List[object] = []
        #: Frame indices acquired since the last (re)sync, fed by the
        #: space's acquire hook so a refill patches exactly the frames
        #: that changed instead of rebuilding the whole C view.
        self._acquired: List[int] = []
        self._order_epoch = space.order_epoch
        self._roots_buf = None
        self._roots_cap = 0

        ffi = _ffi
        # Frame-table capacity: frames only grow during a trace (releases
        # happen in reclaim, after), bounded by the remaining heap budget.
        cap = len(space._frames) + space.heap_frames_free() + 2
        self._cap = cap
        ctx = ffi.new("kctx *")
        self.ctx = ctx
        self._slab_arr = ffi.new("int64_t *[]", (cap >> 9) + 2)
        ctx.slabs = self._slab_arr
        slab_words = space.slab_frames * space.frame_words
        ctx.slab_shift = slab_words.bit_length() - 1
        ctx.slab_mask = slab_words - 1
        ctx.shift = space.frame_shift
        ctx.frame_words = space.frame_words
        self._orders_buf = ffi.new("int64_t[]", cap)
        self._mapped_buf = ffi.new("uint8_t[]", cap)
        self._in_from_buf = ffi.new("uint8_t[]", cap)
        self._belt_buf = ffi.new("int8_t[]", cap)
        ctx.orders = self._orders_buf
        ctx.mapped = self._mapped_buf
        ctx.in_from = self._in_from_buf
        ctx.frame_belt = self._belt_buf
        ctx.type_addr = type_table.addr_buf
        ctx.type_ref = type_table.ref_buf
        ctx.type_size = type_table.size_buf
        ctx.n_types = type_table.size
        # Every copied object is at least HEADER_WORDS long and comes out
        # of the collected increments' allocated words, so this worklist
        # can never overflow on a well-formed heap.
        wl_cap = result.from_words // HEADER_WORDS + 8
        self._wl_buf = ffi.new("int64_t[]", wl_cap)
        ctx.wl = self._wl_buf
        ctx.wl_cap = wl_cap
        self._ins_buf = ffi.new("int64_t[]", _INS_TRIPLES * 3)
        ctx.ins = self._ins_buf
        ctx.ins_cap = _INS_TRIPLES * 3
        self._cursor_buf = ffi.new("int64_t[]", n_lanes)
        self._limit_buf = ffi.new("int64_t[]", n_lanes)
        ctx.cursor = self._cursor_buf
        ctx.limit = self._limit_buf
        for fi, lane in from_frames.items():
            self._in_from_buf[fi] = 1
            self._belt_buf[fi] = lane
        self._export_views()
        # A lane may already have a partially filled frame (Appel minors
        # copy into the live mature region): hand its tail to C up front.
        for lane in range(n_lanes):
            tail = to_space.tail(lane)
            if tail is not None:
                self.export_belt(lane, *tail)

    # -- C view maintenance --------------------------------------------
    def _export_views(self) -> None:
        """Export slab pointers, orders and the mapped set to C — the
        full rebuild, run once at trace start — and install the acquire
        hook.  ``resync`` keeps the view current across refills."""
        self._register_slabs()
        space = self.space
        ctx = self.ctx
        n = len(space._frames)
        ctx.n_frames = n
        if self.remember is not None:
            self._orders_buf[0:n] = space.orders
        # mapped_bytes mirrors _frames[i].allocated byte-for-byte.
        _ffi.memmove(self._mapped_buf, space.mapped_bytes, n)
        space.acquire_hook = self._acquired.append

    def _register_slabs(self) -> None:
        space = self.space
        slabs = space._slabs
        for i in range(self._n_slabs, len(slabs)):
            buf = _ffi.from_buffer("int64_t[]", slabs[i], require_writable=True)
            self._slab_keep.append(buf)
            self._slab_arr[i] = buf
        self._n_slabs = len(slabs)
        self.ctx.n_slabs = len(slabs)

    def resync(self) -> None:
        """Patch the C view after a refill: only what a refill can change
        — new slabs (rare), the frames it acquired, and (when orders are
        compared) a wholesale restamp when an increment overflowed."""
        space = self.space
        ctx = self.ctx
        if len(space._slabs) > self._n_slabs:
            self._register_slabs()
        acquired = self._acquired
        if acquired:
            ctx.n_frames = len(space._frames)
            orders = space.orders
            mapped = self._mapped_buf
            obuf = self._orders_buf
            for fi in acquired:
                mapped[fi] = 1
                obuf[fi] = orders[fi]
            del acquired[:]
        if self.remember is not None and space.order_epoch != self._order_epoch:
            self._order_epoch = space.order_epoch
            n = ctx.n_frames
            self._orders_buf[0:n] = space.orders[:n]

    # -- bump-region synchronisation -----------------------------------
    def sync_belt(self, belt: int) -> None:
        """Fold the C-side cursor advance since the last sync back into
        the Python region (allocated_words, used_words, cursor)."""
        state = self.belt_state[belt]
        if state is None:
            return
        dest, region = state
        cursor = self._cursor_buf[belt]
        delta = (cursor - self.synced[belt]) >> 2
        if delta:
            region._cursor = cursor
            region._current.used_words = (cursor - region._frame_base) // 4
            region.allocated_words += delta
            if dest is not None:
                dest.copied_in_words += delta
            self.synced[belt] = cursor

    def export_belt(self, belt: int, dest, region) -> None:
        """Hand a (possibly new) destination region's tail to C."""
        self.belt_state[belt] = (dest, region)
        self._cursor_buf[belt] = region._cursor
        self._limit_buf[belt] = region._limit
        self.synced[belt] = region._cursor

    def refill(self, belt: int, size: int) -> int:
        """The C bump allocator's slow path: run the plan's reference
        copy allocation, then re-export the lane's (cursor, limit)."""
        self.sync_belt(belt)
        addr = self.to_space.alloc(belt, size)
        self.export_belt(belt, *self.to_space.tail(belt))
        self.resync()
        return addr

    # -- insert log -----------------------------------------------------
    def drain_insert_log(self) -> None:
        ctx = self.ctx
        n = int(ctx.ins_len)
        if n:
            self.inserts.extend(_ffi.unpack(self._ins_buf, n))
            ctx.ins_len = 0

    # -- the engine surface ---------------------------------------------
    def fwd(self, obj: int, ctx=None) -> int:
        addr = _lib.k_forward(self.ctx, obj)
        if addr < 0:
            self.raise_abort()
        return int(addr)

    #: The engine-surface name.  (The forwarding loop itself has one
    #: Python definition, in :mod:`repro.heap.cheney`; this calls into C.)
    forward = fwd

    def drain(self) -> None:
        mode = 0 if self.remember is None else 1
        if _lib.k_drain(self.ctx, mode) < 0:
            self.raise_abort()

    def scan_boot(self, objs) -> None:
        objs = list(objs)
        if not objs:
            return
        buf = _ffi.new("int64_t[]", objs)
        if _lib.k_scan_boot(self.ctx, buf, len(objs)) < 0:
            self.raise_abort()

    def forward_roots(self, array: List[int], ctx=None) -> None:
        """Run one root array through ``k_roots``, updating it in place.

        The whole buffer is copied back even on abort, so the array shows
        the reference's partial effect (forwarded prefix, original tail).
        """
        n = len(array)
        if n == 0:
            return
        buf = self._roots_buf
        if buf is None or self._roots_cap < n:
            self._roots_cap = max(n, 2 * self._roots_cap, 256)
            buf = self._roots_buf = _ffi.new("int64_t[]", self._roots_cap)
        buf[0:n] = array
        status = _lib.k_roots(self.ctx, buf, n)
        array[0:n] = _ffi.unpack(buf, n)
        if status < 0:
            self.raise_abort()

    def raise_abort(self) -> None:
        ctx = self.ctx
        code = int(ctx.abort_code)
        addr = int(ctx.abort_addr)
        ctx.abort_code = 0
        if self.error is not None:
            error, self.error = self.error, None
            raise error
        if code == _AB_MISALIGN:
            raise InvalidAddress(f"misaligned load from {addr:#x}")
        if code == _AB_UNMAPPED:
            raise InvalidAddress(f"load from unmapped address {addr:#x}")
        if code == _AB_TYPE:
            self.types.by_addr(addr)  # raises HeapCorruption
            raise HeapCorruption(  # pragma: no cover - table was stale
                f"substrate trace: type table missed {addr:#x}"
            )
        if code == _AB_BADFRAME:
            raise HeapCorruption(
                f"substrate trace: pointer {addr:#x} targets a frame "
                f"outside the frame table"
            )
        if code == _AB_WL:  # pragma: no cover - capacity is provably safe
            raise HeapCorruption("substrate trace: worklist overflow")
        raise RuntimeError(  # pragma: no cover - defensive
            f"substrate trace aborted with unknown code {code}"
        )

    # -- finalisation ----------------------------------------------------
    def flush_counters(self) -> None:
        """Fold the C work counters into the space and the result.

        Runs on every exit path (success or abort), so the observable
        counter state matches the reference's at the same point.
        """
        ctx = self.ctx
        space = self.space
        space.load_count += int(ctx.loads)
        space.store_count += int(ctx.stores)
        ctx.loads = 0
        ctx.stores = 0
        result = self.result
        result.copied_objects += int(ctx.copied_objects)
        result.copied_words += int(ctx.copied_words)
        result.scanned_objects += int(ctx.scanned_objects)
        result.scanned_ref_slots += int(ctx.scanned_ref_slots)
        result.boot_slots_scanned += int(ctx.boot_slots)
        result.root_slots += int(ctx.root_slots)
        ctx.copied_objects = ctx.copied_words = 0
        ctx.scanned_objects = ctx.scanned_ref_slots = 0
        ctx.boot_slots = ctx.root_slots = 0

    def __enter__(self) -> "_TraceState":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        """Fold the C state back on every exit path, then replay the
        drain-discovered inserts in discovery order.

        The replay lands after the driver's own ``record_collector_pointer``
        inserts and before the plan's ``drop_frames`` — the window in which
        nothing reads the remsets, so the deferral is unobservable
        (DESIGN §13).  It runs on abort too: the Python engine remembers
        inline, so an aborted trace has recorded what it found so far.
        """
        _ACTIVE.pop()
        self.space.acquire_hook = None
        self.flush_counters()
        for belt in range(len(self.belt_state)):
            self.sync_belt(belt)
        self.drain_insert_log()
        triples, self.inserts = self.inserts, []
        remember = self.remember
        for k in range(0, len(triples), 3):
            remember(triples[k], triples[k + 1], triples[k + 2])


class TraceEngine:
    """Opens one compiled engine per collection over ``model``'s heap:
    ``TraceEngine(model)(from_frames, to_space, result, remember=None)``,
    the contract of :mod:`repro.heap.cheney`."""

    def __init__(self, model):
        _build()
        if _build_err is not None:  # pragma: no cover - probed earlier
            raise RuntimeError(_build_err)
        self.model = model
        self._type_table: Optional[_TypeTable] = None

    def __call__(self, from_frames, to_space, result,
                 remember=None) -> _TraceState:
        by_addr = self.model.types._by_addr
        table = self._type_table
        if table is None or table.size != len(by_addr):
            table = self._type_table = _TypeTable(by_addr)
        return _TraceState(
            self.model, table, from_frames, to_space, result, remember
        )
