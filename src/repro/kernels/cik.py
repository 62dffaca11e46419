"""cffi substrate kernels: the compiled C engine for the copy-trace loop
and for the mutator's tape.

A Cheney trace cannot be batched — it is a pointer-chasing loop whose
next load depends on the previous copy — so the ``cffi`` tier lowers the
whole trace (forward, bulk copy, gray-queue scan) into an
ahead-of-time-compiled C extension working directly on the slab storage
(:mod:`repro.heap.space`): every simulated word is one int64 slot, frame
``i`` lives at global word ``i * frame_words``, and slabs never move, so
a C pointer per slab addresses the entire heap for the life of a space.
The same extension holds ``k_replay``, which executes the fast-path
records of a mutator tape against that storage (:class:`Replayer`; the
bail-out rule of DESIGN §13).

Both kernels read the heap through one :class:`HeapView` per VM — slab
pointers, frame collection-order stamps, the mapped-frame map, nursery
membership, the type table — kept current incrementally: the space's
``frame_hook`` names each frame acquired or released, whose entries
alone are re-read at the next :meth:`HeapView.sync`, and the stamps are
re-exported wholesale only when ``space.order_epoch`` moved.

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
* the view is synced when a trace opens and after every refill, the only
  points where frames or orders can change during a trace.

Two deliberate deviations, documented in DESIGN §13: a non-null pointer
whose frame index falls outside the frame table aborts the trace with
``HeapCorruption`` where the reference would raise ``IndexError`` (or
silently wrap a negative index), and a worklist overflow — impossible on
a well-formed heap, the capacity is ``from_words // HEADER_WORDS`` — is
also ``HeapCorruption``.  (``k_replay`` has none: what it cannot
reproduce it leaves to the reference path.)

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
from array import array
from typing import List, Optional

from ..errors import HeapCorruption, InvalidAddress
from ..heap.objectmodel import HEADER_WORDS

# The C trace assumes the 3-word header layout (status, type, length),
# k_replay that a tape chunk's array('i') records are int32.
assert HEADER_WORDS == 3 and array("i").itemsize == 4

#: Abort codes shared with the C source (k_* set ctx->abort_code).
_AB_PYERR = 1      # a Python callback stored an exception
_AB_MISALIGN = 2   # misaligned object pointer (abort_addr = faulting addr)
_AB_UNMAPPED = 3   # unmapped frame (abort_addr = faulting addr)
_AB_TYPE = 4       # unknown type word (abort_addr = the bogus word)
_AB_BADFRAME = 5   # pointer targets a frame outside the table
_AB_WL = 6         # worklist overflow (impossible on well-formed heaps)

#: k_replay's reasons for handing a record back, by ``BAIL_*`` code - 1.
BAIL_REASONS = ("alloc_slow", "barrier_slow", "root_grow", "fault")
#: ...and the hand-back that is no miss: an ``OP_MARK`` (``ReplayPath.marks``).
_BAIL_MARK = len(BAIL_REASONS) + 1

#: Capacity of the C-side insert log, in (src, tgt, slot) triples; a full
#: log flushes to Python (kr_flush) rather than aborting.
_INS_TRIPLES = 4096

_STRUCTS = r"""
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
    uint8_t *young;
    uint8_t *in_from;
    int8_t  *frame_belt;
    int64_t *type_addr;
    int32_t *type_ref;
    int32_t *type_scalar;
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

typedef struct {
    int64_t *roots;             /* RootTable.slots */
    int64_t n_roots;
    int64_t *free_slots;        /* RootTable._free, a stack */
    int64_t free_cap;
    int64_t *tdesc;             /* per tape type: addr, size, ref, scalar code */
    int64_t n_tdesc;
    double *units;              /* the tape's work-unit table */
    int64_t n_units;
    int64_t rule;               /* 0 frame-order compare, 1 nursery boundary */
    int64_t limit;              /* end of the mutator's bump region tail */
    double work;                /* vm.work_units, by value */
    int64_t *grant;             /* frames the plan granted, in pop order */
    int64_t n_grant;
    int64_t grant_order, grant_young;  /* their stamp and nursery flag */
    int64_t *tails;             /* the cursor each granted move abandoned */
    /* What a call leaves behind, one block (Replayer._fold unpacks it):
     * counter deltas, then the region cursor, the free-stack depth and
     * the granted frames moved onto. */
    int64_t loads, stores, fast, nulls, reads, writes, hits;
    int64_t allocs, alloc_words;
    int64_t executed, bail;
    int64_t cursor, n_free, granted;
} kmut;
"""

_CDEF = _STRUCTS + r"""
int64_t k_forward(kctx *c, int64_t obj);
int k_drain(kctx *c, int mode);
int k_scan_boot(kctx *c, int64_t *objs, int64_t n);
int k_roots(kctx *c, int64_t *arr, int64_t n);
int64_t k_replay(kctx *c, kmut *m, const int32_t *rec, int64_t pos, int64_t n);
extern "Python" int64_t kr_refill(kctx *, int, int64_t);
extern "Python" int kr_flush(kctx *);
"""

_SOURCE = "#include <stdint.h>\n#include <string.h>\n" + _STRUCTS + r"""
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

/* ------------------------------------------------------------------
 * k_replay: the fast-path records of a mutator tape (runtime/tape.py,
 * whose OP_* numbering this enum repeats).  No slow path lives here and
 * nothing is called back.  A bump past the frame tail moves onto the next
 * frame the plan granted (its slow path's own next step, folded back by
 * Replayer._fold); any other record that would leave the fast path --
 * a bump past the frame tail with no grant left, a store the record rule
 * would remember,
 * a root table with no free slot, any access the reference path would
 * raise on, an unknown op -- is handed back *untouched*: every test
 * comes before the record's first store or counter charge.  So is every
 * OP_MARK: no clock and no request logic lives here.
 * ------------------------------------------------------------------ */
enum {
    OP_ALLOC, OP_ALLOC_INT, OP_WORK, OP_DROP, OP_COUNT_READ, OP_COUNT,
    OP_WRITE_REF, OP_WRITE_INT, OP_READ_REF, OP_READ_ROOTED, OP_ACQUIRE,
    OP_READ_HIT, OP_MARK
};
enum { BAIL_ALLOC = 1, BAIL_BARRIER = 2, BAIL_ROOT = 3, BAIL_FAULT = 4,
       BAIL_MARK = 5 };

/* The plan's record rule for a store of non-NULL `value` from mapped
 * frame s: 1 remember, 0 do not, -1 the reference would raise. */
static inline int remembers(kctx *c, kmut *m, int64_t s, int64_t value) {
    int64_t t = value >> c->shift;
    if (m->rule)  /* gctk: `t in nursery and s not in nursery` */
        return t >= 0 && t < c->n_frames && c->young[t] && !c->young[s];
    if (t == s) return 0;  /* Fig. 4 */
    if (t < 0 || t >= c->n_frames) return -1;
    return c->orders[t] < c->orders[s];
}

/* Header decode of the field ops: the object's words and its row in the
 * type table, or NULL where the reference decode would raise. */
static inline int64_t *decode(kctx *c, int64_t obj, int64_t *ti) {
    if (obj & 3) return 0;
    int64_t fi = obj >> c->shift;
    if (!frame_ok(c, fi)) return 0;
    if (((obj >> 2) & (c->frame_words - 1)) + 3 > c->frame_words) return 0;
    int64_t *w = wordp(c, obj >> 2);
    *ti = typefind(c, w[1]);
    return *ti < 0 ? 0 : w;
}

/* Is payload word 3 + k of the object at obj inside its frame? */
static inline int in_frame(kctx *c, int64_t obj, int64_t k) {
    return ((obj >> 2) & (c->frame_words - 1)) + 3 + k < c->frame_words;
}

#define BAIL(why) do { m->bail = (why); goto out; } while (0)
#define ROOT(dst, slot) do { \
    if ((slot) < 0 || (slot) >= m->n_roots) BAIL(BAIL_FAULT); \
    (dst) = m->roots[slot]; } while (0)
/* The slot RootTable.acquire would hand out next; popped at commit. */
#define NEXT_FREE(slot) do { \
    if (!m->n_free) BAIL(BAIL_ROOT); \
    (slot) = m->free_slots[m->n_free - 1]; \
    if ((slot) < 0 || (slot) >= m->n_roots) BAIL(BAIL_FAULT); } while (0)

int64_t k_replay(kctx *c, kmut *m, const int32_t *rec, int64_t pos, int64_t n) {
    int64_t start = pos;
    m->loads = m->stores = m->fast = m->nulls = m->reads = m->writes = 0;
    m->hits = 0;
    m->allocs = m->alloc_words = 0;
    m->bail = m->granted = 0;
    for (; pos < n; pos++) {
        const int32_t *r = rec + 4 * pos;
        int64_t a = r[1], b = r[2], d = r[3];
        int64_t obj, ti, *w, count, slot;
        switch (r[0]) {
        case OP_ALLOC:
        case OP_ALLOC_INT: {
            if (a < 0 || a >= m->n_tdesc) BAIL(BAIL_FAULT);
            const int64_t *t = m->tdesc + 4 * a;
            int64_t length = r[0] == OP_ALLOC ? b : 0;
            if (length < 0 || t[0] == 0) BAIL(BAIL_FAULT);
            int64_t size = t[1] < 0 ? 3 + length : t[1];
            obj = m->cursor;
            if (size * 4 > m->limit - obj) {
                if (m->granted == m->n_grant || size > c->frame_words)
                    BAIL(BAIL_ALLOC);
                int64_t fi = m->grant[m->granted];
                m->tails[m->granted++] = obj;
                if (fi >= c->n_frames) c->n_frames = fi + 1;  /* fresh */
                c->mapped[fi] = 1;
                c->orders[fi] = m->grant_order;
                c->young[fi] = (uint8_t)m->grant_young;
                obj = m->cursor = fi << c->shift;
                m->limit = obj + (c->frame_words << 2);
            }
            int64_t s = obj >> c->shift;
            if (!frame_ok(c, s)) BAIL(BAIL_FAULT);
            int rem = remembers(c, m, s, t[0]);  /* the TIB store */
            if (rem) BAIL(rem < 0 ? BAIL_FAULT : BAIL_BARRIER);
            NEXT_FREE(slot);
            int64_t refs = t[2] < 0 ? length : t[2];
            if (r[0] == OP_ALLOC_INT && (t[3] < 0 ? length : t[3]) < 1)
                BAIL(BAIL_FAULT);
            m->cursor = obj + size * 4;
            w = wordp(c, obj >> 2);
            w[0] = 0; w[2] = length; w[1] = t[0];
            m->stores += 3; m->fast += 1;
            m->allocs += 1; m->alloc_words += size;
            m->n_free -= 1;
            m->roots[slot] = obj;
            if (r[0] == OP_ALLOC_INT) {  /* write_int(new, 0, b) */
                m->writes += 1; m->loads += 2;
                w[3 + refs] = b;
                m->stores += 1;
            }
            break;
        }
        case OP_WORK:
            if (a < 0 || a >= m->n_units) BAIL(BAIL_FAULT);
            m->work += m->units[a];
            break;
        case OP_DROP:
            if (a < 0 || a >= m->n_roots || m->n_free >= m->free_cap)
                BAIL(BAIL_FAULT);
            m->roots[a] = 0;
            m->free_slots[m->n_free++] = a;
            break;
        case OP_COUNT:
            ROOT(obj, a);
            if (!decode(c, obj, &ti)) BAIL(BAIL_FAULT);
            m->loads += 2;
            break;
        case OP_COUNT_READ:
        case OP_READ_REF:
        case OP_READ_ROOTED:
        case OP_READ_HIT:
            ROOT(obj, a);
            if (!(w = decode(c, obj, &ti))) BAIL(BAIL_FAULT);
            count = c->type_ref[ti] < 0 ? w[2] : c->type_ref[ti];
            if (b < 0 || b >= count || !in_frame(c, obj, b)) BAIL(BAIL_FAULT);
            if (r[0] == OP_READ_ROOTED) {
                NEXT_FREE(slot);
                m->n_free -= 1;
                m->roots[slot] = w[3 + b];
            }
            m->loads += r[0] == OP_COUNT_READ ? 5 : 3;
            m->reads += 1;
            if (r[0] == OP_READ_HIT && w[3 + b]) m->hits += 1;
            break;
        case OP_WRITE_INT: {
            ROOT(obj, a);
            if (!(w = decode(c, obj, &ti))) BAIL(BAIL_FAULT);
            int64_t refs = c->type_ref[ti] < 0 ? w[2] : c->type_ref[ti];
            count = c->type_scalar[ti] < 0 ? w[2] : c->type_scalar[ti];
            if (b < 0 || b >= count || refs < 0 || !in_frame(c, obj, refs + b))
                BAIL(BAIL_FAULT);
            m->writes += 1; m->loads += 2;
            w[3 + refs + b] = d;
            m->stores += 1;
            break;
        }
        case OP_WRITE_REF: {
            int64_t value = 0;
            ROOT(obj, a);
            if (d >= 0) ROOT(value, d);
            if (!(w = decode(c, obj, &ti))) BAIL(BAIL_FAULT);
            count = c->type_ref[ti] < 0 ? w[2] : c->type_ref[ti];
            if (b < 0 || b >= count || !in_frame(c, obj, b)) BAIL(BAIL_FAULT);
            if (value) {
                int rem = remembers(c, m, obj >> c->shift, value);
                if (rem) BAIL(rem < 0 ? BAIL_FAULT : BAIL_BARRIER);
            } else {
                m->nulls += 1;
            }
            m->writes += 1; m->loads += 2; m->fast += 1;
            w[3 + b] = value;
            m->stores += 1;
            break;
        }
        case OP_ACQUIRE:
            ROOT(obj, a);
            NEXT_FREE(slot);
            m->n_free -= 1;
            m->roots[slot] = obj;
            break;
        case OP_MARK:
            BAIL(BAIL_MARK);
        default:
            BAIL(BAIL_FAULT);
        }
    }
out:
    m->executed = pos - start;
    return pos;
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
_ACTIVE: List["TraceState"] = []


def _build_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "_build")


#: k_replay sums ``work_units`` as doubles and must round exactly as the
#: interpreter's ``+=`` does, so the build never uses ``-ffast-math`` /
#: ``-Ofast`` and says so to the compilers that have the switch.
_COMPILE_ARGS = [] if os.name == "nt" else ["-fno-fast-math", "-ffp-contract=off"]


def _module_name() -> str:
    text = _CDEF + _SOURCE + " ".join(_COMPILE_ARGS)
    tag = hashlib.sha256(text.encode()).hexdigest()[:16]
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
            builder.set_source(
                modname, _SOURCE, extra_compile_args=_COMPILE_ARGS
            )
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
# The per-VM heap view
# ----------------------------------------------------------------------
def _pointer(buf: array):
    """``buf``'s storage as an ``int64_t *``: valid until ``buf`` is next
    resized, and — unlike ``ffi.from_buffer`` — not an export that would
    forbid that resize."""
    return _ffi.cast("int64_t *", buf.buffer_info()[0])


def _fold_cursor(region, cursor: int, synced: int) -> int:
    """Fold a C-side bump of ``region``'s tail from ``synced`` to
    ``cursor`` back into the Python region; returns the words bumped."""
    delta = (cursor - synced) >> 2
    if delta:
        region._cursor = cursor
        region._current.used_words = (cursor - region._frame_base) // 4
        region.allocated_words += delta
    return delta


class HeapView:
    """One VM's heap as the C kernels address it (module docstring):
    the ``kctx`` both kernels take, and the buffers behind its pointers.
    Whoever is about to enter C calls :meth:`sync` first."""

    def __init__(self, model):
        _build()
        if _build_err is not None:  # pragma: no cover - probed earlier
            raise RuntimeError(_build_err)
        space = self.space = model.space
        self.types = model.types
        #: The gctk boundary barrier's nursery-frame set, once a
        #: :class:`Replayer` needs its membership mirrored; else None.
        self.young = None
        ctx = self.ctx = _ffi.new("kctx *")
        slab_words = space.slab_frames * space.frame_words
        ctx.slab_shift = slab_words.bit_length() - 1
        ctx.slab_mask = slab_words - 1
        ctx.shift = space.frame_shift
        ctx.frame_words = space.frame_words
        self._ins_buf = _ffi.new("int64_t[]", _INS_TRIPLES * 3)
        ctx.ins = self._ins_buf
        ctx.ins_cap = _INS_TRIPLES * 3
        self._n_types = -1
        self._cap = 0
        self._order_epoch = None
        #: Frames acquired or released since the last sync.
        self._touched: List[int] = []
        space.frame_hook = self._touched.append
        self.sync()

    def sync(self) -> None:
        """Bring the C view up to date with the space: new types (boot
        time only) and slabs (rare), the entries of the frames touched
        since the last sync, and every stamp if a restamp happened."""
        space = self.space
        touched = self._touched
        if len(self.types._by_addr) != self._n_types:
            self._export_types()
        elif not touched and space.order_epoch == self._order_epoch:
            return
        n = len(space._frames)
        if space.boot_frames_in_use + space.heap_frames >= self._cap:
            self._allocate(n)
        if len(space._slabs) > self._n_slabs:
            self._register_slabs()
        if touched:
            self.ctx.n_frames = n
            orders, mapped, young = space.orders, space.mapped_bytes, self.young
            orders_buf, mapped_buf = self._orders_buf, self._mapped_buf
            for fi in touched:
                mapped_buf[fi] = mapped[fi]
                orders_buf[fi] = orders[fi]
            if young is not None:
                young_buf = self._young_buf
                for fi in touched:
                    young_buf[fi] = fi in young
            del touched[:]
        if space.order_epoch != self._order_epoch:
            self._order_epoch = space.order_epoch
            self._orders_buf[0:n] = space.orders

    def _allocate(self, n: int) -> None:
        """Per-frame buffers with room for every index the heap budget
        can map, a granted fresh frame's included (plus slack for late
        boot frames), filled from the space.  Never runs mid-trace: a
        trace maps heap frames only."""
        space = self.space
        ctx = self.ctx
        cap = self._cap = space.boot_frames_in_use + space.heap_frames + 17
        self._slab_arr = ctx.slabs = _ffi.new(
            "int64_t *[]", cap // space.slab_frames + 2
        )
        self._slab_keep: List[object] = []
        self._n_slabs = 0
        self._orders_buf = ctx.orders = _ffi.new("int64_t[]", cap)
        self._mapped_buf = ctx.mapped = _ffi.new("uint8_t[]", cap)
        self._young_buf = ctx.young = _ffi.new("uint8_t[]", cap)
        self._in_from_buf = ctx.in_from = _ffi.new("uint8_t[]", cap)
        self._belt_buf = ctx.frame_belt = _ffi.new("int8_t[]", cap)
        ctx.n_frames = n
        # mapped_bytes mirrors _frames[i].allocated byte-for-byte.
        _ffi.memmove(self._mapped_buf, space.mapped_bytes, n)
        for fi in self.young or ():
            self._young_buf[fi] = 1
        del self._touched[:]
        self._order_epoch = space.order_epoch - 1  # sync() exports orders

    def _register_slabs(self) -> None:
        slabs = self.space._slabs
        for i in range(self._n_slabs, len(slabs)):
            buf = _ffi.from_buffer("int64_t[]", slabs[i], require_writable=True)
            self._slab_keep.append(buf)
            self._slab_arr[i] = buf
        self._n_slabs = self.ctx.n_slabs = len(slabs)

    def _export_types(self) -> None:
        """The sorted (addr -> ref/scalar/size code) table the C binary
        search walks."""
        by_addr = self.types._by_addr
        ctx = self.ctx
        addrs = sorted(by_addr)
        self._n_types = ctx.n_types = len(addrs)
        self._type_bufs = [_ffi.new("int64_t[]", addrs)] + [
            _ffi.new("int32_t[]", [getattr(by_addr[a], code) for a in addrs])
            for code in ("ref_code", "scalar_code", "size_code")
        ]
        (ctx.type_addr, ctx.type_ref, ctx.type_scalar,
         ctx.type_size) = self._type_bufs

    def track_young(self, frames) -> None:
        """Mirror membership of ``frames`` (a set the plan keeps current
        as it acquires and releases nursery frames) from now on."""
        self.young = frames
        for fi in frames:
            self._young_buf[fi] = 1

# ----------------------------------------------------------------------
# The trace engine
# ----------------------------------------------------------------------
class TraceState:
    """One collection's compiled engine — the heap view's context plus
    the Python-side sync bookkeeping — behind the surface of
    :class:`repro.heap.cheney.CheneyEngine` (``forward``,
    ``forward_roots``, ``scan_boot``, ``drain``, opened with ``with``):
    ``TraceState(view, from_frames, to_space, result, remember=None)``.

    Destination contexts are not modelled — a plan whose policy routes
    copies through them must not be handed this engine
    (``Policy.kernel_traceable``) — so the ``ctx`` arguments are accepted
    and ignored.
    """

    def __init__(self, view: HeapView, from_frames, to_space, result,
                 remember=None):
        self.view = view
        self.space = view.space
        self.types = view.types
        self.to_space = to_space
        self.result = result
        #: The plan's remembering rule; a drain with one runs the order
        #: compares (mode 1) and logs inserts, one without (gctk) never
        #: reads ``ctx.orders``.
        self.remember = remember
        self.from_frames = from_frames
        self.error: Optional[BaseException] = None
        self.inserts: List[int] = []  # flat (s, t, slot) triples
        n_lanes = 1 + max(from_frames.values(), default=0)
        #: Per-lane (owner or None, BumpRegion) whose cursor the C side is
        #: bumping; ``synced`` holds the cursor value the Python region
        #: last agreed with.  Lists indexed by lane: the refill round-trip
        #: is the compiled trace's hot Python edge.
        self.belt_state: List[Optional[tuple]] = [None] * n_lanes
        self.synced: List[int] = [0] * n_lanes
        self._roots_buf = None
        self._roots_cap = 0

        view.sync()
        ctx = self.ctx = view.ctx
        # Every copied object is at least HEADER_WORDS long and comes out
        # of the collected increments' allocated words, so this worklist
        # can never overflow on a well-formed heap.
        ctx.wl_cap = result.from_words // HEADER_WORDS + 8
        self._wl_buf = ctx.wl = _ffi.new("int64_t[]", ctx.wl_cap)
        ctx.wl_len = ctx.wl_head = 0
        self._cursor_buf = ctx.cursor = _ffi.new("int64_t[]", n_lanes)
        self._limit_buf = ctx.limit = _ffi.new("int64_t[]", n_lanes)
        for fi, lane in from_frames.items():
            view._in_from_buf[fi] = 1
            view._belt_buf[fi] = lane
        # A lane may already have a partially filled frame (Appel minors
        # copy into the live mature region): hand its tail to C up front.
        for lane in range(n_lanes):
            tail = to_space.tail(lane)
            if tail is not None:
                self.export_belt(lane, *tail)

    # -- bump-region synchronisation -----------------------------------
    def sync_belt(self, belt: int) -> None:
        """Fold the C-side cursor advance since the last sync back into
        the Python region (allocated_words, used_words, cursor)."""
        state = self.belt_state[belt]
        if state is None:
            return
        dest, region = state
        cursor = self._cursor_buf[belt]
        delta = _fold_cursor(region, cursor, self.synced[belt])
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
        copy allocation, then re-export the lane's (cursor, limit) and
        whatever frames and stamps that allocation touched."""
        self.sync_belt(belt)
        addr = self.to_space.alloc(belt, size)
        self.export_belt(belt, *self.to_space.tail(belt))
        self.view.sync()
        return addr

    # -- insert log -----------------------------------------------------
    def drain_insert_log(self) -> None:
        ctx = self.ctx
        n = int(ctx.ins_len)
        if n:
            self.inserts.extend(_ffi.unpack(ctx.ins, n))
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

    def forward_roots(self, roots, ctx=None) -> None:
        """Run one root array through ``k_roots``, updating it in place:
        a root table's ``array('q')`` in its own storage, anything else
        through a scratch buffer that is copied back even on abort, so
        the array shows the reference's partial effect (forwarded prefix,
        original tail) either way.
        """
        n = len(roots)
        if n == 0:
            return
        if isinstance(roots, array) and roots.typecode == "q":
            status = _lib.k_roots(self.ctx, _pointer(roots), n)
        else:
            buf = self._roots_buf
            if buf is None or self._roots_cap < n:
                self._roots_cap = max(n, 2 * self._roots_cap, 256)
                buf = self._roots_buf = _ffi.new("int64_t[]", self._roots_cap)
            buf[0:n] = roots
            status = _lib.k_roots(self.ctx, buf, n)
            roots[0:n] = _ffi.unpack(buf, n)
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

    def __enter__(self) -> "TraceState":
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
        in_from = self.view._in_from_buf
        for fi in self.from_frames:
            in_from[fi] = 0
        self.flush_counters()
        for belt in range(len(self.belt_state)):
            self.sync_belt(belt)
        self.drain_insert_log()
        triples, self.inserts = self.inserts, []
        remember = self.remember
        for k in range(0, len(triples), 3):
            remember(triples[k], triples[k + 1], triples[k + 2])


# ----------------------------------------------------------------------
# The tape kernel
# ----------------------------------------------------------------------
class Replayer:
    """Runs a mutator's tape chunks through ``k_replay``.

    ``bailed(chunk, descs, work_units)`` executes the chunk in C and
    yields, in tape order, each record the kernel handed back (the
    bail-out rule, DESIGN §13) for the caller to execute on the reference
    path.  Before every yield the C side's counters, bump cursor, free
    count and ``work_units`` are folded into the Python objects, and after
    it whatever the reference path may have changed is exported again —
    the mutator region's tail, the frames and stamps it touched
    (:meth:`HeapView.sync`), and the root table's storage if it grew —
    all O(1) plus O(frames touched).  Root slots and the free stack are
    the table's own words on both sides.
    """

    def __init__(self, view: HeapView, vm, mu, rule: int, path):
        self.view = view
        self.vm = vm
        self.mu = mu
        self.table = mu.table
        #: Where the counts go: ``in_c`` (records executed in C) and
        #: ``bails`` (records handed back, by reason).
        self.path = path
        if rule:
            view.track_young(vm.plan.barrier.nursery_frames)
        m = self.m = _ffi.new("kmut *")
        m.rule = rule
        self._out = _ffi.cast("int64_t *", _ffi.addressof(m, "loads"))
        self._descs = self._units = None
        self._region = None
        self._synced = 0
        #: ``plan.grant_key()`` when the grant in ``m`` was computed, and
        #: the buffers behind ``m.grant`` / ``m.tails``.
        self._grant_key = self._grant = None

    def bailed(self, chunk: array, descs, work_units):
        m = self.m
        if len(descs) != m.n_tdesc:
            self._descs = m.tdesc = _ffi.new("int64_t[]", [
                code for d in descs
                for code in (d.addr, d.size_code, d.ref_code, d.scalar_code)
            ])
            m.n_tdesc = len(descs)
        if len(work_units) != m.n_units:
            self._units = m.units = _ffi.new("double[]", list(work_units))
            m.n_units = len(work_units)
        address, n = chunk.buffer_info()
        records = _ffi.cast("const int32_t *", address)
        n >>= 2
        ctx = self.view.ctx
        run = _lib.k_replay
        pos = 0
        while True:
            self._export()
            pos = run(ctx, m, records, pos, n)
            bail = self._fold()
            if pos >= n:
                return
            if bail != _BAIL_MARK:
                self.path.bails[BAIL_REASONS[bail - 1]] += 1
            yield tuple(chunk[4 * pos : 4 * pos + 4])
            pos += 1

    def _export(self) -> None:
        vm = self.vm
        m = self.m
        self.view.sync()
        plan = vm.plan
        region = self._region = plan.mutator_region()
        if region is None:
            m.cursor = m.limit = self._synced = 0
        else:
            m.cursor = self._synced = region._cursor
            m.limit = region._limit
        key = plan.grant_key()
        if key != self._grant_key:
            self._grant_key = key
            frames, m.grant_order, m.grant_young = plan.frame_grant()
            m.n_grant = len(frames)
            self._grant = m.grant, m.tails = (
                _ffi.new("int64_t[]", frames or [0]),
                _ffi.new("int64_t[]", m.n_grant or 1))
        table = self.table
        slots, free = table.slots, table._free
        if len(slots) != m.n_roots or len(free) != m.free_cap:
            # Only growth moves (or extends) the table's storage.
            m.roots, m.n_roots = _pointer(slots), len(slots)
            m.free_slots, m.free_cap = _pointer(free), len(free)
        m.n_free = table._nfree
        m.work = vm.work_units

    def _fold(self) -> int:
        (loads, stores, fast, nulls, reads, writes, hits, allocs, alloc_words,
         executed, bail, cursor, n_free, granted) = _ffi.unpack(self._out, 14)
        if granted:
            self._fold_grant(granted)
        if executed:
            self.path.in_c += executed
            vm = self.vm
            plan = vm.plan
            space = vm.space
            space.load_count += loads
            space.store_count += stores
            stats = plan.barrier.stats
            stats.fast_path += fast
            stats.null_stores += nulls
            vm.field_reads += reads
            vm.field_writes += writes
            self.mu.read_hits += hits
            # By value, never as a delta: the C adds ran in tape order on
            # this very double; `+= (after - before)` rounds differently.
            vm.work_units = self.m.work
            self.table._nfree = n_free
            if allocs:
                plan.allocations += allocs
                plan.allocated_words += alloc_words
                _fold_cursor(self._region, cursor, self._synced)
                if space.heap_frames_in_use > vm.peak_footprint_frames:
                    vm.peak_footprint_frames = space.heap_frames_in_use
        return bail

    def _fold_grant(self, granted: int) -> None:
        """Run the plan's own growth step once per granted frame C moved
        onto, in order, each after folding the bumps C made in the frame
        it abandoned — so waste, ``used_words`` and ``allocated_words``
        come out as the reference slow path's."""
        m, plan, region = self.m, self.vm.plan, self._region
        for k in range(granted):
            _fold_cursor(region, m.tails[k], self._synced)
            plan.grow_mutator_region()
            if region._current.index != m.grant[k]:
                raise HeapCorruption(f"granted frame {m.grant[k]} not taken")
            self._synced = region._cursor
        m.grant += granted
        m.n_grant -= granted
        self._grant_key = plan.grant_key()
        self.path.granted += granted
