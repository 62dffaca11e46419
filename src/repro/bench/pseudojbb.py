"""pseudojbb — SPEC JBB2000 modified to run a fixed transaction count.

Demographics: the largest benchmark of the suite (70 MB minimum heap).
Immortal warehouse/district/item infrastructure is built at startup; the
transaction loop then creates order and order-line objects that live for
a *window of transactions* before retiring — the classic middle-aged
population that defeats pure nursery collectors (promoted, then dead
soon after).  Orders are linked into warehouse queues, generating heavy
old→young pointer traffic.

Locality: the paper twice singles pseudojbb out — Fig. 1(b)'s paging at
large heaps and §4.2.6's "Appel performs very poorly in large heaps ...
the program thrashes when its nursery becomes too large".  The locality
model therefore includes both a strong cache sensitivity (penalising
large allocation regions) and a physical-memory bound at ~2× the minimum
heap, beyond which footprint pages.
"""

from __future__ import annotations

from ..sim.locality import LocalityModel
from .engine import AllocSite, MutatorProgram, Table1Row, WorkloadSpec
from .lifetime import LifetimeClass
from .spec import KB

WAREHOUSE_CHUNKS = 6
ITEMS_PER_CHUNK = 32


def _setup_warehouses(engine: MutatorProgram) -> None:
    """Immortal 3-tier infrastructure (~18 KB scaled), chunk-indexed."""
    mu = engine.mu
    directory = engine.alloc_immortal("refarr", length=WAREHOUSE_CHUNKS)
    for c in range(WAREHOUSE_CHUNKS):
        chunk = engine.alloc_immortal("refarr", length=ITEMS_PER_CHUNK)
        mu.write(directory, c, chunk)
        for i in range(ITEMS_PER_CHUNK):
            item = engine.alloc_immortal("big")
            mu.write_int(item, 0, c * ITEMS_PER_CHUNK + i)
            mu.write(chunk, i, item)


def spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="pseudojbb",
        total_alloc_bytes=381 * KB,
        sites=[
            # orders / order lines: middle-aged, linked into queues
            AllocSite(weight=0.34, type_name="big", lifetime="order", link_prob=0.35, work=6.0),
            # per-transaction records
            AllocSite(weight=0.34, type_name="node", lifetime="short", link_prob=0.10, work=5.0),
            # transaction temporaries
            AllocSite(weight=0.22, type_name="small", lifetime="immediate", work=4.0),
            # batch vectors
            AllocSite(
                weight=0.10, type_name="refarr", lifetime="order", length=(3, 10),
                link_prob=0.25, work=4.0,
            ),
        ],
        lifetimes={
            "immediate": LifetimeClass("immediate", 0, 1 * KB),
            "short": LifetimeClass("short", 1 * KB, 6 * KB),
            # the middle-aged order window: long enough to be promoted by
            # any nursery collector, dead well before a full-heap GC
            "order": LifetimeClass("order", 8 * KB, 48 * KB),
        },
        mutation_rate=0.25,
        read_rate=1.0,
        setup=_setup_warehouses,
        locality=LocalityModel(
            cache_words=16 * 1024,
            cache_sensitivity=0.50,
            # ~2x the minimum heap: larger footprints thrash (Fig. 1b).
            memory_words=(140 * KB) // 4,
            paging_factor=3.0,
        ),
        paper=Table1Row(
            min_heap_bytes=70 * KB,
            total_alloc_bytes=381 * KB,
            gcs_large_heap=4,
            gcs_small_heap=126,
            description="Emulates a 3-tier transaction processing system",
        ),
    )
