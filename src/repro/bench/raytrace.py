"""_205_raytrace — a ray tracer (SPEC JVM98).

Demographics: a moderately sized immortal scene graph (geometry, BSP
nodes) built during setup, then a rendering loop allocating enormous
numbers of tiny vectors/intersection records that die within the
expression that created them.  Very low pointer mutation — rays are
written once — and few collections are needed at large heaps (9 in the
paper's Table 1).
"""

from __future__ import annotations

from ..sim.locality import LocalityModel
from .engine import AllocSite, MutatorProgram, Table1Row, WorkloadSpec
from .lifetime import LifetimeClass
from .spec import KB


def _setup_scene(engine: MutatorProgram) -> None:
    """Immortal scene graph: objects, BSP tree, materials (~5 KB scaled)."""
    mu = engine.mu
    index = engine.alloc_immortal("refarr", length=56)
    for i in range(56):
        prim = engine.alloc_immortal("big")  # 64 B primitives
        mu.write_int(prim, 0, i)
        mu.write(index, i, prim)
    # BSP interior nodes
    previous = None
    for i in range(52):
        node = engine.alloc_immortal("node")
        if previous is not None:
            mu.write(node, 0, previous)
        previous = node


def spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="raytrace",
        total_alloc_bytes=127 * KB,
        sites=[
            # vectors / intersection points: die immediately
            AllocSite(weight=0.72, type_name="small", lifetime="immediate", work=5.0),
            # rays: die within one pixel
            AllocSite(weight=0.18, type_name="node", lifetime="immediate", work=6.0),
            # shading records: short
            AllocSite(weight=0.08, type_name="big", lifetime="short", work=6.0),
            # per-scanline buffers
            AllocSite(
                weight=0.02, type_name="buf", lifetime="short", length=(8, 24), work=3.0
            ),
        ],
        lifetimes={
            "immediate": LifetimeClass("immediate", 0, 1 * KB),
            "short": LifetimeClass("short", 1 * KB, 4 * KB),
        },
        mutation_rate=0.02,
        read_rate=0.80,
        setup=_setup_scene,
        locality=LocalityModel(cache_words=16 * 1024, cache_sensitivity=0.05),
        paper=Table1Row(
            min_heap_bytes=15 * KB,
            total_alloc_bytes=127 * KB,
            gcs_large_heap=9,
            gcs_small_heap=139,
            description="A ray tracing program",
        ),
    )
