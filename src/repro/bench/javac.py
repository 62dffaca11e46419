"""_213_javac — the JDK 1.0.2 Java compiler compiling jess (SPEC JVM98).

Demographics: four compilation iterations, each of which grows large,
heavily *cyclic* medium-lived structures (ASTs, symbol tables, constant
pools that reference each other) and then releases almost everything at
the iteration boundary.  The clumped deaths and the cross-increment
cycles are exactly what §4.2.4 blames for Beltway 25.25's regression on
javac: an incomplete configuration never reclaims a large dead cycle
whose members were promoted into different increments.
"""

from __future__ import annotations

from ..sim.locality import LocalityModel
from .engine import AllocSite, MutatorProgram, Table1Row, WorkloadSpec
from .lifetime import LifetimeClass
from .spec import KB

#: The paper compiles jess four times.
ITERATIONS = 4
TOTAL = 266 * KB


def _setup_compiler(engine: MutatorProgram) -> None:
    """Immortal compiler infrastructure: intern table, type objects."""
    mu = engine.mu
    intern = engine.alloc_immortal("refarr", length=32)
    for i in range(32):
        sym = engine.alloc_immortal("small")
        mu.write(intern, i, sym)


def spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="javac",
        total_alloc_bytes=TOTAL,
        sites=[
            # AST nodes: live until the end of the compilation iteration
            AllocSite(weight=0.42, type_name="node", lifetime="medium", link_prob=0.35, work=5.0),
            # scanner tokens and strings: die fast
            AllocSite(weight=0.30, type_name="small", lifetime="short", work=4.0),
            # symbol table entries / class representations
            AllocSite(weight=0.16, type_name="big", lifetime="medium", link_prob=0.30, work=6.0),
            # member vectors
            AllocSite(
                weight=0.12, type_name="refarr", lifetime="medium", length=(2, 12),
                link_prob=0.2, work=4.0,
            ),
        ],
        lifetimes={
            "short": LifetimeClass("short", 0, 4 * KB),
            # medium: up to most of an iteration — the phase boundary kills
            # the stragglers in a clump.
            "medium": LifetimeClass("medium", 4 * KB, 32 * KB),
        },
        mutation_rate=0.20,
        read_rate=0.80,
        cycle_every_bytes=2 * KB,  # doubly-linked ASTs, scope cycles
        cycle_size=10,
        cycle_lifetime="medium",
        phase_bytes=TOTAL // ITERATIONS,
        phase_drop_fraction=0.85,
        setup=_setup_compiler,
        locality=LocalityModel(cache_words=16 * 1024, cache_sensitivity=0.10),
        paper=Table1Row(
            min_heap_bytes=32 * KB,
            total_alloc_bytes=TOTAL,
            gcs_large_heap=10,
            gcs_small_heap=100,
            description="The Sun JDK 1.02 Java compiler compiling jess",
        ),
    )
