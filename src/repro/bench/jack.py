"""_228_jack — a parser generator generating its own parser, repeatedly
(SPEC JVM98).

Demographics: sixteen nearly identical iterations.  Each iteration builds
parse tables, token streams and intermediate strings that accumulate over
the iteration and are dropped almost entirely at its end — a sawtooth
live-size profile with clumped deaths, plus a torrent of short-lived
string buffers in between.
"""

from __future__ import annotations

from ..sim.locality import LocalityModel
from .engine import AllocSite, MutatorProgram, Table1Row, WorkloadSpec
from .lifetime import LifetimeClass
from .spec import KB

ITERATIONS = 16
TOTAL = 320 * KB


def _setup_grammar(engine: MutatorProgram) -> None:
    """Immortal grammar representation shared by all iterations."""
    mu = engine.mu
    rules = engine.alloc_immortal("refarr", length=24)
    for i in range(24):
        rule = engine.alloc_immortal("node")
        mu.write_int(rule, 0, i)
        mu.write(rules, i, rule)


def spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="jack",
        total_alloc_bytes=TOTAL,
        sites=[
            # string fragments, tokens: die immediately
            AllocSite(weight=0.48, type_name="small", lifetime="immediate", work=4.0),
            # parse-tree / table entries: live to the iteration boundary
            AllocSite(weight=0.32, type_name="node", lifetime="medium", link_prob=0.2, work=5.0),
            # character buffers
            AllocSite(
                weight=0.12, type_name="buf", lifetime="immediate", length=(4, 20), work=3.0
            ),
            # NFA/DFA state blocks
            AllocSite(weight=0.08, type_name="big", lifetime="medium", link_prob=0.15, work=6.0),
        ],
        lifetimes={
            "immediate": LifetimeClass("immediate", 0, 2 * KB),
            # medium stretches across most of one 20 KB iteration
            "medium": LifetimeClass("medium", 4 * KB, 20 * KB),
        },
        mutation_rate=0.08,
        read_rate=0.60,
        phase_bytes=TOTAL // ITERATIONS,
        phase_drop_fraction=0.95,
        setup=_setup_grammar,
        locality=LocalityModel(cache_words=16 * 1024, cache_sensitivity=0.05),
        paper=Table1Row(
            min_heap_bytes=20 * KB,
            total_alloc_bytes=TOTAL,
            gcs_large_heap=16,
            gcs_small_heap=135,
            description="Generates a parser repeatedly",
        ),
    )
