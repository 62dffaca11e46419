"""_202_jess — an expert system shell (SPEC JVM98).

Demographics: the highest allocation-to-live ratio of the suite (301 MB
allocated against a ~12 MB minimum heap).  A small, long-lived rule
network is built at startup; the working memory then churns through huge
numbers of tiny, immediately-dying fact and token objects, with a modest
stream of medium-lived partial matches.  Classic weak-generational-
hypothesis territory: nursery collectors shine, full-heap collectors pay.
"""

from __future__ import annotations

from ..sim.locality import LocalityModel
from .engine import AllocSite, MutatorProgram, Table1Row, WorkloadSpec
from .lifetime import LifetimeClass
from .spec import KB


def _setup_rule_network(engine: MutatorProgram) -> None:
    """The immortal Rete network: an index array over rule nodes."""
    mu = engine.mu
    table = engine.alloc_immortal("refarr", length=40)
    previous = None
    for i in range(80):
        node = engine.alloc_immortal("node")
        mu.write_int(node, 0, i)
        if i < 40:
            mu.write(table, i, node)
        if previous is not None:
            mu.write(node, 1, previous)
        previous = node


def spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="jess",
        total_alloc_bytes=301 * KB,
        sites=[
            # fact/token objects: die almost immediately
            AllocSite(weight=0.55, type_name="small", lifetime="immediate", work=3.0),
            # partial matches: survive a rule firing or two
            AllocSite(weight=0.28, type_name="node", lifetime="short", link_prob=0.15, work=5.0),
            # activations: medium-lived
            AllocSite(weight=0.10, type_name="big", lifetime="medium", link_prob=0.10, work=6.0),
            # agenda vectors
            AllocSite(
                weight=0.07, type_name="refarr", lifetime="short", length=(2, 8), work=4.0
            ),
        ],
        lifetimes={
            "immediate": LifetimeClass("immediate", 0, int(1.5 * KB)),
            "short": LifetimeClass("short", 512, 3 * KB),
            "medium": LifetimeClass("medium", 2 * KB, 8 * KB),
        },
        mutation_rate=0.10,
        read_rate=0.50,
        setup=_setup_rule_network,
        locality=LocalityModel(cache_words=16 * 1024, cache_sensitivity=0.05),
        paper=Table1Row(
            min_heap_bytes=12 * KB,
            total_alloc_bytes=301 * KB,
            gcs_large_heap=24,
            gcs_small_heap=337,
            description="An expert system shell",
        ),
    )
