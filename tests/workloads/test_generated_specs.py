"""Generated server workloads, three ways (ROADMAP item 3, first slice).

A fixed-seed hypothesis strategy builds small ``ServerWorkloadSpec``
mappings that cross the engine's edges — every lifetime scope including a
named byte-class and an immortal one, a cache of 0 / 1 / 33 slots (none,
one, a second directory chunk), links never and always, fractional reads,
both arrival processes, rates that leave idle gaps and rates that build a
backlog — and runs each under a Beltway and a gctk plan three ways: the
Python replay under the sanitizer (the oracle: zero violations), the plain
Python replay, and the compiled replay.  All three must report the same
``RunStats`` and ``RequestStats``, failed runs included.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.engine import TAPES
from repro.errors import OutOfMemory
from repro.kernels import available
from repro.runtime.vm import VM
from repro.sanitizer import attach_sanitizer
from repro.workloads import ServerMutator, from_mapping

REGRESSIONS = Path(__file__).resolve().parents[1] / "data" / "regressions"
COLLECTORS = ("25.25.100", "gctk:Appel")
SEED = 13

ARRAYS = ("refarr", "buf")
sites = st.builds(
    lambda type_name, lifetime, length, link_prob, weight: {
        "type": type_name, "lifetime": lifetime, "weight": weight,
        "link_prob": link_prob, "work": 2.0,
        "length": [1, length] if type_name in ARRAYS else [0, 0],
    },
    st.sampled_from(("small", "node", "big") + ARRAYS),
    st.sampled_from(("request", "session", "cache", "idx", "pinned")),
    st.integers(1, 12),
    st.sampled_from((0.0, 1.0, 0.4)),
    st.integers(1, 3),
)
tasks = st.builds(
    lambda sites, lo, span, lookups, reads, weight: {
        "weight": weight, "sites": sites, "request_bytes": [lo, lo + span],
        "cache_lookups": lookups, "reads": reads, "work": 3.0,
    },
    st.lists(sites, min_size=1, max_size=3),
    st.integers(32, 128), st.integers(0, 256), st.integers(0, 2),
    st.sampled_from((0.0, 0.5, 1.5, 2.0)), st.integers(1, 3),
)
docs = st.builds(
    lambda tasks, process, rate, cache_slots, ttl, concurrent, per_session, slots: {
        "name": "generated",
        "duration_s": 0.05,
        "max_requests": 40,
        # 400 rps idles between requests, 40000 rps is all backlog
        "arrival": {"process": process, "rate_rps": rate,
                    "on_s": 0.004, "off_s": 0.006},
        "sessions": {"max_concurrent": concurrent, "slots": slots,
                     "requests_per_session": per_session,
                     "seed_objects": min(2, slots)},
        "cache": {"slots": cache_slots, "ttl_s": ttl},
        "lifetimes": {"idx": {"lo_bytes": 128, "hi_bytes": 2048},
                      "pinned": {"lo_bytes": 0, "hi_bytes": 0}},
        "tasks": [dict(task, name=f"t{i}") for i, task in enumerate(tasks)],
    },
    st.lists(tasks, min_size=1, max_size=3),
    st.sampled_from(("poisson", "bursty")),
    st.sampled_from((400.0, 4000.0, 40000.0)),
    st.sampled_from((0, 1, 33)),
    st.sampled_from(([0.0005, 0.002], [0.01, 0.01])),
    st.integers(1, 3),
    st.sampled_from(([1, 1], [2, 5])),
    st.integers(1, 6),
)


def serve(spec, collector, heap_bytes, seed, tier, sanitize=False):
    vm = VM(heap_bytes, collector=collector, locality=spec.locality,
            benchmark_name=spec.name, tier=tier)
    sanitizer = attach_sanitizer(vm) if sanitize else None
    engine = ServerMutator(vm, spec, seed=seed)
    try:
        stats = engine.run()
        if sanitizer is not None:
            sanitizer.check_now()
    except OutOfMemory as error:
        stats = vm.finish(completed=False, failure=str(error))
        stats.requests = engine.request_stats()
    assert sanitizer is None or sanitizer.report.ok
    return stats, engine.replay_path


def check_three_ways(doc, collector, heap_bytes, seed=SEED):
    spec = from_mapping(doc)
    TAPES.clear()
    oracle, path = serve(spec, collector, heap_bytes, seed, "python", sanitize=True)
    assert path.in_c == 0 and path.path == "python"
    plain, _ = serve(spec, collector, heap_bytes, seed, "python")
    assert plain == oracle and plain.requests == oracle.requests
    assert plain.requests.offered > 0
    if available()["cffi"].startswith("ok"):
        compiled, path = serve(spec, collector, heap_bytes, seed, "cffi")
        assert compiled == oracle and compiled.requests == oracle.requests
        assert path.path == "cffi" and path.bails["fault"] == 0


@settings(
    max_examples=60, derandomize=True, deadline=None, database=None,
    suppress_health_check=list(HealthCheck),
)
@given(doc=docs, heap_kb=st.sampled_from((6, 12, 48)))
def test_generated_spec_is_identical_three_ways(doc, heap_kb):
    for collector in COLLECTORS:
        try:
            check_three_ways(doc, collector, heap_kb * 1024)
        except Exception:
            case = {"doc": doc, "collector": collector,
                    "heap_bytes": heap_kb * 1024, "seed": SEED}
            text = json.dumps(case, indent=1, sort_keys=True) + "\n"
            name = hashlib.sha256(text.encode()).hexdigest()[:12]
            (REGRESSIONS / f"server_spec_{name}.json").write_text(text)
            raise


@pytest.mark.parametrize(
    "path", sorted(REGRESSIONS.glob("server_spec_*.json")), ids=lambda p: p.stem
)
def test_saved_regression_replays_clean(path):
    case = json.loads(path.read_text())
    check_three_ways(case["doc"], case["collector"], case["heap_bytes"], case["seed"])
