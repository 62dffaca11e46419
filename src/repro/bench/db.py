"""_209_db — an in-memory database (SPEC JVM98).

Demographics: almost all live data is a big, immortal database — an index
vector over record objects — built during setup; the query loop then
allocates only small, immediately-dying temporaries while *reading*
heavily and shuffling index entries (the famous address-vector sort).
GC is "not a dominant factor" (§4.2.6) but the benchmark is very
locality-sensitive: performance varies with how collectors lay out the
records, which the cost model expresses through a high cache sensitivity.
"""

from __future__ import annotations

from ..sim.locality import LocalityModel
from .engine import AllocSite, MutatorProgram, Table1Row, WorkloadSpec
from .lifetime import LifetimeClass
from .spec import KB

#: Number of database records (the scaled equivalent of db's ~16 K),
#: indexed through chunked vectors (objects may not exceed a frame).
CHUNKS = 4
RECORDS_PER_CHUNK = 24


def _setup_database(engine: MutatorProgram) -> None:
    """The immortal database: a chunked index vector over 64-byte records."""
    mu = engine.mu
    directory = engine.alloc_immortal("refarr", length=CHUNKS)
    chunks = []
    for c in range(CHUNKS):
        chunk = engine.alloc_immortal("refarr", length=RECORDS_PER_CHUNK)
        mu.write(directory, c, chunk)
        chunks.append(chunk)
        for i in range(RECORDS_PER_CHUNK):
            record = engine.alloc_immortal("big")
            mu.write_int(record, 0, c * RECORDS_PER_CHUNK + i)
            values = engine.alloc_immortal("buf", length=6)  # field payload
            mu.write(record, 0, values)
            mu.write(chunk, i, record)

    rng = engine.rng
    original_mutate = engine._mutate_pointers

    def shuffle_index() -> None:
        """db's dominant mutation: swapping entries of the index vector."""
        chunk = chunks[rng.randrange(CHUNKS)]
        i = rng.randrange(RECORDS_PER_CHUNK)
        j = rng.randrange(RECORDS_PER_CHUNK)
        a = engine.mu.read(chunk, i)
        b = engine.mu.read(chunk, j)
        engine.mu.write(chunk, i, b)
        engine.mu.write(chunk, j, a)
        a.drop()
        b.drop()
        if rng.random() < 0.1:
            original_mutate()

    engine._mutate_pointers = shuffle_index


def spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="db",
        total_alloc_bytes=102 * KB,
        sites=[
            # query temporaries: enumerators, string fragments
            AllocSite(weight=0.78, type_name="small", lifetime="immediate", work=6.0),
            # result assemblies
            AllocSite(weight=0.16, type_name="node", lifetime="short", work=6.0),
            # transient result vectors
            AllocSite(
                weight=0.06, type_name="refarr", lifetime="short", length=(2, 10), work=4.0
            ),
        ],
        lifetimes={
            "immediate": LifetimeClass("immediate", 0, 1 * KB),
            "short": LifetimeClass("short", 1 * KB, 5 * KB),
        },
        mutation_rate=0.45,  # the index shuffle
        read_rate=2.5,  # db reads far more than it allocates
        setup=_setup_database,
        locality=LocalityModel(cache_words=12 * 1024, cache_sensitivity=0.45),
        paper=Table1Row(
            min_heap_bytes=22 * KB,
            total_alloc_bytes=102 * KB,
            gcs_large_heap=5,
            gcs_small_heap=115,
            description="Simulates a database management system",
        ),
    )
