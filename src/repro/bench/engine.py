"""The synthetic-mutator engine driving every benchmark workload.

A :class:`WorkloadSpec` declares a benchmark's demographics — allocation
sites with size and lifetime distributions, pointer-mutation and read
rates, cyclic-garbage construction, phase boundaries and a locality model.
The engine executes the spec deterministically against a VM: it is a real
mutator (rooted handles, barriered stores) whose behaviour the collectors
observe exactly as they would a Java program's.

What the program does is a function of (spec, seed) alone, so it is decided
once — :class:`MutatorProgram` records it onto a tape — and every cell
that holds the program constant replays the tape into its own VM
(:class:`SyntheticMutator`; contract in DESIGN.md §9).  That
record-then-replay substrate — :mod:`repro.runtime.tape` and the one
cache :data:`TAPES` here — is the repo's only mutator engine; the
open-loop server workloads are a second small program on top of it
(:class:`repro.workloads.engine.RequestProgram`, DESIGN.md §15).

The collector-relevant levers, mapped to the paper's five key ideas
(§2.1):

* infant mortality  ← ``immediate``/``short`` lifetime classes;
* old objects       ← ``immortal`` setup structures and ``long`` classes;
* time to die       ← ``medium`` classes (the older-first sweet spot);
* pointer tracking  ← ``link_prob`` (old→young edges) and
  ``mutation_rate`` (random pointer shuffling);
* completeness      ← ``cycle_every_bytes`` rings that die together after
  aging across increments (javac's cyclic structures, §4.2.4).
"""

from __future__ import annotations

import copy
import math
import random
import sys
from array import array
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..heap.address import WORD_BYTES
from ..heap.objectmodel import HEADER_WORDS, TypeRegistry
from ..runtime.mutator import MutatorContext
from ..runtime.roots import Handle
from ..runtime.tape import (
    RecordedHandle,
    ReplayPath,
    Tape,
    TapeCache,
    TapeRecorder,
    replay,
)
from ..errors import ConfigError
from ..runtime.vm import EXPERIMENT_FRAME_SHIFT, VM
from ..sim.locality import NO_LOCALITY, LocalityModel
from ..sim.stats import RunStats
from .lifetime import DeathSchedule, LifetimeClass

#: Shared object vocabulary (word sizes include the 3-word header).
STANDARD_TYPES: Tuple[Tuple[str, int, int], ...] = (
    ("small", 1, 2),  # 6 words / 24 B — cons cells, iterator cursors
    ("node", 3, 2),  # 8 words / 32 B — typical small Java object
    ("big", 4, 9),  # 16 words / 64 B — records, transaction objects
)

#: Type names a declarative workload may allocate from (the standard
#: vocabulary plus the two array shapes every VM defines).
WORKLOAD_TYPE_NAMES: Tuple[str, ...] = ("small", "node", "big", "refarr", "buf")

#: Largest refarr/buf element count a single frame can hold at the
#: harness frame size — the reproduction, like GCTk, has no large-object
#: space, so bigger arrays can never allocate.  Validated up front so a
#: spec fails when it is built, not mid-run.
MAX_ARRAY_LENGTH: int = (
    (1 << EXPERIMENT_FRAME_SHIFT) // WORD_BYTES - HEADER_WORDS
)


def ensure_standard_types(vm: VM) -> None:
    """Define the shared object vocabulary on ``vm`` (idempotent).

    Both recorded programs — the closed-loop :class:`MutatorProgram` and
    the server :class:`~repro.workloads.engine.RequestProgram` — allocate
    from this vocabulary, so allocation sites are portable between their
    specs.
    """
    existing = {d.name for d in vm.types}
    for name, nrefs, nscalars in STANDARD_TYPES:
        if name not in existing:
            vm.define_type(name, nrefs=nrefs, nscalars=nscalars)
    if "refarr" not in existing:
        vm.define_ref_array("refarr")
    if "buf" not in existing:
        vm.define_scalar_array("buf")


@dataclass(frozen=True)
class AllocSite:
    """One allocation site of a workload.

    Every rule about a valid site is checked here, each raising
    ``ConfigError(message, pointer)`` with the field's pointer; whether
    ``lifetime`` is declared is the owning spec's rule."""

    weight: float
    type_name: str  # "small" | "node" | "big" | "refarr" | "buf"
    lifetime: str  # key into WorkloadSpec.lifetimes
    length: Tuple[int, int] = (0, 0)  # array length range
    link_prob: float = 0.0  # P(an existing live object points at me)
    work: float = 4.0  # mutator computation per allocation

    def __post_init__(self) -> None:
        if self.type_name not in WORKLOAD_TYPE_NAMES:
            raise ConfigError(f"unknown type {self.type_name!r} "
                              f"(have {WORKLOAD_TYPE_NAMES})", "/type")
        for name in ("weight", "work"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"site {name} must be finite (got {value})",
                                  f"/{name}")
        if self.weight <= 0:
            raise ConfigError(f"site weight must be > 0 (got {self.weight:g})",
                              "/weight")
        lo, hi = self.length
        if not 0 <= lo <= hi:
            raise ConfigError(f"site length range {list(self.length)} must "
                              "have 0 <= lo <= hi", "/length")
        if hi > MAX_ARRAY_LENGTH:
            raise ConfigError(
                f"array length {hi} exceeds the frame capacity "
                f"({MAX_ARRAY_LENGTH} elements; no large-object space)",
                "/length",
            )
        if not 0 <= self.link_prob <= 1:
            raise ConfigError("site link_prob must be in [0, 1] "
                              f"(got {self.link_prob:g})", "/link_prob")
        if self.work < 0:
            raise ConfigError(f"site work must be >= 0 (got {self.work:g})",
                              "/work")


@dataclass(frozen=True)
class Table1Row:
    """The paper's Table 1 characterisation (already scaled to our units)."""

    min_heap_bytes: int
    total_alloc_bytes: int
    gcs_large_heap: int
    gcs_small_heap: int
    description: str = ""


@dataclass
class WorkloadSpec:
    """Complete declarative description of one benchmark."""

    name: str
    total_alloc_bytes: int
    sites: List[AllocSite]
    lifetimes: Dict[str, LifetimeClass]
    mutation_rate: float = 0.0  # pointer shuffles per allocation
    read_rate: float = 0.0  # field reads per allocation
    cycle_every_bytes: int = 0  # build a doomed ring every N bytes
    cycle_size: int = 0
    cycle_lifetime: str = "medium"
    phase_bytes: int = 0  # phase boundary period (0 = none)
    phase_drop_fraction: float = 0.0  # fraction of scheduled killed there
    setup: Optional[Callable[["MutatorProgram"], None]] = None
    locality: LocalityModel = NO_LOCALITY
    paper: Optional[Table1Row] = None

    def __post_init__(self) -> None:
        if self.total_alloc_bytes <= 0:
            raise ConfigError(f"{self.name}: total_alloc_bytes must be positive")
        if not self.sites:
            raise ConfigError(f"{self.name}: a workload needs allocation sites")
        for site in self.sites:
            if site.lifetime not in self.lifetimes:
                raise ConfigError(
                    f"{self.name}: site lifetime {site.lifetime!r} is not "
                    f"defined (have {sorted(self.lifetimes)})"
                )
        if self.cycle_every_bytes and self.cycle_size <= 1:
            raise ConfigError(f"{self.name}: cycles need cycle_size >= 2")
        if self.cycle_every_bytes and self.cycle_lifetime not in self.lifetimes:
            raise ConfigError(
                f"{self.name}: cycle lifetime {self.cycle_lifetime!r} undefined"
            )
        if self.phase_bytes and not 0 <= self.phase_drop_fraction <= 1:
            raise ConfigError(
                f"{self.name}: phase_drop_fraction must be in [0, 1]"
            )

    def scaled(self, factor: float) -> "WorkloadSpec":
        """A copy with allocation volume scaled by ``factor``.

        Phase boundaries scale with it so the run keeps its number of
        phases (a 0.5x javac still compiles four times, each half as
        long); lifetimes and live-set sizes are *not* scaled — the factor
        shortens the run, it does not change the heap shape."""
        import dataclasses

        return dataclasses.replace(
            self,
            total_alloc_bytes=int(self.total_alloc_bytes * factor),
            phase_bytes=int(self.phase_bytes * factor),
        )


def no_gc_heap_bytes(spec, factor: int = 16) -> int:
    """Heap size at which a run of ``spec`` never needs to collect.

    The idealised free-list/infinite-heap reference the SLO distillation
    subtracts: with the heap sized to a multiple of *everything the run
    will ever allocate*, no belt fills, no collection triggers, and the
    measured latencies are pure mutator cost (arrivals are seeded
    independently of the collector, so the populations stay comparable).
    ``factor`` 16 leaves room for the spec's ``total_alloc_bytes`` being
    an estimate for server workloads (request mix and session/cache
    churn are stochastic) — validated to produce zero collections across
    the collector families on the bundled specs.  Accepts anything with
    a ``total_alloc_bytes`` attribute (bench or server specs); the
    result is frame-aligned so it is a legal heap size.
    """
    from ..runtime.vm import EXPERIMENT_FRAME_SHIFT

    frame = 1 << EXPERIMENT_FRAME_SHIFT
    want = int(spec.total_alloc_bytes) * factor
    return max(2 * frame, -(-want // frame) * frame)


#: Records per tape chunk: the recording generator runs at most this far
#: (plus one loop iteration) ahead of the replay, so a run of any length
#: holds O(chunk) of un-replayed tape.
TAPE_CHUNK_RECORDS = 4096

#: Byte budget of the per-process tape cache.  The six bundled specs at
#: scale 1.0 record 0.3-0.7 MB each (3.2 MB together), so a whole figure
#: at one scale and seed fits with room to spare; a tape that alone
#: exceeds the budget (a scale-10 run) is streamed chunk by chunk and
#: never retained.
TAPE_CACHE_BYTES = 6 * 1024 * 1024

#: ``(seed, spec) -> Tape``, compared with ``==``: ``WorkloadSpec`` is an
#: eq-dataclass, so ``benchmark_spec("jess", 0.5)`` built twice matches.
TAPES = TapeCache(TAPE_CACHE_BYTES)


@dataclass(frozen=True)
class ProgramSummary:
    """A finished program's bookkeeping, kept with its tape."""

    allocated_bytes: int
    cycles_built: int
    phases_completed: int
    immortal_slots: Tuple[int, ...]
    scheduled: int


def _replayable(spec: WorkloadSpec) -> bool:
    """Whether ``spec``'s program is a function of (spec, seed) alone, as
    far as can be told: a ``setup`` that is not a module-level function
    (a lambda, a closure, a bound method) may carry state no ``==`` on the
    spec sees, so its tape is used once and dropped."""
    setup = spec.setup
    if setup is None:
        return True
    module = sys.modules.get(getattr(setup, "__module__", None))
    return getattr(module, getattr(setup, "__qualname__", ""), None) is setup


class MutatorProgram:
    """Decides what a WorkloadSpec's program does, against a recorder.

    This is the object ``spec.setup`` callbacks receive: ``mu`` is a
    :class:`~repro.runtime.tape.TapeRecorder` with ``MutatorContext``'s
    surface, ``rng`` the run's one random stream, and ``alloc_immortal`` /
    ``_mutate_pointers`` the hooks the bundled benchmarks use.  Every
    decision — site, size, lifetime, victim, slot — is made here from
    ``rng`` and the program's own bookkeeping, never from the heap, which
    is why the recording holds under every collector and heap size.
    """

    def __init__(self, spec: WorkloadSpec, seed: int, types: TypeRegistry):
        self.spec = spec
        self.rng = random.Random(seed)
        self.types = types
        self.mu = TapeRecorder()
        self.schedule = DeathSchedule()
        self.immortals: List[RecordedHandle] = []
        self.allocated_bytes = 0
        self._next_cycle = spec.cycle_every_bytes
        self._next_phase = spec.phase_bytes
        self._pending_cycle_entry: Optional[RecordedHandle] = None
        self.cycles_built = 0
        self.phases_completed = 0
        # randrange(n) for positive n is exactly one _randbelow(n) draw,
        # and randint(a, b) is a + _randbelow(b - a + 1); binding it
        # directly skips their argument normalisation (identical stream).
        self._randbelow = self.rng._randbelow

    def summary(self) -> ProgramSummary:
        return ProgramSummary(
            allocated_bytes=self.allocated_bytes,
            cycles_built=self.cycles_built,
            phases_completed=self.phases_completed,
            immortal_slots=tuple(h.slot for h in self.immortals),
            scheduled=len(self.schedule),
        )

    # ------------------------------------------------------------------
    # Allocation helpers
    # ------------------------------------------------------------------
    def alloc_immortal(self, type_name: str, length: int = 0) -> RecordedHandle:
        """Setup-time allocation pinned for the whole run."""
        desc = self.types.by_name(type_name)
        handle = self.mu.alloc(desc, length)
        self.allocated_bytes += desc.size_words(length) * WORD_BYTES
        self.immortals.append(handle)
        return handle

    def _random_slot(self, handle: RecordedHandle) -> int:
        count = self.mu.ref_count(handle)
        return self._randbelow(count) if count else -1

    def _random_live(self, include_immortals: bool = True) -> Optional[RecordedHandle]:
        immortals = self.immortals
        pool = (len(immortals) if include_immortals else 0) + len(self.schedule)
        if pool == 0:
            return None
        randbelow = self._randbelow
        if include_immortals and randbelow(pool) < len(immortals):
            return immortals[randbelow(len(immortals))]
        return self.schedule.pick(randbelow)

    def link_from_live(self, target: RecordedHandle) -> None:
        """Make a random *mortal* live object point at ``target``.

        Holders are drawn from the death-scheduled population only: a
        pointer from an immortal would retain its target (and the target's
        whole subtree) for the rest of the run, which no SPEC benchmark
        does by accident.  Mortal holders still produce old→young pointers
        once promoted — the traffic the write barriers exist for."""
        holder = self._random_live(include_immortals=False)
        if holder is None or holder.is_null:
            return
        slot = self._random_slot(holder)
        if slot >= 0:
            self.mu.write(holder, slot, target)

    # ------------------------------------------------------------------
    # Behaviours
    # ------------------------------------------------------------------
    def _mutate_pointers(self) -> None:
        a = self._random_live(include_immortals=False)
        b = self._random_live()
        if a is None or b is None or a.is_null or b.is_null:
            return
        slot = self._random_slot(a)
        if slot >= 0:
            self.mu.write(a, slot, b)

    def _read_fields(self) -> None:
        a = self._random_live()
        if a is None or a.is_null:
            return
        count = a.refs
        if count:
            self.mu.count_and_read(a, self._randbelow(count))
        else:
            self.mu.ref_count(a)

    def _build_cycle(self) -> None:
        """Grow a cyclic structure whose members span *increments*.

        Each call allocates a small ring and cross-links it with the ring
        built ``cycle_every_bytes`` of allocation earlier — far enough
        apart that the two generations of ring nodes are promoted by
        different nursery collections into different belt-1 increments.
        The resulting dead structure is cyclic across increments: complete
        configurations reclaim it when the top belt is collected en masse;
        Beltway X.X never does (the javac anecdote of §4.2.4).
        """
        spec = self.spec
        mu = self.mu
        death = spec.lifetimes[spec.cycle_lifetime].sample(self.rng)
        nodes = []
        desc = self.types.by_name("node")
        for _ in range(spec.cycle_size):
            handle = mu.alloc(desc)
            self.allocated_bytes += desc.size_words() * WORD_BYTES
            nodes.append(handle)
        for i, handle in enumerate(nodes):
            mu.write(handle, 0, nodes[(i + 1) % len(nodes)])
        pending = self._pending_cycle_entry
        if pending is not None:
            # Cross-increment back edges: this ring <-> the ring built one
            # cycle period earlier.  Rings pair up (and only pair up — a
            # longer chain would keep the whole history alive through the
            # always-rooted newest ring), so each dead pair is an isolated
            # cycle spanning two increments.
            mu.write(nodes[0], 1, pending)
            mu.write(pending, 1, nodes[0])
            pending.drop()
            self._pending_cycle_entry = None
        else:
            self._pending_cycle_entry = mu.copy_handle(nodes[0])
        for handle in nodes:
            if death is None:
                self.immortals.append(handle)
            else:
                self.schedule.schedule(self.allocated_bytes + death, handle)
        self.cycles_built += 1

    def _phase_boundary(self) -> None:
        """End of a compiler iteration / parser run / transaction batch."""
        self.schedule.drop_fraction(self.rng, self.spec.phase_drop_fraction)
        self.phases_completed += 1
        self.mu.work(64.0)  # per-phase bookkeeping computation

    # ------------------------------------------------------------------
    def record(self) -> Iterator[array]:
        """Run the program, yielding its tape a chunk at a time.

        The draws below are spelled the way ``random.py`` performs them —
        ``choices(rows, cum_weights=cw)[0]`` is ``rows[bisect(cw, random()
        * total, 0, hi)]``, ``randint(a, b)`` is ``a + _randbelow(b - a +
        1)`` — so the stream is the one ``rng.choices`` / ``rng.randint``
        / ``LifetimeClass.sample`` would consume, without their per-call
        argument handling.
        """
        spec = self.spec
        mu = self.mu
        types = self.types
        if spec.setup is not None:
            spec.setup(self)
        rows = []
        for site in spec.sites:
            desc = types.by_name(site.type_name)
            lifetime = spec.lifetimes[site.lifetime]
            length_lo, length_hi = site.length
            death_lo, death_hi = lifetime.lo_bytes, lifetime.hi_bytes
            rows.append((
                site,
                desc,
                mu.type_index(desc),
                site.type_name in ("small", "node", "big"),
                # length: lo + randbelow(width); width 0 = no draw
                length_lo,
                length_hi - length_lo + 1 if site.length != (0, 0) else 0,
                # death volume likewise; lo None = immortal
                None if lifetime.immortal else death_lo,
                death_hi - death_lo + 1 if death_hi > death_lo else 0,
            ))
        cum_weights = list(accumulate(site.weight for site in spec.sites))
        weight_total = cum_weights[-1] + 0.0
        last_row = len(rows) - 1
        random_ = self.rng.random
        randbelow = self._randbelow
        ops = mu.ops
        take_chunk = mu.take_chunk
        alloc = mu.alloc
        alloc_int = mu.alloc_int
        work = mu.work
        schedule = self.schedule
        schedule_add = schedule.schedule
        schedule_reap = schedule.reap
        immortals_append = self.immortals.append
        total = spec.total_alloc_bytes
        mutation_rate = spec.mutation_rate
        read_whole, read_frac = divmod(spec.read_rate, 1.0)
        read_whole = int(read_whole)
        cycle_every = spec.cycle_every_bytes
        phase_bytes = spec.phase_bytes
        chunk_ints = TAPE_CHUNK_RECORDS * 4
        while self.allocated_bytes < total:
            if len(ops) >= chunk_ints:
                yield take_chunk()
            (site, desc, type_index, scalar_shape, length_lo, length_width,
             death_lo, death_width) = rows[
                bisect(cum_weights, random_() * weight_total, 0, last_row)
            ]
            length = length_lo + randbelow(length_width) if length_width else 0
            size_code = desc.size_code
            allocated = self.allocated_bytes + (
                size_code if size_code >= 0 else HEADER_WORDS + length
            ) * WORD_BYTES
            self.allocated_bytes = allocated
            if scalar_shape:
                handle = alloc_int(
                    type_index, desc.ref_code, allocated & 0x7FFFFFFF
                )
            else:
                handle = alloc(desc, length)
            if site.link_prob and random_() < site.link_prob:
                self.link_from_live(handle)
            if death_lo is None:
                immortals_append(handle)
            else:
                schedule_add(
                    allocated + death_lo
                    + (randbelow(death_width) if death_width else 0),
                    handle,
                )
            if mutation_rate and random_() < mutation_rate:
                self._mutate_pointers()
            # rates above 1.0 mean several operations per allocation
            for _ in range(read_whole):
                self._read_fields()
            if read_frac and random_() < read_frac:
                self._read_fields()
            if cycle_every and self.allocated_bytes >= self._next_cycle:
                self._build_cycle()
                self._next_cycle += cycle_every
            if phase_bytes and self.allocated_bytes >= self._next_phase:
                self._phase_boundary()
                self._next_phase += phase_bytes
            work(site.work)
            schedule_reap(self.allocated_bytes)
        if ops:
            yield take_chunk()


class SyntheticMutator:
    """Executes a WorkloadSpec against a VM.

    ``run()`` fetches the (spec, seed) program's tape from :data:`TAPES`,
    or records it (:class:`MutatorProgram`) chunk by chunk as it goes, and
    replays it into this VM's real ``MutatorContext``.  There is one
    driver of the VM — :func:`repro.runtime.tape.replay` — whether the
    tape is minutes or microseconds old.
    """

    def __init__(self, vm: VM, spec: WorkloadSpec, seed: int = 13):
        self.vm = vm
        self.spec = spec
        self.seed = seed
        self.mu = MutatorContext(vm)
        ensure_standard_types(vm)
        self.immortals: List[Handle] = []
        self.allocated_bytes = 0
        self.cycles_built = 0
        self.phases_completed = 0
        self.live_objects = 0

    def run(self) -> RunStats:
        spec, seed = self.spec, self.seed
        #: Which code replayed the tape (host-side; filled even on OOM).
        self.replay_path = path = ReplayPath()
        tape = TAPES.fetch((seed, spec))
        if tape is not None:
            replay(self.mu, tape.chunks, tape.type_names, tape.work_units, path)
            summary = tape.summary
        else:
            program = MutatorProgram(spec, seed, self.vm.types)
            recorder = program.mu
            chunks = program.record()
            kept: List[array] = []
            if _replayable(spec):
                chunks = TAPES.retaining(chunks, kept)
            replay(
                self.mu, chunks, recorder.type_names, recorder.work_units, path
            )
            summary = program.summary()
            if kept:
                # The cache owns its key: a caller may go on to edit spec.
                TAPES.admit(
                    (seed, copy.deepcopy(spec)),
                    Tape(kept, recorder.type_names, recorder.work_units, summary),
                )
        self.allocated_bytes = summary.allocated_bytes
        self.cycles_built = summary.cycles_built
        self.phases_completed = summary.phases_completed
        table = self.mu.table
        self.immortals = [Handle(table, slot) for slot in summary.immortal_slots]
        self.live_objects = len(self.immortals) + summary.scheduled
        return self.vm.finish()
