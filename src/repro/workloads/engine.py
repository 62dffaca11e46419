"""ServerMutator: the open-loop request engine.

The engine serves a precomputed arrival schedule against the VM, one
request at a time on the simulated clock (a single-threaded event loop —
the standard model for a worker process):

* **idle** — if the next arrival is in the future, the gap is charged to
  the mutator clock as idle time (total = mutator + gc stays an
  invariant);
* **backlog** — if arrivals are behind the clock (a GC pause or a slow
  request queued them), they are served back-to-back and their latencies
  include the wait;
* **serve** — a request picks a weighted task, allocates its site mix up
  to the task's byte budget, touches the session graph and cache
  directory, charges its computation, and its latency is
  ``completion - arrival`` with the clock flushed exactly at both edges
  (``VM.sync_clock``).

Object lifetimes map to server scopes: ``request`` allocations are rooted
only for the request (infant mortality), ``session`` allocations are
written into the owning connection's object graph and die when it closes
(connection churn), ``cache`` allocations enter a TTL'd directory whose
entries expire as the clock passes them, and named byte-classes use the
same DeathSchedule as the SPEC replays.

Two halves (DESIGN §15).  What a request *does* is a function of (seed,
spec minus ``arrival``/``duration_s``/``max_requests``) alone — a lower
rate serves a prefix of the same requests — so :class:`RequestProgram`
decides it once, onto a tape every rate, collector and reference cell of
that spec replays.  What the *clock* does to a run — idle gaps, cache
expiry and its stamps, latencies — happens at the tape's marks, in
:meth:`ServerMutator._on_mark`, the only reader of ``clock.now``.

Determinism: two rng streams derived from the seed — one for arrivals
(open-loop: offered load never depends on service) and one for behaviour.
All scheduling is on the simulated clock, so results are bit-identical
across repeated runs, host machines, and substrate tiers.
"""

from __future__ import annotations

import dataclasses
import random
from array import array
from bisect import bisect_right
from itertools import accumulate, count
from typing import Dict, Iterator, List, Optional, Tuple

from ..bench.engine import TAPE_CHUNK_RECORDS, TAPES, ensure_standard_types
from ..bench.lifetime import DeathSchedule
from ..heap.address import WORD_BYTES
from ..heap.objectmodel import HEADER_WORDS, TypeRegistry
from ..runtime.mutator import MutatorContext
from ..runtime.roots import Handle
from ..runtime.tape import RecordedHandle, ReplayPath, Tape, TapeRecorder, replay
from ..runtime.vm import VM
from ..sim.cost import CYCLES_PER_SECOND
from ..sim.stats import RunStats
from .arrivals import generate_arrivals
from .latency import RequestStats
from .model import ArrivalSpec, RequestTask, ServerWorkloadSpec

#: Offset deriving the arrival stream from the run seed (any fixed odd
#: constant works; it just has to differ from the behaviour stream).
_ARRIVAL_SEED_SALT = 0x9E3779B9

#: Cache-directory chunk width: the directory is built from refarr chunks
#: of this many slots so ``cache.slots`` is not bounded by the frame size
#: (there is no large-object space; one huge refarr could never allocate).
_DIR_CHUNK = 32

#: ``OP_MARK`` kinds: ``(MARK_REQUEST, request index, task index)`` opens
#: every request; ``(MARK_INSERT, directory slot, ttl index)`` sits at a
#: cache insert, whose expiry stamp is ``clock.now`` *there* plus the ttl.
MARK_REQUEST, MARK_INSERT = 0, 1


class _Session:
    """One open connection: its rooted object graph and request budget."""

    __slots__ = ("root", "budget", "next_slot")

    def __init__(self, root: RecordedHandle, budget: int):
        self.root = root
        self.budget = budget
        self.next_slot = 0


class RequestProgram:
    """Decides what a spec's requests do, against a recorder, on demand.

    Suspended between requests, it lives in its tape's ``summary``: a cell
    that needs more requests than any before it records only the suffix.
    Every decision comes from ``rng`` and the program's own bookkeeping —
    never the clock, never the heap — so the tape holds at every rate and
    under every collector.  Beside it: what a cut after *n* requests needs.
    """

    def __init__(self, spec: ServerWorkloadSpec, seed: int, types: TypeRegistry):
        self.spec = spec
        self.rng = random.Random(seed)
        self._randbelow = self.rng._randbelow
        self.mu = mu = TapeRecorder()
        self.tape = Tape((), mu.type_names, mu.work_units, self)
        self._refarr, self._node = types.by_name("refarr"), types.by_name("node")
        self.schedule = DeathSchedule()
        self.immortals: List[RecordedHandle] = []
        self.allocated_bytes = 0
        # task mix: cumulative weights for rng.choices
        self._task_rows = [
            (index,) + self._compile_task(task, types)
            for index, task in enumerate(spec.tasks)
        ]
        self._task_cum = list(accumulate(t.weight for t in spec.tasks))
        # sessions: fixed array of max_concurrent slots, opened lazily
        self._sessions: List[Optional[_Session]] = [None] * spec.sessions.max_concurrent
        self._cache_dir: Optional[List[RecordedHandle]] = None
        #: Per request: where its mark sits on the tape (in ints), the
        #: bytes its body allocated, the live population it left behind.
        self.starts = array("q")
        self.alloc_bytes = array("q")
        self.live = array("q")
        #: Per cache insert its ttl in cycles (a float no record holds), and
        #: the root slots of the cache directory's chunks, once it exists.
        self.ttls = array("d")
        self.dir_slots: List[int] = []
        #: ``(allocations so far, session index, root slot | -1 closed)``:
        #: an event is part of a run — complete, cut, or dead of OOM
        #: mid-request — iff the run got that many allocations in.
        self.session_log: List[Tuple[int, int, int]] = []

    def _compile_task(self, task: RequestTask, types: TypeRegistry):
        """Pre-resolve descriptors and lifetimes for a task's site table."""
        lifetimes = self.spec.lifetimes
        rows = []
        for site in task.sites:
            desc = types.by_name(site.type_name)
            kind = site.lifetime  # "request" | "session" | "cache" | named
            byte_class = lifetimes.get(site.lifetime)
            scalar_shape = site.type_name in ("small", "node", "big")
            rows.append((site, desc, kind, byte_class, scalar_shape))
        cum = list(accumulate(s.weight for s in task.sites))
        return (task, rows, cum)

    # ------------------------------------------------------------------
    # The tape, as far as a run needs it
    # ------------------------------------------------------------------
    def segments(self, n: int) -> Iterator[array]:
        """The tape of requests ``[0, n)``, chunk by chunk, recording what
        of it is missing no further ahead of the consumer than a chunk."""
        tape, starts = self.tape, self.starts
        done = 0
        for index in count():
            if index == len(tape.chunks):
                while len(starts) < n and len(self.mu.ops) < 4 * TAPE_CHUNK_RECORDS:
                    self._request()
                if not self.mu.ops:
                    return
                tape.append(self.mu.take_chunk())
            chunk = tape.chunks[index]
            if len(starts) > n and starts[n] <= done + len(chunk):
                if starts[n] > done:
                    yield chunk[: starts[n] - done]
                return
            yield chunk
            done += len(chunk)
            if tape.nbytes > TAPES.budget_bytes:
                # Too big to cache (``admit`` will refuse it): streamed.
                tape.chunks[index] = chunk[:0]

    def sessions_at(self, allocations: int) -> Tuple[int, int, List[int]]:
        """Sessions opened and closed, and the root slots of those still
        open (by session index), ``allocations`` objects into the run."""
        opened = 0
        live: Dict[int, int] = {}
        for at, idx, slot in self.session_log:
            if at > allocations:
                break
            if slot < 0:
                del live[idx]
            else:
                opened += 1
                live[idx] = slot
        return opened, opened - len(live), [live[idx] for idx in sorted(live)]

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    def _open_session(self, idx: int) -> _Session:
        spec = self.spec.sessions
        mu = self.mu
        root = mu.alloc(self._refarr, spec.slots)
        self.allocated_bytes += (HEADER_WORDS + spec.slots) * WORD_BYTES
        node_desc = self._node
        node_bytes = node_desc.size_words() * WORD_BYTES
        for i in range(spec.seed_objects):
            obj = mu.alloc(node_desc)
            self.allocated_bytes += node_bytes
            mu.write(root, i, obj)
            obj.drop()
        budget = self.rng.randint(*spec.requests_per_session)
        session = _Session(root, budget)
        self._sessions[idx] = session
        self.session_log.append((mu.allocs, idx, root.slot))
        return session

    def _pick_session(self) -> Tuple[int, _Session]:
        idx = self._randbelow(len(self._sessions))
        session = self._sessions[idx]
        if session is None:
            session = self._open_session(idx)
        return idx, session

    # ------------------------------------------------------------------
    # Cache directory
    # ------------------------------------------------------------------
    def _cache_directory(self) -> List[RecordedHandle]:
        if self._cache_dir is None:
            slots = max(1, self.spec.cache.slots)
            chunks: List[RecordedHandle] = []
            for base in range(0, slots, _DIR_CHUNK):
                width = min(_DIR_CHUNK, slots - base)
                chunks.append(self.mu.alloc(self._refarr, width))
                self.allocated_bytes += (HEADER_WORDS + width) * WORD_BYTES
            self._cache_dir = chunks
            self.dir_slots.extend(chunk.slot for chunk in chunks)
        return self._cache_dir

    def _cache_insert(self, handle: RecordedHandle) -> None:
        spec = self.spec.cache
        if spec.slots <= 0:
            return
        directory = self._cache_directory()
        slot = self._randbelow(spec.slots)
        lo, hi = spec.ttl_s
        self.ttls.append(self.rng.uniform(lo, hi) * CYCLES_PER_SECOND)
        chunk, offset = divmod(slot, _DIR_CHUNK)
        self.mu.write(directory[chunk], offset, handle)
        self.mu.mark(MARK_INSERT, slot, len(self.ttls) - 1)

    def _cache_lookup(self) -> None:
        spec = self.spec.cache
        if spec.slots <= 0:
            return
        directory = self._cache_directory()
        chunk, offset = divmod(self._randbelow(spec.slots), _DIR_CHUNK)
        self.mu.read_hit(directory[chunk], offset)

    # ------------------------------------------------------------------
    # Request service
    # ------------------------------------------------------------------
    def _request(self) -> None:
        """Record the next request: its mark, then its body."""
        rng = self.rng
        mu = self.mu
        self.starts.append(self.tape.nbytes // 4 + len(mu.ops))
        index, task, rows, cum = rng.choices(
            self._task_rows, cum_weights=self._task_cum
        )[0]
        mu.mark(MARK_REQUEST, len(self.starts) - 1, index)
        idx, session = self._pick_session()
        alloc_before = self.allocated_bytes
        budget = rng.randint(*task.request_bytes)
        request_handles: List[RecordedHandle] = []
        choices = rng.choices
        session_slots = self.spec.sessions.slots
        while self.allocated_bytes - alloc_before < budget:
            site, desc, kind, byte_class, scalar_shape = choices(
                rows, cum_weights=cum
            )[0]
            length = 0
            if site.length != (0, 0):
                length = rng.randint(*site.length)
            size_code = desc.size_code
            allocated = self.allocated_bytes + (
                size_code if size_code >= 0 else HEADER_WORDS + length
            ) * WORD_BYTES
            self.allocated_bytes = allocated
            if scalar_shape and not length:
                handle = mu.alloc_int(
                    mu.type_index(desc), desc.ref_code, allocated & 0x7FFFFFFF
                )
            else:
                handle = mu.alloc(desc, length)
                if scalar_shape:
                    mu.write_int(handle, 0, allocated & 0x7FFFFFFF)
            if site.link_prob and rng.random() < site.link_prob:
                # an old session object points at the newcomer: the
                # old→young traffic the write barriers exist for
                mu.write(session.root, self._randbelow(session_slots), handle)
            if kind == "request":
                request_handles.append(handle)
            elif kind == "session":
                slot = session.next_slot % session_slots
                session.next_slot += 1
                mu.write(session.root, slot, handle)
                handle.drop()  # survives through the session graph only
            elif kind == "cache":
                self._cache_insert(handle)
                handle.drop()
            elif byte_class is not None:
                death = byte_class.sample(rng)
                if death is None:
                    self.immortals.append(handle)  # pinned for the run
                else:
                    self.schedule.schedule(allocated + death, handle)
            mu.work(site.work)
        for _ in range(task.cache_lookups):
            self._cache_lookup()
        reads_whole, reads_frac = divmod(task.reads, 1.0)
        for _ in range(int(reads_whole)):
            mu.read_addr(session.root, self._randbelow(session_slots))
        if reads_frac and rng.random() < reads_frac:
            mu.read_addr(session.root, self._randbelow(session_slots))
        mu.work(task.work)
        # request end: short-lived objects die, byte-classes reap
        for handle in request_handles:
            handle.drop()
        self.schedule.reap(self.allocated_bytes)
        session.budget -= 1
        if session.budget <= 0:
            session.root.drop()  # the whole per-connection graph dies
            self._sessions[idx] = None
            self.session_log.append((mu.allocs, idx, -1))
        self.alloc_bytes.append(self.allocated_bytes - alloc_before)
        self.live.append(len(self.immortals) + len(self.schedule))


class ServerMutator:
    """Executes a ServerWorkloadSpec against a VM, open-loop: ``run()``
    fetches the request program's tape from ``bench.engine.TAPES`` (or
    starts one) and replays as much of it as the arrival schedule has
    requests; the clock's part of the run happens in :meth:`_on_mark`."""

    def __init__(self, vm: VM, spec: ServerWorkloadSpec, seed: int = 13, bus=None):
        self.vm = vm
        self.spec = spec
        self.seed = seed
        self.bus = bus  # read at emit time, so obs.attach may set it later
        self.mu = MutatorContext(vm)
        ensure_standard_types(vm)
        #: Which code replayed the tape (host-side; filled even on OOM).
        self.replay_path = ReplayPath()
        self._program: Optional[RequestProgram] = None
        self._allocs_before = 0
        self._arrivals: List[float] = []
        #: In service: (index, task, arrival, queue depth, pauses before it).
        self._serving: Optional[Tuple[int, RequestTask, float, int, int]] = None
        # cache: slot -> expiry stamp, and a lower bound on the earliest
        self._cache_expiry: Dict[int, float] = {}
        self._next_expiry = float("inf")
        # latency accounting
        self._latencies: List[float] = []
        self._queue_peak = 0
        self._paused_requests = 0
        self._drained = 0
        self._cache_inserts = 0
        self._cache_expirations = 0
        self._cache_lookups = 0

    # ------------------------------------------------------------------
    def run(self) -> RunStats:
        spec, seed, vm = self.spec, self.seed, self.vm
        arrival_rng = random.Random((seed ^ _ARRIVAL_SEED_SALT) & 0xFFFFFFFF)
        arrivals = self._arrivals = generate_arrivals(
            spec.arrival, spec.duration_s, arrival_rng, spec.max_requests
        )
        # What the requests do depends on nothing the arrival schedule
        # is made from; the key is private (the caller may edit its dict).
        key = (seed, dataclasses.replace(
            spec, arrival=ArrivalSpec(), duration_s=1.0, max_requests=0,
            lifetimes=dict(spec.lifetimes),
        ))
        # Checked out while it may grow, and never put back half a request.
        tape = TAPES.fetch(key, take=True)
        if tape is None:
            tape = RequestProgram(key[1], seed, vm.types).tape
        program = self._program = tape.summary
        self._allocs_before = vm.plan.allocations
        try:
            replay(
                self.mu, program.segments(len(arrivals)), tape.type_names,
                tape.work_units, self.replay_path, self._on_mark,
            )
        finally:
            if len(program.live) == len(program.starts):
                TAPES.admit(key, tape)
        if arrivals:
            self._end_request(vm.sync_clock())
        # drain: close every open connection, then let the run end
        for slot in self._sessions()[2]:
            self.mu.table.release(slot)
            self._drained += 1
        vm.sync_clock()
        stats = vm.finish()
        stats.requests = self.request_stats()
        return stats

    # ------------------------------------------------------------------
    # The clock's half: everything below runs at a mark
    # ------------------------------------------------------------------
    def _on_mark(self, kind: int, a: int, b: int) -> None:
        if kind == MARK_INSERT:
            # ``now`` is the clock at the last flush: request start, or a
            # collection that landed earlier in this request.
            stamp = self.vm.clock.now + self._program.ttls[b]
            self._cache_expiry[a] = stamp
            if stamp < self._next_expiry:
                self._next_expiry = stamp
            self._cache_inserts += 1
            return
        vm = self.vm
        now = vm.sync_clock()
        if a:
            self._end_request(now)
        arrivals = self._arrivals
        arrival = arrivals[a]
        if arrival > now:
            # idle until the next request arrives
            vm.clock.charge_mutator(arrival - now)
            now = arrival
        if now >= self._next_expiry:
            self._expire_cache(now)
        # backlog depth: later arrivals already due at service start
        depth = bisect_right(arrivals, now, a + 1) - (a + 1)
        if depth > self._queue_peak:
            self._queue_peak = depth
        task = self.spec.tasks[b]
        self._serving = (a, task, arrival, depth, len(vm.clock.pauses))
        if self.bus is not None:
            self.bus.emit("request.start", now, {
                "id": a, "task": task.name,
                "arrival_cycles": arrival, "queue_depth": depth,
            })

    def _end_request(self, end: float) -> None:
        request_id, task, arrival, depth, pauses_before = self._serving
        latency = end - arrival
        self._latencies.append(latency)
        gc_pauses = len(self.vm.clock.pauses) - pauses_before
        if gc_pauses:
            self._paused_requests += 1
        if self.spec.cache.slots > 0:
            self._cache_lookups += task.cache_lookups
        if self.bus is not None:
            self.bus.emit("request.end", end, {
                "id": request_id, "task": task.name, "latency_cycles": latency,
                "alloc_bytes": self._program.alloc_bytes[request_id],
                "gc_pauses": gc_pauses, "queue_depth": depth,
            })

    def _expire_cache(self, now: float) -> None:
        """Null every directory slot whose stamp has passed, in dict order."""
        expiry, table = self._cache_expiry, self.mu.table
        dir_slots = self._program.dir_slots
        for slot in [s for s, t in expiry.items() if t <= now]:
            del expiry[slot]
            chunk, offset = divmod(slot, _DIR_CHUNK)
            self.mu.write(Handle(table, dir_slots[chunk]), offset, None)
            self._cache_expirations += 1
        self._next_expiry = min(expiry.values(), default=float("inf"))

    # ------------------------------------------------------------------
    def _sessions(self) -> Tuple[int, int, List[int]]:
        if self._program is None:
            return 0, 0, []
        done = self.vm.plan.allocations - self._allocs_before
        return self._program.sessions_at(done)

    def request_stats(self) -> RequestStats:
        """RequestStats from everything served so far (valid mid-run,
        so an OutOfMemory abort still reports partial latencies)."""
        opened, closed, _ = self._sessions()
        return RequestStats.from_latencies(
            self._latencies,
            offered=len(self._arrivals),
            queue_peak=self._queue_peak,
            paused_requests=self._paused_requests,
            sessions_opened=opened,
            sessions_closed=closed + self._drained,
            cache_inserts=self._cache_inserts,
            cache_expirations=self._cache_expirations,
            cache_lookups=self._cache_lookups,
            cache_hits=self.mu.read_hits,
        )

    @property
    def live_objects(self) -> int:
        served = len(self._latencies)
        return self._program.live[served - 1] if served else 0
