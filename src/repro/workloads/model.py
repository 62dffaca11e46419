"""Declarative model of a request-driven server workload.

A :class:`ServerWorkloadSpec` is to the open-loop engine what
:class:`~repro.bench.engine.WorkloadSpec` is to the closed-loop one: a
complete, serialisable description of the scenario.  It reuses the same
allocation-site vocabulary (:class:`~repro.bench.engine.AllocSite`) and
lifetime machinery, and adds the server-shaped levers: an arrival process,
a weighted task mix, session lifecycle, and a TTL'd cache directory.

Lifetime names fall into two groups:

* the three *reserved scopes* — ``request`` (dropped when the request
  completes), ``session`` (written into the owning session's object graph,
  dying when the connection closes) and ``cache`` (inserted into the cache
  directory, dying when its TTL expires);
* *named byte-classes* declared under ``lifetimes`` exactly like the SPEC
  specs (death after N bytes of subsequent allocation).

Everything here is pure data with validation; the execution semantics live
in :mod:`repro.workloads.engine`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from ..bench.engine import WORKLOAD_TYPE_NAMES, AllocSite
from ..bench.lifetime import LifetimeClass
from ..errors import ConfigError
from ..heap.address import WORD_BYTES
from ..heap.objectmodel import HEADER_WORDS
from ..runtime.vm import EXPERIMENT_FRAME_SHIFT
from ..sim.locality import NO_LOCALITY, LocalityModel

#: Lifetime names with engine-defined semantics (not byte-sampled).
RESERVED_LIFETIMES: Tuple[str, ...] = ("request", "session", "cache")

#: Arrival processes the generator implements.
ARRIVAL_PROCESSES: Tuple[str, ...] = ("poisson", "bursty")

#: Largest refarr/buf element count a single frame can hold at the
#: harness frame size — the reproduction, like GCTk, has no large-object
#: space, so bigger arrays can never allocate.  Validated up front so a
#: spec file fails at load time, not mid-run.
MAX_ARRAY_LENGTH: int = (
    (1 << EXPERIMENT_FRAME_SHIFT) // WORD_BYTES - HEADER_WORDS
)

#: Word sizes of the shared vocabulary (header included), mirrored from
#: bench.engine.STANDARD_TYPES for the allocation-volume estimate below
#: (refarr/buf are header-only; elements counted separately).
_TYPE_WORDS = {"small": 6, "node": 8, "big": 16, "refarr": 3, "buf": 3}


@dataclass(frozen=True)
class ArrivalSpec:
    """Open-loop arrival process, in requests per simulated second.

    ``poisson`` draws i.i.d. exponential inter-arrival gaps at
    ``rate_rps``.  ``bursty`` alternates ``on_s`` windows at
    ``rate_rps * burst_multiplier`` with ``off_s`` windows at the base
    rate (a diurnal pattern compressed to milliseconds)."""

    process: str = "poisson"
    rate_rps: float = 1000.0
    burst_multiplier: float = 4.0
    on_s: float = 0.05
    off_s: float = 0.15

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ConfigError(
                f"unknown arrival process {self.process!r} "
                f"(have {ARRIVAL_PROCESSES})"
            )
        for name in ("rate_rps", "burst_multiplier", "on_s", "off_s"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(
                    f"arrival {name} must be finite (got {getattr(self, name)})"
                )
        if self.rate_rps <= 0:
            raise ConfigError(
                f"arrival rate must be > 0 requests/s (got {self.rate_rps})"
            )
        if self.process == "bursty":
            if self.burst_multiplier <= 0:
                raise ConfigError("burst_multiplier must be > 0")
            if self.on_s <= 0 or self.off_s <= 0:
                raise ConfigError("bursty windows on_s/off_s must be > 0")

    @property
    def mean_rate_rps(self) -> float:
        """Long-run average arrival rate (equals rate_rps for poisson)."""
        if self.process != "bursty":
            return self.rate_rps
        period = self.on_s + self.off_s
        return self.rate_rps * (
            (self.on_s * self.burst_multiplier + self.off_s) / period
        )

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class SessionSpec:
    """Connection/session lifecycle parameters.

    The engine keeps up to ``max_concurrent`` open sessions; each serves a
    budget of requests drawn from ``requests_per_session`` and then closes
    (its object graph becomes garbage) before a fresh session replaces it.
    Each session owns a ``slots``-wide reference array seeded with
    ``seed_objects`` survivors — the session-scoped live set."""

    max_concurrent: int = 8
    requests_per_session: Tuple[int, int] = (4, 32)
    slots: int = 8
    seed_objects: int = 4

    def __post_init__(self) -> None:
        if self.max_concurrent < 1:
            raise ConfigError("sessions.max_concurrent must be >= 1")
        lo, hi = self.requests_per_session
        if lo < 1 or hi < lo:
            raise ConfigError(
                "sessions.requests_per_session must be a [lo, hi] range "
                f"with 1 <= lo <= hi (got {list(self.requests_per_session)})"
            )
        if not 1 <= self.slots <= MAX_ARRAY_LENGTH:
            raise ConfigError(
                f"sessions.slots must be in [1, {MAX_ARRAY_LENGTH}] "
                "(one frame holds the session root array)"
            )
        if not 0 <= self.seed_objects <= self.slots:
            raise ConfigError(
                "sessions.seed_objects must be in [0, sessions.slots]"
            )

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["requests_per_session"] = list(self.requests_per_session)
        return data


@dataclass(frozen=True)
class CacheSpec:
    """TTL'd cache directory shared by every session.

    ``cache``-lifetime allocations are inserted into a ``slots``-wide
    immortal directory with an expiry drawn from ``ttl_s``; the engine
    nulls expired entries as the clock passes them — medium-lived objects
    whose deaths are *time*-driven, not allocation-driven."""

    slots: int = 64
    ttl_s: Tuple[float, float] = (0.02, 0.1)

    def __post_init__(self) -> None:
        if self.slots < 0:
            raise ConfigError("cache.slots must be >= 0")
        lo, hi = self.ttl_s
        if lo <= 0 or hi < lo:
            raise ConfigError(
                "cache.ttl_s must be a [lo, hi] range with 0 < lo <= hi "
                f"(got {list(self.ttl_s)})"
            )

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["ttl_s"] = list(self.ttl_s)
        return data


@dataclass(frozen=True)
class RequestTask:
    """One weighted entry of the task mix (a request *kind*).

    Serving a request of this kind allocates roughly ``request_bytes``
    through the task's site table (weighted like a WorkloadSpec's sites),
    performs ``cache_lookups`` directory probes and ``reads`` field reads,
    and charges ``work`` computation units."""

    name: str
    weight: float
    sites: Tuple[AllocSite, ...]
    request_bytes: Tuple[int, int] = (128, 512)
    cache_lookups: int = 0
    reads: float = 0.0
    work: float = 4.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("a task needs a name")
        if self.weight <= 0:
            raise ConfigError(
                f"task {self.name!r}: weight must be > 0 (got {self.weight})"
            )
        if not self.sites:
            raise ConfigError(f"task {self.name!r}: needs allocation sites")
        lo, hi = self.request_bytes
        if lo < 1 or hi < lo:
            raise ConfigError(
                f"task {self.name!r}: request_bytes must be a [lo, hi] "
                f"range with 1 <= lo <= hi (got {list(self.request_bytes)})"
            )
        if self.cache_lookups < 0 or self.reads < 0 or self.work < 0:
            raise ConfigError(
                f"task {self.name!r}: cache_lookups/reads/work must be >= 0"
            )

    def mean_request_bytes(self) -> float:
        lo, hi = self.request_bytes
        return (lo + hi) / 2.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "weight": self.weight,
            "request_bytes": list(self.request_bytes),
            "cache_lookups": self.cache_lookups,
            "reads": self.reads,
            "work": self.work,
            "sites": [
                {
                    "weight": s.weight,
                    "type": s.type_name,
                    "lifetime": s.lifetime,
                    "length": list(s.length),
                    "link_prob": s.link_prob,
                    "work": s.work,
                }
                for s in self.sites
            ],
        }


@dataclass(frozen=True)
class ServerWorkloadSpec:
    """Complete declarative description of one server workload."""

    name: str
    tasks: Tuple[RequestTask, ...]
    arrival: ArrivalSpec = ArrivalSpec()
    duration_s: float = 0.5
    max_requests: int = 0  # 0 = bounded by duration only
    sessions: SessionSpec = SessionSpec()
    cache: CacheSpec = CacheSpec()
    lifetimes: Mapping[str, LifetimeClass] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("a server workload needs a name")
        if not 0 < self.duration_s < math.inf:
            raise ConfigError(
                f"{self.name}: duration_s must be > 0 and finite "
                f"(got {self.duration_s})"
            )
        if self.max_requests < 0:
            raise ConfigError(f"{self.name}: max_requests must be >= 0")
        if not self.tasks:
            raise ConfigError(f"{self.name}: a server workload needs tasks")
        known = set(RESERVED_LIFETIMES) | set(self.lifetimes)
        for reserved in RESERVED_LIFETIMES:
            if reserved in self.lifetimes:
                raise ConfigError(
                    f"{self.name}: lifetime name {reserved!r} is reserved"
                )
        for task in self.tasks:
            for site in task.sites:
                if site.type_name not in WORKLOAD_TYPE_NAMES:
                    raise ConfigError(
                        f"{self.name}/{task.name}: unknown type "
                        f"{site.type_name!r} (have {WORKLOAD_TYPE_NAMES})"
                    )
                if site.lifetime not in known:
                    raise ConfigError(
                        f"{self.name}/{task.name}: unknown lifetime class "
                        f"{site.lifetime!r} (have {sorted(known)})"
                    )
                if site.weight <= 0:
                    raise ConfigError(
                        f"{self.name}/{task.name}: site weight must be > 0"
                    )
                if site.length[1] > MAX_ARRAY_LENGTH:
                    raise ConfigError(
                        f"{self.name}/{task.name}: array length "
                        f"{site.length[1]} exceeds the frame capacity "
                        f"({MAX_ARRAY_LENGTH} elements; no large-object "
                        "space)"
                    )

    def __hash__(self) -> int:
        # The frozen dataclass holds a dict (``lifetimes``), so the
        # generated hash would raise.  Hash the canonical mapping form
        # instead: equal specs serialise identically, so the hash is
        # consistent with ``__eq__`` and specs can key the minsearch and
        # grid dictionaries like benchmark-name refs do.
        return hash(json.dumps(self.to_dict(), sort_keys=True))

    @property
    def locality(self) -> LocalityModel:
        """Server specs run without a locality multiplier.

        The request engine flushes the clock at every request boundary;
        a locality model would make cycle totals depend on the flush
        schedule, and there is no paper calibration to anchor one."""
        return NO_LOCALITY

    def expected_requests(self) -> int:
        """Deterministic estimate of the number of requests served."""
        estimate = int(self.arrival.mean_rate_rps * self.duration_s)
        if self.max_requests:
            estimate = min(estimate, self.max_requests)
        return max(1, estimate)

    @property
    def total_alloc_bytes(self) -> int:
        """Estimated allocation volume (cost ordering, min-heap seeding).

        The closed-loop spec declares this exactly; an open-loop run's
        volume follows from rate × duration × mean request size, plus the
        session graphs churned over the run.  Only relative magnitude
        matters to its consumers (grid cost ordering, the min-heap search
        lower bound)."""
        total_weight = sum(t.weight for t in self.tasks)
        mean_req = sum(
            t.weight * t.mean_request_bytes() for t in self.tasks
        ) / total_weight
        n = self.expected_requests()
        per_session = WORD_BYTES * (
            _TYPE_WORDS["refarr"]
            + self.sessions.slots
            + self.sessions.seed_objects * _TYPE_WORDS["node"]
        )
        lo, hi = self.sessions.requests_per_session
        sessions = n / max(1.0, (lo + hi) / 2.0)
        return int(n * mean_req + sessions * per_session) or 1

    # -- transformations ----------------------------------------------
    def scaled(self, factor: float) -> "ServerWorkloadSpec":
        """A copy with the run length scaled by ``factor``.

        Like ``WorkloadSpec.scaled``, the factor shortens the run without
        changing its shape: the arrival rate, task mix, session and cache
        behaviour are untouched; only the observation window (and any
        request cap) shrinks."""
        return dataclasses.replace(
            self,
            duration_s=self.duration_s * factor,
            max_requests=int(self.max_requests * factor),
        )

    def with_rate(self, rate_rps: float) -> "ServerWorkloadSpec":
        """A copy at a different arrival rate (rate sweeps, --rate)."""
        return dataclasses.replace(
            self, arrival=dataclasses.replace(self.arrival, rate_rps=rate_rps)
        )

    def with_duration(self, duration_s: float) -> "ServerWorkloadSpec":
        return dataclasses.replace(self, duration_s=duration_s)

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical mapping form — the config loader's input format.

        ``from_mapping(spec.to_dict())`` round-trips, and the grid layer
        fingerprints this form (sorted-key JSON) so semantically equal
        specs share cache cells regardless of file name or key order."""
        return {
            "kind": "server-workload",
            "name": self.name,
            "description": self.description,
            "duration_s": self.duration_s,
            "max_requests": self.max_requests,
            "arrival": self.arrival.to_dict(),
            "sessions": self.sessions.to_dict(),
            "cache": self.cache.to_dict(),
            "lifetimes": {
                name: {"lo_bytes": lc.lo_bytes, "hi_bytes": lc.hi_bytes}
                for name, lc in sorted(self.lifetimes.items())
            },
            "tasks": [t.to_dict() for t in self.tasks],
        }
