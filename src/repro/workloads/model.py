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

Everything here is pure data, and each class states every rule about its
own valid values: a violation raises ``ConfigError(message, pointer)``
with the field's JSON pointer relative to that object, so a spec built in
code and one loaded from a file (:mod:`repro.workloads.config`, which
adds the source and the object's place in the document) are checked by
the same code.  The execution semantics live in
:mod:`repro.workloads.engine`.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from ..bench.engine import MAX_ARRAY_LENGTH, STANDARD_TYPES, AllocSite
from ..bench.lifetime import LifetimeClass
from ..errors import ConfigError
from ..heap.address import WORD_BYTES
from ..heap.objectmodel import HEADER_WORDS
from ..sim.locality import NO_LOCALITY, LocalityModel

#: Lifetime names with engine-defined semantics (not byte-sampled).
RESERVED_LIFETIMES: Tuple[str, ...] = ("request", "session", "cache")

#: Arrival processes the generator implements.
ARRIVAL_PROCESSES: Tuple[str, ...] = ("poisson", "bursty")

#: Word sizes of the shared vocabulary (header included), for the
#: allocation-volume estimate below.
_TYPE_WORDS = {
    name: HEADER_WORDS + nrefs + nscalars for name, nrefs, nscalars in STANDARD_TYPES
}


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
            raise ConfigError(f"unknown arrival process {self.process!r} "
                              f"(have {ARRIVAL_PROCESSES})", "/process")
        for name in ("rate_rps", "burst_multiplier", "on_s", "off_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"arrival {name} must be finite (got {value})",
                                  f"/{name}")
        if self.rate_rps <= 0:
            raise ConfigError("arrival rate must be > 0 requests/s "
                              f"(got {self.rate_rps:g})", "/rate_rps")
        for name in ("burst_multiplier", "on_s", "off_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"arrival {name} must be > 0 "
                                  f"(got {getattr(self, name):g})", f"/{name}")

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
            raise ConfigError("sessions.max_concurrent must be >= 1 "
                              f"(got {self.max_concurrent})", "/max_concurrent")
        lo, hi = self.requests_per_session
        if not 1 <= lo <= hi:
            raise ConfigError(
                "sessions.requests_per_session must be a [lo, hi] range "
                f"with 1 <= lo <= hi (got {list(self.requests_per_session)})",
                "/requests_per_session",
            )
        if not 1 <= self.slots <= MAX_ARRAY_LENGTH:
            raise ConfigError(
                f"sessions.slots must be in [1, {MAX_ARRAY_LENGTH}] (one frame "
                f"holds the session root array; got {self.slots})", "/slots"
            )
        if not 0 <= self.seed_objects <= self.slots:
            raise ConfigError(
                f"sessions.seed_objects must be in [0, sessions.slots = "
                f"{self.slots}] (got {self.seed_objects})", "/seed_objects"
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
            raise ConfigError(f"cache.slots must be >= 0 (got {self.slots})",
                              "/slots")
        lo, hi = self.ttl_s
        if not 0 < lo <= hi < math.inf:
            raise ConfigError(
                "cache.ttl_s must be a [lo, hi] range of finite seconds with "
                f"0 < lo <= hi (got {list(self.ttl_s)})", "/ttl_s"
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
            raise ConfigError("a task needs a non-empty name", "/name")
        for name in ("weight", "reads", "work"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"task {name} must be finite (got {value})",
                                  f"/{name}")
        if self.weight <= 0:
            raise ConfigError(f"task weight must be > 0 (got {self.weight:g})",
                              "/weight")
        if not self.sites:
            raise ConfigError(f"task {self.name!r} needs allocation sites",
                              "/sites")
        lo, hi = self.request_bytes
        if not 1 <= lo <= hi:
            raise ConfigError(
                "task request_bytes must be a [lo, hi] range with "
                f"1 <= lo <= hi (got {list(self.request_bytes)})",
                "/request_bytes",
            )
        for name in ("cache_lookups", "reads", "work"):
            if getattr(self, name) < 0:
                raise ConfigError(f"task {name} must be >= 0 "
                                  f"(got {getattr(self, name):g})", f"/{name}")

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
            raise ConfigError("a server workload needs a non-empty name",
                              "/name")
        if not 0 < self.duration_s < math.inf:
            raise ConfigError("duration_s must be > 0 and finite "
                              f"(got {self.duration_s:g})", "/duration_s")
        if self.max_requests < 0:
            raise ConfigError("max_requests must be >= 0 "
                              f"(got {self.max_requests})", "/max_requests")
        if not self.tasks:
            raise ConfigError("a server workload needs tasks", "/tasks")
        for reserved in RESERVED_LIFETIMES:
            if reserved in self.lifetimes:
                raise ConfigError(f"lifetime name {reserved!r} is reserved "
                                  "(engine-defined scope)", f"/lifetimes/{reserved}")
        known = set(RESERVED_LIFETIMES) | set(self.lifetimes)
        for i, task in enumerate(self.tasks):
            for j, site in enumerate(task.sites):
                if site.lifetime not in known:
                    raise ConfigError(
                        f"unknown lifetime class {site.lifetime!r} "
                        f"(have {sorted(known)})",
                        f"/tasks/{i}/sites/{j}/lifetime",
                    )

    def __hash__(self) -> int:
        # The frozen dataclass holds a dict (``lifetimes``), so the
        # generated hash would raise.  Hash the canonical mapping form
        # instead: equal specs serialise identically, so the hash is
        # consistent with ``__eq__`` and specs can key the minsearch and
        # grid dictionaries like benchmark-name refs do.
        return hash(self.canonical_json())

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
            HEADER_WORDS  # the session's refarr; its elements follow
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

        ``from_mapping(spec.to_dict())`` round-trips; :meth:`canonical_json`
        serialises it for hashing and fingerprinting."""
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

    def canonical_json(self) -> str:
        """:meth:`to_dict` as sorted-key, compact JSON — the one serialised
        form behind ``__hash__`` and the grid store's content fingerprint
        (``repro.specs.fingerprint``), so semantically equal specs share
        cache cells regardless of file name or key order."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
