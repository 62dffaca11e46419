"""Request-driven server workloads (the "millions of users" axis).

The six SPEC replays in :mod:`repro.bench` are *closed-loop*: the mutator
allocates as fast as the simulated machine allows and GC cost shows up as
elapsed time.  Production services are *open-loop*: requests arrive on a
wall clock whether or not the server is ready, so a GC pause does not just
add its own duration — it queues every request that arrives during it and
inflates the latency tail (fmperf's load-generator methodology; see
PAPERS.md "Distilling the Real Cost of Production Garbage Collectors").

This package models that axis on the simulated clock:

* :mod:`~repro.workloads.model` — the declarative spec
  (:class:`ServerWorkloadSpec`): arrival process, task mix, session and
  cache behaviour;
* :mod:`~repro.workloads.arrivals` — deterministic Poisson / bursty
  arrival-time generation in abstract cycles;
* :mod:`~repro.workloads.engine` — the request program, recorded once
  per (spec, seed) onto the same tape substrate the SPEC replays use, and
  :class:`ServerMutator`, which replays it against a VM and does the
  clock's part (idle, expiry, latencies) at the tape's marks;
* :mod:`~repro.workloads.latency` — :class:`RequestStats`, the
  request-latency percentiles reported next to ``RunStats``;
* :mod:`~repro.workloads.config` — JSON/YAML loading with
  JSON-pointer-carrying validation errors.

Specs are plain data: define a scenario in a ``.json``/``.yaml`` file and
run it with ``beltway-bench serve`` or ``repro.run`` — no Python changes.
"""

from .config import from_mapping, load_file, loads
from .engine import ServerMutator
from .latency import RequestStats
from .model import (
    ArrivalSpec,
    CacheSpec,
    RequestTask,
    ServerWorkloadSpec,
    SessionSpec,
)

__all__ = [
    "ArrivalSpec",
    "CacheSpec",
    "RequestStats",
    "RequestTask",
    "ServerMutator",
    "ServerWorkloadSpec",
    "SessionSpec",
    "from_mapping",
    "load_file",
    "loads",
]
