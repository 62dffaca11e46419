"""Unified spec acquisition: one loader for every workload reference.

Everything that runs a workload — ``run``, ``run_many``, ``sweep``,
``find_min_heap``, every CLI subcommand — accepts a *spec ref* and
resolves it here.  A ref is any of:

* a built-in benchmark name (``"jess"``, ``"_213_javac"``, … — the
  registry and aliases of :mod:`repro.bench.spec`);
* a path to a declarative workload file (``*.json`` / ``*.yaml`` /
  ``*.yml``, see :mod:`repro.workloads.config`);
* an already-constructed spec object (:class:`WorkloadSpec` or
  :class:`ServerWorkloadSpec`).

:func:`fingerprint` gives the grid store a content-addressed identity for
a ref: benchmark names map to their canonical name, file refs and server
spec objects map to a digest of their canonical mapping form — so editing
a YAML invalidates its cached cells while renaming or moving the file does
not, and two files with the same content share cells.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional, Union

from .bench.engine import WorkloadSpec
from .bench.spec import benchmark_spec
from .bench.spec import canonical_name as _canonical_benchmark
from .errors import ConfigError
from .workloads.config import WORKLOAD_SUFFIXES, load_file
from .workloads.model import ServerWorkloadSpec

#: Anything :func:`load` accepts.
SpecRef = Union[str, os.PathLike, WorkloadSpec, ServerWorkloadSpec]

AnySpec = Union[WorkloadSpec, ServerWorkloadSpec]


def is_file_ref(ref: SpecRef) -> bool:
    """Whether ``ref`` names a declarative workload file (by suffix)."""
    if isinstance(ref, os.PathLike):
        return True
    return isinstance(ref, str) and ref.lower().endswith(WORKLOAD_SUFFIXES)


def load(ref: SpecRef, scale: float = 1.0) -> AnySpec:
    """Resolve any spec ref to a ready-to-run spec object.

    ``scale`` shortens the run exactly as each spec family defines it
    (allocation volume for the SPEC replays, observation window for
    server workloads); passing an already-constructed spec with
    ``scale != 1.0`` returns a scaled copy.
    """
    if isinstance(ref, (WorkloadSpec, ServerWorkloadSpec)):
        return ref.scaled(scale) if scale != 1.0 else ref
    if is_file_ref(ref):
        spec = load_file(ref)
        return spec.scaled(scale) if scale != 1.0 else spec
    if isinstance(ref, str):
        return benchmark_spec(ref, scale)
    raise ConfigError(
        f"cannot resolve workload ref {ref!r}: expected a benchmark name, "
        f"a {WORKLOAD_SUFFIXES} file path, or a spec object"
    )


def fingerprint(ref: SpecRef) -> Optional[str]:
    """Content-addressed identity of a ref for grid-store cell keys.

    Returns ``None`` for refs with no stable serialisable identity
    (hand-built :class:`WorkloadSpec` objects, whose ``setup`` callables
    and locality models cannot be digested) — the grid runs those
    uncached, like non-string collector configs.
    """
    if isinstance(ref, WorkloadSpec):
        return None
    if isinstance(ref, ServerWorkloadSpec):
        return _server_fingerprint(ref)
    if is_file_ref(ref):
        return _server_fingerprint(load_file(ref))
    if isinstance(ref, str):
        return _canonical_benchmark(ref)
    raise ConfigError(f"cannot fingerprint workload ref {ref!r}")


def _server_fingerprint(spec: ServerWorkloadSpec) -> str:
    digest = hashlib.sha256(spec.canonical_json().encode()).hexdigest()[:24]
    return f"server:{spec.name}:{digest}"


def describe(ref: SpecRef) -> str:
    """A short stable display name for a ref (CLI tables, grid logs)."""
    if isinstance(ref, (WorkloadSpec, ServerWorkloadSpec)):
        return ref.name
    if is_file_ref(ref):
        return Path(ref).stem
    return _canonical_benchmark(str(ref))
