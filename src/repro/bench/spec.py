"""Benchmark registry and scaling (the paper's Table 1, reproduced).

The paper evaluates six SPEC programs on a 128 MB PowerMac.  Our simulated
heaps are scaled **1024× down** (paper MB → our KB): every ratio the paper
plots — heap size over minimum heap size, increment percentages, survival
rates, relative GC counts — is preserved, while a full 33-point heap sweep
of all six benchmarks stays tractable in pure Python.

Paper Table 1 (original units):

    benchmark   min heap   total alloc   GCs (large/small heap)
    _202_jess     12 MB      301 MB          24 / 337
    _205_raytrace 15 MB      127 MB           9 / 139
    _209_db       22 MB      102 MB           5 / 115
    _213_javac    32 MB      266 MB          10 / 100
    _228_jack     20 MB      320 MB          16 / 135
    pseudojbb     70 MB      381 MB           4 / 126
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..errors import ConfigError
from .engine import WorkloadSpec

KB = 1024

#: Canonical benchmark order used by every figure.
BENCHMARK_NAMES = ("jess", "raytrace", "db", "javac", "jack", "pseudojbb")

_ALIASES = {
    "_202_jess": "jess",
    "_205_raytrace": "raytrace",
    "_209_db": "db",
    "_213_javac": "javac",
    "_228_jack": "jack",
    "pseudojbb": "pseudojbb",
    "jbb": "pseudojbb",
}


def _registry() -> Dict[str, Callable[[], WorkloadSpec]]:
    from . import db, jack, javac, jess, pseudojbb, raytrace

    return {
        "jess": jess.spec,
        "raytrace": raytrace.spec,
        "db": db.spec,
        "javac": javac.spec,
        "jack": jack.spec,
        "pseudojbb": pseudojbb.spec,
    }


def canonical_name(name: str) -> str:
    token = name.strip().lower()
    token = _ALIASES.get(token, token)
    if token not in BENCHMARK_NAMES:
        raise ConfigError(f"unknown benchmark {name!r}; know {BENCHMARK_NAMES}")
    return token


def benchmark_spec(name: str, scale: float = 1.0) -> WorkloadSpec:
    """The WorkloadSpec for ``name``; ``scale`` shortens the run (tests)."""
    spec = _registry()[canonical_name(name)]()
    if scale != 1.0:
        spec = spec.scaled(scale)
    return spec


def all_specs(scale: float = 1.0) -> List[WorkloadSpec]:
    return [benchmark_spec(name, scale) for name in BENCHMARK_NAMES]
