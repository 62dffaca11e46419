"""Loading and validating declarative workload files (JSON / YAML).

New scenarios are config, not code: a ``.json`` or ``.yaml`` file fully
describes a server workload.  JSON support is always available; YAML needs
the optional ``repro[workloads]`` extra (PyYAML) and degrades exactly like
the ``[accel]`` substrate tiers — importing this module never fails, only
*using* a ``.yaml`` ref without the dependency raises a clear
:class:`ConfigError`.

Validation errors carry a JSON-pointer-style location so a typo in a large
spec file points at the exact field::

    workload.yaml:/tasks/0/weight: task weight must be > 0 (got -1)

The mapping schema mirrors :meth:`ServerWorkloadSpec.to_dict`, so specs
round-trip: ``from_mapping(spec.to_dict()) == spec``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from ..bench.engine import WORKLOAD_TYPE_NAMES, AllocSite
from ..bench.lifetime import LifetimeClass
from ..errors import ConfigError
from .model import (
    ARRIVAL_PROCESSES,
    MAX_ARRAY_LENGTH,
    RESERVED_LIFETIMES,
    ArrivalSpec,
    CacheSpec,
    RequestTask,
    ServerWorkloadSpec,
    SessionSpec,
)

try:  # optional extra: repro[workloads]
    import yaml as _yaml
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _yaml = None

#: File suffixes the loader recognises.
JSON_SUFFIXES = (".json",)
YAML_SUFFIXES = (".yaml", ".yml")
WORKLOAD_SUFFIXES = JSON_SUFFIXES + YAML_SUFFIXES

_NUM = (int, float)


class _Ctx:
    """Carries the source name so every error is ``source:/pointer: msg``."""

    __slots__ = ("source",)

    def __init__(self, source: str):
        self.source = source

    def fail(self, pointer: str, message: str) -> "ConfigError":
        return ConfigError(f"{self.source}:{pointer}: {message}")


def _require_mapping(ctx: _Ctx, value: Any, pointer: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ctx.fail(pointer, f"expected a mapping, got {type(value).__name__}")
    return value


def _known_keys(ctx: _Ctx, doc: Mapping[str, Any], pointer: str, allowed) -> None:
    for key in doc:
        if key not in allowed:
            raise ctx.fail(
                f"{pointer}/{key}",
                f"unknown field {key!r} (expected one of {sorted(allowed)})",
            )


def _number(ctx: _Ctx, doc, key, pointer, default=None, minimum=None,
            exclusive=False) -> Optional[float]:
    if key not in doc:
        return default
    value = doc[key]
    where = f"{pointer}/{key}"
    if isinstance(value, bool) or not isinstance(value, _NUM):
        raise ctx.fail(where, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ctx.fail(where, f"expected a finite number, got {value!r}")
    if minimum is not None:
        if exclusive and value <= minimum:
            raise ctx.fail(where, f"must be > {minimum} (got {value})")
        if not exclusive and value < minimum:
            raise ctx.fail(where, f"must be >= {minimum} (got {value})")
    return float(value)


def _integer(ctx: _Ctx, doc, key, pointer, default=None, minimum=None) -> Optional[int]:
    if key not in doc:
        return default
    value = doc[key]
    where = f"{pointer}/{key}"
    if isinstance(value, bool) or not isinstance(value, int):
        raise ctx.fail(where, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ctx.fail(where, f"must be >= {minimum} (got {value})")
    return value


def _string(ctx: _Ctx, doc, key, pointer, default=None, choices=None) -> Optional[str]:
    if key not in doc:
        return default
    value = doc[key]
    where = f"{pointer}/{key}"
    if not isinstance(value, str):
        raise ctx.fail(where, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ctx.fail(
            where, f"unknown value {value!r} (expected one of {tuple(choices)})"
        )
    return value


def _range(ctx: _Ctx, doc, key, pointer, default, *, integral, minimum,
           exclusive=False) -> Tuple:
    """A two-element ``[lo, hi]`` list with ``minimum <= lo <= hi``."""
    if key not in doc:
        return default
    value = doc[key]
    where = f"{pointer}/{key}"
    if (
        not isinstance(value, Sequence)
        or isinstance(value, (str, bytes))
        or len(value) != 2
    ):
        raise ctx.fail(where, f"expected a [lo, hi] pair, got {value!r}")
    lo, hi = value
    kind = int if integral else _NUM
    for element in (lo, hi):
        if isinstance(element, bool) or not isinstance(element, kind):
            raise ctx.fail(where, f"expected two numbers, got {value!r}")
        if not math.isfinite(element):
            raise ctx.fail(where, f"expected two finite numbers, got {value!r}")
    if (lo <= minimum) if exclusive else (lo < minimum):
        op = ">" if exclusive else ">="
        raise ctx.fail(where, f"lo must be {op} {minimum} (got {lo})")
    if hi < lo:
        raise ctx.fail(where, f"hi must be >= lo (got {list(value)})")
    return (lo, hi) if integral else (float(lo), float(hi))


# ----------------------------------------------------------------------
# Section parsers
# ----------------------------------------------------------------------
def _parse_arrival(ctx: _Ctx, doc: Mapping[str, Any]) -> ArrivalSpec:
    pointer = "/arrival"
    _known_keys(ctx, doc, pointer,
                {"process", "rate_rps", "burst_multiplier", "on_s", "off_s"})
    process = _string(ctx, doc, "process", pointer, default="poisson",
                      choices=ARRIVAL_PROCESSES)
    rate = _number(ctx, doc, "rate_rps", pointer, default=1000.0)
    if rate is not None and rate <= 0:
        raise ctx.fail(f"{pointer}/rate_rps",
                       f"arrival rate must be > 0 requests/s (got {rate:g})")
    return ArrivalSpec(
        process=process,
        rate_rps=rate,
        burst_multiplier=_number(ctx, doc, "burst_multiplier", pointer,
                                 default=4.0, minimum=0, exclusive=True),
        on_s=_number(ctx, doc, "on_s", pointer, default=0.05,
                     minimum=0, exclusive=True),
        off_s=_number(ctx, doc, "off_s", pointer, default=0.15,
                      minimum=0, exclusive=True),
    )


def _parse_sessions(ctx: _Ctx, doc: Mapping[str, Any]) -> SessionSpec:
    pointer = "/sessions"
    _known_keys(ctx, doc, pointer,
                {"max_concurrent", "requests_per_session", "slots",
                 "seed_objects"})
    slots = _integer(ctx, doc, "slots", pointer, default=8, minimum=1)
    if slots > MAX_ARRAY_LENGTH:
        raise ctx.fail(f"{pointer}/slots",
                       f"must be <= {MAX_ARRAY_LENGTH} "
                       "(one frame holds the session root array)")
    return SessionSpec(
        max_concurrent=_integer(ctx, doc, "max_concurrent", pointer,
                                default=8, minimum=1),
        requests_per_session=_range(ctx, doc, "requests_per_session", pointer,
                                    (4, 32), integral=True, minimum=1),
        slots=slots,
        seed_objects=_integer(ctx, doc, "seed_objects", pointer,
                              default=4, minimum=0),
    )


def _parse_cache(ctx: _Ctx, doc: Mapping[str, Any]) -> CacheSpec:
    pointer = "/cache"
    _known_keys(ctx, doc, pointer, {"slots", "ttl_s"})
    return CacheSpec(
        slots=_integer(ctx, doc, "slots", pointer, default=64, minimum=0),
        ttl_s=_range(ctx, doc, "ttl_s", pointer, (0.02, 0.1),
                     integral=False, minimum=0, exclusive=True),
    )


def _parse_lifetimes(ctx: _Ctx, doc: Mapping[str, Any]) -> Dict[str, LifetimeClass]:
    lifetimes: Dict[str, LifetimeClass] = {}
    for name, entry in doc.items():
        pointer = f"/lifetimes/{name}"
        if name in RESERVED_LIFETIMES:
            raise ctx.fail(
                pointer,
                f"lifetime name {name!r} is reserved (engine-defined scope)",
            )
        entry = _require_mapping(ctx, entry, pointer)
        _known_keys(ctx, entry, pointer, {"lo_bytes", "hi_bytes"})
        lo = _integer(ctx, entry, "lo_bytes", pointer, default=0, minimum=0)
        hi = _integer(ctx, entry, "hi_bytes", pointer, default=0, minimum=0)
        if hi and hi < lo:
            raise ctx.fail(pointer, f"hi_bytes must be >= lo_bytes (got {lo}..{hi})")
        lifetimes[name] = LifetimeClass(name, lo, hi)
    return lifetimes


def _parse_site(ctx: _Ctx, doc: Any, pointer: str,
                lifetimes: Mapping[str, LifetimeClass]) -> AllocSite:
    doc = _require_mapping(ctx, doc, pointer)
    _known_keys(ctx, doc, pointer,
                {"weight", "type", "lifetime", "length", "link_prob", "work"})
    weight = _number(ctx, doc, "weight", pointer, default=1.0)
    if weight is not None and weight <= 0:
        raise ctx.fail(f"{pointer}/weight",
                       f"site weight must be > 0 (got {weight:g})")
    type_name = _string(ctx, doc, "type", pointer)
    if type_name is None:
        raise ctx.fail(pointer, "a site needs a 'type'")
    if type_name not in WORKLOAD_TYPE_NAMES:
        raise ctx.fail(f"{pointer}/type",
                       f"unknown type {type_name!r} (have {WORKLOAD_TYPE_NAMES})")
    lifetime = _string(ctx, doc, "lifetime", pointer)
    if lifetime is None:
        raise ctx.fail(pointer, "a site needs a 'lifetime'")
    known = set(RESERVED_LIFETIMES) | set(lifetimes)
    if lifetime not in known:
        raise ctx.fail(
            f"{pointer}/lifetime",
            f"unknown lifetime class {lifetime!r} (have {sorted(known)})",
        )
    length = _range(ctx, doc, "length", pointer, (0, 0), integral=True, minimum=0)
    if type_name in ("refarr", "buf") and length == (0, 0):
        length = (4, 16)  # arrays of zero length are pointless; give a default
    if length[1] > MAX_ARRAY_LENGTH:
        raise ctx.fail(
            f"{pointer}/length",
            f"array length {length[1]} exceeds the frame capacity "
            f"({MAX_ARRAY_LENGTH} elements; no large-object space)",
        )
    link_prob = _number(ctx, doc, "link_prob", pointer, default=0.0, minimum=0)
    if link_prob > 1:
        raise ctx.fail(f"{pointer}/link_prob", f"must be in [0, 1] (got {link_prob:g})")
    return AllocSite(
        weight=float(weight),
        type_name=type_name,
        lifetime=lifetime,
        length=length,
        link_prob=link_prob,
        work=_number(ctx, doc, "work", pointer, default=4.0, minimum=0),
    )


def _parse_task(ctx: _Ctx, doc: Any, pointer: str,
                lifetimes: Mapping[str, LifetimeClass]) -> RequestTask:
    doc = _require_mapping(ctx, doc, pointer)
    _known_keys(ctx, doc, pointer,
                {"name", "weight", "sites", "request_bytes", "cache_lookups",
                 "reads", "work"})
    name = _string(ctx, doc, "name", pointer)
    if not name:
        raise ctx.fail(pointer, "a task needs a non-empty 'name'")
    weight = _number(ctx, doc, "weight", pointer, default=1.0)
    if weight is not None and weight <= 0:
        raise ctx.fail(f"{pointer}/weight",
                       f"task weight must be > 0 (got {weight:g})")
    sites_doc = doc.get("sites")
    if not isinstance(sites_doc, Sequence) or isinstance(sites_doc, (str, bytes)) \
            or not sites_doc:
        raise ctx.fail(f"{pointer}/sites", "expected a non-empty list of sites")
    sites = tuple(
        _parse_site(ctx, site, f"{pointer}/sites/{i}", lifetimes)
        for i, site in enumerate(sites_doc)
    )
    return RequestTask(
        name=name,
        weight=float(weight),
        sites=sites,
        request_bytes=_range(ctx, doc, "request_bytes", pointer, (128, 512),
                             integral=True, minimum=1),
        cache_lookups=_integer(ctx, doc, "cache_lookups", pointer,
                               default=0, minimum=0),
        reads=_number(ctx, doc, "reads", pointer, default=0.0, minimum=0),
        work=_number(ctx, doc, "work", pointer, default=4.0, minimum=0),
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
_TOP_KEYS = {"kind", "name", "description", "duration_s", "max_requests",
             "arrival", "sessions", "cache", "lifetimes", "tasks"}


def from_mapping(doc: Any, source: str = "<mapping>") -> ServerWorkloadSpec:
    """Build a validated ServerWorkloadSpec from a parsed mapping."""
    ctx = _Ctx(source)
    doc = _require_mapping(ctx, doc, "/")
    _known_keys(ctx, doc, "", _TOP_KEYS)
    kind = _string(ctx, doc, "kind", "", default="server-workload")
    if kind != "server-workload":
        raise ctx.fail("/kind", f"unknown workload kind {kind!r} "
                                "(expected 'server-workload')")
    name = _string(ctx, doc, "name", "")
    if not name:
        raise ctx.fail("/name", "a workload needs a non-empty 'name'")
    duration = _number(ctx, doc, "duration_s", "", default=0.5)
    if duration is not None and duration <= 0:
        raise ctx.fail("/duration_s", f"must be > 0 seconds (got {duration:g})")
    lifetimes = _parse_lifetimes(
        ctx, _require_mapping(ctx, doc.get("lifetimes", {}), "/lifetimes")
    )
    tasks_doc = doc.get("tasks")
    if not isinstance(tasks_doc, Sequence) or isinstance(tasks_doc, (str, bytes)) \
            or not tasks_doc:
        raise ctx.fail("/tasks", "expected a non-empty list of tasks")
    tasks = tuple(
        _parse_task(ctx, task, f"/tasks/{i}", lifetimes)
        for i, task in enumerate(tasks_doc)
    )
    return ServerWorkloadSpec(
        name=name,
        description=_string(ctx, doc, "description", "", default=""),
        duration_s=duration,
        max_requests=_integer(ctx, doc, "max_requests", "", default=0, minimum=0),
        arrival=_parse_arrival(
            ctx, _require_mapping(ctx, doc.get("arrival", {}), "/arrival")
        ),
        sessions=_parse_sessions(
            ctx, _require_mapping(ctx, doc.get("sessions", {}), "/sessions")
        ),
        cache=_parse_cache(
            ctx, _require_mapping(ctx, doc.get("cache", {}), "/cache")
        ),
        lifetimes=lifetimes,
        tasks=tasks,
    )


def loads(text: str, format: str = "json",
          source: str = "<string>") -> ServerWorkloadSpec:
    """Parse a workload spec from a JSON or YAML document string."""
    if format == "json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: invalid JSON: {exc}") from exc
    elif format == "yaml":
        if _yaml is None:
            raise ConfigError(
                f"{source}: YAML workload files need PyYAML — install the "
                "optional extra (pip install 'repro[workloads]') or use JSON"
            )
        try:
            doc = _yaml.safe_load(text)
        except _yaml.YAMLError as exc:
            raise ConfigError(f"{source}: invalid YAML: {exc}") from exc
    else:
        raise ConfigError(f"unknown workload format {format!r} (json or yaml)")
    return from_mapping(doc, source)


def load_file(path: Union[str, Path]) -> ServerWorkloadSpec:
    """Load and validate a ``.json`` / ``.yaml`` / ``.yml`` workload file."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in JSON_SUFFIXES:
        format = "json"
    elif suffix in YAML_SUFFIXES:
        format = "yaml"
    else:
        raise ConfigError(
            f"{path}: unknown workload file suffix {suffix!r} "
            f"(expected one of {WORKLOAD_SUFFIXES})"
        )
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read workload file: {exc}") from exc
    return loads(text, format, source=str(path))
