"""Loading declarative workload files (JSON / YAML) into validated specs.

New scenarios are config, not code: a ``.json`` or ``.yaml`` file fully
describes a server workload.  JSON support is always available; YAML needs
the optional ``repro[workloads]`` extra (PyYAML) and degrades exactly like
the ``[accel]`` substrate tiers — importing this module never fails, only
*using* a ``.yaml`` ref without the dependency raises a clear
:class:`ConfigError`.

The loader checks only what a mapping needs: its shape (mappings, lists,
unknown and required keys), JSON types, defaults and ``kind``.  Every rule
about a value — ranges, finiteness, reserved and declared lifetime names —
is stated once, in the dataclass it constrains
(:mod:`repro.workloads.model`, :class:`~repro.bench.engine.AllocSite`,
:class:`~repro.bench.lifetime.LifetimeClass`), which raises
``ConfigError(message, pointer)``.  The loader builds each object through
:meth:`_Ctx.build`, which adds the source and the object's place in the
document, so an error points at the exact field::

    workload.yaml:/tasks/0/weight: task weight must be > 0 (got -1)

The mapping schema mirrors :meth:`ServerWorkloadSpec.to_dict`, so specs
round-trip: ``from_mapping(spec.to_dict()) == spec``.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Sequence, Tuple, Union

from ..bench.engine import AllocSite
from ..bench.lifetime import LifetimeClass
from ..errors import ConfigError
from .model import (
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

    def fail(self, pointer: str, message: str) -> ConfigError:
        return ConfigError(f"{self.source}:{pointer}: {message}", pointer)

    def build(self, pointer: str, cls, **fields):
        """``cls(**fields)``; a rule it breaks is reported at ``pointer``
        plus the field pointer the class raised with."""
        try:
            return cls(**fields)
        except ConfigError as error:
            raise self.fail(pointer + error.pointer or "/", str(error)) from None


# ----------------------------------------------------------------------
# JSON types: each reader takes (ctx, value, pointer) and returns the
# value in the type the dataclass field holds
# ----------------------------------------------------------------------
def _number(ctx: _Ctx, value: Any, pointer: str) -> float:
    if isinstance(value, bool) or not isinstance(value, _NUM):
        raise ctx.fail(pointer, f"expected a number, got {value!r}")
    return float(value)


def _integer(ctx: _Ctx, value: Any, pointer: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ctx.fail(pointer, f"expected an integer, got {value!r}")
    return value


def _string(ctx: _Ctx, value: Any, pointer: str) -> str:
    if not isinstance(value, str):
        raise ctx.fail(pointer, f"expected a string, got {value!r}")
    return value


def _is_list(value: Any) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _list(ctx: _Ctx, value: Any, pointer: str, item: Callable) -> Tuple:
    if not _is_list(value):
        raise ctx.fail(pointer, f"expected a list, got {value!r}")
    return tuple(item(ctx, element, f"{pointer}/{i}")
                 for i, element in enumerate(value))


def _range(ctx: _Ctx, value: Any, pointer: str, item: Callable) -> Tuple:
    """A two-element ``[lo, hi]`` list of ``item``s."""
    if not _is_list(value) or len(value) != 2:
        raise ctx.fail(pointer, f"expected a [lo, hi] pair, got {value!r}")
    return _list(ctx, value, pointer, item)


def _mapping(ctx: _Ctx, value: Any, pointer: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ctx.fail(pointer or "/",
                       f"expected a mapping, got {type(value).__name__}")
    return value


def _fields(ctx: _Ctx, doc: Any, pointer: str, schema: Mapping[str, Callable],
            required: Tuple[str, ...] = ()) -> Dict[str, Any]:
    """``doc``'s fields read by ``schema``'s reader for each key; a key
    the document leaves out takes the dataclass default."""
    doc = _mapping(ctx, doc, pointer)
    for key in doc:
        if key not in schema:
            raise ctx.fail(
                f"{pointer}/{key}",
                f"unknown field {key!r} (expected one of {sorted(schema)})",
            )
    for key in required:
        if key not in doc:
            raise ctx.fail(f"{pointer}/{key}", f"missing required field {key!r}")
    return {key: schema[key](ctx, value, f"{pointer}/{key}")
            for key, value in doc.items()}


# ----------------------------------------------------------------------
# Objects
# ----------------------------------------------------------------------
_INT_RANGE = partial(_range, item=_integer)


def _section(cls, schema: Mapping[str, Callable]) -> Callable:
    """Reader of a mapping whose keys are ``cls``'s fields."""
    def read(ctx: _Ctx, value: Any, pointer: str):
        return ctx.build(pointer, cls, **_fields(ctx, value, pointer, schema))
    return read


def _lifetimes(ctx: _Ctx, value: Any, pointer: str) -> Dict[str, LifetimeClass]:
    schema = {"lo_bytes": _integer, "hi_bytes": _integer}
    return {
        name: ctx.build(f"{pointer}/{name}", LifetimeClass, name=name,
                        **_fields(ctx, entry, f"{pointer}/{name}", schema))
        for name, entry in _mapping(ctx, value, pointer).items()
    }


_SITE = {"weight": _number, "type": _string, "lifetime": _string,
         "length": _INT_RANGE, "link_prob": _number, "work": _number}


def _site(ctx: _Ctx, value: Any, pointer: str) -> AllocSite:
    fields = _fields(ctx, value, pointer, _SITE, required=("type", "lifetime"))
    fields["type_name"] = fields.pop("type")
    if fields["type_name"] in ("refarr", "buf") and \
            fields.get("length", (0, 0)) == (0, 0):
        fields["length"] = (4, 16)  # arrays of zero length are pointless
    return ctx.build(pointer, AllocSite, **{"weight": 1.0, **fields})


_TASK = {"name": _string, "weight": _number, "sites": partial(_list, item=_site),
         "request_bytes": _INT_RANGE, "cache_lookups": _integer,
         "reads": _number, "work": _number}


def _task(ctx: _Ctx, value: Any, pointer: str) -> RequestTask:
    fields = _fields(ctx, value, pointer, _TASK, required=("name", "sites"))
    return ctx.build(pointer, RequestTask, **{"weight": 1.0, **fields})


def _kind(ctx: _Ctx, value: Any, pointer: str) -> str:
    if _string(ctx, value, pointer) != "server-workload":
        raise ctx.fail(pointer, f"unknown workload kind {value!r} "
                                "(expected 'server-workload')")
    return value


_TOP = {
    "kind": _kind,
    "name": _string,
    "description": _string,
    "duration_s": _number,
    "max_requests": _integer,
    "arrival": _section(ArrivalSpec, {
        "process": _string, "rate_rps": _number, "burst_multiplier": _number,
        "on_s": _number, "off_s": _number}),
    "sessions": _section(SessionSpec, {
        "max_concurrent": _integer, "requests_per_session": _INT_RANGE,
        "slots": _integer, "seed_objects": _integer}),
    "cache": _section(CacheSpec, {
        "slots": _integer, "ttl_s": partial(_range, item=_number)}),
    "lifetimes": _lifetimes,
    "tasks": partial(_list, item=_task),
}


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def from_mapping(doc: Any, source: str = "<mapping>") -> ServerWorkloadSpec:
    """Build a validated ServerWorkloadSpec from a parsed mapping."""
    ctx = _Ctx(source)
    fields = _fields(ctx, doc, "", _TOP, required=("name", "tasks"))
    fields.pop("kind", None)
    return ctx.build("", ServerWorkloadSpec, **fields)


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
