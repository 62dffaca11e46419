"""repro.kernels: the pluggable substrate-kernel tier (DESIGN §13).

The reproduction's five hottest loops — the mutator ``store_ref`` /
``init_object`` barrier paths, the Cheney scan/copy trace
(:mod:`repro.heap.cheney`, which Beltway and the gctk baselines both
drive), remset SSB insert + drain-with-dedup, and the
frame bulk load/store/copy kernels — can each be lowered from the pure
Python reference onto compiled substrates:

* ``numpy`` — vectorised batch kernels: drain-time remset dedup, the
  batched mutator store/alloc paths (:class:`~repro.kernels.npk.BatchOps`);
* ``cffi`` — an ahead-of-time-compiled C backend for the loops numpy
  cannot batch (the pointer-chasing copy trace, the mutator's op tape),
  layered *on top of* the numpy kernels when numpy is present.

Tier contract (enforced by the golden-counter suite): every tier produces
**bit-identical counters** — memory access counts, barrier fast/slow/null
splits, remset insert/duplicate totals, every ``CollectionResult`` field,
and identical error behaviour on identical inputs.  A kernel that cannot
preserve that contract for some input falls back to the reference path
for that operation; a backend that fails to import or compile degrades
the whole tier gracefully (``import repro`` never breaks because numpy
or cffi is absent — see :func:`available`).

Selection is explicit and layered per DESIGN §9: ``tier="python" |
"numpy" | "cffi" | "auto"`` at VM construction, defaulting to the
``REPRO_SUBSTRATE_TIER`` environment variable and then to ``auto``
(fastest available).  ``beltway-bench --tier`` forwards the same choice.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Dict, Optional

#: Environment variable consulted when no explicit tier is passed.
TIER_ENV = "REPRO_SUBSTRATE_TIER"

#: Fallback order for ``auto`` (fastest first) and for graceful
#: degradation when a requested backend is unavailable.
TIER_ORDER = ("cffi", "numpy", "python")

_availability_cache: Dict[str, str] = {}


def _probe_numpy() -> str:
    try:
        import numpy  # noqa: F401
    except Exception as error:  # pragma: no cover - environment-specific
        return f"unavailable: {error}"
    return f"ok (numpy {numpy.__version__})"


def _probe_cffi() -> str:
    try:
        from . import cik
    except Exception as error:  # pragma: no cover - environment-specific
        return f"unavailable: {error}"
    error = cik.build_error()
    if error:
        return f"unavailable: {error}"
    return "ok (compiled)"


def available() -> Dict[str, str]:
    """Introspect backend availability: tier name -> status string.

    A tier is usable iff its status starts with ``"ok"``.  The ``cffi``
    probe compiles (or loads the cached build of) the C backend, so a
    truthful answer may take a moment the first time; results are cached
    for the process lifetime.
    """
    if not _availability_cache:
        _availability_cache["python"] = "ok (reference)"
        _availability_cache["numpy"] = _probe_numpy()
        _availability_cache["cffi"] = _probe_cffi()
    return dict(_availability_cache)


class KernelSet:
    """The resolved kernel bundle one VM (and its plan) runs on.

    ``name`` is the tier actually in effect; ``requested`` what the caller
    asked for (they differ when a missing backend degraded gracefully).
    Capability attributes are ``None`` when the backing substrate is
    absent, so consumers probe with ``if kernels.x is not None``:

    * ``npk`` — the numpy kernel module (remset dedup, batch ops);
    * ``cik`` — the compiled C kernel module (the copy-trace engine and
      the tape replay kernel).
    """

    def __init__(self, name: str, requested: str):
        self.name = name
        self.requested = requested
        self.npk = None
        self.cik = None
        self._heap_view = None
        if name in ("numpy", "cffi"):
            from . import npk

            self.npk = npk
        if name == "cffi":
            from . import cik

            self.cik = cik

    # -- factory helpers consumed by the heap/plan layers ----------------
    def remset_sync(self):
        """The drain-time dedup kernel, or None for the reference loop."""
        return self.npk.remset_sync if self.npk is not None else None

    def batch_ops(self, vm):
        """Per-VM batched mutator kernels (numpy tiers), else None."""
        return self.npk.BatchOps(vm) if self.npk is not None else None

    def _view(self, model):
        """The one C heap view of this VM, shared by both cffi kernels."""
        if self._heap_view is None:
            self._heap_view = self.cik.HeapView(model)
        return self._heap_view

    def trace_engine(self, model):
        """The compiled copy-trace engine opener for ``model``'s heap, or
        None for the Python engine (:func:`repro.heap.cheney.trace_engine`
        is the seam plans resolve through)."""
        if self.cik is None:
            return None
        return partial(self.cik.TraceState, self._view(model))

    def replayer(self, vm, mu, rule: int, path):
        """The compiled tape kernel (``cik.Replayer``) for ``vm`` and one
        mutator context ``mu``, or None below the cffi tier.  ``rule``:
        0 the frame-order record rule, 1 the nursery-boundary one;
        ``path``: the ``ReplayPath`` its counts go to."""
        if self.cik is None:
            return None
        return self.cik.Replayer(self._view(vm.model), vm, mu, rule, path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelSet {self.name} (requested {self.requested})>"


def resolve(tier: Optional[str] = None) -> KernelSet:
    """Resolve a tier request into a :class:`KernelSet`.

    ``None`` consults :data:`TIER_ENV`, then defaults to ``auto``.  A
    request for an unavailable backend degrades to the next tier in
    :data:`TIER_ORDER` rather than raising — missing accelerators must
    never break a run (ISSUE 6 satellite; the tests skip-with-reason via
    :func:`available` instead).
    """
    requested = tier or os.environ.get(TIER_ENV, "") or "auto"
    requested = requested.strip().lower()
    status = available()
    if requested == "auto":
        for name in TIER_ORDER:
            if status[name].startswith("ok"):
                return KernelSet(name, "auto")
        return KernelSet("python", "auto")  # pragma: no cover - python always ok
    if requested not in TIER_ORDER:
        from ..errors import ConfigError

        raise ConfigError(
            f"unknown substrate tier {requested!r}; expected one of "
            f"python/numpy/cffi/auto"
        )
    if status[requested].startswith("ok"):
        return KernelSet(requested, requested)
    # Graceful degradation: drop to the best available lower tier.
    start = TIER_ORDER.index(requested)
    for name in TIER_ORDER[start + 1:]:
        if status[name].startswith("ok"):
            return KernelSet(name, requested)
    return KernelSet("python", requested)
