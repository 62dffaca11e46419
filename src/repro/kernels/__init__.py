"""repro.kernels: the pluggable substrate-kernel tier (DESIGN §13).

Two tiers: ``python`` is the spec, ``cffi`` is the speed.  The loops no
Python rendition makes fast — the pointer-chasing Cheney scan/copy trace
(:mod:`repro.heap.cheney`, which Beltway and the gctk baselines both
drive) and the mutator's op tape (:mod:`repro.runtime.tape`) — are
lowered from the pure Python reference onto one ahead-of-time-compiled C
backend (:mod:`repro.kernels.cik`).

Tier contract (enforced by the golden-counter suite): both tiers produce
**bit-identical counters** — memory access counts, barrier fast/slow/null
splits, remset insert/duplicate totals, every ``CollectionResult`` field,
and identical error behaviour on identical inputs.  A kernel that cannot
preserve that contract for some input falls back to the reference path
for that operation; a backend that fails to import or compile degrades
to ``python`` (``import repro`` never breaks because cffi or a compiler
is absent — see :func:`available`).

Selection is explicit and layered per DESIGN §9: ``tier="python" |
"cffi" | "auto"`` at VM construction, defaulting to the
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
TIER_ORDER = ("cffi", "python")

_availability_cache: Dict[str, str] = {}


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
        _availability_cache["cffi"] = _probe_cffi()
    return dict(_availability_cache)


class KernelSet:
    """The resolved kernel bundle one VM (and its plan) runs on.

    ``name`` is the tier actually in effect; ``requested`` what the caller
    asked for (they differ when a missing backend degraded gracefully).
    ``cik`` is the compiled C kernel module (the copy-trace engine and the
    tape replay kernel), or ``None`` on the python tier.
    """

    def __init__(self, name: str, requested: str):
        self.name = name
        self.requested = requested
        self.cik = None
        self._heap_view = None
        if name == "cffi":
            from . import cik

            self.cik = cik

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
    never break a run (the tests skip-with-reason via :func:`available`
    instead, and ``beltway-bench`` says so on stderr).
    """
    requested = tier or os.environ.get(TIER_ENV, "") or "auto"
    requested = requested.strip().lower()
    if requested == "auto":
        candidates = TIER_ORDER
    elif requested in TIER_ORDER:
        candidates = TIER_ORDER[TIER_ORDER.index(requested):]
    elif requested == "numpy":
        # A retired tier name, still an accepted *request* (never a tier)
        # because the frozen ledger makes it: benchmarks/e2e/layers.py
        # sets REPRO_SUBSTRATE_TIER=numpy and BENCHMARK.json declares
        # kernels.numpy.cell_s.  It degrades to the reference like any
        # absent backend; ROADMAP item 5's rebaseline deletes that metric
        # row and this branch together.
        candidates = ("python",)
    else:
        from ..errors import ConfigError

        raise ConfigError(
            f"unknown substrate tier {requested!r}; expected one of "
            f"python/cffi/auto"
        )
    status = available()
    name = next(c for c in candidates if status[c].startswith("ok"))
    return KernelSet(name, requested)
