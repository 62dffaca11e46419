"""Shadow-graph differential checking and fault injection (DESIGN §11).

The sanitizer is the repo's root-cause safety net: a pure-Python *oracle*
of what the heap must contain (``shadow``), a differential checker that
compares the real heap against it at every collection boundary (``diff``),
a standalone invariant suite (``invariants``), and a deterministic
fault-injection layer whose every registered fault is provably detected
by one of the two (``faults``).  ``heapcheck`` hosts the heap verifier
plus the counter-free reader both checkers are built on.

Only ``heapcheck`` is imported eagerly: ``repro.core`` and ``repro.gctk``
import it while *this* package must be importable from them, so the
attach/shadow/fault surface is resolved lazily (PEP 562).
"""

from .heapcheck import (
    HeapVerifier,
    ObjectView,
    RawHeapReader,
    VerifyReport,
    frame_bounds_error,
)

_LAZY = {
    "Sanitizer": ".attach",
    "attach_sanitizer": ".attach",
    "SanitizerReport": ".report",
    "SanitizerViolation": ".report",
    "Violation": ".report",
    "ShadowGraph": ".shadow",
    "ShadowNode": ".shadow",
    "DifferentialChecker": ".diff",
    "FAULT_KINDS": ".faults",
    "FaultInjector": ".faults",
    "FaultSpec": ".faults",
    "arm_faults": ".faults",
}

__all__ = [
    "HeapVerifier",
    "ObjectView",
    "RawHeapReader",
    "VerifyReport",
    "frame_bounds_error",
] + sorted(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(module, __name__), name)
