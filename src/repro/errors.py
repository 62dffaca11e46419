"""Exception hierarchy for the Beltway reproduction.

Every failure mode of the simulated memory system raises a subclass of
:class:`ReproError` so callers (the experiment harness in particular) can
distinguish *collector* failures (``OutOfMemory`` at a too-small heap size)
from genuine bugs (``HeapCorruption``).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the reproduction library."""


class ConfigError(ReproError):
    """An invalid collector or benchmark configuration was requested.

    ``pointer`` is the offending field's JSON-pointer path relative to the
    object that raised (``"/seed_objects"`` from a ``SessionSpec``), or
    ``""``.  The workload-file loader re-raises with the object's place in
    the document prefixed (``"/sessions/seed_objects"``).
    """

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer


class OutOfMemory(ReproError):
    """The heap could not satisfy an allocation request.

    For copying collectors this means the copy-reserve invariant could not
    be maintained: even after collecting, there was not enough free space to
    hold the requested object plus the reserve.  The experiment harness uses
    this error to discover the minimum heap size of a benchmark (Table 1).
    """

    def __init__(self, message: str, requested_words: int = 0):
        super().__init__(message)
        self.requested_words = requested_words


class HeapCorruption(ReproError):
    """An invariant of the simulated heap was violated.

    Raised by the heap verifier and by defensive checks in the object model
    (e.g. a reference slot holding a non-object address).  This always
    indicates a bug in a collector, never a legitimate runtime condition.
    """


class InvalidAddress(HeapCorruption):
    """An address was outside any mapped frame or not word aligned."""


class BarrierError(ReproError):
    """A pointer store bypassed or confused the write barrier."""
