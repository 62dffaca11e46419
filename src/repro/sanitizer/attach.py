"""``attach_sanitizer(vm)``: wire the oracle, checker and invariants up.

The sanitizer is a plain client of ``vm.seam`` (DESIGN §10/§11): it wraps
the VM's mutator-facing operations (``alloc`` / ``write_ref`` /
``write_int``, plus each root table's ``acquire`` / ``release`` from the
``runtime.mutator`` observer hook — the table does not exist at attach
time) to feed the shadow graph, and learns where collections begin and
end from ``seam.around_collections`` and one ``collection_listeners``
entry.  It builds no bus and no ``Instrumentation`` of its own.  A VM
that was never attached executes untouched code.

Check cadence:

* collection entry — remset completeness (every edge the imminent collection
  needs is remembered), belt/increment ordering, reserve accounting;
* collection result — ordering and reserve again, then the differential walk
  (object set, edges, payloads, forwarding coherence), whose clean
  pairing becomes the shadow's post-collection address index;
* :meth:`Sanitizer.check_now` — everything at once, on demand (the
  harness runs it after the mutator finishes).

With ``halt_on_violation`` (the default) the first violation raises
:class:`~repro.sanitizer.report.SanitizerViolation` carrying the report,
so a corrupted heap is caught at the boundary where it first became
observable rather than at some later crash.
"""

from __future__ import annotations

from typing import List

from ..errors import ConfigError
from .diff import DifferentialChecker
from .heapcheck import RawHeapReader
from .invariants import (
    check_remset_completeness,
    check_reserve,
    check_structure,
)
from .report import SanitizerReport, SanitizerViolation, Violation
from .shadow import ShadowGraph


class Sanitizer:
    """One VM's shadow graph, checkers, and mutator hooks."""

    def __init__(self, vm, halt_on_violation: bool = True):
        if getattr(vm.plan, "root_arrays", None):
            raise ConfigError(
                "attach_sanitizer must run before any mutator context is "
                "created (the shadow graph has to see every root from the "
                "start)"
            )
        self.vm = vm
        self.halt_on_violation = halt_on_violation
        self.report = SanitizerReport()
        self.shadow = ShadowGraph()
        self.reader = RawHeapReader(vm.space, vm.plan.model)
        self.differ = DifferentialChecker(self.reader, self.shadow)
        self._entries = 0  #: outermost collection entries seen
        seam = vm.seam
        # Shadow after the real operation succeeded.
        self._handles = [
            seam.wrap(vm, "alloc", self._shadow_alloc),
            seam.wrap(vm, "write_ref", self._shadowed(self.shadow.on_write_ref)),
            seam.wrap(vm, "write_int", self._shadowed(self.shadow.on_write_int)),
            seam.around_collections(vm.plan, begin=self._on_entry),
        ]
        vm.plan.collection_listeners.append(self._on_result)
        vm.mutator_observer = self

    # ------------------------------------------------------------------
    # Mutator hooks (wrapper factories for ``vm.seam``)
    # ------------------------------------------------------------------
    def _shadow_alloc(self, inner):
        def alloc(desc, length: int = 0) -> int:
            addr = inner(desc, length)
            error = self.shadow.on_alloc(addr, desc, length)
            if error:
                self._flag("shadow", error, addr)
            return addr

        return alloc

    def _shadowed(self, on_write):
        def make(inner):
            def write(obj: int, index: int, value: int) -> None:
                inner(obj, index, value)
                error = on_write(obj, index, value)
                if error:
                    self._flag("shadow", error, obj)

            return write

        return make

    def observe_mutator(self, mu) -> None:
        """``runtime.mutator`` hook: mirror this context's root table.

        Called by ``MutatorContext.__init__`` (before it caches bound
        methods) whenever ``vm.mutator_observer`` is set.
        """
        table = mu.table
        shadow = self.shadow

        def make_acquire(inner):
            def acquire(addr):
                handle = inner(addr)
                error = shadow.on_acquire(table, handle._index, addr)
                if error:
                    self._flag("shadow", error, addr)
                return handle

            return acquire

        def make_release(inner):
            def release(index):
                inner(index)
                shadow.on_release(table, index)

            return release

        self._handles += [
            self.vm.seam.wrap(table, "acquire", make_acquire),
            self.vm.seam.wrap(table, "release", make_release),
        ]

    # ------------------------------------------------------------------
    # Collection boundaries
    # ------------------------------------------------------------------
    def _on_entry(self, reason: str) -> None:
        self._entries += 1
        self._boundary_check(self._entries, completeness=True, diff=False)

    def _on_result(self, result) -> None:
        self.report.collections_checked += 1
        self._boundary_check(
            result.collection_id, completeness=False, diff=True
        )

    def check_now(self) -> SanitizerReport:
        """Run the full suite immediately (harness calls this at run end)."""
        self._boundary_check(-1, completeness=True, diff=True)
        return self.report

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def _boundary_check(
        self, collection: int, completeness: bool, diff: bool
    ) -> None:
        plan = self.vm.plan
        violations: List[Violation] = []
        violations.extend(check_structure(plan, collection))
        violations.extend(check_reserve(plan, collection))
        if completeness:
            found, edges = check_remset_completeness(
                plan, self.reader, collection
            )
            violations.extend(found)
            self.report.remset_edges_checked += edges
        if diff and not violations:
            found, by_addr = self.differ.check_and_remap(collection)
            violations.extend(found)
            if by_addr is not None:
                self.shadow.rebind(by_addr)
            self.report.objects_compared = self.differ.objects_compared
            self.report.edges_compared = self.differ.edges_compared
        self._record(violations)

    def _flag(self, check: str, message: str, addr: int = 0) -> None:
        self._record([Violation(
            check=check,
            message=message,
            addr=addr,
            frame=self.reader.frame_index(addr) if addr else -1,
        )])

    def _record(self, violations: List[Violation]) -> None:
        if not violations:
            return
        for violation in violations:
            self.report.record(violation)
        if self.halt_on_violation:
            raise SanitizerViolation(self.report, violations[0])

    # ------------------------------------------------------------------
    def detach(self) -> None:
        """Return the VM to the untouched-code path."""
        for handle in self._handles:
            handle.remove()
        listeners = self.vm.plan.collection_listeners
        if self._on_result in listeners:
            listeners.remove(self._on_result)
        if self.vm.mutator_observer is self:
            self.vm.mutator_observer = None


def attach_sanitizer(
    vm, halt_on_violation: bool = True
) -> Sanitizer:
    """Attach a :class:`Sanitizer` to ``vm`` and return it (public API).

    Must be called before the first ``MutatorContext`` is created
    (contexts cache bound methods); order relative to
    :func:`repro.sanitizer.faults.arm_faults` and other attachments is
    free.
    """
    return Sanitizer(vm, halt_on_violation=halt_on_violation)
