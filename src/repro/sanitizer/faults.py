"""Deterministic fault injection: break the collectors on purpose.

Every fault is a wrapper around a collection-critical method, installed
through ``vm.seam`` like telemetry and the sanitizer (DESIGN §10/§11): a
VM whose faults were never armed executes untouched code, and ``disarm``
removes every wrapper.  Faults are deterministic and
seed-addressable — a :class:`FaultSpec` names the fault kind and either
the exact occurrence to break (``nth``) or a ``seed`` from which the
occurrence is derived — so the same spec breaks the same store in every
run, which is what makes "every registered fault is detected" a testable
meta-property rather than a flaky one.

Registered kinds (each provably detected by the differential checker or
the invariant suite; see ``tests/sanitizer/test_fault_matrix.py``):

``barrier.drop-entry``
    The nth remembered-set insert (Beltway ``RememberedSets.insert``,
    GCTk ``SequentialStoreBuffer.append``) is silently dropped —
    detected by remset completeness.
``remset.corrupt-slot``
    The nth insert records a wrong slot address in the right frame pair —
    detected by remset completeness (the real slot is uncovered).
``copy.skip-forward``
    After a collection's trace, one root slot is wound back to the
    evacuated address — a skipped forward; detected as a stale pointer
    by the differential walk (forwarding coherence).
``order.stale-stamp``
    From the nth restamp on, one frame's entry in the flat ``orders``
    table the compiled barrier reads disagrees with its increment's
    stamp — detected by the belt/increment ordering invariant (Beltway
    only).
``reserve.shrink``
    From the nth query on, the plan under-reports its copy reserve —
    detected by the copy-reserve accounting invariant (Beltway only).
``scalar.corrupt``
    After the nth collection, one reachable scalar payload word is
    incremented — detected by the differential walk's payload compare.

Arm faults before any mutator context is built (contexts cache bound
methods); order relative to the sanitizer and other attachments is free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ConfigError
from ..heap.objectmodel import HEADER_WORDS
from .heapcheck import RawHeapReader

FAULT_KINDS = (
    "barrier.drop-entry",
    "remset.corrupt-slot",
    "copy.skip-forward",
    "order.stale-stamp",
    "reserve.shrink",
    "scalar.corrupt",
)

#: Fault kinds that only make sense on a Beltway plan.
BELTWAY_ONLY = ("order.stale-stamp", "reserve.shrink")


@dataclass(frozen=True)
class FaultSpec:
    """One fault to arm: which seam, and which occurrence to break."""

    kind: str
    nth: Optional[int] = None  #: 1-based occurrence; None = derive from seed
    seed: int = 0
    param: int = 2  #: kind-specific magnitude (reserve.shrink frame count)

    def resolved_nth(self) -> int:
        """The occurrence this spec breaks (seed-addressable when ``nth``
        is not given)."""
        if self.nth is not None:
            if self.nth < 1:
                raise ConfigError(f"fault nth must be >= 1, got {self.nth}")
            return self.nth
        return 1 + (self.seed * 2654435761) % 7

    def describe(self) -> str:
        return f"{self.kind}@{self.resolved_nth()}"


class FaultInjector:
    """Armed faults on one VM; tracks firings and owns the wrap handles."""

    def __init__(self, vm, specs: Sequence[FaultSpec]):
        self.vm = vm
        self.specs = list(specs)
        self.events: List[str] = []  #: one entry per fault firing
        self._handles: list = []
        for spec in self.specs:
            _ARMERS.get(spec.kind, _unknown_kind)(self, spec)

    @property
    def fired(self) -> bool:
        return bool(self.events)

    def disarm(self) -> None:
        """Remove every wrapper this injector installed."""
        for handle in self._handles:
            handle.remove()

    detach = disarm

    def _wrap(self, obj, name: str, make) -> None:
        """Wrap ``obj.name`` through the seam (``make(inner)`` may be
        re-invoked, so every armer keeps its state outside ``make``)."""
        self._handles.append(self.vm.seam.wrap(obj, name, make))


def arm_faults(vm, specs: Sequence[FaultSpec]) -> FaultInjector:
    """Arm ``specs`` on ``vm``; returns the injector (public API)."""
    return FaultInjector(vm, specs)


def _unknown_kind(injector: FaultInjector, spec: FaultSpec) -> None:
    raise ConfigError(
        f"unknown fault kind {spec.kind!r}; registered: "
        + ", ".join(FAULT_KINDS)
    )


def _is_beltway(plan) -> bool:
    return hasattr(plan, "belts")


def _require_beltway(plan, spec: FaultSpec) -> None:
    if not _is_beltway(plan):
        raise ConfigError(
            f"fault kind {spec.kind!r} requires a Beltway plan"
        )


def _recompile_write_paths(injector: FaultInjector, plan, vm) -> None:
    """Re-bake the compiled store/init closures so they capture the
    wrapped insert (the originals froze ``remsets.insert`` into their
    namespace at construction — DESIGN §9)."""
    barrier, model = plan.barrier, plan.model
    injector._wrap(
        plan, "write_ref_field", lambda _: barrier.compile_write_field(model)
    )
    injector._wrap(
        plan, "_init_object", lambda _: barrier.compile_init_object(model)
    )
    injector._wrap(vm, "_write_ref_field", lambda _: plan.write_ref_field)


# ----------------------------------------------------------------------
# Remembered-set seams (core.barrier / core.remset / gctk.ssb)
# ----------------------------------------------------------------------
def _arm_insert_fault(injector: FaultInjector, spec: FaultSpec,
                      corrupt: bool) -> None:
    plan = injector.vm.plan
    nth = spec.resolved_nth()
    state = {"n": 0}
    events = injector.events
    if _is_beltway(plan):
        target, name, label = plan.remsets, "insert", "insert"
    else:
        target, name, label = plan.ssb, "append", "SSB append"

    def make(inner):
        def record(*args):  # Beltway (src, tgt, slot); GCTk (slot,)
            state["n"] += 1
            if state["n"] != nth:
                return inner(*args)
            *pair, slot = args
            what = f"{spec.kind}: {label} #{nth} "
            if pair:
                what += f"pair ({pair[0]},{pair[1]}) "
            if corrupt:
                events.append(
                    f"{what}slot {slot:#x} corrupted to {slot ^ 8:#x}"
                )
                inner(*pair, slot ^ 8)
            else:
                events.append(f"{what}slot {slot:#x} dropped")

        return record

    injector._wrap(target, name, make)
    _recompile_write_paths(injector, plan, injector.vm)


def _arm_drop_entry(injector: FaultInjector, spec: FaultSpec) -> None:
    _arm_insert_fault(injector, spec, corrupt=False)


def _arm_corrupt_slot(injector: FaultInjector, spec: FaultSpec) -> None:
    _arm_insert_fault(injector, spec, corrupt=True)


# ----------------------------------------------------------------------
# Copy seams (core.collector / gctk.base)
# ----------------------------------------------------------------------
def _post_collection_seam(injector: FaultInjector, apply) -> None:
    """Run ``apply(collection_number)`` after each collection's trace but
    *before* the collection listeners (and hence the checker) observe the
    result — the window where a real collector bug would sit.

    Beltway: ``plan.collector.collect`` returns before ``plan.collect``
    fires listeners, so wrapping the collector is enough.  GCTk plans
    fire listeners inside ``plan._emit``, so the seam is there instead.
    """
    plan = injector.vm.plan
    state = {"n": 0}
    if _is_beltway(plan):
        def make(inner):
            def collect(batch, reason):
                result = inner(batch, reason)
                state["n"] += 1
                apply(state["n"])
                return result

            return collect

        injector._wrap(plan.collector, "collect", make)
    else:
        def make(inner):
            def _emit(result):
                state["n"] += 1
                apply(state["n"])
                return inner(result)

            return _emit

        injector._wrap(plan, "_emit", make)


def _arm_skip_forward(injector: FaultInjector, spec: FaultSpec) -> None:
    """Wind one root slot back to its pre-collection (evacuated) address:
    the observable effect of a forward the trace skipped."""
    plan = injector.vm.plan
    nth = spec.resolved_nth()
    events = injector.events
    snapshots = {"before": None}
    state = {"fired": False}

    def snapshot(reason):
        snapshots["before"] = [list(array) for array in plan.root_arrays]

    # Take the pre-trace snapshot at every outermost collection entry
    # (GCTk plans call minor/major directly from the allocator).
    injector._handles.append(
        injector.vm.seam.around_collections(plan, begin=snapshot)
    )

    def apply(count):
        if state["fired"] or count < nth:
            return
        before = snapshots["before"]
        if before is None:
            return
        for array, old_slots in zip(plan.root_arrays, before):
            for index, (old, new) in enumerate(zip(old_slots, array)):
                if old and new != old:
                    array[index] = old
                    state["fired"] = True
                    events.append(
                        f"{spec.kind}: root slot {index} wound back from "
                        f"{new:#x} to evacuated {old:#x} after "
                        f"collection #{count}"
                    )
                    return

    _post_collection_seam(injector, apply)


def _arm_scalar_corrupt(injector: FaultInjector, spec: FaultSpec) -> None:
    """Flip one reachable scalar payload word right after a collection —
    the signature of a copy that lost data."""
    vm = injector.vm
    plan = vm.plan
    nth = spec.resolved_nth()
    events = injector.events
    state = {"fired": False}
    reader = RawHeapReader(vm.space, plan.model)

    def apply(count):
        if state["fired"] or count < nth:
            return
        order, error = reader.walk(
            value for array in plan.root_arrays for value in array
        )
        if error:
            return
        for addr in order:
            view = reader.view(addr)
            if not view.scalars:
                continue
            frame = reader.frame_of(addr)
            slot = ((addr >> 2) & reader.space._word_mask) + \
                HEADER_WORDS + len(view.refs)
            frame.words[slot] += 1
            state["fired"] = True
            events.append(
                f"{spec.kind}: scalar word 0 of {addr:#x} bumped from "
                f"{view.scalars[0]} after collection #{count}"
            )
            return

    _post_collection_seam(injector, apply)


# ----------------------------------------------------------------------
# Order and reserve seams (core.order / core.reserve, Beltway only)
# ----------------------------------------------------------------------
def _arm_stale_stamp(injector: FaultInjector, spec: FaultSpec) -> None:
    plan = injector.vm.plan
    _require_beltway(plan, spec)
    nth = spec.resolved_nth()
    state = {"n": 0, "fired": False}
    events = injector.events

    def make(inner):
        def restamp():
            inner()
            state["n"] += 1
            if state["n"] < nth:
                return
            for belt in plan.belts:
                for inc in belt.increments:
                    for frame in inc.region.frames:
                        plan.space.orders[frame.index] = inc.stamp + 1
                        if not state["fired"]:
                            state["fired"] = True
                            events.append(
                                f"{spec.kind}: orders[{frame.index}] bumped "
                                f"to {inc.stamp + 1} (belt {belt.index} "
                                f"front stamp {inc.stamp}) at restamp "
                                f"#{state['n']}"
                            )
                        return

        return restamp

    injector._wrap(plan, "restamp", make)


def _arm_reserve_shrink(injector: FaultInjector, spec: FaultSpec) -> None:
    plan = injector.vm.plan
    _require_beltway(plan, spec)
    nth = spec.resolved_nth()
    shrink = max(1, spec.param)
    state = {"n": 0, "fired": False}
    events = injector.events

    def make(inner):
        def current_reserve_frames(*ahead):
            honest = inner(*ahead)
            state["n"] += 1
            if state["n"] < nth or honest == 0:
                return honest
            if not state["fired"]:
                state["fired"] = True
                events.append(
                    f"{spec.kind}: reserve under-reported {honest} -> "
                    f"{max(0, honest - shrink)} from query #{state['n']}"
                )
            return max(0, honest - shrink)

        return current_reserve_frames

    injector._wrap(plan, "current_reserve_frames", make)


_ARMERS = {
    "barrier.drop-entry": _arm_drop_entry,
    "remset.corrupt-slot": _arm_corrupt_slot,
    "copy.skip-forward": _arm_skip_forward,
    "order.stale-stamp": _arm_stale_stamp,
    "reserve.shrink": _arm_reserve_shrink,
    "scalar.corrupt": _arm_scalar_corrupt,
}
