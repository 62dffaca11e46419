"""``repro.runtime.seam``: the one wrap/unwrap mechanism (DESIGN §10)."""

import pytest

from repro.runtime.seam import Seam


class _Target:
    def ping(self, x):
        return [x]

    def collect(self, reason="forced"):
        return self.minor_collect(reason)

    def minor_collect(self, reason):
        return reason


def _tagger(tag, built=None):
    def make(inner):
        if built is not None:
            built.append(tag)
        return lambda x: inner(x) + [tag]

    return make


def test_wrappers_nest_in_attach_order_and_come_off_in_any_order():
    seam, target = Seam(), _Target()
    a = seam.wrap(target, "ping", _tagger("a"))
    b = seam.wrap(target, "ping", _tagger("b"))
    c = seam.wrap(target, "ping", _tagger("c"))
    assert target.ping(0) == [0, "a", "b", "c"]
    b.remove()
    assert target.ping(0) == [0, "a", "c"]
    a.remove()
    a.remove()  # idempotent
    assert target.ping(0) == [0, "c"] and seam.active
    c.remove()
    assert "ping" not in vars(target) and not seam.active
    assert target.ping(0) == [0]


def test_prior_instance_attribute_is_restored_not_deleted():
    seam, target = Seam(), _Target()
    compiled = target.ping = lambda x: ["compiled", x]
    handle = seam.wrap(target, "ping", lambda inner: lambda x: "replaced")
    assert target.ping(1) == "replaced"
    handle.remove()
    assert target.ping is compiled


def test_factories_are_reinvoked_on_every_rebuild():
    seam, target, built = Seam(), _Target(), []
    a = seam.wrap(target, "ping", _tagger("a", built))
    seam.wrap(target, "ping", _tagger("b", built))
    a.remove()
    assert built == ["a", "a", "b", "b"]


def test_around_collections_sees_only_outermost_entries():
    seam, plan, log = Seam(), _Target(), []
    first = seam.around_collections(
        plan, lambda reason: log.append(("begin-1", reason)),
        lambda: log.append("end-1"),
    )
    second = seam.around_collections(
        plan, lambda reason: log.append(("begin-2", reason)),
        lambda: log.append("end-2"),
    )
    assert plan.collect("full") == "full"  # delegates to minor_collect
    assert plan.minor_collect("nursery") == "nursery"
    assert log == [
        ("begin-2", "full"), ("begin-1", "full"), "end-1", "end-2",
        ("begin-2", "nursery"), ("begin-1", "nursery"), "end-1", "end-2",
    ]
    first.remove()
    assert seam.active
    second.remove()
    second.remove()
    assert not seam.active and not vars(plan)


def test_a_raising_begin_ends_only_what_began_and_resets_the_guard():
    seam, plan, log = Seam(), _Target(), []

    def refuse(reason):
        raise RuntimeError("violation")

    seam.around_collections(plan, refuse, lambda: log.append("end-inner"))
    seam.around_collections(
        plan, lambda reason: log.append("begin-outer"),
        lambda: log.append("end-outer"),
    )
    for _ in range(2):  # the second entry is outermost again
        with pytest.raises(RuntimeError):
            plan.collect()
    assert log == ["begin-outer", "end-outer"] * 2
