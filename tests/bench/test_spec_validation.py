"""Validation tests for WorkloadSpec construction errors."""

import pytest

from repro.bench.engine import AllocSite, WorkloadSpec
from repro.bench.lifetime import LifetimeClass
from repro.errors import ConfigError

LIFETIMES = {"short": LifetimeClass("short", 0, 100)}
SITE = AllocSite(weight=1.0, type_name="small", lifetime="short")


def make(**overrides):
    base = dict(
        name="x",
        total_alloc_bytes=1024,
        sites=[SITE],
        lifetimes=dict(LIFETIMES),
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def test_valid_spec_constructs():
    spec = make()
    assert spec.name == "x"


def test_zero_allocation_rejected():
    with pytest.raises(ConfigError):
        make(total_alloc_bytes=0)


def test_no_sites_rejected():
    with pytest.raises(ConfigError):
        make(sites=[])


def test_negative_weight_rejected():
    with pytest.raises(ConfigError):
        make(sites=[SITE, AllocSite(weight=-1.0, type_name="small", lifetime="short")])


def test_zero_total_weight_rejected():
    with pytest.raises(ConfigError):
        make(sites=[AllocSite(weight=0.0, type_name="small", lifetime="short")])


def test_unknown_lifetime_rejected():
    bad = AllocSite(weight=1.0, type_name="small", lifetime="banana")
    with pytest.raises(ConfigError):
        make(sites=[bad])


def test_cycle_size_validated():
    with pytest.raises(ConfigError):
        make(cycle_every_bytes=512, cycle_size=1)


def test_cycle_lifetime_validated():
    with pytest.raises(ConfigError):
        make(cycle_every_bytes=512, cycle_size=4, cycle_lifetime="nope")


def test_phase_fraction_validated():
    with pytest.raises(ConfigError):
        make(phase_bytes=512, phase_drop_fraction=1.5)


def test_scaled_preserves_phase_count():
    spec = make(
        total_alloc_bytes=4000, phase_bytes=1000, phase_drop_fraction=0.5
    )
    half = spec.scaled(0.5)
    assert half.total_alloc_bytes == 2000
    assert half.phase_bytes == 500
    assert half.total_alloc_bytes // half.phase_bytes == 4
