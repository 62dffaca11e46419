"""A finished run's VM is freed by reference counting.

A dead VM held in a reference cycle lives until the cyclic collector
happens to run, and with it the whole address space — the slabs that
dominate a campaign's resident memory.  With the cyclic collector off,
the VM and its space must be gone the moment ``run`` returns, on every
plan family, every tier, and with anything attached.
"""

import gc
import weakref
from pathlib import Path

import pytest

from repro import RunOptions, run
from repro.kernels import TIER_ENV
from repro.runtime import vm as vm_module

KVSTORE = str(Path(__file__).resolve().parents[2] / "examples" / "workloads" / "kvstore.json")


@pytest.fixture
def built(monkeypatch):
    """Weak references to every VM (and its space) built under the test."""
    refs = []
    init = vm_module.VM.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append((weakref.ref(self), weakref.ref(self.space)))

    monkeypatch.setattr(vm_module.VM, "__init__", recording)
    gc.collect()
    gc.disable()
    yield refs
    gc.enable()


@pytest.mark.parametrize("tier", ["python", "cffi"])
@pytest.mark.parametrize(
    "collector", ["25.25.100", "25.25.MOS", "BOF.25", "BSS", "gctk:Appel", "gctk:SS"]
)
def test_a_finished_run_frees_its_vm(built, monkeypatch, tier, collector):
    monkeypatch.setenv(TIER_ENV, tier)
    report = run("jess", collector, 25600, options=RunOptions(scale=0.3))
    assert report.stats.collections > 0
    [(vm, space)] = built
    assert vm() is None and space() is None


@pytest.mark.parametrize("options", [
    {"sanitize": True}, {"counters": True}, {"profile": "full"},
])
def test_attachments_come_off_at_the_end_of_a_run(built, options):
    run("jess", "25.25.100", 25600, options=RunOptions(scale=0.3, **options))
    [(vm, space)] = built
    assert vm() is None and space() is None


def test_a_server_run_frees_its_vm(built):
    run(KVSTORE, "gctk:Appel", 256 * 1024, options=RunOptions(scale=0.3))
    [(vm, space)] = built
    assert vm() is None and space() is None
