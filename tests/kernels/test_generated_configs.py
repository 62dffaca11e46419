"""Generated collector configs, three ways (ROADMAP item 3, config slice).

The goldens hold four collector strings; PR 19's census found a heap
corruption (``BOFM.25``) that needed nothing but a fifth.  A fixed-seed
draw over the whole configuration notation — ``BSS``, ``BOF.X``,
``BOFM.X``, ``X.Y``, ``X.Y.100``, ``X.Y.Z``, ``X.Y.MOS``, ``Fixed.X``,
``gctk:SS``, ``gctk:Fixed.X`` — runs each string on a bundled spec at a
tight and a roomy heap three ways: the python tier under the sanitizer
(the oracle: zero violations), the plain python tier and the cffi tier.
All three must report the same ``RunStats``, failure string included, and
a cell that does not complete must have run out of memory — the only
exception caught here — never corrupted the heap.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from repro.bench.engine import SyntheticMutator
from repro.bench.spec import benchmark_spec
from repro.errors import OutOfMemory
from repro.kernels import available
from repro.runtime.vm import VM
from repro.sanitizer import attach_sanitizer

REGRESSIONS = Path(__file__).resolve().parents[1] / "data" / "regressions"
GOLDEN = json.loads(
    (REGRESSIONS.parent / "golden_counters.json").read_text()
)["cells"]
GOLDEN_COLLECTORS = {cell.split("/", 1)[1] for cell in GOLDEN}
SPECS = ("jess", "jack", "raytrace")
PCTS = (10, 20, 25, 33, 50, 100)
FAMILIES = (
    "BSS", "BOF.{x}", "BOFM.{x}", "{x}.{y}", "{x}.{y}.100", "{x}.{y}.{z}",
    "{x}.{y}.MOS", "Fixed.{x}", "gctk:SS", "gctk:Fixed.{x}",
)
HEAP_RATIOS = (1.25, 2.5)
SCALE = 0.25
SEED = 13


def _draw(count=24, seed=21):
    """``count`` distinct collector strings outside the golden four, each
    with a spec, cycling the families so every one is drawn."""
    rng = random.Random(seed)
    drawn = {}
    for family in itertools.cycle(FAMILIES):
        if len(drawn) == count:
            return sorted(drawn.items())
        x, y, z = (rng.choice(PCTS) for _ in "xyz")
        collector = family.format(x=x, y=y, z=z)
        if collector not in GOLDEN_COLLECTORS:
            drawn.setdefault(collector, rng.choice(SPECS))


def cell(collector, spec_name, heap_bytes, scale, seed, tier, sanitize=False):
    spec = benchmark_spec(spec_name, scale)
    vm = VM(heap_bytes, collector=collector, locality=spec.locality,
            benchmark_name=spec.name, tier=tier)
    sanitizer = attach_sanitizer(vm) if sanitize else None
    engine = SyntheticMutator(vm, spec, seed=seed)
    try:
        stats = engine.run()
        if sanitizer is not None:
            sanitizer.check_now()
    except OutOfMemory as error:
        stats = vm.finish(completed=False, failure=str(error))
    assert sanitizer is None or sanitizer.report.ok
    return stats


def check_three_ways(collector, spec_name, heap_bytes, scale=SCALE, seed=SEED):
    oracle = cell(collector, spec_name, heap_bytes, scale, seed, "python", sanitize=True)
    assert oracle.completed or oracle.failure
    assert cell(collector, spec_name, heap_bytes, scale, seed, "python") == oracle
    if available()["cffi"].startswith("ok"):
        assert cell(collector, spec_name, heap_bytes, scale, seed, "cffi") == oracle


@pytest.mark.parametrize("collector,spec_name", _draw())
def test_generated_config_is_identical_three_ways(collector, spec_name):
    golden_heap = GOLDEN[f"{spec_name}/gctk:Appel"]["heap_bytes"]
    for ratio in HEAP_RATIOS:
        heap_bytes = int(golden_heap * ratio) // 256 * 256
        try:
            check_three_ways(collector, spec_name, heap_bytes)
        except Exception:
            case = {"collector": collector, "spec": spec_name,
                    "heap": heap_bytes, "scale": SCALE, "seed": SEED}
            text = json.dumps(case, indent=1, sort_keys=True) + "\n"
            name = hashlib.sha256(text.encode()).hexdigest()[:12]
            (REGRESSIONS / f"collector_config_{name}.json").write_text(text)
            raise


@pytest.mark.parametrize(
    "path", sorted(REGRESSIONS.glob("collector_config_*.json")), ids=lambda p: p.stem
)
def test_saved_regression_replays_clean(path):
    case = json.loads(path.read_text())
    check_three_ways(
        case["collector"], case["spec"], case["heap"], case["scale"], case["seed"]
    )
