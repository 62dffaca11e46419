"""Independent baseline collectors (the paper's GCTk comparison points).

Selected from the VM with the ``"gctk:"`` prefix:

* ``gctk:SS`` — classic semi-space
* ``gctk:Appel`` — flexible-nursery generational [Appel 1989]
* ``gctk:Fixed.25`` — fixed-size-nursery generational (25% of usable)
"""

from __future__ import annotations

import re

from ..errors import ConfigError
from .appel import AppelGctk
from .base import GctkPlan
from .fixednursery import FixedNurseryGctk
from .semispace import SemiSpaceGctk
from .ssb import BoundaryBarrier, SequentialStoreBuffer


def make_gctk_plan(name, space, model, boot, debug_verify=False, kernels=None):
    """Instantiate a gctk baseline by name (without the ``gctk:`` prefix)."""
    token = name.strip().lower()
    if token in ("ss", "semispace", "semi-space"):
        return SemiSpaceGctk(space, model, boot, debug_verify, kernels=kernels)
    if token in ("appel", "ba2"):
        return AppelGctk(space, model, boot, debug_verify, kernels=kernels)
    match = re.fullmatch(r"fixed\.(\d+)", token)
    if match:
        return FixedNurseryGctk(space, model, boot, int(match.group(1)),
                                debug_verify, kernels=kernels)
    raise ConfigError(f"unknown gctk collector {name!r}")


__all__ = [
    "AppelGctk",
    "BoundaryBarrier",
    "FixedNurseryGctk",
    "GctkPlan",
    "SemiSpaceGctk",
    "SequentialStoreBuffer",
    "make_gctk_plan",
]
