"""Beltway configurations: "command-line options" selecting a collector.

The paper's single collector implementation is configured into BSS, BA2,
BOF, BOFM, fixed-nursery generational, Beltway X.X and Beltway X.X.100 by
choosing belt count, increment sizes, promotion style and triggers
(paper §3.1–§3.2).  :func:`BeltwayConfig.parse` accepts the same notation
the paper uses:

* ``"SS"`` / ``"BSS"`` — semi-space (one belt, one usable-memory increment)
* ``"Appel"`` / ``"BA2"`` / ``"100.100"`` — two-generation Appel
* ``"100.100.100"`` — three-generation Appel
* ``"25.25"`` — Beltway X.X (incremental, *incomplete*)
* ``"25.25.100"`` — Beltway X.X.100 (incremental and complete)
* ``"BOF.25"`` — older-first with a 25% window
* ``"BOFM.25"`` — older-first *mix* with 25% increments
* ``"Fixed.25"`` — fixed-size-nursery generational (nursery = 25% of usable)

Increment sizes are expressed as a percentage X of *usable* memory, where
usable = heap − copy reserve.  In the steady state the reserve of a belt of
X-sized increments is one increment, so an X% increment occupies
``X/(100+X)`` of the whole heap (e.g. Appel's X=100 increment is half the
heap; a 33% increment is ~25% of the heap — which is how the paper's
"X=33 gives four increments" example adds up).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import ConfigError

#: Sentinel increment percentage meaning "may grow to all usable memory".
GROWABLE = 100


class PromotionStyle(enum.Enum):
    """How survivors move between belts."""

    #: Survivors of belt *b* are copied to belt *b+1*; the top belt copies
    #: to a fresh increment at its own back (BSS, Appel, X.X, X.X.100).
    GENERATIONAL = "generational"
    #: One belt; survivors are copied *into the allocation increment* at the
    #: back of the belt, mixing with new allocation (BOFM, §3.1).
    OLDER_FIRST_MIX = "ofm"
    #: Two belts A (allocation) and C (copy); survivors of A's front go to
    #: C's back; the belts flip when A empties (BOF, §3.1).
    OLDER_FIRST = "of"


@dataclass(frozen=True)
class BeltSpec:
    """Static description of one belt."""

    #: Max increment size as a percentage of usable memory; GROWABLE (100)
    #: means a single increment may grow to consume all usable memory.
    increment_pct: int
    #: Cap on the number of *open* increments the mutator may allocate into
    #: (None = unbounded).  1 implements the paper's nursery trigger.
    max_increments: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 < self.increment_pct <= 100:
            raise ConfigError(
                f"increment percentage must be in (0,100], got {self.increment_pct}"
            )

    @property
    def growable(self) -> bool:
        return self.increment_pct >= GROWABLE

    def increment_frames(self, heap_frames: int) -> Optional[int]:
        """Max increment size in frames for a heap of ``heap_frames``.

        ``None`` means growable.  An X% -of-usable increment occupies
        ``X/(100+X)`` of the heap (see module docstring); always ≥ 1 frame.
        """
        if self.growable:
            return None
        frames = (heap_frames * self.increment_pct) // (100 + self.increment_pct)
        return max(1, frames)


@dataclass(frozen=True)
class BeltwayConfig:
    """A fully resolved collector configuration."""

    name: str
    belts: Tuple[BeltSpec, ...]
    style: PromotionStyle = PromotionStyle.GENERATIONAL
    #: Remset trigger: collect when total remset entries exceed this (0 = off).
    remset_trigger_entries: int = 0
    #: Time-to-die trigger, in bytes of allocation (0 = off).  Requires the
    #: nursery belt to allow 2 increments (§3.3.3).
    time_to_die_bytes: int = 0
    #: Appel's "nursery below a small fixed threshold means the heap is
    #: full" rule, in frames.
    min_nursery_frames: int = 1
    #: Ablation: replace the dynamic conservative copy reserve (§3.3.4)
    #: with the classic fixed half-heap reserve.  Loses the incremental
    #: configurations' heap-utilisation advantage.
    fixed_half_reserve: bool = False
    #: Ablation: disable the collect-together optimisation (§3.3.2), so a
    #: full receiver belt is only reached by successive single-increment
    #: collections.
    enable_combine: bool = True
    #: The top belt is managed by Mature Object Space (train algorithm)
    #: rules — the paper's future-work extension: completeness without
    #: full-heap collections (see repro.core.mos).
    mos_top_belt: bool = False

    def __post_init__(self) -> None:
        if not self.belts:
            raise ConfigError("a Beltway configuration needs at least one belt")
        if self.style is PromotionStyle.OLDER_FIRST and len(self.belts) != 2:
            raise ConfigError("BOF requires exactly two belts (A and C)")
        if self.style is PromotionStyle.OLDER_FIRST_MIX and len(self.belts) != 1:
            raise ConfigError("BOFM requires exactly one belt")
        if self.time_to_die_bytes:
            nursery = self.belts[0]
            if nursery.max_increments is not None and nursery.max_increments < 2:
                raise ConfigError(
                    "the time-to-die trigger needs at least two nursery increments"
                )

    # ------------------------------------------------------------------
    @property
    def top_belt(self) -> int:
        return len(self.belts) - 1

    @property
    def is_complete(self) -> bool:
        """Whether the configuration eventually collects all garbage.

        Complete iff some belt's increment can grow to cover all usable
        memory so cross-increment cycles eventually share one increment
        (§3.2), or the top belt uses Mature Object Space rules (trains
        cluster each cycle into one train, which is then reclaimed
        wholesale); BOF/BOFM/X.X (X<100) are incomplete.
        """
        if self.style is not PromotionStyle.GENERATIONAL:
            return False
        return self.belts[-1].growable or self.mos_top_belt

    def describe(self) -> str:
        """Human-readable one-line summary."""
        sizes = ".".join(str(b.increment_pct) for b in self.belts)
        return f"{self.name} [{self.style.value} {sizes}]"

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    @staticmethod
    def parse(text: str, **overrides) -> "BeltwayConfig":
        """Parse the paper's configuration notation (see module docstring)."""
        raw = text.strip()
        token = raw.lower()
        if token in ("ss", "bss", "semispace", "semi-space", "100"):
            return BeltwayConfig(name="BSS", belts=(BeltSpec(GROWABLE),), **overrides)
        if token in ("appel", "ba2"):
            return BeltwayConfig.parse("100.100", **overrides)._rename(raw if raw != "100.100" else "BA2")
        if token in ("ba3",):
            return BeltwayConfig.parse("100.100.100", **overrides)._rename("BA3")
        match = re.fullmatch(r"bofm\.(\d+)", token)
        if match:
            pct = _pct(match.group(1))
            return BeltwayConfig(
                name=f"BOFM.{pct}",
                belts=(BeltSpec(pct),),
                style=PromotionStyle.OLDER_FIRST_MIX,
                **overrides,
            )
        match = re.fullmatch(r"bof\.(\d+)", token)
        if match:
            pct = _pct(match.group(1))
            return BeltwayConfig(
                name=f"BOF.{pct}",
                belts=(BeltSpec(pct), BeltSpec(pct)),
                style=PromotionStyle.OLDER_FIRST,
                **overrides,
            )
        match = re.fullmatch(r"fixed\.(\d+)", token)
        if match:
            pct = _pct(match.group(1))
            # Fixed-size nursery: a bounded, single-increment nursery of
            # pct% of usable memory below a growable mature belt.
            return BeltwayConfig(
                name=f"Fixed.{pct}",
                belts=(BeltSpec(pct, max_increments=1), BeltSpec(GROWABLE)),
                **overrides,
            )
        match = re.fullmatch(r"(\d+)\.(\d+)\.mos", token)
        if match:
            lower = _pct(match.group(1))
            upper = _pct(match.group(2))
            return BeltwayConfig(
                name=raw if raw.isupper() else f"{lower}.{upper}.MOS",
                belts=(
                    BeltSpec(lower, max_increments=1),
                    BeltSpec(upper),
                    BeltSpec(upper),  # MOS cars are upper-belt sized
                ),
                mos_top_belt=True,
                **overrides,
            )
        match = re.fullmatch(r"(\d+(?:\.\d+)+)", token)
        if match:
            pcts = [_pct(p) for p in token.split(".")]
            belts = tuple(
                BeltSpec(p, max_increments=1 if i == 0 else None)
                for i, p in enumerate(pcts)
            )
            return BeltwayConfig(name=raw, belts=belts, **overrides)
        raise ConfigError(f"unrecognised Beltway configuration {text!r}")

    def _rename(self, name: str) -> "BeltwayConfig":
        import dataclasses

        return dataclasses.replace(self, name=name)

    # ------------------------------------------------------------------
    # Variants (triggers and ablations)
    # ------------------------------------------------------------------
    def with_time_to_die(self, ttd_bytes: int) -> "BeltwayConfig":
        """A copy using the time-to-die trigger (§3.3.3): the nursery belt
        allows a second increment, and once the heap is within
        ``ttd_bytes`` of full, allocation moves there so the youngest
        objects escape the next collection."""
        import dataclasses

        nursery = self.belts[0]
        cap = nursery.max_increments
        belts = (
            BeltSpec(nursery.increment_pct, max_increments=max(2, cap or 2)),
        ) + self.belts[1:]
        return dataclasses.replace(
            self,
            name=f"{self.name}+ttd{ttd_bytes}",
            belts=belts,
            time_to_die_bytes=ttd_bytes,
        )

    def with_remset_trigger(self, entries: int) -> "BeltwayConfig":
        """A copy that also collects whenever the remembered sets grow past
        ``entries`` (§3.3.3: remset entries are collection roots, so big
        remsets mean high survival and slow scans)."""
        import dataclasses

        return dataclasses.replace(
            self,
            name=f"{self.name}+rs{entries}",
            remset_trigger_entries=entries,
        )


def _pct(text: str) -> int:
    value = int(text)
    if not 0 < value <= 100:
        raise ConfigError(f"increment percentage {value} out of range (0,100]")
    return value


#: The named configurations used throughout the paper's evaluation.
PAPER_CONFIGS = (
    "BSS",
    "Appel",
    "100.100",
    "100.100.100",
    "Fixed.10",
    "Fixed.25",
    "Fixed.50",
    "BOF.25",
    "BOFM.25",
    "10.10",
    "10.10.100",
    "25.25",
    "25.25.100",
    "33.33",
    "33.33.100",
    "50.50.100",
)

#: Extension configurations beyond the paper (see repro.core.mos).
EXTENSION_CONFIGS = (
    "25.25.MOS",
    "33.33.MOS",
)
