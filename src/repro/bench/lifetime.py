"""Object lifetime machinery for the synthetic mutators.

Lifetimes are expressed the way the GC literature measures them: in *bytes
of subsequent allocation* (the paper's time-to-die trigger uses the same
unit).  Each allocation site draws a death time from its lifetime class;
the engine reaps objects whose death volume has passed.

The classes below give the engine the standard demographic vocabulary:
``immediate`` objects underpin the weak generational hypothesis,
``medium`` objects are the ones older-first collectors exploit (alive long
enough to be promoted, dead soon after), and ``immortal`` objects model
pretenurable data the paper's related work segregates.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigError
from ..runtime.roots import Handle


@dataclass(frozen=True)
class LifetimeClass:
    """Death volume sampled uniformly from [lo_bytes, hi_bytes].

    ``hi_bytes = 0`` means immortal (never reaped).
    """

    name: str
    lo_bytes: int = 0
    hi_bytes: int = 0

    def __post_init__(self) -> None:
        if self.lo_bytes < 0:
            raise ConfigError("lifetime lo_bytes must be >= 0 "
                              f"(got {self.lo_bytes})", "/lo_bytes")
        if not self.immortal and self.hi_bytes < self.lo_bytes:
            raise ConfigError(
                "lifetime hi_bytes must be >= lo_bytes unless 0 (immortal) "
                f"(got {self.lo_bytes}..{self.hi_bytes})", "/hi_bytes"
            )

    @property
    def immortal(self) -> bool:
        return self.hi_bytes == 0

    def sample(self, rng: random.Random) -> Optional[int]:
        """Bytes of future allocation until death (None = immortal)."""
        if self.immortal:
            return None
        if self.hi_bytes <= self.lo_bytes:
            return self.lo_bytes
        return rng.randint(self.lo_bytes, self.hi_bytes)


class DeathSchedule:
    """Min-heap of (death_volume, handle) reaped as allocation advances."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Handle]] = []
        self._tiebreak = 0
        self.reaped = 0

    def schedule(self, death_volume: int, handle: Handle) -> None:
        self._tiebreak += 1
        heapq.heappush(self._heap, (death_volume, self._tiebreak, handle))

    def reap(self, allocated_bytes: int) -> int:
        """Drop every handle whose death volume has passed; returns count."""
        count = 0
        heap = self._heap
        while heap and heap[0][0] <= allocated_bytes:
            _, _, handle = heapq.heappop(heap)
            handle.drop()
            count += 1
        self.reaped += count
        return count

    def drop_fraction(self, rng: random.Random, fraction: float) -> int:
        """Kill a random ``fraction`` of scheduled objects now (phase
        boundaries: a compiler iteration finishing, a transaction batch
        retiring).  Survivors keep their original death volumes."""
        if not self._heap:
            return 0
        keep: List[Tuple[int, int, Handle]] = []
        count = 0
        for entry in self._heap:
            if rng.random() < fraction:
                entry[2].drop()
                count += 1
            else:
                keep.append(entry)
        heapq.heapify(keep)
        self._heap = keep
        self.reaped += count
        return count

    def __len__(self) -> int:
        return len(self._heap)

    def pick(self, randbelow) -> Optional[Handle]:
        """One uniformly random scheduled handle, or None if empty.

        ``randbelow`` is the rng's ``_randbelow`` bound method; the draw
        sequence is identical to ``peek_handles(rng, 1)`` (``randrange(n)``
        for positive n is exactly one ``_randbelow(n)`` call).
        """
        heap = self._heap
        if not heap:
            return None
        return heap[randbelow(len(heap))][2]

    def peek_handles(self, rng: random.Random, k: int) -> List[Handle]:
        """Up to ``k`` random scheduled-live handles (for pointer mutation)."""
        if not self._heap:
            return []
        picks = []
        for _ in range(k):
            _, _, handle = self._heap[rng.randrange(len(self._heap))]
            picks.append(handle)
        return picks
