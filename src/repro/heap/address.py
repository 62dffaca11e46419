"""Address arithmetic for the simulated heap.

The simulated machine is word addressed underneath but exposes byte
addresses, exactly like the 32-bit PowerPC the paper ran on: a *word* is 4
bytes, object fields are one word wide, and all object addresses are word
aligned.  ``NULL`` is address 0; frame 0 is never mapped so no valid object
can alias it.

A *frame* (paper §3.3.1) is an aligned, contiguous, power-of-two region of
the address space.  Frames are the granularity of the write barrier: the
barrier distinguishes inter-frame from intra-frame pointers with a single
shift and compare (paper Fig. 4), which is implemented literally by
:func:`frame_of`.
"""

from __future__ import annotations

#: Bytes per machine word (the paper targets a 32-bit PowerPC).
WORD_BYTES = 4

#: log2 of :data:`WORD_BYTES`.
LOG_WORD_BYTES = 2

#: The null reference.
NULL = 0

#: Default log2 of the frame size in bytes (4 KiB frames).  Experiments may
#: override this per-VM; it only has to be a power of two.
DEFAULT_FRAME_SHIFT = 12


def words_to_bytes(words: int) -> int:
    """Convert a size in words to a size in bytes."""
    return words << LOG_WORD_BYTES


def bytes_to_words(nbytes: int) -> int:
    """Convert a byte count to the number of words needed to hold it."""
    return (nbytes + WORD_BYTES - 1) >> LOG_WORD_BYTES


def frame_of(addr: int, frame_shift: int = DEFAULT_FRAME_SHIFT) -> int:
    """The frame index containing ``addr`` (the paper's ``addr >>> FRAME_SIZE_LOG``)."""
    return addr >> frame_shift


def frame_base(frame_index: int, frame_shift: int = DEFAULT_FRAME_SHIFT) -> int:
    """The byte address of the first word of frame ``frame_index``."""
    return frame_index << frame_shift
