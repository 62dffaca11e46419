"""Simulated heap substrate: address space, frames, object model, boot image.

This package is the "virtual memory + object layout" layer the collectors
are built on.  It corresponds to the parts of Jikes RVM the paper's GCTk
toolkit relied upon: a frame-granularity address space, bump allocation,
an object model with status/type/length headers, and an immortal boot
image.
"""

from .address import (
    DEFAULT_FRAME_SHIFT,
    LOG_WORD_BYTES,
    NULL,
    WORD_BYTES,
    bytes_to_words,
    frame_base,
    frame_of,
    words_to_bytes,
)
from .allocator import BumpRegion
from .bootimage import BootImage
from .frame import BOOT_ORDER, UNASSIGNED_ORDER, Frame
from .objectmodel import (
    FORWARDED_BIT,
    HEADER_WORDS,
    LENGTH_WORD,
    STATUS_WORD,
    TYPE_WORD,
    ObjectModel,
    TypeDescriptor,
    TypeKind,
    TypeRegistry,
)
from .space import AddressSpace

# HeapVerifier lives in repro.sanitizer.heapcheck; re-exported here.
from ..sanitizer.heapcheck import HeapVerifier, VerifyReport

__all__ = [
    "AddressSpace",
    "BOOT_ORDER",
    "BootImage",
    "BumpRegion",
    "DEFAULT_FRAME_SHIFT",
    "FORWARDED_BIT",
    "Frame",
    "HEADER_WORDS",
    "HeapVerifier",
    "LENGTH_WORD",
    "LOG_WORD_BYTES",
    "NULL",
    "ObjectModel",
    "STATUS_WORD",
    "TYPE_WORD",
    "TypeDescriptor",
    "TypeKind",
    "TypeRegistry",
    "UNASSIGNED_ORDER",
    "VerifyReport",
    "WORD_BYTES",
    "bytes_to_words",
    "frame_base",
    "frame_of",
    "words_to_bytes",
]
