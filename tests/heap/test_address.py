"""Unit tests for address arithmetic."""

from repro.heap.address import (
    DEFAULT_FRAME_SHIFT,
    NULL,
    WORD_BYTES,
    bytes_to_words,
    frame_base,
    frame_of,
    words_to_bytes,
)


def test_word_size_is_four_bytes():
    assert WORD_BYTES == 4


def test_null_is_zero():
    assert NULL == 0


def test_words_to_bytes_roundtrip():
    for words in (0, 1, 2, 7, 1024):
        assert bytes_to_words(words_to_bytes(words)) == words


def test_bytes_to_words_rounds_up():
    assert bytes_to_words(1) == 1
    assert bytes_to_words(4) == 1
    assert bytes_to_words(5) == 2
    assert bytes_to_words(0) == 0


def test_frame_of_matches_shift():
    shift = DEFAULT_FRAME_SHIFT
    assert frame_of(0, shift) == 0
    assert frame_of((1 << shift) - 1, shift) == 0
    assert frame_of(1 << shift, shift) == 1
    assert frame_of(5 << shift, shift) == 5


def test_frame_base_inverts_frame_of():
    shift = 10
    for index in (1, 2, 77):
        assert frame_of(frame_base(index, shift), shift) == index


def test_intra_frame_pointers_share_frame_index():
    """The shift-and-compare of paper Fig. 4: same frame => same index."""
    shift = 12
    a = frame_base(9, shift) + 64
    b = frame_base(9, shift) + 1000
    c = frame_base(10, shift)
    assert frame_of(a, shift) == frame_of(b, shift)
    assert frame_of(a, shift) != frame_of(c, shift)
