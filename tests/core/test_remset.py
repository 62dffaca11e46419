"""Unit tests for the per-frame-pair remembered sets."""

from repro.core.remset import RememberedSets


def test_insert_and_count():
    rs = RememberedSets()
    rs.insert(3, 1, 0x1000)
    rs.insert(3, 1, 0x1004)
    rs.insert(4, 1, 0x2000)
    assert len(rs) == 3
    assert rs.inserts == 3


def test_duplicate_slots_deduplicated():
    rs = RememberedSets()
    rs.insert(3, 1, 0x1000)
    rs.insert(3, 1, 0x1000)
    assert len(rs) == 1
    assert rs.inserts == 2
    assert rs.duplicate_inserts == 1


def test_same_slot_different_pairs_kept():
    """A slot overwritten with a pointer to a different frame appears under
    both pairs; re-reading at collection time disambiguates."""
    rs = RememberedSets()
    rs.insert(3, 1, 0x1000)
    rs.insert(3, 2, 0x1000)
    assert len(rs) == 2


def test_slots_into_targets():
    rs = RememberedSets()
    rs.insert(3, 1, 0x1000)
    rs.insert(4, 1, 0x2000)
    rs.insert(3, 2, 0x3000)
    got = sorted(rs.slots_into({1}, set()))
    assert got == [0x1000, 0x2000]


def test_slots_into_excludes_sources():
    """Remsets between increments collected together are ignored (§3.3.2)."""
    rs = RememberedSets()
    rs.insert(3, 1, 0x1000)  # 3 -> 1: both collected, ignore
    rs.insert(4, 1, 0x2000)  # outside -> 1: needed
    got = list(rs.slots_into({1, 3}, {1, 3}))
    assert got == [0x2000]


def test_drop_frames_wholesale():
    rs = RememberedSets()
    rs.insert(3, 1, 0x1000)
    rs.insert(1, 4, 0x2000)  # sourced in dropped frame
    rs.insert(5, 6, 0x3000)  # unrelated
    dropped = rs.drop_frames({1})
    assert dropped == 2
    assert len(rs) == 1
    assert list(rs.slots_into({6}, set())) == [0x3000]


def test_drop_frames_empty():
    rs = RememberedSets()
    assert rs.drop_frames({9}) == 0


def test_entries_for_pair():
    rs = RememberedSets()
    rs.insert(3, 1, 0x1000)
    assert rs.entries_for_pair(3, 1) == {0x1000}
    assert rs.entries_for_pair(1, 3) == set()


# ----------------------------------------------------------------------
# SSB layout (ISSUE 2): target-frame index and drain-time dedup
# ----------------------------------------------------------------------

def test_slots_into_scales_with_matching_pairs_only():
    """The target-frame index means drain cost is O(matching pairs), not
    O(all pairs): the regression this guards is ``slots_into`` going back
    to iterating every (src, tgt) pair in the table."""
    rs = RememberedSets()
    for src in range(100, 200):  # 100 pairs into the collected frame
        rs.insert(src, 1, src << 8)
    for src in range(100, 200):  # 1000 pairs into uncollected frames
        for tgt in range(10, 20):
            rs.insert(src, tgt, (src << 8) | tgt)
    rs.pairs_scanned = 0
    got = list(rs.slots_into({1}, set()))
    assert len(got) == 100
    assert rs.pairs_scanned == 100  # examined only pairs targeting frame 1


def test_slots_into_drains_in_pair_creation_order():
    """Drain order must reproduce the eager dict-of-sets iteration order
    (collection copy order depends on it)."""
    rs = RememberedSets()
    rs.insert(5, 1, 0x5000)
    rs.insert(3, 1, 0x3000)
    rs.insert(4, 1, 0x4000)
    assert list(rs.slots_into({1}, set())) == [0x5000, 0x3000, 0x4000]


def test_pair_recreated_after_drop_moves_to_back():
    """Dict parity: deleting a key and re-inserting it moves it to the
    back of the iteration order."""
    rs = RememberedSets()
    rs.insert(5, 1, 0x5000)
    rs.insert(3, 1, 0x3000)
    assert rs.drop_frames({5}) == 1
    rs.insert(5, 1, 0x5100)
    assert list(rs.slots_into({1}, set())) == [0x3000, 0x5100]


def test_duplicate_accounting_across_syncs():
    """Dedup moved from insert time to drain time; the cumulative counters
    must not notice (duplicates = inserts - distinct, order-independent)."""
    rs = RememberedSets()
    rs.insert(3, 1, 0xA0)
    rs.insert(3, 1, 0xA0)  # duplicate within the pending buffer
    assert rs.duplicate_inserts == 1  # property forces a drain
    rs.insert(3, 1, 0xA0)  # duplicate against the already-synced set
    rs.insert(3, 1, 0xB0)
    assert rs.duplicate_inserts == 2
    assert rs.total_entries == 2
    assert rs.inserts == 4


def test_drop_frames_drains_pending_before_dropping():
    """Dropping a pair with an undrained buffer must still count its
    duplicates and return the deduplicated entry count."""
    rs = RememberedSets()
    rs.insert(3, 1, 0xA0)
    rs.insert(3, 1, 0xA0)
    assert rs.drop_frames({1}) == 1
    assert rs.duplicate_inserts == 1
    assert len(rs) == 0


def test_long_pending_buffer_dedups_in_first_insertion_order():
    """One pair, a 40-entry pending buffer holding duplicates of itself and
    of slots an earlier drain already synced: the shape no golden cell
    produces (pending buffers there stay under 13 entries)."""
    rs = RememberedSets()
    synced = [0x900, 0x100, 0x500]
    for slot in synced:
        rs.insert(3, 1, slot)
    assert list(rs.slots_into({1}, set())) == synced
    # Descending, so first-insertion order is neither sorted nor hash order.
    fresh = [0x800 - 8 * k for k in range(20)]
    pending = []
    for k, slot in enumerate(fresh):
        pending.append(slot)
        pending.append(synced[k % 3] if k % 2 else fresh[k // 2])
    assert len(pending) == 40
    for slot in pending:
        rs.insert(3, 1, slot)
    assert list(rs.slots_into({1}, set())) == synced + fresh
    assert rs.inserts == 43
    assert rs.total_entries == 23
    assert rs.duplicate_inserts == 20
    assert list(rs.slots_into({1}, set())) == synced + fresh
    assert (rs.total_entries, rs.duplicate_inserts) == (23, 20)
