"""Unit tests for the per-frame-pair remembered sets."""

from hypothesis import given, settings
from hypothesis import strategies as st

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
# Target-frame index, drain order, eager dedup
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
    """The cumulative counters are exact at every read, not only after a
    drain (duplicates = inserts - distinct)."""
    rs = RememberedSets()
    rs.insert(3, 1, 0xA0)
    rs.insert(3, 1, 0xA0)
    assert rs.duplicate_inserts == 1
    rs.insert(3, 1, 0xA0)
    rs.insert(3, 1, 0xB0)
    assert rs.duplicate_inserts == 2
    assert rs.total_entries == 2
    assert rs.inserts == 4


def test_drop_frames_counts_duplicates_of_never_drained_pair():
    """Dropping a pair no drain ever visited must still have counted its
    duplicates and return the deduplicated entry count."""
    rs = RememberedSets()
    rs.insert(3, 1, 0xA0)
    rs.insert(3, 1, 0xA0)
    assert rs.drop_frames({1}) == 1
    assert rs.duplicate_inserts == 1
    assert len(rs) == 0


def test_long_insert_run_dedups_in_first_insertion_order():
    """One pair, 40 inserts between two drains holding duplicates of each
    other and of slots the earlier drain already returned: the shape no
    golden cell produces (a drain there meets under 13 entries)."""
    rs = RememberedSets()
    synced = [0x900, 0x100, 0x500]
    for slot in synced:
        rs.insert(3, 1, slot)
    assert rs.slots_into({1}, set()) == synced
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


class NaiveRemsets:
    """The specification: every live ``(src, tgt, slot)`` once, in
    first-insertion order; a pair was created where its first triple sits."""

    def __init__(self):
        self.triples = []
        self.inserts = self.duplicate_inserts = self.pairs_scanned = 0

    def insert(self, s, t, slot):
        self.inserts += 1
        if (s, t, slot) in self.triples:
            self.duplicate_inserts += 1
        else:
            self.triples.append((s, t, slot))

    def pairs(self):
        return list(dict.fromkeys((s, t) for s, t, _ in self.triples))

    def entries_for_pair(self, s, t):
        return {slot for ms, mt, slot in self.triples if (ms, mt) == (s, t)}

    def slots_into(self, targets, exclude):
        matched = [pair for pair in self.pairs() if pair[1] in targets]
        self.pairs_scanned += len(matched)
        return [
            slot for pair in matched if pair[0] not in exclude
            for s, t, slot in self.triples if (s, t) == pair
        ]

    def drop_frames(self, frames):
        kept = [x for x in self.triples if x[0] not in frames and x[1] not in frames]
        dropped, self.triples = len(self.triples) - len(kept), kept
        return dropped


_frame = st.integers(1, 5)
_frames = st.sets(_frame, max_size=3)
_remset_op = st.one_of(
    st.tuples(st.just("insert"), _frame, _frame, st.integers(0, 7)),
    st.tuples(st.just("slots_into"), _frames, _frames),
    st.tuples(st.just("drop_frames"), _frames),
    st.tuples(st.just("entries_for_pair"), _frame, _frame),
)


@given(st.lists(_remset_op, max_size=60))
@settings(max_examples=150, deadline=None)
def test_eager_table_matches_naive_triple_list(ops):
    rs, model = RememberedSets(), NaiveRemsets()
    for op, *args in ops:
        assert getattr(rs, op)(*args) == getattr(model, op)(*args)
        assert len(rs) == rs.total_entries == len(model.triples)
        assert rs.pairs() == model.pairs()
        assert (rs.inserts, rs.duplicate_inserts, rs.pairs_scanned) == (
            model.inserts, model.duplicate_inserts, model.pairs_scanned
        )
