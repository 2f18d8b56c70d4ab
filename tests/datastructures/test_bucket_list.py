"""Unit + property tests for the FM gain bucket structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastructures import BucketGainContainer


class TestBasics:
    def test_construction_validated(self):
        with pytest.raises(ValueError):
            BucketGainContainer(0, 5)
        with pytest.raises(ValueError):
            BucketGainContainer(5, -1)

    def test_empty(self):
        b = BucketGainContainer(4, 3)
        assert len(b) == 0
        assert not b
        assert 0 not in b
        with pytest.raises(KeyError):
            b.peek_best()
        with pytest.raises(KeyError):
            b.remove(0)
        with pytest.raises(KeyError):
            b.gain_of(0)

    def test_insert_peek(self):
        b = BucketGainContainer(4, 3)
        b.insert(0, 1)
        b.insert(1, -2)
        b.insert(2, 3)
        assert b.peek_best() == (2, 3)
        assert b.gain_of(1) == -2
        assert len(b) == 3

    def test_lifo_within_bucket(self):
        b = BucketGainContainer(4, 3)
        b.insert(0, 2)
        b.insert(1, 2)
        assert b.peek_best() == (1, 2)  # most recent first

    def test_gain_out_of_range(self):
        b = BucketGainContainer(4, 3)
        with pytest.raises(ValueError, match="bucket range"):
            b.insert(0, 4)

    def test_update_out_of_range_keeps_node(self):
        # Regression: update() used to remove the node before the range
        # check, so a failed update/adjust silently dropped it.
        b = BucketGainContainer(4, 3)
        b.insert(0, 3)
        with pytest.raises(ValueError, match="bucket range"):
            b.update(0, 4)
        assert b.gain_of(0) == 3
        with pytest.raises(ValueError, match="bucket range"):
            b.adjust(0, 1)
        assert b.gain_of(0) == 3
        b.check_invariants()

    def test_adjust_out_of_range_leaves_node_in_place(self):
        # adjust() unlinks and relinks inline; both range checks must run
        # before the unlink, or the node would lose its place in its
        # bucket (or drop out) on the way to the ValueError.
        b = BucketGainContainer(5, 3)
        for v in (0, 1, 2):
            b.insert(v, 3)
        b.insert(3, -3)
        before = list(b.iter_descending())
        with pytest.raises(ValueError, match="bucket range"):
            b.adjust(1, 1)
        with pytest.raises(ValueError, match="bucket range"):
            b.adjust(3, -1)
        with pytest.raises(KeyError):
            b.adjust(4, 1)
        assert list(b.iter_descending()) == before == [
            (2, 3), (1, 3), (0, 3), (3, -3)
        ]
        assert b.peek_best() == (2, 3)
        b.check_invariants()

    def test_node_out_of_range(self):
        b = BucketGainContainer(4, 3)
        with pytest.raises(KeyError):
            b.insert(9, 0)

    def test_double_insert_rejected(self):
        b = BucketGainContainer(4, 3)
        b.insert(0, 1)
        with pytest.raises(KeyError, match="already"):
            b.insert(0, 2)

    def test_remove_updates_best(self):
        b = BucketGainContainer(4, 3)
        b.insert(0, 3)
        b.insert(1, 1)
        assert b.remove(0) == 3
        assert b.peek_best() == (1, 1)
        b.check_invariants()

    def test_remove_middle_of_chain(self):
        b = BucketGainContainer(5, 3)
        for v in (0, 1, 2):
            b.insert(v, 2)
        b.remove(1)
        b.check_invariants()
        assert sorted(v for v, _ in b.iter_descending()) == [0, 2]

    def test_update_moves_bucket(self):
        b = BucketGainContainer(4, 3)
        b.insert(0, 0)
        b.update(0, 3)
        assert b.peek_best() == (0, 3)
        b.check_invariants()

    def test_adjust(self):
        b = BucketGainContainer(4, 3)
        b.insert(0, 1)
        b.adjust(0, -2)
        assert b.gain_of(0) == -1
        b.adjust(0, 0)  # no-op
        assert b.gain_of(0) == -1

    def test_iter_descending_order(self):
        b = BucketGainContainer(6, 3)
        gains = {0: 2, 1: -1, 2: 3, 3: 0, 4: 3}
        for v, g in gains.items():
            b.insert(v, g)
        seq = [g for _, g in b.iter_descending()]
        assert seq == sorted(seq, reverse=True)
        assert len(seq) == 5


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 19), st.integers(-6, 6)), min_size=1
        ),
        st.lists(st.integers(0, 19)),
    )
    @settings(max_examples=60)
    def test_matches_dict_reference(self, inserts, removes):
        """Arbitrary insert/update/remove traffic tracks a reference dict."""
        b = BucketGainContainer(20, 6)
        reference = {}
        for node, gain in inserts:
            if node in reference:
                b.update(node, gain)
            else:
                b.insert(node, gain)
            reference[node] = gain
        for node in removes:
            if node in reference:
                assert b.remove(node) == reference.pop(node)
        b.check_invariants()
        assert len(b) == len(reference)
        if reference:
            node, gain = b.peek_best()
            assert gain == max(reference.values())
            assert reference[node] == gain
        listed = dict(b.iter_descending())
        assert listed == reference
