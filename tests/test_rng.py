import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loramerge.rng import _digest, _digests, keyed_integers, substream

TAGS = st.lists(
    st.tuples(st.sampled_from(["batch", "finetune", "x"]), st.integers(0, 10**6)),
    min_size=1, max_size=5,
)
HIGH = st.one_of(
    st.sampled_from([1, 2, 7, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1]),
    st.integers(1, 2**63 - 1),
)


class TestKeyedIntegers:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tags=TAGS, high=HIGH, size=st.integers(0, 9))
    @example(seed=0, tags=[("a", 0)], high=1, size=5)           # no bits drawn
    @example(seed=0, tags=[("a", 0), ("a", 1)], high=5, size=0)
    @example(seed=3, tags=[("a", 0), ("a", 1)], high=2**40, size=3)   # 64-bit path
    # an odd count of 32-bit draws leaves a buffered uint32 for the next key
    @example(seed=1, tags=[("a", 0), ("a", 1), ("a", 2)], high=10, size=3)
    def test_rows_equal_substream_draws(self, seed, tags, high, size):
        got = keyed_integers(seed, tags, high, size)
        assert got.shape == (len(tags), size) and got.dtype == np.int64
        for row, tag in zip(got, tags):
            assert np.array_equal(row, substream(seed, *tag).integers(0, high, size))

    # 2**32 - 1 is the largest Lemire range, 2**32 maps each 32-bit half as is,
    # and 2**31 + 11 sends nearly every row through Lemire's rejection step
    @pytest.mark.parametrize("high", [2**32 - 1, 2**32, 2**31 + 11])
    @pytest.mark.parametrize("size", [1, 4, 7])
    def test_bounded_rule_edges(self, high, size):
        tags = [("edge", i) for i in range(300)]
        got = keyed_integers(5, tags, high, size)
        want = np.array([substream(5, *tag).integers(0, high, size) for tag in tags])
        assert np.array_equal(got, want.reshape(len(tags), size))

    def test_empty_range_raises_like_numpy(self):
        with pytest.raises(ValueError):
            keyed_integers(0, [("a", 0)], 0, 3)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), heads=st.lists(
               st.one_of(st.sampled_from(["batch", "finetune", "b'x'", ""]), st.integers(-3, 3)),
               min_size=1, max_size=2),
           tails=st.lists(st.lists(st.one_of(st.integers(-2**70, 2**70), st.text(max_size=4)),
                                   max_size=3), min_size=0, max_size=6))
    def test_joined_keys_equal_one_digest_per_tag(self, seed, heads, tails):
        """Tags of length 1 to 4 whose heads are one string, two values or
        not strings, with ints (negative ones too) and strings in the tail."""
        tags = [(heads[i % len(heads)], *tail) for i, tail in enumerate(tails)]
        assert _digests(seed, tags) == b"".join(_digest(seed, tag) for tag in tags)


def _oracle(seed, tags, high, size):
    return np.array([substream(seed, *tag).integers(0, high, size) for tag in tags],
                    dtype=np.int64).reshape(len(tags), size)


class TestScheduleSizes:
    """keyed_integers at the sizes fine-tuning and the optimizer draw: rows that
    span several 4-word Philox blocks, a whole batch schedule, and no rows."""

    # 8 draws fill one block; 40 draws take five
    @pytest.mark.parametrize("size", [8, 9, 16, 17, 32, 33, 40])
    @pytest.mark.parametrize("high", [200, 2**32 - 1, 2**32])
    def test_rows_of_several_blocks(self, high, size):
        tags = [("finetune", i, "batch", t) for t in range(30) for i in range(4)]
        assert np.array_equal(keyed_integers(11, tags, high, size),
                              _oracle(11, tags, high, size))

    def test_batch_schedule_of_2000_rows(self):
        tags = [("batch", step, i) for step in range(500) for i in range(4)]
        assert np.array_equal(keyed_integers(0, tags, 200, 16), _oracle(0, tags, 200, 16))

    @pytest.mark.parametrize("high", [200, 2**40])
    def test_empty_tag_list(self, high):
        got = keyed_integers(3, [], high, 16)
        want = _oracle(3, [], high, 16)
        assert got.shape == want.shape == (0, 16) and got.dtype == want.dtype
