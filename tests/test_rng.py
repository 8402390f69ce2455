import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_collection
from loramerge import harness, mergers, tara
from loramerge.adapters import AdapterCollection
from loramerge.checks import CodedError
from loramerge.rng import substream, task_integers
from loramerge.tara import OptimConfig

TAGS = st.lists(
    st.tuples(st.sampled_from(["batch", "finetune", "x"]), st.integers(0, 10**6)),
    min_size=1, max_size=5,
)
HIGH = st.one_of(
    st.sampled_from([1, 2, 7, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1]),
    st.integers(1, 2**63 - 1),
)

# (pool or n_train, batch size): the optimizer's and fine-tuning's defaults, a
# larger pair, and an odd batch size, where a short draw of 32-bit values ends
# halfway through a 64-bit word of the stream
SIZES = [(200, 16), (400, 32), (7, 3)]


def _oracle(seed, tags, high, steps, size):
    """Each tag's own (steps, size) draw, stacked as column i."""
    want = np.empty((steps, len(tags), size), dtype=np.int64)
    for i, tag in enumerate(tags):
        want[:, i] = substream(seed, *tag).integers(0, high, (steps, size))
    return want


class TestKeyedIntegers:
    """task_integers: every tag's rows come from that tag's one stream."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tags=TAGS, high=HIGH,
           steps=st.integers(0, 4), size=st.integers(0, 9))
    @example(seed=0, tags=[("a", 0)], high=1, steps=3, size=5)           # no bits drawn
    @example(seed=0, tags=[("a", 0), ("a", 1)], high=5, steps=2, size=0)
    @example(seed=3, tags=[("a", 0), ("a", 1)], high=2**40, steps=2, size=3)   # 64-bit path
    @example(seed=4, tags=[("x", 2), ("y",), ("x", 0, "z")], high=50, steps=6, size=5)
    def test_rows_equal_substream_draws(self, seed, tags, high, steps, size):
        got = task_integers(seed, tags, high, steps, size)
        assert got.shape == (steps, len(tags), size) and got.dtype == np.int64
        for i, tag in enumerate(tags):
            assert np.array_equal(got[:, i],
                                  substream(seed, *tag).integers(0, high, (steps, size)))

    # 2**32 - 1 is the largest Lemire range, 2**32 maps each 32-bit half as is,
    # and 2**31 + 11 sends nearly every draw through Lemire's rejection step
    @pytest.mark.parametrize("high", [2**32 - 1, 2**32, 2**31 + 11])
    @pytest.mark.parametrize("size", [1, 4, 7])
    def test_bounded_rule_edges(self, high, size):
        tags = [("edge", i) for i in range(30)]
        assert np.array_equal(task_integers(5, tags, high, 10, size),
                              _oracle(5, tags, high, 10, size))

    def test_empty_range_raises_like_numpy(self):
        with pytest.raises(ValueError):
            task_integers(0, [("a", 0)], 0, 2, 3)


class TestScheduleSizes:
    """task_integers at the sizes fine-tuning and the optimizer draw: batches of
    several sizes, a whole batch schedule, and no tags."""

    @pytest.mark.parametrize("size", [8, 9, 16, 17, 32, 33, 40])
    @pytest.mark.parametrize("high", [200, 2**32 - 1, 2**32])
    def test_rows_of_several_blocks(self, high, size):
        tags = [("finetune", i, "batch") for i in range(4)]
        assert np.array_equal(task_integers(11, tags, high, 30, size),
                              _oracle(11, tags, high, 30, size))

    def test_batch_schedule_of_2000_rows(self):
        got = tara.batch_schedule(_pools(4, 200), OptimConfig(iters=500, batch_size=16, seed=0))
        want = _oracle(0, [("batch", i) for i in range(4)], 200, 500, 16)
        assert got.shape == (500, 4, 16) and np.array_equal(got, want)

    @pytest.mark.parametrize("high", [200, 2**40])
    def test_empty_tag_list(self, high):
        got = task_integers(3, [], high, 5, 16)
        want = _oracle(3, [], high, 5, 16)
        assert got.shape == want.shape == (5, 0, 16) and got.dtype == want.dtype


class TestStreamKeys:
    """A tag keys its stream by its plain str or int value; the seed must be an
    integer."""

    @pytest.mark.parametrize("tags", [(np.str_("task2"), np.int64(3)),
                                      ("task2", np.int32(3)), (np.str_("task2"), 3)])
    def test_numpy_scalars_key_their_python_values(self, tags):
        assert np.array_equal(substream(5, *tags).random(4), substream(5, "task2", 3).random(4))

    @pytest.mark.parametrize("tag", [True, np.bool_(False), 1.0, np.float64(2.0), None,
                                     ("task", 1), b"task"])
    def test_other_tag_types_are_refused(self, tag):
        with pytest.raises(CodedError) as exc:
            substream(0, "dare", tag)
        assert exc.value.code == "bad_tag"

    @pytest.mark.parametrize("seed", [2.7, np.float64(2.0), True, "2", None])
    def test_non_integer_seeds_are_refused(self, seed):
        """A float seed is not truncated to the integer seed's stream."""
        with pytest.raises(CodedError) as exc:
            substream(seed, "x")
        assert exc.value.code == "bad_tag"

    def test_dare_masks_ignore_the_task_id_type(self):
        """np.str_ task ids compare equal to their str ids, and draw the same
        DARE masks."""
        coll = random_collection(seed=3, n_tasks=3)
        numpy_ids = AdapterCollection(
            layer_ids=list(coll.layer_ids), task_ids=[np.str_(t) for t in coll.task_ids],
            base=dict(coll.base),
            adapters={l: [dataclasses.replace(ad, task_id=np.str_(ad.task_id)) for ad in ads]
                      for l, ads in coll.adapters.items()},
        )
        cfg = mergers.MergeConfig("dare_ties")
        got, want = mergers.run_merge(numpy_ids, cfg), mergers.run_merge(coll, cfg)
        for layer in coll.layer_ids:
            assert np.array_equal(got[layer], want[layer])


def _pools(n_tasks, pool):
    """batch_schedule reads only the task count and pool size of its pools."""
    return np.zeros((n_tasks, pool, 1))


class TestBatchSchedule:
    @pytest.mark.parametrize("pool,batch", SIZES)
    def test_prefix_stable_in_iters(self, pool, batch):
        short = tara.batch_schedule(_pools(4, pool), OptimConfig(iters=37, batch_size=batch))
        long = tara.batch_schedule(_pools(4, pool), OptimConfig(iters=500, batch_size=batch))
        assert short.shape == (37, 4, batch) and long.shape == (500, 4, batch)
        assert np.array_equal(short, long[:37])

    @pytest.mark.parametrize("pool,batch", SIZES)
    def test_task_rows_ignore_the_task_count(self, pool, batch):
        cfg = OptimConfig(iters=40, batch_size=batch, seed=3)
        two = tara.batch_schedule(_pools(2, pool), cfg)
        four = tara.batch_schedule(_pools(4, pool), cfg)
        assert np.array_equal(two, four[:, :2])

    def test_sweep_points_share_one_schedule(self, small_suite, monkeypatch):
        """A sweep draws one schedule for all its points, and it is the one each
        point's own run draws."""
        suite, coll = small_suite
        drawn = []

        def recording(pools, cfg):
            drawn.append(schedule_of(pools, cfg))
            return drawn[-1]

        schedule_of = tara.batch_schedule
        monkeypatch.setattr(tara, "batch_schedule", recording)
        cfg = OptimConfig(iters=15, seed=2)
        rhos = [np.array([0.5, 0.5]), np.array([0.9, 0.1]), np.array([0.2, 0.8])]
        list(tara.merge(coll, suite, rhos, optim=cfg))
        assert len(drawn) == 1
        for rho in rhos:
            list(tara.merge(coll, suite, [rho], optim=cfg))
        assert len(drawn) == 1 + len(rhos)
        assert all(np.array_equal(idx, drawn[0]) for idx in drawn)


def _finetune_schedule(monkeypatch, n_tasks, n_train, steps, batch):
    """The (steps, N, B) rows finetune_all draws for a suite of n_tasks tasks."""
    drawn = []

    def recording(*args):
        drawn.append(task_integers(*args))
        return drawn[-1].copy()  # finetune_all offsets its rows in place

    monkeypatch.setattr(harness, "task_integers", recording)
    monkeypatch.setattr(harness, "FINETUNE_BATCH", batch)
    suite = harness.generate_suite(seed=1, n_tasks=n_tasks, d=8, m=6, n_train=n_train,
                                   n_eval=10, n_adapt=5)
    harness.finetune_all(suite, rank=2, steps=steps, lr=0.001, seed=4)
    [rows] = drawn
    return rows


class TestFinetuneSchedule:
    @pytest.mark.parametrize("n_train,batch", SIZES)
    def test_prefix_stable_in_steps(self, monkeypatch, n_train, batch):
        short = _finetune_schedule(monkeypatch, 3, n_train, 37, batch)
        long = _finetune_schedule(monkeypatch, 3, n_train, 300, batch)
        assert short.shape == (37, 3, batch) and long.shape == (300, 3, batch)
        assert np.array_equal(short, long[:37])

    @pytest.mark.parametrize("n_train,batch", SIZES)
    def test_task_rows_ignore_the_task_count(self, monkeypatch, n_train, batch):
        two = _finetune_schedule(monkeypatch, 2, n_train, 40, batch)
        four = _finetune_schedule(monkeypatch, 4, n_train, 40, batch)
        assert np.array_equal(two, four[:, :2])
