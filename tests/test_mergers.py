import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_collection, assert_weights_close
from loramerge import mergers
from loramerge.adapters import delta_weight
from loramerge.mergers import MergeConfig, MergeError
from loramerge.rng import substream


class TestConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(MergeError):
            MergeConfig(method="nope")

    def test_parameter_ranges(self):
        with pytest.raises(MergeError):
            MergeConfig(method="ties", trim_fraction=1.0)
        with pytest.raises(MergeError):
            MergeConfig(method="dare_ties", drop_prob=-0.1)
        with pytest.raises(MergeError):
            MergeConfig(method="lora_lego", lego_reweight="nope")


class TestTaskArithmetic:
    def test_definition(self):
        coll = random_collection(seed=0)
        merged = mergers.merge_ta(coll, 0.3)
        for layer in coll.layer_ids:
            want = coll.base[layer] + 0.3 * sum(
                delta_weight(ad) for ad in coll.adapters[layer]
            )
            assert np.array_equal(merged[layer], want)

    def test_lam_zero_is_base(self):
        coll = random_collection(seed=1)
        merged = mergers.merge_ta(coll, 0.0)
        assert_weights_close(merged, coll.base, tol=0.0)


def ties_oracle_1d(values, trim_fraction=0.7):
    """Hand-traced TIES on single-entry models: with one coordinate, trimming
    keeps it; elect the sign with more total magnitude (ties positive), then
    average the values matching that sign."""
    pos = sum(v for v in values if v > 0)
    neg = sum(-v for v in values if v < 0)
    sign = 1.0 if pos >= neg else -1.0
    matching = [v for v in values if v * sign > 0]
    return sum(matching) / len(matching) if matching else 0.0


class TestTies:
    def test_exhaustive_one_coordinate(self):
        """Every sign pattern for up to 3 tasks on 1x1 models."""
        values = [-2.0, -1.0, 0.0, 1.0, 2.0]
        for n in (1, 2, 3):
            for combo in itertools.product(values, repeat=n):
                deltas = [np.array([[v]]) for v in combo]
                got = mergers._ties_combine(deltas, 0.7)[0, 0]
                assert got == pytest.approx(ties_oracle_1d(combo), abs=1e-12), combo

    def test_trim_keeps_top_entries(self):
        delta = np.array([[5.0, -4.0, 3.0, -2.0, 1.0]])
        trimmed = mergers._trim_top_mass(delta, 0.6)
        # keep ceil(0.4 * 5) = 2 entries
        assert np.array_equal(trimmed, np.array([[5.0, -4.0, 0.0, 0.0, 0.0]]))

    def test_trim_zero_keeps_all(self):
        gen = substream(2, "trim")
        delta = gen.standard_normal((3, 4))
        assert np.array_equal(mergers._trim_top_mass(delta, 0.0), delta)

    def test_sign_tie_breaks_positive(self):
        got = mergers._ties_combine([np.array([[1.0]]), np.array([[-1.0]])], 0.0)
        assert got[0, 0] == 1.0

    def test_merge_shape(self):
        coll = random_collection(seed=3)
        merged = mergers.merge_dare_ties(coll, lam=1.0, trim_fraction=0.7, drop_prob=0.0)
        for layer in coll.layer_ids:
            assert merged[layer].shape == coll.base[layer].shape


class TestDare:
    def test_unbiased(self):
        """Mean of the dropped-and-rescaled update over many seeds stays within
        three standard errors of the original entries."""
        gen = substream(4, "dare")
        delta = gen.standard_normal((4, 5))
        p = 0.5
        n = 10_000
        acc = np.zeros_like(delta)
        for seed in range(n):
            acc += mergers._dare_drop(delta, p, seed, "t", "l")
        mean = acc / n
        se = np.abs(delta) * np.sqrt(p / (1 - p)) / np.sqrt(n)
        assert np.all(np.abs(mean - delta) <= 3.0 * se + 1e-12)

    def test_p_zero_identity(self):
        delta = np.ones((2, 2))
        assert mergers._dare_drop(delta, 0.0, 0, "t", "l") is delta

    def test_deterministic_per_key(self):
        delta = substream(5, "dare").standard_normal((3, 3))
        a = mergers._dare_drop(delta, 0.5, 7, "t", "l")
        b = mergers._dare_drop(delta, 0.5, 7, "t", "l")
        c = mergers._dare_drop(delta, 0.5, 7, "t2", "l")
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dare_ties_p0_equals_ties(self):
        coll = random_collection(seed=6)
        a = mergers.run_merge(coll, MergeConfig(method="dare_ties", drop_prob=0.0))
        b = mergers.run_merge(coll, MergeConfig(method="ties"))
        assert_weights_close(a, b, tol=0.0)


class TestLinear:
    def test_factor_sum_definition(self):
        coll = random_collection(seed=7, layers=("l0",))
        merged = mergers.merge_linear(coll, lam=0.4)["l0"]
        ads = coll.adapters["l0"]
        want_b = 0.4 * sum(ad.b for ad in ads)
        want_a = sum(ad.a for ad in ads)
        assert np.allclose(merged.b, want_b)
        assert np.allclose(merged.a, want_a)
        assert np.allclose(
            delta_weight(merged), merged.scale * want_b @ want_a.T
        )

    def test_requires_uniform_rank(self):
        coll = random_collection(seed=8, layers=("l0",))
        from loramerge.adapters import LoraAdapter, AdapterCollection

        gen = substream(8, "odd")
        odd = LoraAdapter("task0", "l0", gen.standard_normal((8, 3)),
                          gen.standard_normal((6, 3)), rank=3)
        coll2 = AdapterCollection(
            layer_ids=["l0"],
            task_ids=coll.task_ids,
            base=coll.base,
            adapters={"l0": [odd] + coll.adapters["l0"][1:]},
        )
        with pytest.raises(MergeError):
            mergers.merge_linear(coll2)


class TestSvdMerge:
    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_residual_equals_tail_energy(self, seed):
        coll = random_collection(seed=seed, layers=("l0",), d=9, m=7, rank=3)
        r = 2
        merged = mergers.merge_svd(coll, lam=0.3, target_rank=r)["l0"]
        total = 0.3 * sum(delta_weight(ad) for ad in coll.adapters["l0"])
        residual = np.linalg.norm(total - delta_weight(merged))
        sigma = np.linalg.svd(total, compute_uv=False)
        tail = float(np.sqrt(np.sum(sigma[r:] ** 2)))
        assert residual == pytest.approx(tail, abs=1e-9 * max(sigma[0], 1.0))

    @pytest.mark.parametrize(
        "kwargs,target_rank",
        [
            (dict(seed=9, layers=("l0",), d=6, m=5, rank=2), 5),
            (dict(seed=0, n_tasks=2, d=24, m=24, rank=8), 24),
        ],
        ids=["6x5", "24x24-rank16"],
    )
    def test_full_rank_exact(self, kwargs, target_rank):
        coll = random_collection(**kwargs)
        merged = mergers.merge_svd(coll, lam=0.3, target_rank=target_rank)["l0"]
        total = 0.3 * sum(delta_weight(ad) for ad in coll.adapters["l0"])
        assert np.allclose(delta_weight(merged), total, atol=1e-10)

    def test_rank_too_large(self):
        coll = random_collection(seed=10, layers=("l0",), d=6, m=5, rank=2)
        with pytest.raises(MergeError):
            mergers.merge_svd(coll, target_rank=6)


def knots_oracle(coll, layer, lam, trim_fraction):
    """Independent step-by-step shared-basis merge using numpy's SVD."""
    deltas = [delta_weight(ad) for ad in coll.adapters[layer]]
    d = deltas[0].shape[0]
    u, s, vt = np.linalg.svd(np.vstack(deltas), full_matrices=False)
    blocks = [u[i * d : (i + 1) * d, :] * s for i in range(len(deltas))]
    combined = mergers._ties_combine(blocks, trim_fraction)
    return coll.base[layer] + lam * combined @ vt


class TestKnots:
    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_matches_oracle(self, seed):
        coll = random_collection(seed=seed, layers=("l0",), d=6, m=5, rank=2)
        got = mergers.merge_knots(coll, lam=0.7, trim_fraction=0.6)["l0"]
        want = knots_oracle(coll, "l0", 0.7, 0.6)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(np.max(np.abs(want)), 1.0)

    def test_inner_dare_deterministic(self):
        coll = random_collection(seed=11)
        a = mergers.merge_knots(coll, drop_prob=0.5, seed=3)
        b = mergers.merge_knots(coll, drop_prob=0.5, seed=3)
        assert_weights_close(a, b, tol=0.0)


class TestKmeans:
    def test_partitions_and_determinism(self):
        gen = substream(13, "km")
        pts = gen.standard_normal((30, 4))
        c1, a1 = mergers._kmeans(pts, 5, substream(0, "k"))
        c2, a2 = mergers._kmeans(pts, 5, substream(0, "k"))
        assert np.array_equal(c1, c2)
        assert np.array_equal(a1, a2)
        assert set(np.unique(a1)) <= set(range(5))

    def test_centroids_are_member_means(self):
        gen = substream(14, "km")
        pts = gen.standard_normal((40, 3))
        centers, assign = mergers._kmeans(pts, 4, substream(1, "k"))
        for c in range(4):
            members = pts[assign == c]
            if len(members):
                assert np.allclose(centers[c], members.mean(axis=0), atol=1e-9)


def lego_oracle(coll, layer, k, reweight, seed):
    """Recompute the merged update from the clustering, independently applying
    the reweighting rules and the adapter scale convention."""
    ads = coll.adapters[layer]
    rank, alpha = ads[0].rank, ads[0].lora_alpha
    m = ads[0].a.shape[0]
    units = np.stack(
        [np.concatenate([ad.a[:, j], ad.b[:, j]]) for ad in ads for j in range(rank)]
    )
    centers, assign = mergers._kmeans(units, k, substream(seed, "lego", layer))
    centers = centers.copy()
    if reweight == "parameter":
        norms = np.linalg.norm(units, axis=1)
        for c in range(k):
            cn = np.linalg.norm(centers[c])
            if cn > 0:
                centers[c] *= np.mean(norms[assign == c]) / cn
    delta = np.zeros((ads[0].b.shape[0], m))
    gain = np.sqrt(rank / k) if reweight == "output" else 1.0
    for c in range(k):
        a_c, b_c = centers[c, :m], centers[c, m:]
        delta += np.outer(gain * b_c, a_c)
    return (alpha / rank) * delta


class TestLoraLego:
    @pytest.mark.parametrize("reweight", ["output", "parameter"])
    def test_matches_oracle(self, reweight):
        coll = random_collection(seed=15, layers=("l0",), d=6, m=5, rank=3)
        merged = mergers.merge_lora_lego(coll, k_clusters=4, lego_reweight=reweight,
                                         seed=2)["l0"]
        want = lego_oracle(coll, "l0", 4, reweight, 2)
        got = delta_weight(merged)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(np.max(np.abs(want)), 1.0)

    def test_k_too_large(self):
        coll = random_collection(seed=16, layers=("l0",), rank=2, n_tasks=2)
        with pytest.raises(MergeError):
            mergers.merge_lora_lego(coll, k_clusters=5)


class TestDispatch:
    @pytest.mark.parametrize("method", mergers.METHODS)
    def test_run_merge_all_methods(self, method):
        coll = random_collection(seed=17, d=8, m=6, rank=2)
        cfg = MergeConfig(method=method, k_clusters=3, target_rank=2)
        weights = mergers.run_merge(coll, cfg)
        for layer in coll.layer_ids:
            assert weights[layer].shape == coll.base[layer].shape
            assert np.all(np.isfinite(weights[layer]))

    @pytest.mark.parametrize("method", mergers.METHODS)
    def test_deterministic(self, method):
        coll = random_collection(seed=18, d=8, m=6, rank=2)
        cfg = MergeConfig(method=method, k_clusters=3, target_rank=2)
        a = mergers.run_merge(coll, cfg)
        b = mergers.run_merge(coll, cfg)
        assert_weights_close(a, b, tol=0.0)
