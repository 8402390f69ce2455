import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_collection, assert_weights_close, sub_collection
from loramerge import mergers
from loramerge.adapters import AdapterCollection, delta_weight
from loramerge.checks import CodedError
from loramerge.mergers import MergeConfig
from loramerge.rng import substream


class TestConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(CodedError, match="unknown merge method 'nope'"):
            MergeConfig(method="nope")

    def test_parameter_ranges(self):
        with pytest.raises(CodedError, match=r"bad_config: trim_fraction must be a number in \["):
            MergeConfig(method="ties", trim_fraction=1.0)
        with pytest.raises(CodedError, match=r"bad_config: drop_prob must be a number in \["):
            MergeConfig(method="dare_ties", drop_prob=-0.1)
        with pytest.raises(CodedError, match="bad_config: lego_reweight must be 'parameter' or"):
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


def trim_by_stable_sort(delta, trim_fraction, size=None):
    """The reference trim rule: a stable sort by descending |value| keeps the
    first n_keep entries, so ties at the cut go to the lowest indices. With
    size, delta is padded with zeros past its end to size entries, trimmed,
    and cut back."""
    flat = delta.ravel()
    padded = np.zeros(max(flat.size, size or 0))
    padded[: flat.size] = flat
    n_keep = int(np.ceil((1.0 - trim_fraction) * padded.size))
    if n_keep >= padded.size:
        return delta.copy()
    keep = np.argsort(-np.abs(padded), kind="stable")[:n_keep]
    out = np.zeros_like(padded)
    out[keep] = padded[keep]
    return out[: flat.size].reshape(delta.shape)


# heavy ties: a few quantized magnitudes of both signs, DARE zeros and -0.0
tied_values = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
tie_heavy_matrices = st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda s: st.one_of(
        hnp.arrays(np.float64, s, elements=tied_values),
        hnp.arrays(np.float64, s, elements=st.floats(-4, 4, allow_nan=False)),
    )
)


class TestTies:
    @given(tie_heavy_matrices, st.floats(0.0, 0.999))
    @settings(max_examples=300, deadline=None)
    def test_trim_matches_the_stable_sort_rule(self, delta, trim_fraction):
        got = mergers._trim_top_mass(delta, trim_fraction)
        want = trim_by_stable_sort(delta, trim_fraction)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("size_factor", [None, 2])
    @pytest.mark.parametrize("trim_fraction", [0.2, 0.7, 0.9])
    @pytest.mark.parametrize("drop_prob", [0.0, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("shape", [(64, 64), (128, 128), (128, 64), (256, 256)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_trim_matches_the_stable_sort_rule_at_layer_sizes(self, shape, drop_prob,
                                                              trim_fraction, size_factor):
        """The sizes the merges trim, with DARE's exact zeros: quantized values
        of both signs and -0.0, and a KnOTS-style count over twice the block."""
        gen = substream(sum(shape), "trim-sizes", repr(drop_prob))  # a float is no tag
        delta = gen.choice(np.array([-0.0, 0.0, -0.5, 0.5, -1.0, 1.0, -2.0, 2.0]), shape)
        delta = mergers._dare_drop(delta, drop_prob, 3, "t", "l")
        size = None if size_factor is None else size_factor * delta.size
        assert_same_bits(mergers._trim_top_mass(delta, trim_fraction, size),
                         trim_by_stable_sort(delta, trim_fraction, size))

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
        merged = mergers.merge_dare_ties(coll, lam=1.0, trim_fraction=0.7, drop_prob=0.0,
                                         seed=0)
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

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_mask_shape_is_the_padded_draw(self, d, k, extra, data):
        """A mask drawn at (d, q) and cut to delta's (d, k) is the padded delta's
        draw sliced back, bit for bit and sign bits included."""
        delta = data.draw(hnp.arrays(np.float64, (d, k), elements=st.floats()))
        p = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        seed = data.draw(st.integers(0, 2**32))
        with np.errstate(over="ignore"):  # huge entries rescaled past the float range
            got = mergers._dare_drop(delta, p, seed, "t", "l", (d, k + extra))
            want = mergers._dare_drop(np.pad(delta, ((0, 0), (0, extra))), p, seed,
                                      "t", "l")[:, :k]
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_dare_ties_p0_equals_ties(self):
        coll = random_collection(seed=6)
        a = mergers.run_merge(coll, MergeConfig(method="dare_ties", drop_prob=0.0))
        b = mergers.run_merge(coll, MergeConfig(method="ties"))
        assert_weights_close(a, b, tol=0.0)


def ties_combine_by_where(deltas, trim_fraction, size=None):
    """The combine by masks: sum each sign's mass, elect, then sum and count
    the survivors matching the elected sign. The clipped sums must give its
    bits."""
    trimmed = np.stack([mergers._trim_top_mass(d, trim_fraction, size) for d in deltas])
    pos_mass = np.sum(np.where(trimmed > 0, trimmed, 0.0), axis=0)
    neg_mass = np.sum(np.where(trimmed < 0, -trimmed, 0.0), axis=0)
    sign = np.where(pos_mass >= neg_mass, 1.0, -1.0)  # ties break positive
    match = (trimmed * sign) > 0
    count = np.sum(match, axis=0)
    total = np.sum(np.where(match, trimmed, 0.0), axis=0)
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestTiesClippedSums:
    @given(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5)).flatmap(
               lambda s: st.lists(hnp.arrays(np.float64, s[:2], elements=tied_values),
                                  min_size=s[2], max_size=s[2])),
           st.floats(0.0, 0.999), st.sampled_from([0.0, 0.3, 0.7]),
           st.one_of(st.none(), st.integers(0, 40)), st.integers(0, 100))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_masked_combine(self, deltas, trim_fraction, drop_prob, extra, seed):
        """Tie-heavy tasks with -0.0, DARE zeros and a trim count taken over a
        larger (zero-padded) entry count."""
        deltas = [mergers._dare_drop(d, drop_prob, seed, f"task{i}", "l")
                  for i, d in enumerate(deltas)]
        size = None if extra is None else deltas[0].size + extra
        assert_same_bits(mergers._ties_combine(deltas, trim_fraction, size),
                         ties_combine_by_where(deltas, trim_fraction, size))

    @pytest.mark.parametrize("method, drop_prob", [
        *(pytest.param(m, 0.5, id=m)
          for m in ("ties", "dare_ties", "knots_ties", "knots_dare_ties")),
        *(pytest.param(m, 0.9, id=f"{m}-p0.9") for m in ("dare_ties", "knots_dare_ties"))])
    @pytest.mark.parametrize("d", [64, 128])
    def test_merges_match_the_masked_combine(self, method, drop_prob, d, monkeypatch):
        coll = random_collection(seed=d, n_tasks=4, layers=("l0",), d=d, m=d, rank=16)
        cfg = MergeConfig(method=method, lam=1.0, drop_prob=drop_prob, seed=5)
        got = mergers.run_merge(coll, cfg)
        monkeypatch.setattr(mergers, "_ties_combine", ties_combine_by_where)
        assert_same_bits(got["l0"], mergers.run_merge(coll, cfg)["l0"])

    def test_more_tasks_than_a_narrow_count_holds(self):
        """130 agreeing tasks and 260 mixed ones: an 8-bit count would wrap."""
        gen = substream(7, "many-tasks")
        agree = [np.full((2, 3), 1.0 + i % 3) for i in range(130)]
        got = mergers._ties_combine(agree, 0.0)
        assert np.array_equal(got, np.full((2, 3), sum(1.0 + i % 3 for i in range(130)) / 130))
        mixed = agree + [gen.standard_normal((2, 3)) for _ in range(130)]
        assert_same_bits(mergers._ties_combine(mixed, 0.0),
                         ties_combine_by_where(mixed, 0.0))


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
        with pytest.raises(CodedError, match="linear merge requires uniform rank"):
            mergers.merge_linear(coll2, lam=0.3)


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
        with pytest.raises(CodedError, match="target_rank 6 exceeds"):
            mergers.merge_svd(coll, lam=0.3, target_rank=6)


def knots_oracle(coll, layer, lam, trim_fraction):
    """Independent step-by-step shared-basis merge using numpy's SVD."""
    deltas = [delta_weight(ad) for ad in coll.adapters[layer]]
    d = deltas[0].shape[0]
    u, s, vt = np.linalg.svd(np.vstack(deltas), full_matrices=False)
    blocks = [u[i * d : (i + 1) * d, :] * s for i in range(len(deltas))]
    combined = mergers._ties_combine(blocks, trim_fraction)
    return coll.base[layer] + lam * combined @ vt


class TestKnots:
    # the second case has N*r < min(N*d, m), so the U_i Sigma blocks have zero columns
    @pytest.mark.parametrize("shape", [dict(d=6, m=5, rank=2),
                                       dict(n_tasks=2, d=8, m=6, rank=2)],
                             ids=["3tasks-6x5", "2tasks-8x6-rank2"])
    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_matches_oracle(self, shape, seed):
        coll = random_collection(seed=seed, layers=("l0",), **shape)
        got = mergers.merge_knots(coll, lam=0.7, trim_fraction=0.6, drop_prob=0.0,
                                   seed=0)["l0"]
        want = knots_oracle(coll, "l0", 0.7, 0.6)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(np.max(np.abs(want)), 1.0)

    def test_inner_dare_deterministic(self):
        coll = random_collection(seed=11)
        a = mergers.merge_knots(coll, lam=1.0, trim_fraction=0.7, drop_prob=0.5, seed=3)
        b = mergers.merge_knots(coll, lam=1.0, trim_fraction=0.7, drop_prob=0.5, seed=3)
        assert_weights_close(a, b, tol=0.0)


def kmeans_pp_by_restacking(points, k, rng):
    """k-means++ seeding that recomputes every point's distance to every chosen
    centroid at each step: the reference for the running minimum."""
    n = points.shape[0]
    centroids = [points[int(rng.integers(n))]]
    for _ in range(1, k):
        d2 = np.min(np.stack([np.sum((points - c) ** 2, axis=1) for c in centroids]), axis=0)
        total = float(np.sum(d2))
        if total <= 0.0:
            centroids.append(points[int(rng.integers(n))])
            continue
        r = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(d2), r))
        centroids.append(points[min(idx, n - 1)])
    return np.stack(centroids)


def nearest_by_direct_distances(points, centers):
    """A Lloyd step's scoring over the (n, k, dim) difference array: each point's
    nearest center, lowest index on ties, and its squared distance. The reference
    for the GEMM form."""
    dists = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    assign = np.argmin(dists, axis=1)
    return assign, dists[np.arange(points.shape[0]), assign]


def kmeans_by_direct_distances(points, k, rng):
    """_kmeans with every Lloyd step scored by nearest_by_direct_distances."""
    centers = mergers._kmeans_pp(points, k, rng)
    prev_inertia = np.inf
    for _ in range(100):
        assign, own = nearest_by_direct_distances(points, centers)
        inertia = float(np.sum(own))
        sizes = np.bincount(assign, minlength=k)
        for c in range(k):
            if sizes[c] == 0:
                far = int(np.argmax(np.where(sizes[assign] > 1, own, -np.inf)))
                sizes[assign[far]] -= 1
                sizes[c] = 1
                centers[c] = points[far]
                assign[far] = c
            else:
                centers[c] = points[assign == c].mean(axis=0)
        if prev_inertia < np.inf and abs(prev_inertia - inertia) <= 1e-8 * max(
            prev_inertia, 1e-300
        ):
            break
        prev_inertia = inertia
    return centers, assign


@st.composite
def kmeans_inputs(draw):
    """(seed, points, k): random points at scales 1e-3 to 1e3, or duplicate-heavy
    ones drawn as in test_no_cluster_is_empty."""
    seed = draw(st.integers(0, 10_000))
    gen = substream(seed, "km-ref")
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        pts = gen.standard_normal((n, draw(st.integers(1, 9)))) * 10.0 ** draw(st.integers(-3, 3))
    else:
        distinct, n = draw(st.integers(1, 4)), draw(st.integers(1, 24))
        pts = gen.standard_normal((distinct, 2))[gen.integers(0, distinct, n)]
    return seed, pts, draw(st.integers(1, n))


class TestKmeans:
    @given(st.integers(0, 10_000), st.integers(1, 12), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_seeding_matches_restacking(self, seed, k, distinct):
        """The running minimum gives the restacked minimum's bits and draws, also
        when repeated points leave no mass to draw from."""
        gen = substream(seed, "km-pp")
        pts = gen.standard_normal((distinct, 3))[gen.integers(0, distinct, 20)]
        rng, ref_rng = substream(seed, "k"), substream(seed, "k")
        assert np.array_equal(mergers._kmeans_pp(pts, k, rng),
                              kmeans_pp_by_restacking(pts, k, ref_rng))
        assert rng.random() == ref_rng.random()  # both streams made the same draws

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
                assert np.array_equal(centers[c], members.mean(axis=0))

    @given(kmeans_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_direct_distances(self, inputs):
        """The GEMM-form Lloyd steps give the direct form's clusters and centers
        bit for bit, also where duplicates tie or nearly tie."""
        seed, pts, k = inputs
        centers, assign = mergers._kmeans(pts, k, substream(seed, "k"))
        want_centers, want_assign = kmeans_by_direct_distances(pts, k, substream(seed, "k"))
        assert np.array_equal(assign, want_assign)
        assert np.array_equal(centers, want_centers)

    @given(kmeans_inputs())
    @settings(max_examples=300, deadline=None)
    def test_step_matches_direct_distances(self, inputs):
        """Centers on the points and one ulp off them leave rows whose two best
        distances the GEMM form cannot tell apart; the step must rank them as
        the direct form does."""
        seed, pts, k = inputs
        on = pts[substream(seed, "km-centers").integers(0, pts.shape[0], k)]
        centers = np.vstack([np.nextafter(on, np.inf), on])
        got = mergers._nearest(pts, np.einsum("ij,ij->i", pts, pts), centers)
        want = nearest_by_direct_distances(pts, centers)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_exact_duplicates_score_zero(self):
        """At a scale of 1e3 the GEMM form puts these points +9.3e-10 and
        -1.9e-9 from their centers; a point on its center still scores exactly
        0, so no distance and no inertia is negative."""
        pts = np.repeat(substream(3, "km").standard_normal((3, 5)) * 1e3, 4, axis=0)
        assign, own = mergers._nearest(pts, np.einsum("ij,ij->i", pts, pts),
                                       pts[[0, 4, 8, 0]])
        assert np.array_equal(assign, np.repeat([0, 1, 2], 4))
        assert np.array_equal(own, np.zeros(12))

    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 24), st.data())
    @settings(max_examples=150, deadline=None)
    def test_no_cluster_is_empty(self, seed, distinct, n, data):
        """Duplicate-heavy points leave several clusters empty at once; each
        reseed takes a different point, from a cluster that keeps a member."""
        k = data.draw(st.integers(1, n))
        gen = substream(seed, "km-dup")
        pts = gen.standard_normal((distinct, 2))[gen.integers(0, distinct, n)]
        _, assign = mergers._kmeans(pts, k, substream(seed, "k"))
        assert np.all(np.bincount(assign, minlength=k) > 0)
        assert assign.max() < k

    def test_two_points_four_times_over_fill_five_clusters(self):
        pts = np.array([[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 4)
        _, assign = mergers._kmeans(pts, 5, substream(0, "lego", "l"))
        assert sorted(np.bincount(assign, minlength=5)) == [1, 1, 1, 1, 4]


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

    def test_identical_adapters_with_parameter_reweighting(self):
        """Four copies of one rank-2 adapter have two distinct units for five
        clusters: every cluster must keep a member for its mean norm."""
        one = random_collection(seed=19, n_tasks=1, layers=("l0",), d=6, m=6, rank=2)
        tasks = [f"task{i}" for i in range(4)]
        coll = AdapterCollection(
            layer_ids=["l0"], task_ids=tasks, base=one.base,
            adapters={"l0": [replace(one.adapters["l0"][0], task_id=t) for t in tasks]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            merged = mergers.merge_lora_lego(coll, k_clusters=5,
                                             lego_reweight="parameter", seed=0)["l0"]
        assert np.isfinite(merged.b).all() and np.isfinite(merged.a).all()

    @pytest.mark.parametrize("reweight", ["output", "parameter"])
    def test_wide_layer_matches_direct_kmeans(self, reweight, monkeypatch):
        """At the benchmark's 128x128, N = 4, r = 16 shape the merge is the one the
        direct k-means drives, bit for bit, on the per-column C-ordered units."""
        coll = random_collection(seed=20, n_tasks=4, layers=("l0",), d=128, m=128, rank=16)
        got = mergers.merge_lora_lego(coll, k_clusters=16, lego_reweight=reweight,
                                       seed=0)["l0"]
        seen = []

        def direct(points, k, rng):
            seen.append(points)
            return kmeans_by_direct_distances(points, k, rng)

        monkeypatch.setattr(mergers, "_kmeans", direct)
        want = mergers.merge_lora_lego(coll, k_clusters=16, lego_reweight=reweight,
                                       seed=0)["l0"]
        assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b)
        units = np.stack([np.concatenate([ad.a[:, j], ad.b[:, j]])
                          for ad in coll.adapters["l0"] for j in range(16)])
        assert np.array_equal(seen[0], units) and seen[0].flags.c_contiguous

    def test_k_too_large(self):
        coll = random_collection(seed=16, layers=("l0",), rank=2, n_tasks=2)
        with pytest.raises(CodedError, match="k_clusters 5 exceeds unit count 4"):
            mergers.merge_lora_lego(coll, k_clusters=5, lego_reweight="output", seed=0)


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

    # square, and N * r below min(d, m) at every task count
    @pytest.mark.parametrize("method", mergers.METHODS)
    @given(n_tasks=st.integers(2, 4), shape=st.sampled_from([(8, 8, 2), (12, 10, 1)]),
           drop_prob=st.sampled_from([0.5, 0.9]), seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_task_order_does_not_matter(self, method, n_tasks, shape, drop_prob, seed, data):
        """A permuted collection merges to the same weights, to 1e-12 of the merged
        delta's largest entry: DARE masks are keyed by task id, and LoRA-LEGO pools
        its units in task-id order."""
        d, m, rank = shape
        coll = random_collection(seed=seed, n_tasks=n_tasks, d=d, m=m, rank=rank)
        permuted = sub_collection(coll, data.draw(st.permutations(coll.task_ids)))
        cfg = MergeConfig(method=method, drop_prob=drop_prob, k_clusters=2, target_rank=2)
        want, got = mergers.run_merge(coll, cfg), mergers.run_merge(permuted, cfg)
        for layer in coll.layer_ids:
            scale = np.max(np.abs(want[layer] - coll.base[layer]))
            assert np.max(np.abs(got[layer] - want[layer])) <= 1e-12 * scale


# the relative bound of both metamorphic relations below, set before either ran
METAMORPHIC_TOL = 1e-12
# square, N * r below min(d, m), N * r above it, and wide
METAMORPHIC_SHAPES = [(8, 8, 2), (12, 10, 1), (6, 7, 3), (5, 9, 2)]


class TestMetamorphic:
    @pytest.mark.parametrize("method", [m for m in mergers.METHODS if m != "lora_lego"])
    @given(n_tasks=st.integers(1, 4), shape=st.sampled_from(METAMORPHIC_SHAPES),
           c=st.sampled_from([0.37, 2.0, 3.1]), drop_prob=st.sampled_from([0.5, 0.9]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_scaling_every_b_scales_the_delta(self, method, n_tasks, shape, c, drop_prob,
                                              seed):
        """Every merger but LoRA-LEGO, whose k-means is not scale-equivariant, is
        positively homogeneous in the B factors: B_i -> c B_i for c > 0 takes
        the merged delta to c times itself, DARE's masks being keyed by task."""
        d, m, rank = shape
        coll = random_collection(seed=seed, n_tasks=n_tasks, d=d, m=m, rank=rank)
        scaled = replace(coll, adapters={l: [replace(ad, b=c * ad.b) for ad in ads]
                                         for l, ads in coll.adapters.items()})
        cfg = MergeConfig(method=method, drop_prob=drop_prob, target_rank=2)
        want, got = mergers.run_merge(coll, cfg), mergers.run_merge(scaled, cfg)
        for layer in coll.layer_ids:
            delta = c * (want[layer] - coll.base[layer])
            err = np.max(np.abs(got[layer] - coll.base[layer] - delta))
            assert err <= METAMORPHIC_TOL * np.max(np.abs(delta))

    @pytest.mark.parametrize("method", ["ties", "knots_ties"])
    @given(shape=st.sampled_from(METAMORPHIC_SHAPES), lam=st.sampled_from([0.3, 1.0]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_one_untrimmed_task_is_task_arithmetic(self, method, shape, lam, seed):
        """With one task and nothing trimmed, every sign election keeps that
        task's entry, so TIES and KnOTS-TIES (through its exact shared-basis
        reconstruction) give the task-arithmetic merge."""
        d, m, rank = shape
        coll = random_collection(seed=seed, n_tasks=1, d=d, m=m, rank=rank)
        want = mergers.run_merge(coll, MergeConfig(method="ta", lam=lam))
        got = mergers.run_merge(coll, MergeConfig(method=method, lam=lam, trim_fraction=0.0))
        for layer in coll.layer_ids:
            scale = np.max(np.abs(want[layer] - coll.base[layer]))
            assert np.max(np.abs(got[layer] - want[layer])) <= METAMORPHIC_TOL * scale
