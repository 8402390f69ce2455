import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from loramerge import linalg
from loramerge.rng import substream


def reasonable_matrices(max_dim=12):
    shapes = st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    )
    return shapes.flatmap(
        lambda s: hnp.arrays(
            np.float64,
            s,
            elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        )
    )


class TestSvd:
    @given(reasonable_matrices())
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_and_orthonormality(self, x):
        res = linalg.svd(x)
        scale = max(np.max(np.abs(x)), 1.0)
        assert np.max(np.abs(res.reconstruct() - x)) <= 1e-9 * scale
        q = min(x.shape)
        assert np.allclose(res.u.T @ res.u, np.eye(q), atol=1e-10)
        assert np.allclose(res.v.T @ res.v, np.eye(q), atol=1e-10)
        assert np.all(np.diff(res.sigma) <= 1e-12)
        assert np.all(res.sigma >= 0)

    def test_matches_numpy_singular_values(self):
        gen = substream(1, "svd")
        for _ in range(20):
            x = gen.standard_normal((7, 5))
            got = linalg.svd(x).sigma
            want = np.linalg.svd(x, compute_uv=False)
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "shape,rank", [((8, 5), 2), ((24, 24), 12)], ids=["8x5-rank2", "24x24-rank12"]
    )
    def test_rank_deficient(self, shape, rank):
        gen = substream(2, "svd")
        u = gen.standard_normal((shape[0], rank))
        v = gen.standard_normal((shape[1], rank))
        x = u @ v.T
        res = linalg.svd(x)
        assert np.sum(res.sigma > 1e-10 * res.sigma[0]) == rank
        # null columns stay orthonormal
        q = min(shape)
        assert np.allclose(res.u.T @ res.u, np.eye(q), atol=1e-10)
        assert np.allclose(res.v.T @ res.v, np.eye(q), atol=1e-10)

    def test_sign_convention(self):
        x = np.array([[2.0, 0.0], [0.0, -3.0]])
        res = linalg.svd(x)
        for k in range(2):
            i = int(np.argmax(np.abs(res.u[:, k])))
            assert res.u[i, k] > 0

    def test_deterministic(self):
        x = substream(3, "svd").standard_normal((6, 9))
        a, b = linalg.svd(x), linalg.svd(x.copy())
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.v, b.v)

    def test_rejects_bad_input(self):
        with pytest.raises(linalg.LinalgError):
            linalg.svd(np.array([1.0, 2.0]))
        with pytest.raises(linalg.LinalgError):
            linalg.svd(np.array([[np.nan]]))

    @pytest.mark.parametrize("x", [[[np.nan]], [[np.inf, 0.0]], np.full((2, 2), 1e308)],
                             ids=["nan", "inf", "overflowing_sigma"])
    def test_non_finite_is_an_abort(self, x):
        """Every caller passes a computed matrix, so a non-finite input or
        singular value is a numerical abort (CLI exit 1), not a usage error."""
        with pytest.raises(linalg.LinalgAbort):
            linalg.svd(np.array(x))

    def test_non_convergence_raises(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(linalg.LinalgError):
            linalg.svd(np.eye(3))


class TestGramPath:
    @given(reasonable_matrices(max_dim=8))
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_svd(self, x):
        gram = x @ x.T
        got = linalg.singular_values_from_gram(gram)
        want = np.linalg.svd(x, compute_uv=False)
        k = min(len(got), len(want))
        scale = max(want[0] if len(want) else 0.0, 1.0)
        assert np.allclose(np.sort(got)[::-1][:k], want[:k], atol=1e-7 * scale)

    def test_requires_square(self):
        with pytest.raises(linalg.LinalgError):
            linalg.singular_values_from_gram(np.ones((2, 3)))


class TestEffectiveRank:
    def test_flat_spectrum_counts(self):
        for n in (1, 3, 7):
            assert linalg.effective_rank(np.full(n, 2.5)) == pytest.approx(n, abs=1e-9)

    def test_rank_one(self):
        assert linalg.effective_rank([4.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-9)

    @given(
        hnp.arrays(np.float64, st.integers(1, 10),
                   elements=st.floats(0.0, 1e6, allow_nan=False)),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, sigma, c):
        # a subnormal c * sigma loses relative precision: 0.5 * [3, 1] * 5e-324
        # rounds to [2, 0] * 5e-324, and 0.5 * 5e-324 is zero
        assume(np.max(c * sigma) >= np.finfo(np.float64).tiny)
        assert linalg.effective_rank(sigma) == pytest.approx(
            linalg.effective_rank(c * sigma), abs=1e-9
        )

    @given(
        hnp.arrays(np.float64, st.integers(1, 10),
                   elements=st.floats(0.0, 1e6, allow_nan=False))
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, sigma):
        if np.max(sigma) <= 0:
            return
        er = linalg.effective_rank(sigma)
        assert 1.0 - 1e-9 <= er <= len(sigma) + 1e-9

    def test_known_value(self):
        # two singular values 2 and 1: p = (0.8, 0.2)
        p = np.array([0.8, 0.2])
        want = float(np.exp(-np.sum(p * np.log(p))))
        assert linalg.effective_rank([2.0, 1.0]) == pytest.approx(want, abs=1e-12)

    def test_zero_spectrum_errors(self):
        with pytest.raises(linalg.LinalgError):
            linalg.effective_rank([0.0, 0.0])
        with pytest.raises(linalg.LinalgError):
            linalg.effective_rank([-1.0])

    def test_underflowed_spectrum_errors(self):
        with pytest.raises(linalg.LinalgError):
            linalg.effective_rank(0.5 * np.array([5e-324]))

    def test_near_zero_values_dropped(self):
        # values below the relative floor must not affect the result
        a = linalg.effective_rank([1.0, 1e-15])
        assert a == pytest.approx(1.0, abs=1e-9)
