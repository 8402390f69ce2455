import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from loramerge import linalg
from loramerge.checks import NumericalAbort
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


def _product(res):
    """U diag(sigma) V^T of an SvdResult."""
    return (res.u * res.sigma) @ res.v.T


class TestSvd:
    @given(reasonable_matrices())
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_and_orthonormality(self, x):
        res = linalg.svd(x)
        scale = max(np.max(np.abs(x)), 1.0)
        assert np.max(np.abs(_product(res) - x)) <= 1e-9 * scale
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
        with pytest.raises(linalg.LinalgError, match="must be 2-D"):
            linalg.svd(np.array([1.0, 2.0]))
        with pytest.raises(NumericalAbort, match="non-finite entries"):
            linalg.svd(np.array([[np.nan]]))

    @pytest.mark.parametrize("x,message", [
        ([[np.nan]], "non-finite entries"),
        ([[np.inf, 0.0]], "non-finite entries"),
        (np.full((2, 2), 1e308), "singular values overflow"),
    ], ids=["nan", "inf", "overflowing_sigma"])
    def test_non_finite_is_an_abort(self, x, message):
        """Every caller passes a computed matrix, so a non-finite input or
        singular value is a numerical abort (CLI exit 1), not a usage error."""
        with pytest.raises(NumericalAbort, match=message):
            linalg.svd(np.array(x))

    def test_non_convergence_raises(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalAbort, match="SVD did not converge"):
            linalg.svd(np.eye(3))


def random_factors(seed, d, m, k, rank=None):
    """(d, k) and (m, k) Gaussian factors; with `rank`, their product has that rank."""
    gen = substream(seed, "svd_product")
    left, right = gen.standard_normal((d, k)), gen.standard_normal((m, k))
    if rank is not None:
        left = left[:, :rank] @ gen.standard_normal((rank, k))
    return left, right


class TestSvdProduct:
    @given(st.integers(0, 1000), st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_singular_values_match_the_product(self, seed, d, m, k):
        left, right = random_factors(seed, d, m, k)
        got = linalg.svd_product(left, right)
        want = np.linalg.svd(left @ right.T, compute_uv=False)
        q = min(d, m, k)
        assert got.sigma.shape == (q,)
        assert np.max(np.abs(got.sigma - want[:q])) <= 1e-12 * want[0]
        assert np.allclose(got.u.T @ got.u, np.eye(q), atol=1e-10)
        assert np.allclose(got.v.T @ got.v, np.eye(q), atol=1e-10)

    @pytest.mark.parametrize("d,m,k", [(9, 7, 3), (7, 9, 3), (12, 12, 12), (5, 4, 8)],
                             ids=["tall", "wide", "square", "more_columns"])
    def test_vectors_follow_the_svd_sign_convention(self, d, m, k):
        left, right = random_factors(4, d, m, k)
        got = linalg.svd_product(left, right)
        want = linalg.svd(left @ right.T)
        q = got.sigma.size
        assert np.max(np.abs(got.u - want.u[:, :q])) <= 1e-9
        assert np.max(np.abs(got.v - want.v[:, :q])) <= 1e-9
        assert np.max(np.abs(_product(got) - left @ right.T)) <= 1e-12 * want.sigma[0] * q

    @pytest.mark.parametrize("d,m,k,rank", [(10, 8, 2, 6), (10, 8, 3, 20), (6, 9, 4, 6)],
                             ids=["to_6", "to_min", "wide_to_6"])
    def test_padding_completes_orthonormal_bases(self, d, m, k, rank):
        left, right = random_factors(5, d, m, k)
        got = linalg.svd_product(left, right, rank)
        q = min(d, m, rank)
        assert got.sigma.shape == (q,)
        assert np.allclose(got.u.T @ got.u, np.eye(q), atol=1e-10)
        assert np.allclose(got.v.T @ got.v, np.eye(q), atol=1e-10)
        assert np.max(got.sigma[k:]) <= 1e-12 * got.sigma[0]
        assert np.max(np.abs(_product(got) - left @ right.T)) <= 1e-12 * got.sigma[0] * q

    def test_rank_deficient(self):
        left, right = random_factors(6, 11, 9, 6, rank=2)
        got = linalg.svd_product(left, right)
        want = np.linalg.svd(left @ right.T, compute_uv=False)
        assert np.sum(got.sigma > 1e-10 * got.sigma[0]) == 2
        assert np.max(np.abs(got.sigma - want[:6])) <= 1e-12 * want[0]
        assert np.allclose(got.u.T @ got.u, np.eye(6), atol=1e-10)
        assert np.allclose(got.v.T @ got.v, np.eye(6), atol=1e-10)
        lead = linalg.svd(left @ right.T)
        assert np.max(np.abs(got.u[:, :2] - lead.u[:, :2])) <= 1e-9

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_is_an_abort(self, side, bad):
        left, right = random_factors(7, 5, 4, 2)
        (left if side == "left" else right)[1, 1] = bad
        with pytest.raises(NumericalAbort, match=f"{side} factor contains non-finite"):
            linalg.svd_product(left, right)

    def test_overflowing_core_is_an_abort(self):
        with pytest.raises(NumericalAbort, match="non-finite"), np.errstate(over="ignore"):
            linalg.svd_product(np.full((3, 2), 1e200), np.full((4, 2), 1e200))

    def test_mismatched_factors(self):
        with pytest.raises(linalg.LinalgError):
            linalg.svd_product(np.ones((3, 2)), np.ones((4, 3)), 5)

    @given(st.integers(0, 1000), st.sampled_from(["left", "right"]),
           st.lists(st.tuples(st.integers(1, 4), st.integers(0, 4)), min_size=1, max_size=4),
           st.integers(1, 12), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_blocks_match_their_block_diagonal_matrix(self, seed, side, shapes, other_rows,
                                                      deficient):
        """Unequal tall or square blocks, the first rank 1 when `deficient`: the
        block list gives the dense block-diagonal factor's SVD."""
        shapes = [(cols + extra, cols) for cols, extra in shapes]
        blocks = random_blocks(seed, shapes, deficient)
        dense = linalg.block_diag(blocks)
        other = substream(seed, "svd_product", "other").standard_normal(
            (other_rows, dense.shape[1]))
        pair = (lambda f: (f, other)) if side == "left" else (lambda f: (other, f))
        got, want = linalg.svd_product(*pair(blocks)), linalg.svd_product(*pair(dense))
        assert got.sigma.shape == want.sigma.shape
        top = want.sigma[0]
        assert np.max(np.abs(got.sigma - want.sigma)) <= 1e-12 * top
        # vectors of zero or clustered singular values are not unique: compare
        # the components whose sigma stands apart from its neighbours and zero
        live = want.sigma > 1e-10 * top
        gaps = -np.diff(np.append(want.sigma[live], 0.0))
        assume(np.all(gaps > 1e-5 * top))
        assert np.max(np.abs(got.u[:, live] - want.u[:, live])) <= 1e-9
        assert np.max(np.abs(got.v[:, live] - want.v[:, live])) <= 1e-9
        q = got.sigma.size
        left, right = pair(dense)
        assert np.max(np.abs(_product(got) - left @ right.T)) <= 1e-12 * top * q

    @pytest.mark.parametrize("shapes,rank", [([(5, 2), (3, 1), (4, 3)], 9),
                                             ([(2, 3), (4, 1)], 0)],
                             ids=["padded", "wide_block"])
    def test_padding_and_wide_blocks_take_the_dense_path(self, shapes, rank):
        blocks = random_blocks(8, shapes)
        dense = linalg.block_diag(blocks)
        right = substream(8, "svd_product", "other").standard_normal((7, dense.shape[1]))
        got = linalg.svd_product(blocks, right, rank)
        want = linalg.svd_product(dense, right, rank)
        q = want.sigma.size
        assert got.sigma.shape == (q,)
        assert np.allclose(got.u.T @ got.u, np.eye(q), atol=1e-10)
        assert np.allclose(got.v.T @ got.v, np.eye(q), atol=1e-10)
        assert np.max(np.abs(got.sigma - want.sigma)) <= 1e-12 * want.sigma[0]
        assert np.max(np.abs(_product(got) - dense @ right.T)) <= 1e-12 * want.sigma[0] * q

    @pytest.mark.parametrize("blocks,error,message", [
        ([], linalg.LinalgError, "has no blocks"),
        ([np.ones((3, 2)), np.ones(2)], linalg.LinalgError, "block 1 must be 2-D"),
        ([np.ones((3, 2)), np.full((2, 1), np.nan)], NumericalAbort,
         "block 1 contains non-finite entries"),
        ([np.ones((3, 2)), np.ones((2, 2))], linalg.LinalgError, "factors have"),
    ], ids=["empty", "1d_block", "non_finite_block", "column_total"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_bad_blocks(self, blocks, error, message, side):
        other = np.ones((4, 3))
        with pytest.raises(error, match=message):
            linalg.svd_product(*((blocks, other) if side == "left" else (other, blocks)))


def random_blocks(seed, shapes, deficient=False):
    """Gaussian blocks of the given shapes; with `deficient`, the first has rank 1."""
    gen = substream(seed, "svd_product", "blocks")
    blocks = [gen.standard_normal(s) for s in shapes]
    if deficient:
        rows, cols = shapes[0]
        blocks[0] = gen.standard_normal((rows, 1)) @ gen.standard_normal((1, cols))
    return blocks


class TestBlockDiag:
    def test_matches_dense_layout(self):
        blocks = [np.full((2, 1), 1.0), np.full((1, 3), 2.0), np.full((3, 2), 3.0)]
        got = linalg.block_diag(blocks)
        assert got.shape == (6, 6)
        assert np.array_equal(got[:2, :1], blocks[0])
        assert np.array_equal(got[2:3, 1:4], blocks[1])
        assert np.array_equal(got[3:, 4:], blocks[2])
        assert np.sum(got != 0) == 2 + 3 + 6


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


class TestGramValuesOnly:
    """The values-only LAPACK call keeps svd()'s spectrum and its checks."""

    @given(reasonable_matrices(max_dim=16))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_full_svd(self, x):
        gram = x @ x.T
        want = linalg.svd(gram).sigma
        got = linalg.singular_values_from_gram(gram)
        assert got.shape == want.shape
        # compare eigenvalues: the square root amplifies rounding near zero
        assert np.max(np.abs(got**2 - want)) <= 1e-13 * max(want[0], 1e-300)

    @pytest.mark.parametrize("gram,message", [
        ([[np.nan, 0.0], [0.0, 1.0]], "gram contains non-finite entries"),
        (np.full((2, 2), 1e308), "singular values overflow"),
    ], ids=["nan", "overflowing_sigma"])
    def test_non_finite_is_an_abort(self, gram, message):
        with pytest.raises(NumericalAbort, match=message):
            linalg.singular_values_from_gram(np.array(gram))

    def test_non_convergence_is_an_abort(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalAbort, match="SVD did not converge"):
            linalg.singular_values_from_gram(np.eye(3))

    def test_non_square_is_a_usage_error(self):
        with pytest.raises(linalg.LinalgError) as info:
            linalg.singular_values_from_gram(np.ones((3, 2)))
        assert not isinstance(info.value, NumericalAbort)


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
