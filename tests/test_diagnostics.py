import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_collection, sub_collection
from test_harness import _per_task_entropy_and_grad
from test_tara import _random_head_suite
from loramerge import diagnostics, linalg, mergers, tara
from loramerge.adapters import AdapterCollection, FactorStack, delta_weight
from loramerge.checks import CodedError, NumericalAbort
from loramerge.rng import substream


def _random_directions(gen, k, d, m):
    draws = [
        (gen.standard_normal(d), gen.standard_normal(m), float(gen.uniform(0.5, 2.0)))
        for _ in range(k)
    ]
    left, right, sigma = (np.array(x) for x in zip(*draws))
    return FactorStack(left.T, right.T, sigma, np.zeros(k, dtype=int))


class TestCoverage:
    def test_gram_path_matches_explicit_stack(self):
        """Tiny instance: compare against singular values of the explicitly
        materialized stack of vectorized directions."""
        gen = substream(0, "cov")
        dirs = _random_directions(gen, 4, 5, 3)
        gram = diagnostics._rank1_gram(dirs)
        stack = np.stack([d.matrix().ravel() for d in dirs.directions])
        want = np.linalg.svd(stack, compute_uv=False)
        got = np.sort(linalg.singular_values_from_gram(gram))[::-1]
        assert np.allclose(got, want, atol=1e-9 * want[0])

    def test_delta_gram_matches_explicit(self):
        coll = random_collection(seed=1, layers=("l0",), d=7, m=5, rank=3)
        ads = coll.adapters["l0"]
        gram = diagnostics._delta_gram(ads)
        stack = np.stack([delta_weight(ad).ravel() for ad in ads])
        assert np.allclose(gram, stack @ stack.T, atol=1e-8 * np.max(np.abs(gram)))

    def test_report_fields(self):
        coll = random_collection(seed=2)
        reports = diagnostics.coverage_report(coll)
        for layer, rep in reports.items():
            assert len(rep.per_task) == coll.n_tasks
            assert rep.per_task_sum == pytest.approx(sum(rep.per_task))
            assert rep.aware_erank is not None
            assert rep.agnostic_erank is not None

    def test_zero_task_stack_warns(self):
        coll = random_collection(seed=3, layers=("l0",))
        zero = coll.adapters["l0"][0]
        from loramerge.adapters import LoraAdapter

        ads = [
            LoraAdapter(zero.task_id, "l0", np.zeros_like(zero.b),
                        np.zeros_like(zero.a), zero.rank, zero.lora_alpha)
        ] + coll.adapters["l0"][1:]
        rep = diagnostics.coverage_stacks(ads)
        assert rep.per_task[0] == 0.0
        assert any("zero" in w for w in rep.warnings)

    def test_empty_errors(self):
        with pytest.raises(CodedError, match="coverage needs at least one adapter"):
            diagnostics.coverage_stacks([])


class TestJacobian:
    def test_entries_match_frobenius_inner(self):
        gen = substream(4, "jac")
        dirs = _random_directions(gen, 3, 6, 4)
        grads = [gen.standard_normal((6, 4)) for _ in range(2)]
        j = diagnostics.jacobian(dirs, grads)
        for i in range(2):
            for k, s in enumerate(dirs.directions):
                want = np.sum(grads[i] * s.matrix())
                assert j.entries[i, k] == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch(self):
        gen = substream(5, "jac")
        dirs = _random_directions(gen, 2, 4, 3)
        with pytest.raises(CodedError, match=r"gradient 1 shape \(5, 3\) != \(4, 3\)"):
            diagnostics.jacobian(dirs, [np.zeros((4, 3)), np.zeros((5, 3))])

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_anisotropy_bounds(self, seed):
        """sigma_min+ ||V V^T phi|| <= ||J phi|| <= sigma_max ||phi||."""
        gen = substream(seed, "aniso")
        n = int(gen.integers(1, 5))
        k = int(gen.integers(1, 8))
        entries = gen.standard_normal((n, k)) * float(gen.uniform(0.1, 10.0))
        j = diagnostics.Jacobian(entries=entries)
        sigma, kappa = diagnostics.anisotropy(j)
        assert kappa >= 1.0 - 1e-12
        res = linalg.svd(entries)
        r = int(np.sum(res.sigma > linalg.EPS_ZERO * res.sigma[0]))
        vr = res.v[:, :r]
        phi = gen.standard_normal(k)
        jphi = np.linalg.norm(entries @ phi)
        upper = sigma[0] * np.linalg.norm(phi)
        positive = sigma[sigma > linalg.EPS_ZERO * sigma[0]]
        lower = positive[-1] * np.linalg.norm(vr @ (vr.T @ phi))
        scale = max(upper, 1e-12)
        assert jphi <= upper + 1e-9 * scale
        assert jphi >= lower - 1e-9 * scale

    def test_zero_jacobian_errors(self):
        j = diagnostics.Jacobian(entries=np.zeros((2, 3)))
        with pytest.raises(CodedError, match="zero Jacobian has no anisotropy"):
            diagnostics.anisotropy(j)


class TestMisalignment:
    def test_identical_profiles_exactly_zero(self):
        h = [0.3, -1.2, 0.7]
        assert diagnostics.misalignment_xi(h, h) == 0.0

    def test_sign_flip_exactly_zero(self):
        a = np.array([0.3, -1.2, 0.7])
        assert diagnostics.misalignment_xi(a, -a) == 0.0

    def test_orthogonal_is_one(self):
        assert diagnostics.misalignment_xi([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_range(self, seed):
        gen = substream(seed, "xi")
        n = int(gen.integers(2, 10))
        a, b = gen.standard_normal(n), gen.standard_normal(n)
        xi = diagnostics.misalignment_xi(a, b)
        assert 0.0 <= xi <= 1.0

    def test_zero_profile_errors(self):
        with pytest.raises(CodedError, match="zero sensitivity profile"):
            diagnostics.misalignment_xi([0.0], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_profile_aborts(self, bad):
        """A NaN norm passes the zero-profile guard, so non-finite entries are
        checked first and reported as a numerical abort."""
        with pytest.raises(NumericalAbort, match="non-finite sensitivity profile"):
            diagnostics.misalignment_xi([1.0, bad], [1.0, 0.0])


class TestPreferenceValidation:
    def test_simplex_enforced(self):
        gen = substream(6, "pref")
        dirs = _random_directions(gen, 2, 4, 3)
        grads = [gen.standard_normal((4, 3)) for _ in range(2)]
        j = diagnostics.jacobian(dirs, grads)
        diagnostics.sensitivity_profile(j, [0.5, 0.5])
        with pytest.raises(CodedError, match="nonnegative and sum to 1"):
            diagnostics.sensitivity_profile(j, [0.5, 0.6])
        with pytest.raises(CodedError, match="nonnegative and sum to 1"):
            diagnostics.sensitivity_profile(j, [-0.1, 1.1])
        with pytest.raises(CodedError, match="preference length 1 != number of tasks 2"):
            diagnostics.sensitivity_profile(j, [1.0])


def _xi(coll, suite):
    """xi of the raw directions of layer0 at the lam = 0.3 scaled sum."""
    return diagnostics.xi_protocol(diagnostics.ta_jacobian(coll, suite, "layer0", 0.3))


class TestXiProtocol:
    def test_single_task_exactly_zero(self, small_suite):
        suite, coll = small_suite
        sub = sub_collection(coll, ["task0"])
        assert _xi(sub, suite) == 0.0

    def test_in_unit_interval(self, small_suite):
        suite, coll = small_suite
        for layer in coll.layer_ids:
            xi = diagnostics.xi_protocol(diagnostics.ta_jacobian(coll, suite, layer, 0.3))
            assert 0.0 <= xi <= 1.0

    def test_picks_suite_rows_by_task_id(self, default_suite):
        """xi of suite tasks 1 and 2 equals xi of the same two tasks as the first
        rows of a two-task suite."""
        suite, coll = default_suite
        sub = sub_collection(coll, ["task1", "task2"])
        pair = dataclasses.replace(
            suite, config=dataclasses.replace(suite.config, n_tasks=2),
            **{name: getattr(suite, name)[1:3] for name in (
                "train_x", "train_y", "eval_x", "eval_y", "adapt_x", "labels", "heads",
                "references")},
        )
        renamed = AdapterCollection(
            layer_ids=coll.layer_ids, task_ids=["task0", "task1"], base=coll.base,
            adapters={l: [dataclasses.replace(ad, task_id=f"task{i}")
                          for i, ad in enumerate(sub.adapters[l])] for l in coll.layer_ids},
        )
        want = _xi(renamed, pair)
        assert _xi(sub, suite) == pytest.approx(want, abs=1e-12)
        first_two = sub_collection(coll, ["task0", "task1"])
        assert abs(_xi(first_two, suite) - want) > 1e-3

    def test_task_outside_the_suite(self, small_suite):
        suite, coll = small_suite
        renamed = AdapterCollection(
            layer_ids=coll.layer_ids, task_ids=["task0", "task5"], base=coll.base,
            adapters={l: [dataclasses.replace(ad, task_id=t) for ad, t in
                          zip(coll.adapters[l], ["task0", "task5"])] for l in coll.layer_ids},
        )
        with pytest.raises(CodedError) as exc:
            _xi(renamed, suite)
        assert exc.value.code == "unknown_task"


@pytest.fixture(scope="module")
def random_head_256():
    """A d = m = 256 suite with random heads, and a random rank-4 collection."""
    coll = random_collection(seed=1, n_tasks=3, layers=("layer0",), d=256, m=256, rank=4)
    return _random_head_suite(256, 256), coll


class TestFactorSpaceAgainstDense:
    """The anchors, both Jacobians, kappa and xi come from the factor-space
    scorer; each matches the per-task dense reference, whose (d, m) weight
    gradients FactorStack.project contracts, to 1e-12 relative."""

    @pytest.mark.parametrize("suite_name", ["default_suite", "random_head_256"])
    def test_matches_the_dense_reference(self, request, suite_name):
        suite, coll = request.getfixturevalue(suite_name)
        lam, n, w0 = 0.3, coll.n_tasks, coll.base["layer0"]
        heads, pools = suite.heads, suite.adapt_x
        want_z = [_per_task_entropy_and_grad(heads[i], w0 + delta_weight(ad), pools[i])[0]
                  for i, ad in enumerate(coll.adapters["layer0"])]
        w = mergers.merge_ta(coll, lam)["layer0"]
        grads = np.stack([_per_task_entropy_and_grad(heads[i], w, pools[i])[1]
                          for i in range(n)])
        shared = tara.build_variant_b(coll).layers["layer0"]

        def close(got, want):
            return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        assert close(tara.compute_anchors(coll, suite), np.array(want_z))
        raw = diagnostics.Jacobian(diagnostics.layer_directions(coll, "layer0").project(grads))
        for stack, want in ((None, raw), (shared, diagnostics.Jacobian(shared.project(grads)))):
            got = diagnostics.ta_jacobian(coll, suite, "layer0", lam, stack)
            assert close(got.entries, want.entries)
            assert close(diagnostics.anisotropy(got)[1], diagnostics.anisotropy(want)[1])
        h = diagnostics.sensitivity_profile(raw, np.full(n, 1.0 / n))
        want_xi = np.mean([diagnostics.misalignment_xi(h, row) for row in raw.entries])
        assert close(diagnostics.xi_protocol(diagnostics.ta_jacobian(coll, suite, "layer0", lam)),
                     want_xi)
