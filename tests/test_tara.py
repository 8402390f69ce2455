import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_weights_close, random_collection, sub_collection
from test_harness import _PerTaskSuite, _per_task_entropy_and_grad, reference_factor_scorer
from loramerge import diagnostics, harness, mergers, tara
from loramerge.adapters import delta_weight
from loramerge.checks import CodedError, NumericalAbort
from loramerge.rng import substream
from loramerge.tara import (
    OptimConfig,
    StchConfig,
    assemble,
    build_variant_a,
    build_variant_b,
    compute_anchors,
    mean_entropy_value_and_grad,
    optimize,
    stch_value_and_grad,
)


def _psi(f, z, rho, alpha):
    """The smoothed scalarization of one row of entropies."""
    return float(tara._stch(*(np.asarray(x, dtype=np.float64) for x in (f, z, rho)), alpha)[0])


_BUILDERS = {"a": build_variant_a, "b": build_variant_b, "adamerging": tara.build_adamerging}


def _scorer(suite, basis):
    return suite.factor_scorer(basis.base, basis.layers, suite.adapt_x[:basis.n_tasks])


def _first_rows(n_tasks, rows):
    """(n_tasks, rows) indices of every pool's first rows."""
    return np.tile(np.arange(rows), (n_tasks, 1))


class TestVariantA:
    def test_direction_count(self):
        coll = random_collection(seed=0, n_tasks=2, rank=4)
        basis = build_variant_a(coll)
        for layer in basis.layer_ids:
            assert basis.counts[layer] == 8

    def test_phi_lambda_equals_ta(self):
        coll = random_collection(seed=1)
        basis = build_variant_a(coll)
        for lam in (0.0, 0.3, 1.0, -0.5):
            got = assemble(basis, basis.init_phi(lam))
            want = mergers.merge_ta(coll, lam)
            assert_weights_close(got, want, tol=1e-12)

    def test_one_hot_selects_single_task(self):
        coll = random_collection(seed=2, n_tasks=3, layers=("l0",), rank=2)
        basis = build_variant_a(coll)
        phi = {"l0": np.zeros(basis.counts["l0"])}
        # directions are laid out task-major, rank-minor
        phi["l0"][2:4] = 1.0  # task 1's two directions
        got = assemble(basis, phi)["l0"]
        want = coll.base["l0"] + delta_weight(coll.adapters["l0"][1])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestVariantB:
    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_full_rank_reconstruction(self, seed):
        coll = random_collection(
            seed=seed, n_tasks=3, layers=("l0",), d=9, m=5, rank=2
        )
        basis = build_variant_b(coll)
        got = assemble(basis, basis.init_phi(1.0))["l0"]
        want = coll.base["l0"] + sum(delta_weight(ad) for ad in coll.adapters["l0"])
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel <= 1e-10

    def test_phi_zero_is_base(self):
        coll = random_collection(seed=3)
        basis = build_variant_b(coll)
        assert_weights_close(assemble(basis, basis.init_phi(0.0)), coll.base, tol=0.0)

    def test_left_vectors_orthonormal(self):
        coll = random_collection(seed=4, layers=("l0",))
        basis = build_variant_b(coll)
        r = basis.counts["l0"] // coll.n_tasks
        lefts = np.stack(
            [basis.layers["l0"].directions[k].left for k in range(r)]
        )
        assert np.allclose(lefts @ lefts.T, np.eye(r), atol=1e-10)

    def test_components_are_the_svd_triplets(self):
        """Every component of task i is sigma_k u_k v_ki^T of the concatenation's
        SVD, at the default rank: the aggregate capacity N r."""
        coll = random_collection(seed=5, n_tasks=2, layers=("l0",), d=7, m=4, rank=2)
        stack = build_variant_b(coll).layers["l0"]
        u, s, vt = np.linalg.svd(np.hstack([delta_weight(ad) for ad in coll.adapters["l0"]]))
        assert stack.sigma.shape == (8,)
        for c in range(8):
            i, k = divmod(c, 4)
            got = stack.sigma[c] * np.outer(stack.left[:, c], stack.right[:, c])
            want = s[k] * np.outer(u[:, k], vt[k, i * 4 : (i + 1) * 4])
            assert np.max(np.abs(got - want)) <= 1e-10 * s[0]

    def test_assemble_linear_in_phi(self):
        coll = random_collection(seed=7, layers=("l0",))
        basis = build_variant_b(coll)
        gen = substream(7, "phi")
        phi = {"l0": gen.standard_normal(basis.counts["l0"])}
        twice = {"l0": 2.0 * phi["l0"]}
        w1 = assemble(basis, phi)["l0"] - coll.base["l0"]
        w2 = assemble(basis, twice)["l0"] - coll.base["l0"]
        assert np.allclose(w2, 2.0 * w1, atol=1e-10 * max(np.max(np.abs(w1)), 1.0))

    def test_phi_length_mismatch(self):
        coll = random_collection(seed=8, layers=("l0",))
        basis = build_variant_b(coll)
        with pytest.raises(CodedError, match=r"phi of shape \(3,\) does not end in"):
            assemble(basis, {"l0": np.zeros(3)})


class TestStch:
    def test_equal_residual_closed_form(self):
        for n in (2, 3, 5):
            rho = np.full(n, 1.0 / n)
            f = np.ones(n) * 2.0
            z = np.ones(n)
            # all terms t_i = rho_i |f_i - z_i| / alpha are equal, so
            # Psi = alpha * t + alpha * log n
            t = (1.0 / n) * 1.0
            want = 1.0 * t + 1.0 * np.log(n)
            assert _psi(f, z, rho, 1.0) == pytest.approx(want, abs=1e-12)

    def test_worked_example(self):
        got = _psi([1.0, 2.0], [0.0, 1.0], [0.5, 0.5], 1.0)
        assert got == pytest.approx(0.5 + np.log(2.0), abs=1e-12)

    def test_small_alpha_approaches_max(self):
        gen = substream(9, "stch")
        for _ in range(20):
            n = int(gen.integers(2, 6))
            rho = gen.dirichlet(np.ones(n))
            f = gen.uniform(0, 3, n)
            z = gen.uniform(0, 3, n)
            got = _psi(f, z, rho, 1e-4)
            want = float(np.max(rho * np.abs(f - z)))
            assert abs(got - want) <= 1e-3

    def test_one_hot_preference(self):
        got = _psi([2.0, 5.0], [0.0, 0.0], [1.0, 0.0], 1.0)
        want = np.log(np.exp(2.0) + 1.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert got >= 2.0

    @given(st.integers(0, 5000))
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_permutation_invariant(self, seed):
        gen = substream(seed, "stch-prop")
        n = int(gen.integers(2, 6))
        rho = gen.dirichlet(np.ones(n))
        f = gen.uniform(0, 3, n)
        z = gen.uniform(0, 3, n)
        base = _psi(f, z, rho, 1.0)
        # increasing one residual never decreases the objective
        i = int(gen.integers(0, n))
        f2 = f.copy()
        f2[i] = z[i] + abs(f[i] - z[i]) + 1.0
        assert _psi(f2, z, rho, 1.0) >= base - 1e-12
        # joint permutation leaves the value unchanged
        perm = gen.permutation(n)
        assert _psi(f[perm], z[perm], rho[perm], 1.0) == pytest.approx(
            base, abs=1e-12
        )

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 6), classes=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           alpha=st.floats(1e-3, 10.0), ends=st.booleans(), one_hot=st.booleans())
    def test_value_is_bounded(self, n, classes, seed, alpha, ends, one_hot):
        """With entropies and anchors in [0, log C] and rho on the simplex, every
        term of the sum lies in [1, e^(log C / alpha)], so the value lies in
        [alpha log N, alpha log N + log C]: no TARA objective can grow without
        bound. ends puts every f at log C and every z at 0."""
        gen = np.random.default_rng(seed)
        top = np.log(classes)
        f, z = (np.full(n, top), np.zeros(n)) if ends else gen.uniform(0, top, (2, n))
        rho = np.eye(n)[gen.integers(n)] if one_hot else gen.dirichlet(np.ones(n))
        lo = alpha * np.log(n)
        got = _psi(f, z, rho, alpha)
        assert lo * (1 - 1e-12) <= got <= (lo + top) * (1 + 1e-12)

    def test_alpha_must_be_positive(self):
        for alpha in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(CodedError, match="bad_config: alpha must be a finite number > 0"):
                StchConfig(alpha=alpha)


def _fd_gradient(value_and_grad, phi, layer, k, h=1e-5):
    pp = {l: v.copy() for l, v in phi.items()}
    pm = {l: v.copy() for l, v in phi.items()}
    pp[layer][k] += h
    pm[layer][k] -= h
    vp, _, _ = value_and_grad(pp)
    vm, _, _ = value_and_grad(pm)
    return (vp - vm) / (2 * h)


def _worst_fd_error(suite, coll, variant):
    """Largest relative error of d/dphi against central differences over 10
    random phi, scored on the first 16 rows of each of two pools. Entry k of
    variants A and B steps by 1e-5 / sigma_k, so every difference moves the
    weights by the same amount: a fixed step on a small-sigma component
    measures the difference's roundoff, not the gradient."""
    idx = _first_rows(2, 16)
    if variant == "adamerging":
        basis = tara.build_adamerging(coll)

        def value_and_grad(phi):
            return mean_entropy_value_and_grad(basis, phi, _scorer(suite, basis), idx)
    else:
        basis = build_variant_a(coll) if variant == "a" else build_variant_b(coll)
        stch = StchConfig(anchors=compute_anchors(coll, suite))
        rho = np.array([0.3, 0.7])

        def value_and_grad(phi):
            return stch_value_and_grad(basis, phi, _scorer(suite, basis), rho, stch, idx)
    layer = basis.layer_ids[0]
    steps = (np.full(basis.counts[layer], 1e-5) if variant == "adamerging"
             else 1e-5 / basis.layers[layer].sigma)
    worst = 0.0
    for trial in range(10):
        gen = substream(50 + trial, variant)
        phi = {l: gen.normal(0.4, 0.3, basis.counts[l]) for l in basis.layer_ids}
        _, grad, _ = value_and_grad(phi)
        for k in range(basis.counts[layer]):
            fd = _fd_gradient(value_and_grad, phi, layer, k, steps[k])
            denom = max(abs(fd), 1e-8)
            worst = max(worst, abs(grad[layer][k] - fd) / denom)
    return worst


class TestGradient:
    @pytest.mark.parametrize("variant", ["a", "b", "adamerging"])
    def test_matches_finite_differences(self, variant, small_suite):
        assert _worst_fd_error(*small_suite, variant) <= 1e-4

    @pytest.mark.parametrize("variant", ["a", "b", "adamerging"])
    def test_matches_finite_differences_at_nine_classes(self, variant, nine_class_suite):
        """At C >= 8 the class sums are pairwise in numpy's (..., B, C) reductions
        and sequential in the class-major ones; the gradient is exact either way."""
        assert _worst_fd_error(*nine_class_suite, variant) <= 1e-4

    def test_requires_anchors(self, small_suite):
        suite, coll = small_suite
        basis = build_variant_a(coll)
        with pytest.raises(CodedError, match="anchors must be computed"):
            stch_value_and_grad(basis, basis.init_phi(0.4), _scorer(suite, basis), [0.5, 0.5],
                                StchConfig(), _first_rows(2, 8))

    def test_deadband_at_anchor(self, small_suite):
        """When every entropy sits exactly at its anchor, the gradient is zero."""
        suite, coll = small_suite
        basis = build_variant_a(coll)
        phi = basis.init_phi(0.4)
        f, _ = _scorer(suite, basis)(tara._coefficients(basis, phi), _first_rows(2, 16))
        stch = StchConfig(anchors=f)
        _, grad, _ = stch_value_and_grad(basis, phi, _scorer(suite, basis), [0.5, 0.5], stch,
                                         _first_rows(2, 16))
        for layer in grad:
            assert np.all(grad[layer] == 0.0)

    @pytest.mark.parametrize("objective,extra,phi_rows,rho_rows", [
        ("stch", 3, 1, 1), ("stch", -1, 1, 1), ("stch", 3, 3, 3), ("stch", -1, 3, 3),
        ("stch", 0, 2, 3), ("mean_entropy", 3, 1, None), ("mean_entropy", -1, 1, None),
        ("mean_entropy", 3, 3, None), ("mean_entropy", -1, 3, None),
    ], ids=["stch-long", "stch-short", "stch-long-3", "stch-short-3", "stch-rows",
            "mean-long", "mean-short", "mean-long-3", "mean-short-3"])
    def test_objectives_refuse_misshapen_phi(self, small_suite, objective, extra, phi_rows,
                                             rho_rows):
        """A phi with entries to spare or missing, or with other rows than rho,
        is refused: never scored on a slice, never an IndexError."""
        suite, coll = small_suite
        basis = build_variant_a(coll)
        phi = {l: np.full((phi_rows, basis.counts[l] + extra), 0.4) for l in basis.layer_ids}
        idx = _first_rows(2, 8)
        with pytest.raises(CodedError, match="(phi|rho) of shape"):
            if objective == "stch":
                stch_value_and_grad(basis, phi, _scorer(suite, basis),
                                    np.full((rho_rows, 2), 0.5),
                                    StchConfig(anchors=np.zeros(2)), idx)
            else:
                mean_entropy_value_and_grad(basis, phi, _scorer(suite, basis), idx)


def _dense_step(basis, phi, suite, batches, dpsi_df):
    """The step through full weights, the reference for the factored one: per
    point, assemble W(phi), take each task's (d, m) weight gradient from the
    per-task reference, project it onto the columns and sum each phi entry's
    columns. Returns f and d/dphi."""
    points = range(len(phi[basis.layer_ids[0]]))
    dense = _PerTaskSuite(suite).dense_entropy_and_grad
    scored = [dense(assemble(basis, {l: p[j] for l, p in phi.items()}), batches) for j in points]
    f = np.stack([fp for fp, _ in scored])
    c = dpsi_df(f)
    grad = {}
    for layer in basis.layer_ids:
        grad[layer] = np.stack([
            np.bincount(basis.groups[layer],
                        basis.layers[layer].project(np.tensordot(cp, g[layer], 1)),
                        basis.counts[layer])
            for cp, (_, g) in zip(c, scored)
        ])
    return f, grad


def _random_head_suite(d, m, n_tasks=3):
    """A suite with random heads, scaled so the entropies sit inside (0, log C)."""
    suite = harness.generate_suite(seed=0, n_tasks=n_tasks, d=d, m=m, n_train=1, n_eval=1,
                                   n_adapt=32)
    suite.heads = substream(0, "heads").standard_normal((n_tasks, suite.config.n_classes, d)) / d
    return suite


class TestFactoredStep:
    """The factored step scores and differentiates phi through X right and
    H left; it matches the dense step to rounding."""

    @pytest.mark.parametrize("dims", [(32, 24), (128, 128)], ids=["toy", "wide"])
    @pytest.mark.parametrize("points", [1, 3])
    @pytest.mark.parametrize("variant", ["a", "b", "adamerging"])
    def test_matches_dense_step(self, variant, points, dims):
        suite = _random_head_suite(*dims)
        coll = random_collection(seed=1, n_tasks=3, layers=("layer0",), d=dims[0], m=dims[1],
                                 rank=4)
        basis = _BUILDERS[variant](coll)
        gen = substream(2, variant, points)
        phi = {l: gen.normal(0.4, 0.3, (points, basis.counts[l])) for l in basis.layer_ids}
        batches, idx = suite.adapt_x[:, :16], _first_rows(3, 16)
        if variant == "adamerging":
            _, grad, f = mean_entropy_value_and_grad(basis, phi, _scorer(suite, basis), idx)
            dpsi_df = lambda f: np.full(f.shape, 1.0 / 3)
        else:
            rho = gen.dirichlet(np.ones(3), points)
            stch = StchConfig(anchors=compute_anchors(coll, suite))
            _, grad, f = stch_value_and_grad(basis, phi, _scorer(suite, basis), rho, stch, idx)
            dpsi_df = lambda f: tara._stch(f, stch.anchors, rho, stch.alpha)[1]
        want_f, want_grad = _dense_step(basis, phi, suite, batches, dpsi_df)
        assert f.shape == want_f.shape == (points, 3)
        assert np.max(np.abs(f - want_f)) <= 1e-12 * np.max(np.abs(want_f))
        for layer in basis.layer_ids:
            assert grad[layer].shape == want_grad[layer].shape
            err = np.max(np.abs(grad[layer] - want_grad[layer]))
            assert err <= 1e-12 * np.max(np.abs(want_grad[layer]))

    def test_scorer_refuses_wrong_batch_count(self, small_suite):
        suite, coll = small_suite
        basis = build_variant_a(coll)
        with pytest.raises(CodedError, match="3 batches for a scorer of 2 tasks"):
            _scorer(suite, basis)(tara._coefficients(basis, basis.init_phi(0.4)),
                                  _first_rows(3, 4))

    @settings(max_examples=60, deadline=None)
    @given(variant=st.sampled_from(["a", "b", "adamerging"]), points=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), repeats=st.booleans())
    def test_bits_match_the_reference_scorer(self, default_suite, variant, points, seed,
                                             repeats):
        """Gathering rows of the per-run pool products and scoring class-major
        logits keeps every bit of the per-batch scorer on the gathered batches,
        at the default 5 classes and 16 rows, with rows repeated or not."""
        suite, coll = default_suite
        basis = _BUILDERS[variant](coll)
        pools = suite.adapt_x
        gen = np.random.default_rng(seed)
        idx = gen.integers(0, 3 if repeats else pools.shape[1], (coll.n_tasks, 16))
        coef = tara._coefficients(
            basis, {l: gen.normal(0.4, 0.3, (points, basis.counts[l])) for l in basis.layer_ids})
        f, grad = suite.factor_scorer(basis.base, basis.layers, pools)(coef, idx)
        want_f, want_grad = reference_factor_scorer(suite, basis.base, basis.layers,
                                                    coll.n_tasks)(
            coef, pools[np.arange(coll.n_tasks)[:, None], idx])
        assert np.array_equal(f, want_f)
        assert np.array_equal(grad["layer0"], want_grad["layer0"])

    @pytest.mark.parametrize("variant", ["a", "b", "adamerging"])
    def test_nine_classes_match_the_reference_scorer_to_rounding(self, nine_class_suite,
                                                                 variant):
        suite, coll = nine_class_suite
        basis = _BUILDERS[variant](coll)
        pools = suite.adapt_x
        idx = substream(3, "rows").integers(0, pools.shape[1], (2, 16))
        coef = tara._coefficients(basis, {l: substream(4, variant).normal(
            0.4, 0.3, (2, basis.counts[l])) for l in basis.layer_ids})
        f, grad = _scorer(suite, basis)(coef, idx)
        want_f, want_grad = reference_factor_scorer(suite, basis.base, basis.layers, 2)(
            coef, pools[np.arange(2)[:, None], idx])
        assert np.max(np.abs(f - want_f)) <= 1e-12 * np.max(np.abs(want_f))
        err = np.max(np.abs(grad["layer0"] - want_grad["layer0"]))
        assert err <= 1e-12 * np.max(np.abs(want_grad["layer0"]))


class TestAnchors:
    def test_single_adapter_applied(self, small_suite):
        suite, coll = small_suite
        z = compute_anchors(coll, suite)
        assert z.shape == (2,)
        for i in range(2):
            w = coll.base["layer0"] + delta_weight(coll.adapters["layer0"][i])
            want, _ = _per_task_entropy_and_grad(suite.heads[i], w, suite.adapt_x[i])
            assert z[i] == pytest.approx(want, abs=1e-15)

    def test_anchor_not_above_base_entropy(self, small_suite):
        """A fine-tuned adapter should be at least as confident as the base."""
        suite, coll = small_suite
        z = compute_anchors(coll, suite)
        for i in range(2):
            base_ent, _ = _per_task_entropy_and_grad(suite.heads[i], coll.base["layer0"],
                                                     suite.adapt_x[i])
            assert z[i] <= base_ent + 1e-9


class TestScorerCalls:
    """Every optimizer step, the anchors and a diagnostic Jacobian score through
    the one method TaskSuite.entropy_and_grad, which the benchmark's tracer wraps on the
    class: a counting wrapper installed there sees every call."""

    def test_steps_go_through_the_method(self, small_suite, monkeypatch):
        suite, coll = small_suite
        calls, real = [], harness.TaskSuite.entropy_and_grad

        @functools.wraps(real)
        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness.TaskSuite, "entropy_and_grad", counting)
        stch = StchConfig(anchors=compute_anchors(coll, suite))
        assert len(calls) == 1
        optimize(build_variant_b(coll), suite, [[0.5, 0.5], [0.9, 0.1]], OptimConfig(iters=7),
                 stch)
        assert len(calls) == 1 + 7
        diagnostics.ta_jacobian(coll, suite, "layer0", 0.3)
        assert len(calls) == 1 + 7 + 1


class TestOptimize:
    def test_first_step_closed_form(self):
        """One AdamW step with constant gradient g moves phi by lr * g/(|g|+eps)
        after bias correction."""
        phi = {"l": np.array([0.4, 0.4])}
        g = {"l": np.array([2.0, -3.0])}
        m = {"l": np.zeros(2)}
        v = {"l": np.zeros(2)}
        tara.adamw_step(phi, g, m, v, 1, 0.001)
        want = 0.4 - 0.001 * g["l"] / (np.abs(g["l"]) + tara.ADAM_EPS)
        assert np.allclose(phi["l"], want, atol=1e-12)

    def test_deterministic(self, small_suite):
        suite, coll = small_suite
        rho = np.array([0.5, 0.5])
        cfg = OptimConfig(iters=20, seed=3)
        stch = StchConfig(anchors=compute_anchors(coll, suite))
        basis = build_variant_a(coll)
        phi1, tr1 = optimize(basis, suite, rho, cfg, stch)
        phi2, tr2 = optimize(basis, suite, rho, cfg, stch)
        for layer in phi1:
            assert np.array_equal(phi1[layer], phi2[layer])
        assert np.array_equal(tr1.objective, tr2.objective)

    def test_trace_recorded(self, small_suite):
        suite, coll = small_suite
        cfg = OptimConfig(iters=15, seed=0)
        stch = StchConfig(anchors=compute_anchors(coll, suite))
        basis = build_variant_b(coll)
        _, trace = optimize(basis, suite, np.array([0.5, 0.5]), cfg, stch)
        assert np.array_equal(trace.steps, np.arange(15))
        assert trace.objective.shape == (15, 1) and trace.per_task.shape == (15, 1, 2)
        assert np.isfinite(trace.objective).all()
        point = trace.point(0)  # column views
        assert point.objective.shape == (15,) and point.per_task.shape == (15, 2)
        assert np.shares_memory(point.per_task, trace.per_task)

    def test_objective_decreases(self, small_suite):
        suite, coll = small_suite
        cfg = OptimConfig(iters=150, seed=1)
        stch = StchConfig(anchors=compute_anchors(coll, suite))
        basis = build_variant_b(coll)
        _, trace = optimize(basis, suite, np.array([0.5, 0.5]), cfg, stch)
        head = np.mean(trace.objective[:20])
        tail = np.mean(trace.objective[-20:])
        assert tail <= head + 1e-9

    @pytest.mark.parametrize(
        "field,value",
        [("lr", 0.0), ("lr", float("nan")), ("lr", "0.1"), ("batch_size", 0), ("batch_size", 2.0), ("iters", 0), ("iters", -5),
         ("seed", 2.7), ("seed", "x")],
    )
    def test_config_out_of_range(self, field, value):
        with pytest.raises(CodedError) as exc:
            OptimConfig(**{field: value})
        assert exc.value.code == "bad_config" and field in str(exc.value)

    def test_stch_without_anchors(self, small_suite):
        suite, coll = small_suite
        with pytest.raises(CodedError, match="anchors"):
            optimize(build_variant_a(coll), suite, [0.5, 0.5], OptimConfig(iters=1))

    @pytest.mark.parametrize("build", [build_variant_a, tara.build_adamerging],
                             ids=["stch", "mean_entropy"])
    def test_nan_entropy_aborts(self, build):
        basis = build(random_collection(seed=21, n_tasks=2))
        stch = StchConfig(anchors=np.zeros(2))
        with pytest.raises(NumericalAbort, match="non-finite entropy"):
            optimize(basis, _ConstantSuite(np.nan), [0.5, 0.5],
                     OptimConfig(iters=3), stch)

    def test_public_objectives_refuse_nan_entropy(self):
        basis = build_variant_a(random_collection(seed=21, n_tasks=2))
        phi, idx = basis.init_phi(0.5), _first_rows(2, 4)
        stch = StchConfig(anchors=np.zeros(2))
        for run in (
            lambda: stch_value_and_grad(basis, phi, _scorer(_ConstantSuite(np.nan), basis),
                                        [0.5, 0.5], stch, idx),
            lambda: mean_entropy_value_and_grad(basis, phi,
                                                _scorer(_ConstantSuite(np.inf), basis), idx),
        ):
            with pytest.raises(NumericalAbort, match="non-finite entropy"):
                run()

    def test_nan_entropy_names_its_point(self, small_suite):
        """A non-finite entropy in row j of the loop names point j."""
        suite, coll = small_suite

        class NanInRow1:
            n_tasks, adapt_x = suite.n_tasks, suite.adapt_x

            def factor_scorer(self, *args):
                score = suite.factor_scorer(*args)

                def nan_in_row_1(coef, idx):
                    f, grads = score(coef, idx)
                    f[1, 0] = np.nan
                    return f, grads

                return nan_in_row_1

        rhos = [[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]]
        stch = StchConfig(anchors=compute_anchors(coll, suite))
        with pytest.raises(NumericalAbort, match="entropy encountered at point 1, step 0"):
            optimize(build_variant_a(coll), NanInRow1(), rhos, OptimConfig(iters=3), stch)

    def test_nan_anchors_abort_before_step_0(self):
        """Step 0 would abort on the NaN entropy; the anchors are checked first."""
        basis = build_variant_a(random_collection(seed=22, n_tasks=2))
        stch = StchConfig(anchors=np.full(2, np.nan))
        with pytest.raises(NumericalAbort, match="non-finite anchors"):
            optimize(basis, _ConstantSuite(np.nan), [0.5, 0.5], OptimConfig(iters=3),
                     stch)


def _earlier_coefficients(basis, phi):
    """tara._coefficients before variants A and B skipped their identity take."""
    return {l: basis.layers[l].sigma * np.take(np.asarray(phi[l], dtype=np.float64),
                                                basis.groups[l], axis=-1)
            for l in basis.layer_ids}


def _earlier_stch(f, z, rho, alpha):
    """tara._stch with a new array per operation and the .max/.sum wrappers."""
    r = f - z
    t = rho * np.abs(r) / alpha
    tmax = t.max(axis=-1, keepdims=True)
    e = np.exp(t - tmax)
    total = e.sum(axis=-1, keepdims=True)
    grad = e / total * rho * np.sign(r)
    np.copyto(grad, 0.0, where=np.abs(r) < tara.RESIDUAL_DEADBAND)
    return alpha * (tmax + np.log(total))[..., 0], grad


def _bincount_phi_gradient(basis, col_grads, dpsi_df):
    """tara._phi_gradient with every variant's groups summed by one np.bincount."""
    c = dpsi_df.reshape(-1, 1, dpsi_df.shape[-1])
    out = {}
    for layer in basis.layer_ids:
        g, k = col_grads[layer], basis.counts[layer]
        cols = basis.layers[layer].sigma * (c @ g.reshape(len(c), *g.shape[-2:]))[:, 0]
        bins = basis.groups[layer] + k * np.arange(len(c))[:, None]
        out[layer] = np.bincount(bins.ravel(), cols.ravel(),
                                 len(c) * k).reshape(dpsi_df.shape[:-1] + (k,))
    return out


def _reference_optimize(basis, suite, rho, cfg, stch):
    """optimize as first written, without its guards: the per-batch reference
    scorer, the earlier step above, an Adam that allocates new arrays, and task
    i's batch at each step taken from that step's row of an (iters, B) draw of its
    own (seed, "batch", i) substream. Returns phi and the objective and per-task
    rows of every step."""
    n = basis.n_tasks
    mean_entropy = basis.variant == "adamerging"
    rho = np.atleast_2d(np.asarray(np.full(n, 1 / n) if mean_entropy else rho, float))
    pools = suite.adapt_x[:n]
    score = reference_factor_scorer(suite, basis.base, basis.layers, n)
    init = basis.init_phi(tara.ADAMERGING_PHI_INIT if mean_entropy else tara.PHI_INIT)
    phi = {l: np.tile(p, (len(rho), 1)) for l, p in init.items()}
    m = {l: np.zeros_like(p) for l, p in phi.items()}
    v = {l: np.zeros_like(p) for l, p in phi.items()}
    b1, b2 = tara.ADAM_BETAS
    rows = [substream(cfg.seed, "batch", i).integers(0, pools.shape[1],
                                                     (cfg.iters, cfg.batch_size))
            for i in range(n)]
    objective, per_task = [], []
    for step in range(cfg.iters):
        batches = np.stack([pools[i][rows[i][step]] for i in range(n)])
        f, col_grads = score(_earlier_coefficients(basis, phi), batches)
        if mean_entropy:
            value, dpsi_df = np.mean(f, axis=-1), np.full(f.shape, 1.0 / n)
        else:
            value, dpsi_df = _earlier_stch(f, stch.anchors, rho, stch.alpha)
        objective.append(value)
        per_task.append(np.array(f))
        grad = _bincount_phi_gradient(basis, col_grads, dpsi_df)
        for layer, g in grad.items():
            m[layer] = b1 * m[layer] + (1 - b1) * g
            v[layer] = b2 * v[layer] + (1 - b2) * g * g
            mhat = m[layer] / (1 - b1 ** (step + 1))
            vhat = v[layer] / (1 - b2 ** (step + 1))
            phi[layer] = phi[layer] - cfg.lr * (mhat / (np.sqrt(vhat) + tara.ADAM_EPS))
    return phi, objective, per_task


class TestWholeLoop:
    """optimize keeps every bit of the reference loop, scored by the per-batch
    reference scorer. AdaMerging ignores rho and always runs one point."""

    @pytest.mark.parametrize("variant,points", [("a", 1), ("a", 3), ("b", 1), ("b", 3),
                                                ("adamerging", 1)])
    def test_matches_reference_loop(self, default_suite, variant, points):
        suite, coll = default_suite
        basis = _BUILDERS[variant](coll)
        cfg = OptimConfig(iters=30, seed=7)
        rho = substream(8, variant, points).dirichlet(np.ones(coll.n_tasks), points)
        stch = StchConfig(anchors=compute_anchors(coll, suite))
        phi, trace = optimize(basis, suite, rho, cfg, stch)
        want_phi, want_objective, want_per_task = _reference_optimize(basis, suite, rho, cfg,
                                                                      stch)
        for layer in basis.layer_ids:
            assert np.array_equal(phi[layer], want_phi[layer])
        assert np.array_equal(trace.steps, np.arange(cfg.iters))
        assert np.array_equal(trace.objective, want_objective)
        assert np.array_equal(trace.per_task, want_per_task)


class TestEarlierStep:
    """The lean step (no identity take or bincount for variants A and B, _stch
    and Adam updating scratch arrays in place) keeps every bit of the earlier one."""

    @pytest.mark.parametrize("variant,points", [("a", 1), ("b", 1), ("adamerging", 1),
                                                ("b", 3)])
    def test_optimize_matches_the_earlier_loop(self, default_suite, variant, points):
        """The reference loop at alpha = 0.7, where dividing by alpha rounds."""
        suite, coll = default_suite
        basis = _BUILDERS[variant](coll)
        cfg = OptimConfig(iters=40, seed=5)
        rho = substream(6, variant, points).dirichlet(np.ones(coll.n_tasks), points)
        stch = StchConfig(alpha=0.7, anchors=compute_anchors(coll, suite))
        phi, trace = optimize(basis, suite, rho, cfg, stch)
        want_phi, want_objective, want_per_task = _reference_optimize(basis, suite, rho, cfg,
                                                                      stch)
        for layer in basis.layer_ids:
            assert np.array_equal(phi[layer], want_phi[layer])
        assert np.array_equal(trace.objective, want_objective)
        assert np.array_equal(trace.per_task, want_per_task)

    @settings(max_examples=60, deadline=None)
    @given(variant=st.sampled_from(["a", "b", "adamerging"]), points=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1), zeros=st.booleans())
    def test_identity_groups_match_the_bincount(self, variant, points, seed, zeros):
        """Variants A and B skip the bincount of their identity groups; with some
        gradients zero (a deadband row), the sums still equal the bincount's."""
        coll = random_collection(seed=seed % 7, n_tasks=3, layers=("l0", "l1"), rank=2)
        basis = _BUILDERS[variant](coll)
        gen = np.random.default_rng(seed)
        k = {l: basis.layers[l].sigma.size for l in basis.layer_ids}
        col_grads = {l: gen.normal(size=(points, 3, k[l])) for l in basis.layer_ids}
        dpsi_df = gen.normal(size=(points, 3))
        if zeros:
            dpsi_df[0] = 0.0
        got = tara._phi_gradient(basis, col_grads, dpsi_df)
        want = _bincount_phi_gradient(basis, col_grads, dpsi_df)
        for layer in basis.layer_ids:
            assert got[layer].shape == want[layer].shape == (points, basis.counts[layer])
            assert np.array_equal(got[layer], want[layer])


class TestSweep:
    @pytest.mark.parametrize("variant", ["a", "b"])
    def test_points_match_merge_tara(self, small_suite, variant):
        """Each of P points keeps the bits of its own one-point run."""
        suite, coll = small_suite
        cfg = OptimConfig(iters=25, seed=4)
        rhos = [np.array([0.5, 0.5]), np.array([0.9, 0.1]), np.array([0.2, 0.8])]
        points = list(tara.merge(coll, suite, rhos, variant=variant, optim=cfg))
        assert len(points) == len(rhos)
        for rho, (weights, phi, trace) in zip(rhos, points):
            [(want_w, want_phi, want_trace)] = tara.merge(
                coll, suite, [rho], variant=variant, optim=cfg
            )
            for layer in coll.layer_ids:
                assert np.array_equal(weights[layer], want_w[layer])
                assert np.array_equal(phi[layer], want_phi[layer])
            assert np.array_equal(trace.objective, want_trace.objective)
            assert np.array_equal(trace.per_task, want_trace.per_task)

    @pytest.mark.parametrize("variant", ["a", "b"])
    def test_points_match_merge_tara_at_default_size(self, default_suite, variant):
        """At the default suite's sizes a single GEMM over all P points' rows
        would pick another BLAS kernel than one point's GEMM does; each point
        must still keep the bits of its own run."""
        suite, coll = default_suite
        cfg = OptimConfig(iters=10, seed=4)
        rhos = [np.full(4, 0.25), np.array([0.7, 0.1, 0.1, 0.1]), np.array([0.1, 0.2, 0.3, 0.4])]
        points = tara.merge(coll, suite, rhos, variant=variant, optim=cfg)
        for rho, (weights, phi, trace) in zip(rhos, points, strict=True):
            [(want_w, want_phi, want_trace)] = tara.merge(coll, suite, [rho], variant=variant,
                                                          optim=cfg)
            assert np.array_equal(weights["layer0"], want_w["layer0"])
            assert np.array_equal(phi["layer0"], want_phi["layer0"])
            assert np.array_equal(trace.objective, want_trace.objective)

    def test_unknown_variant_is_refused_before_anchors(self, small_suite, monkeypatch):
        suite, coll = small_suite
        calls = []
        monkeypatch.setattr(tara, "compute_anchors", lambda *args: calls.append(args))
        with pytest.raises(CodedError, match="unknown variant 'c'"):
            next(tara.merge(coll, suite, [np.array([0.5, 0.5])], variant="c"))
        assert calls == []

    def test_adamerging_is_one_point_without_anchors(self, small_suite, monkeypatch):
        suite, coll = small_suite
        calls = []
        monkeypatch.setattr(tara, "compute_anchors", lambda *args: calls.append(args))
        rhos = [np.array([0.5, 0.5]), np.array([0.9, 0.1])]
        points = list(tara.merge(coll, suite, rhos, "adamerging", OptimConfig(iters=2)))
        assert len(points) == 1 and calls == []

    def test_schedule_matches_streams(self, small_suite):
        suite, _ = small_suite
        cfg = OptimConfig(iters=5, batch_size=7, seed=9)
        idx = tara.batch_schedule(suite.adapt_x, cfg)
        assert idx.shape == (5, 2, 7)
        for i in range(2):
            want = substream(9, "batch", i).integers(0, suite.config.n_adapt, (5, 7))
            assert np.array_equal(idx[:, i], want)


class _ConstantSuite:
    """Suite stand-in whose scorer gives a fixed entropy and zero column gradients."""

    n_tasks, adapt_x = 2, np.zeros((2, 4, 6))

    def __init__(self, entropy):
        self.entropy = entropy

    def factor_scorer(self, base, stacks, pools):
        n = len(pools)

        def score(coef, idx):
            lead = next(iter(coef.values())).shape[:-1]
            return np.full(lead + (n,), self.entropy), {
                l: np.zeros(c.shape[:-1] + (n, c.shape[-1])) for l, c in coef.items()
            }

        return score


class TestSuiteOrder:
    """Suite row i scores suite task i, so TARA and AdaMerging refuse a collection
    that is not the suite's first n tasks in order, n at most the suite's N."""

    @pytest.mark.parametrize("tasks", [["task1"], ["task1", "task0"],
                                       ["task0", "task1", "task2"]],
                             ids=["second", "reordered", "more_than_the_suite"])
    def test_rejected(self, small_suite, tasks):
        suite, _ = small_suite
        coll = random_collection(seed=0, n_tasks=3, layers=("layer0",), d=12, m=10, rank=4)
        sub = sub_collection(coll, tasks)
        rho = np.full(len(tasks), 1.0 / len(tasks))
        cfg = OptimConfig(iters=1)
        for run in (
            lambda: compute_anchors(sub, suite),
            lambda: optimize(build_variant_a(sub), suite, rho, cfg,
                             StchConfig(anchors=np.zeros(len(tasks)))),
            lambda: list(tara.merge(sub, suite, None, "adamerging", cfg)),
        ):
            with pytest.raises(CodedError) as exc:
                run()
            assert exc.value.code == "task_order"


class TestAdamerging:
    def test_init_point_is_scaled_sum(self, small_suite):
        suite, coll = small_suite
        basis = tara.build_adamerging(coll)
        got = assemble(basis, basis.init_phi(0.3))
        assert_weights_close(got, mergers.merge_ta(coll, 0.3), tol=1e-12)

    def test_mean_entropy_descends(self, small_suite):
        suite, coll = small_suite
        cfg = OptimConfig(iters=100, seed=2)
        [(_, _, trace)] = tara.merge(coll, suite, None, "adamerging", cfg)
        assert np.mean(trace.objective[-10:]) <= trace.objective[0] + 1e-9

    def test_zero_adapters_stay_base(self):
        coll = random_collection(seed=20, layers=("l0",), d=6, m=5, rank=2)
        from loramerge.adapters import AdapterCollection, LoraAdapter

        zeros = [
            LoraAdapter(t, "l0", np.zeros((6, 2)), np.zeros((5, 2)), 2)
            for t in coll.task_ids
        ]
        zc = AdapterCollection(
            layer_ids=["l0"], task_ids=coll.task_ids, base=coll.base,
            adapters={"l0": zeros},
        )
        basis = tara.build_adamerging(zc)
        got = assemble(basis, basis.init_phi(0.7))
        assert np.array_equal(got["l0"], coll.base["l0"])
