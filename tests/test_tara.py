import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_collection, assert_weights_close
from loramerge import harness, mergers, tara
from loramerge.adapters import delta_weight
from loramerge.rng import substream
from loramerge.tara import (
    OptimConfig,
    StchConfig,
    TaraError,
    adamerging_baseline,
    assemble,
    build_variant_a,
    build_variant_b,
    compute_anchors,
    mean_entropy_value_and_grad,
    optimize,
    stch_objective,
    stch_value_and_grad,
)


class TestVariantA:
    def test_direction_count(self):
        coll = random_collection(seed=0, n_tasks=2, rank=4)
        basis = build_variant_a(coll)
        for layer in basis.layer_ids:
            assert basis.k(layer) == 8

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
        phi = {"l0": np.zeros(basis.k("l0"))}
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
        r = basis.k("l0") // coll.n_tasks
        lefts = np.stack(
            [basis.layers["l0"].directions[k].left for k in range(r)]
        )
        assert np.allclose(lefts @ lefts.T, np.eye(r), atol=1e-10)

    def test_rank_one_matches_top_singular_triplet(self):
        coll = random_collection(seed=5, n_tasks=2, layers=("l0",), d=7, m=4, rank=2)
        basis = build_variant_b(coll, shared_rank=1)
        deltas = [delta_weight(ad) for ad in coll.adapters["l0"]]
        u, s, vt = np.linalg.svd(np.hstack(deltas), full_matrices=False)
        for i in range(2):
            comp = basis.layers["l0"].directions[i]
            want = s[0] * np.outer(u[:, 0], vt[0, i * 4 : (i + 1) * 4])
            assert np.allclose(comp.matrix(), want, atol=1e-9 * s[0])

    def test_rank_exceeds_spectrum(self):
        coll = random_collection(seed=6, layers=("l0",), d=6, m=4, rank=2)
        with pytest.raises(TaraError):
            build_variant_b(coll, shared_rank=7)

    def test_assemble_linear_in_phi(self):
        coll = random_collection(seed=7, layers=("l0",))
        basis = build_variant_b(coll)
        gen = substream(7, "phi")
        phi = {"l0": gen.standard_normal(basis.k("l0"))}
        twice = {"l0": 2.0 * phi["l0"]}
        w1 = assemble(basis, phi)["l0"] - coll.base["l0"]
        w2 = assemble(basis, twice)["l0"] - coll.base["l0"]
        assert np.allclose(w2, 2.0 * w1, atol=1e-10 * max(np.max(np.abs(w1)), 1.0))

    def test_phi_length_mismatch(self):
        coll = random_collection(seed=8, layers=("l0",))
        basis = build_variant_b(coll)
        with pytest.raises(TaraError):
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
            assert stch_objective(f, z, rho, 1.0) == pytest.approx(want, abs=1e-12)

    def test_worked_example(self):
        got = stch_objective([1.0, 2.0], [0.0, 1.0], [0.5, 0.5], 1.0)
        assert got == pytest.approx(0.5 + np.log(2.0), abs=1e-12)

    def test_small_alpha_approaches_max(self):
        gen = substream(9, "stch")
        for _ in range(20):
            n = int(gen.integers(2, 6))
            rho = gen.dirichlet(np.ones(n))
            f = gen.uniform(0, 3, n)
            z = gen.uniform(0, 3, n)
            got = stch_objective(f, z, rho, 1e-4)
            want = float(np.max(rho * np.abs(f - z)))
            assert abs(got - want) <= 1e-3

    def test_one_hot_preference(self):
        got = stch_objective([2.0, 5.0], [0.0, 0.0], [1.0, 0.0], 1.0)
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
        base = stch_objective(f, z, rho, 1.0)
        # increasing one residual never decreases the objective
        i = int(gen.integers(0, n))
        f2 = f.copy()
        f2[i] = z[i] + abs(f[i] - z[i]) + 1.0
        assert stch_objective(f2, z, rho, 1.0) >= base - 1e-12
        # joint permutation leaves the value unchanged
        perm = gen.permutation(n)
        assert stch_objective(f[perm], z[perm], rho[perm], 1.0) == pytest.approx(
            base, abs=1e-12
        )

    def test_alpha_must_be_positive(self):
        for alpha in (0.0, float("nan"), float("inf")):
            with pytest.raises(TaraError):
                stch_objective([1.0], [0.0], [1.0], alpha)
        with pytest.raises(TaraError):
            StchConfig(alpha=-1.0)
        with pytest.raises(TaraError):
            StchConfig(alpha=float("nan"))


def _fd_gradient(value_and_grad, phi, layer, k, h=1e-5):
    pp = {l: v.copy() for l, v in phi.items()}
    pm = {l: v.copy() for l, v in phi.items()}
    pp[layer][k] += h
    pm[layer][k] -= h
    vp, _, _ = value_and_grad(pp)
    vm, _, _ = value_and_grad(pm)
    return (vp - vm) / (2 * h)


class TestGradient:
    @pytest.mark.parametrize("variant", ["a", "b", "adamerging"])
    def test_matches_finite_differences(self, variant, small_suite):
        suite, coll = small_suite
        batches = np.stack([suite.adaptation_pool(i)[:16] for i in range(2)])
        if variant == "adamerging":
            basis = tara.build_adamerging(coll)

            def value_and_grad(phi):
                return mean_entropy_value_and_grad(basis, phi, suite, batches)
        else:
            basis = (
                build_variant_a(coll) if variant == "a" else build_variant_b(coll, 4)
            )
            stch = StchConfig(anchors=compute_anchors(coll, suite))
            rho = np.array([0.3, 0.7])

            def value_and_grad(phi):
                return stch_value_and_grad(basis, phi, suite, rho, stch, batches)
        worst = 0.0
        for trial in range(10):
            gen = substream(50 + trial, variant)
            phi = {l: gen.normal(0.4, 0.3, basis.k(l)) for l in basis.layer_ids}
            _, grad, _ = value_and_grad(phi)
            layer = basis.layer_ids[0]
            for k in range(basis.k(layer)):
                fd = _fd_gradient(value_and_grad, phi, layer, k)
                denom = max(abs(fd), 1e-8)
                worst = max(worst, abs(grad[layer][k] - fd) / denom)
        assert worst <= 1e-4

    def test_requires_anchors(self, small_suite):
        suite, coll = small_suite
        basis = build_variant_a(coll)
        batches = np.stack([suite.adaptation_pool(i)[:8] for i in range(2)])
        with pytest.raises(TaraError):
            stch_value_and_grad(
                basis, basis.init_phi(0.4), suite, [0.5, 0.5], StchConfig(), batches
            )

    def test_deadband_at_anchor(self, small_suite):
        """When every entropy sits exactly at its anchor, the gradient is zero."""
        suite, coll = small_suite
        basis = build_variant_a(coll)
        phi = basis.init_phi(0.4)
        batches = np.stack([suite.adaptation_pool(i)[:16] for i in range(2)])
        f, _ = suite.entropy_and_grad(assemble(basis, phi), batches)
        stch = StchConfig(anchors=f)
        _, grad, _ = stch_value_and_grad(basis, phi, suite, [0.5, 0.5], stch, batches)
        for layer in grad:
            assert np.all(grad[layer] == 0.0)


class TestAnchors:
    def test_single_adapter_applied(self, small_suite):
        suite, coll = small_suite
        z = compute_anchors(coll, suite)
        assert z.shape == (2,)
        pools = np.stack([suite.adaptation_pool(i) for i in range(2)])
        for i in range(2):
            weights = {
                l: coll.base[l] + delta_weight(coll.adapters[l][i])
                for l in coll.layer_ids
            }
            want, _ = suite.entropy_and_grad(weights, pools)
            assert z[i] == pytest.approx(want[i], abs=1e-15)

    def test_anchor_not_above_base_entropy(self, small_suite):
        """A fine-tuned adapter should be at least as confident as the base."""
        suite, coll = small_suite
        z = compute_anchors(coll, suite)
        pools = np.stack([suite.adaptation_pool(i) for i in range(2)])
        base_ent, _ = suite.entropy_and_grad(dict(coll.base), pools)
        for i in range(2):
            assert z[i] <= base_ent[i] + 1e-9


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
        cfg = OptimConfig(max_iters=20, seed=3)
        stch = StchConfig(anchors=compute_anchors(coll, suite))
        basis = build_variant_a(coll)
        phi1, tr1 = optimize(basis, suite, rho, cfg, stch)
        phi2, tr2 = optimize(basis, suite, rho, cfg, stch)
        for layer in phi1:
            assert np.array_equal(phi1[layer], phi2[layer])
        assert tr1.objective == tr2.objective

    def test_trace_recorded(self, small_suite):
        suite, coll = small_suite
        cfg = OptimConfig(max_iters=15, seed=0)
        stch = StchConfig(anchors=compute_anchors(coll, suite))
        basis = build_variant_b(coll, 4)
        _, trace = optimize(basis, suite, np.array([0.5, 0.5]), cfg, stch)
        assert trace.steps == list(range(15))
        assert all(np.isfinite(v) for v in trace.objective)

    def test_objective_decreases(self, small_suite):
        suite, coll = small_suite
        cfg = OptimConfig(max_iters=150, seed=1)
        stch = StchConfig(anchors=compute_anchors(coll, suite))
        basis = build_variant_b(coll, 4)
        _, trace = optimize(basis, suite, np.array([0.5, 0.5]), cfg, stch)
        head = np.mean(trace.objective[:20])
        tail = np.mean(trace.objective[-20:])
        assert tail <= head + 1e-9

    @pytest.mark.parametrize(
        "field,value",
        [("lr", 0.0), ("lr", float("nan")), ("lr", "0.1"), ("batch_size", 0), ("batch_size", 2.0), ("max_iters", 0), ("max_iters", -5),
         ("seed", 2.7), ("seed", "x")],
    )
    def test_config_out_of_range(self, field, value):
        with pytest.raises(TaraError) as exc:
            OptimConfig(**{field: value})
        assert exc.value.code == "bad_config" and field in str(exc.value)

    def test_stch_without_anchors(self, small_suite):
        suite, coll = small_suite
        with pytest.raises(TaraError, match="anchors"):
            optimize(build_variant_a(coll), suite, [0.5, 0.5], OptimConfig(max_iters=1))

    @pytest.mark.parametrize("build", [build_variant_a, tara.build_adamerging],
                             ids=["stch", "mean_entropy"])
    def test_nan_entropy_aborts(self, build):
        basis = build(random_collection(seed=21, n_tasks=2))
        stch = StchConfig(anchors=np.zeros(2))
        with pytest.raises(TaraError, match="non-finite entropy"):
            optimize(basis, _ConstantSuite(np.nan), [0.5, 0.5],
                     OptimConfig(max_iters=3), stch)

    def test_public_objectives_refuse_nan_entropy(self):
        basis = build_variant_a(random_collection(seed=21, n_tasks=2))
        phi, batches = basis.init_phi(0.5), np.zeros((2, 4, 6))
        stch = StchConfig(anchors=np.zeros(2))
        for run in (
            lambda: stch_value_and_grad(basis, phi, _ConstantSuite(np.nan), [0.5, 0.5],
                                        stch, batches),
            lambda: mean_entropy_value_and_grad(basis, phi, _ConstantSuite(np.inf), batches),
        ):
            with pytest.raises(tara.TaraAbort, match="non-finite entropy"):
                run()

    def test_nan_entropy_names_its_point(self, small_suite):
        """Row j of a loop whose first row is point `first` is point first + j."""
        suite, coll = small_suite

        class NanInRow1:
            adaptation_pool = suite.adaptation_pool

            def entropy_and_grad(self, weights, batches):
                f, grads = suite.entropy_and_grad(weights, batches)
                f[1, 0] = np.nan
                return f, grads

        rhos = [[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]]
        stch = StchConfig(anchors=compute_anchors(coll, suite))
        with pytest.raises(tara.TaraAbort, match="entropy encountered at point 6, step 0"):
            optimize(build_variant_a(coll), NanInRow1(), rhos, OptimConfig(max_iters=3),
                     stch, first=5)

    def test_nan_objective_trips_divergence_guard(self):
        basis = build_variant_a(random_collection(seed=22, n_tasks=2))
        stch = StchConfig(anchors=np.full(2, np.nan))
        with pytest.raises(TaraError, match="divergence guard"):
            optimize(basis, _ConstantSuite(1.0), [0.5, 0.5], OptimConfig(max_iters=3),
                     stch)


class TestSweep:
    @pytest.mark.parametrize("variant", ["a", "b"])
    def test_points_match_merge_tara(self, small_suite, variant):
        suite, coll = small_suite
        cfg = OptimConfig(max_iters=25, seed=4)
        rhos = [np.array([0.5, 0.5]), np.array([0.9, 0.1]), np.array([0.2, 0.8])]
        points = list(tara.sweep_tara(coll, suite, rhos, variant=variant, optim=cfg))
        assert len(points) == len(rhos)
        for rho, (weights, phi, trace) in zip(rhos, points):
            want_w, want_phi, want_trace = tara.merge_tara(
                coll, suite, rho, variant=variant, optim=cfg
            )
            for layer in coll.layer_ids:
                assert np.array_equal(weights[layer], want_w[layer])
                assert np.array_equal(phi[layer], want_phi[layer])
            assert trace.objective == want_trace.objective
            assert all(map(np.array_equal, trace.per_task, want_trace.per_task))

    @pytest.mark.parametrize("variant", ["a", "b"])
    def test_points_match_merge_tara_at_default_size(self, default_suite, variant):
        """At the default suite's sizes a single GEMM over all P points' rows
        would pick another BLAS kernel than one point's GEMM does; each point
        must still keep the bits of its own run."""
        suite, coll = default_suite
        cfg = OptimConfig(max_iters=10, seed=4)
        rhos = [np.full(4, 0.25), np.array([0.7, 0.1, 0.1, 0.1]), np.array([0.1, 0.2, 0.3, 0.4])]
        points = tara.sweep_tara(coll, suite, rhos, variant=variant, optim=cfg)
        for rho, (weights, phi, trace) in zip(rhos, points, strict=True):
            want_w, want_phi, want_trace = tara.merge_tara(coll, suite, rho, variant=variant,
                                                           optim=cfg)
            assert np.array_equal(weights["layer0"], want_w["layer0"])
            assert np.array_equal(phi["layer0"], want_phi["layer0"])
            assert trace.objective == want_trace.objective

    @pytest.mark.parametrize("variant", ["a", "b"])
    def test_one_point_chunks_match_one_loop(self, small_suite, monkeypatch, variant):
        """A budget below one point's gradient stack runs each point in its own
        chunk, with the same bits as all points in one loop."""
        suite, coll = small_suite
        cfg = OptimConfig(max_iters=25, seed=4)
        rhos = [np.array([0.5, 0.5]), np.array([0.9, 0.1]), np.array([0.2, 0.8])]
        together = list(tara.sweep_tara(coll, suite, rhos, variant=variant, optim=cfg))
        monkeypatch.setattr(tara, "GRAD_BUDGET_BYTES", 1)
        chunked = list(tara.sweep_tara(coll, suite, rhos, variant=variant, optim=cfg))
        for (w1, phi1, tr1), (w2, phi2, tr2) in zip(together, chunked, strict=True):
            for layer in coll.layer_ids:
                assert np.array_equal(w1[layer], w2[layer])
                assert np.array_equal(phi1[layer], phi2[layer])
            assert tr1.steps == tr2.steps and tr1.objective == tr2.objective
            assert all(map(np.array_equal, tr1.per_task, tr2.per_task))

    @pytest.mark.parametrize("budget", [None, 1], ids=["one_chunk", "point_chunks"])
    def test_one_diverging_point_aborts_the_sweep(self, small_suite, monkeypatch, budget):
        suite, coll = small_suite
        if budget is not None:
            monkeypatch.setattr(tara, "GRAD_BUDGET_BYTES", budget)
        rhos = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0])]
        points = tara.sweep_tara(coll, _DivergingTask(suite, 1), rhos,
                                 optim=OptimConfig(max_iters=10))
        with pytest.raises(tara.TaraAbort, match="divergence guard: point 1 "):
            list(points)

    def test_schedule_must_fit_config(self, small_suite):
        suite, coll = small_suite
        stch = StchConfig(anchors=compute_anchors(coll, suite))
        schedule = tara.batch_schedule(suite, 2, OptimConfig(max_iters=3))
        with pytest.raises(TaraError, match="batch schedule"):
            optimize(build_variant_a(coll), suite, [0.5, 0.5], OptimConfig(max_iters=4),
                     stch, schedule=schedule)

    def test_unequal_pools_are_rejected(self, small_suite):
        suite, coll = small_suite
        short = dataclasses.replace(suite.tasks[1], adapt_x=suite.tasks[1].adapt_x[:-1])
        uneven = dataclasses.replace(suite, tasks=[suite.tasks[0], short])
        with pytest.raises(TaraError, match="differ in size"):
            tara.merge_tara(coll, uneven, [0.5, 0.5], optim=OptimConfig(max_iters=2))

    def test_schedule_matches_streams(self, small_suite):
        suite, _ = small_suite
        cfg = OptimConfig(max_iters=5, batch_size=7, seed=9)
        idx = tara.batch_schedule(suite, 2, cfg)
        assert idx.shape == (5, 2, 7)
        for step in range(5):
            for i in range(2):
                pool = suite.adaptation_pool(i).shape[0]
                want = substream(9, "batch", step, i).integers(0, pool, 7)
                assert np.array_equal(idx[step, i], want)


class _ConstantSuite:
    """Suite stand-in with a fixed entropy and a zero weight gradient."""

    def __init__(self, entropy):
        self.entropy = entropy

    def adaptation_pool(self, task):
        return np.zeros((4, 6))

    def entropy_and_grad(self, weights, batches):
        n = len(batches)
        return np.full(n, self.entropy), {
            l: np.zeros((n,) + w.shape[-2:]) for l, w in weights.items()
        }


class _DivergingTask:
    """The suite, except that in every call with a stack of points, one task's
    entropies grow tenfold per call: only a point that weights that task
    diverges."""

    def __init__(self, suite, task):
        self.suite, self.task, self.calls = suite, task, 0

    def adaptation_pool(self, task):
        return self.suite.adaptation_pool(task)

    def entropy_and_grad(self, weights, batches):
        f, grads = self.suite.entropy_and_grad(weights, batches)
        if f.ndim == 2:
            self.calls += 1
            f[:, self.task] *= 10.0 ** self.calls
        return f, grads


class TestSuiteOrder:
    """Suite row i scores suite task i, so TARA and AdaMerging refuse a collection
    that is not the suite's first n tasks in order."""

    @pytest.mark.parametrize("tasks", [["task1"], ["task1", "task0"]],
                             ids=["second", "reordered"])
    def test_rejected(self, small_suite, tasks):
        suite, coll = small_suite
        sub = coll.subset(tasks)
        rho = np.full(len(tasks), 1.0 / len(tasks))
        cfg = OptimConfig(max_iters=1)
        for run in (
            lambda: compute_anchors(sub, suite),
            lambda: optimize(build_variant_a(sub), suite, rho, cfg,
                             StchConfig(anchors=np.zeros(len(tasks)))),
            lambda: adamerging_baseline(sub, suite, cfg),
        ):
            with pytest.raises(TaraError) as exc:
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
        cfg = OptimConfig(max_iters=100, seed=2)
        _, _, trace = adamerging_baseline(coll, suite, cfg)
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
