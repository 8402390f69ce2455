"""Acceptance suite: one test per headline property, each printing a
PASS/FAIL line with the measured quantity next to its tolerance."""

import itertools
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import random_collection
from loramerge import diagnostics, harness, linalg, mergers, tara
from loramerge.adapters import FactorStack, delta_weight
from loramerge.rng import substream
from test_mergers import knots_oracle, lego_oracle, ties_oracle_1d


_CAPSYS = None


@pytest.fixture(autouse=True)
def _show_criterion_lines(capsys):
    """Expose capsys so _report can print PASS/FAIL lines past capture."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(name, ok, detail):
    line = f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line)
    else:
        print(line)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def five_seed_runs():
    """Trained default-scale suites for seeds 0-4."""
    runs = []
    for seed in range(5):
        suite = harness.generate_suite(seed=seed)
        coll = harness.finetune_all(suite, seed=seed)
        runs.append((suite, coll))
    return runs


def test_anisotropy_bounds():
    """sigma_min+ ||V V^T phi|| <= ||J phi|| <= sigma_max ||phi|| on 200
    random Jacobian/weight pairs across several shape classes."""
    t0 = time.monotonic()
    shapes = [(1, 3), (2, 8), (4, 4), (6, 2), (3, 32)]
    worst = 0.0
    count = 0
    while count < 200:
        for shape in shapes:
            gen = substream(count, "accept-aniso")
            entries = gen.standard_normal(shape) * float(gen.uniform(0.01, 100.0))
            if count % 5 == 0 and min(shape) > 1:
                entries[-1] = entries[0]  # force rank deficiency sometimes
            j = diagnostics.Jacobian(entries=entries)
            sigma, _ = diagnostics.anisotropy(j)
            res = linalg.svd(entries)
            r = int(np.sum(res.sigma > linalg.EPS_ZERO * res.sigma[0]))
            vr = res.v[:, :r]
            phi = gen.standard_normal(shape[1])
            jphi = float(np.linalg.norm(entries @ phi))
            upper = sigma[0] * float(np.linalg.norm(phi))
            positive = sigma[sigma > linalg.EPS_ZERO * sigma[0]]
            lower = positive[-1] * float(np.linalg.norm(vr @ (vr.T @ phi)))
            scale = max(upper, 1e-300)
            worst = max(worst, (jphi - upper) / scale, (lower - jphi) / scale)
            count += 1
            if count >= 200:
                break
    elapsed = time.monotonic() - t0
    _report(
        "anisotropy bounds",
        worst <= 1e-9 and elapsed < 5.0,
        f"worst relative violation {worst:.2e} (tol 1e-9), {elapsed:.2f}s (< 5s)",
    )


def test_variant_b_reconstruction():
    """phi == 1 at full shared rank recovers the scaled-sum merge."""
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(20):
        gen = substream(seed, "accept-recon")
        n = int(gen.integers(2, 5))
        d = int(gen.integers(4, 12))
        m = int(gen.integers(3, 10))
        rank = int(gen.integers(1, min(d, m)))
        coll = random_collection(
            seed=1000 + seed, n_tasks=n, layers=("l0",), d=d, m=m, rank=rank
        )
        basis = tara.build_variant_b(coll)
        got = tara.assemble(basis, basis.init_phi(1.0))["l0"]
        want = coll.base["l0"] + sum(delta_weight(ad) for ad in coll.adapters["l0"])
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    elapsed = time.monotonic() - t0
    _report(
        "variant B reconstruction",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst relative residual {worst:.2e} (tol 1e-10), {elapsed:.2f}s (< 5s)",
    )


def test_variant_a_degeneracy():
    """phi == lam reproduces the scaled-sum merge to 1e-12 relative."""
    worst = 0.0
    for seed in range(10):
        coll = random_collection(seed=2000 + seed, n_tasks=3, rank=3)
        basis = tara.build_variant_a(coll)
        for lam in (0.0, 0.3, 1.0, -0.7):
            got = tara.assemble(basis, basis.init_phi(lam))
            want = mergers.merge_ta(coll, lam)
            for layer in got:
                denom = max(np.max(np.abs(want[layer])), 1e-300)
                worst = max(worst, np.max(np.abs(got[layer] - want[layer])) / denom)
    _report(
        "variant A degeneracy",
        worst <= 1e-12,
        f"worst relative deviation from scaled sum {worst:.2e} (tol 1e-12)",
    )


def test_gradient_correctness():
    """Analytic d/dphi matches central finite differences on 50 random
    configurations per variant, entry k stepping by 1e-5 / sigma_k."""
    t0 = time.monotonic()
    suite = harness.generate_suite(
        seed=0, n_tasks=2, d=12, m=10, n_train=150, n_eval=100, n_adapt=60
    )
    coll = harness.finetune_all(suite, rank=4, steps=200, seed=0)
    stch = tara.StchConfig(anchors=tara.compute_anchors(coll, suite))
    rho = np.array([0.3, 0.7])
    pools, idx = suite.adapt_x, np.tile(np.arange(16), (2, 1))
    worst = {"a": 0.0, "b": 0.0}
    for variant in ("a", "b"):
        basis = tara.build_variant_a(coll) if variant == "a" else tara.build_variant_b(coll)
        layer = basis.layer_ids[0]
        steps = 1e-5 / basis.layers[layer].sigma  # equal weight moves per entry
        scorer = suite.factor_scorer(basis.base, basis.layers, pools)
        for trial in range(50):
            gen = substream(300 + trial, variant)
            phi = {l: gen.normal(0.4, 0.3, basis.counts[l]) for l in basis.layer_ids}
            _, grad, _ = tara.stch_value_and_grad(basis, phi, scorer, rho, stch, idx)
            for k in range(basis.counts[layer]):
                h = steps[k]
                pp = {layer: phi[layer].copy()}
                pm = {layer: phi[layer].copy()}
                pp[layer][k] += h
                pm[layer][k] -= h
                vp, _, _ = tara.stch_value_and_grad(basis, pp, scorer, rho, stch, idx)
                vm, _, _ = tara.stch_value_and_grad(basis, pm, scorer, rho, stch, idx)
                fd = (vp - vm) / (2 * h)
                denom = max(abs(fd), 1e-8)
                worst[variant] = max(worst[variant], abs(grad[layer][k] - fd) / denom)
    elapsed = time.monotonic() - t0
    ok = max(worst.values()) <= 1e-4 and elapsed < 30.0
    _report(
        "gradient correctness",
        ok,
        f"max relative error A {worst['a']:.2e}, B {worst['b']:.2e} (tol 1e-4), "
        f"{elapsed:.2f}s (< 30s)",
    )


def test_stch_behavior():
    """Equal residuals give alpha*t + alpha*log N exactly; tiny alpha tracks
    the weighted max residual."""
    worst_closed = 0.0
    for n in (2, 3, 4, 8):
        rho = np.full(n, 1.0 / n)
        f = np.full(n, 3.0)
        z = np.full(n, 1.0)
        for alpha in (0.5, 1.0, 2.0):
            t = rho[0] * 2.0 / alpha
            want = alpha * t + alpha * np.log(n)
            got = float(tara._stch(f, z, rho, alpha)[0])
            worst_closed = max(worst_closed, abs(got - want))
    worst_max = 0.0
    for seed in range(30):
        gen = substream(seed, "accept-stch")
        n = int(gen.integers(2, 6))
        rho = gen.dirichlet(np.ones(n))
        f = gen.uniform(0, 3, n)
        z = gen.uniform(0, 3, n)
        got = float(tara._stch(f, z, rho, 1e-4)[0])
        want = float(np.max(rho * np.abs(f - z)))
        worst_max = max(worst_max, abs(got - want))
    _report(
        "stch behavior",
        worst_closed <= 1e-12 and worst_max <= 1e-3,
        f"closed-form error {worst_closed:.2e} (tol 1e-12), "
        f"alpha->0 max-approximation error {worst_max:.2e} (tol 1e-3)",
    )


def test_effective_rank_properties():
    """Scale invariance, flat spectrum = count, rank one = 1; Gram path equals
    the explicit-stack path."""
    worst = 0.0
    for n in (1, 2, 5, 9):
        worst = max(worst, abs(linalg.effective_rank(np.full(n, 3.3)) - n))
    worst = max(worst, abs(linalg.effective_rank([7.0, 0.0, 0.0]) - 1.0))
    for seed in range(20):
        gen = substream(seed, "accept-erank")
        sigma = gen.uniform(0, 5, int(gen.integers(1, 9)))
        if np.max(sigma) <= 0:
            continue
        c = float(gen.uniform(1e-3, 1e3))
        worst = max(
            worst,
            abs(linalg.effective_rank(sigma) - linalg.effective_rank(c * sigma)),
        )
    worst_gram = 0.0
    for seed in range(10):
        gen = substream(seed, "accept-gram")
        draws = [
            (gen.standard_normal(5), gen.standard_normal(4), float(gen.uniform(0.5, 2.0)))
            for j in range(4)
        ]
        left, right, sigma = (np.array(x) for x in zip(*draws))
        dirs = FactorStack(left.T, right.T, sigma, np.zeros(4, dtype=int))
        via_gram = linalg.effective_rank(
            linalg.singular_values_from_gram(diagnostics._rank1_gram(dirs))
        )
        stack = np.stack([s.matrix().ravel() for s in dirs.directions])
        explicit = linalg.effective_rank(np.linalg.svd(stack, compute_uv=False))
        worst_gram = max(worst_gram, abs(via_gram - explicit))
    _report(
        "effective rank properties",
        worst <= 1e-9 and worst_gram <= 1e-9,
        f"property error {worst:.2e}, gram-vs-explicit gap {worst_gram:.2e} (tol 1e-9)",
    )


def test_coverage_ordering(five_seed_runs):
    """per-task sum >= all-directions erank >= whole-update erank on every
    trained seed."""
    holds = []
    for suite, coll in five_seed_runs:
        rep = diagnostics.coverage_stacks(coll.adapters["layer0"])
        holds.append(rep.per_task_sum >= rep.aware_erank >= rep.agnostic_erank)
    _report(
        "coverage ordering",
        all(holds),
        f"ordering holds in {sum(holds)}/5 seeds (need 5/5)",
    )


def test_merger_oracles():
    """TIES exhaustive 1-coordinate hand trace; DARE unbiasedness within 3
    standard errors over 10k draws; shared-basis and cluster mergers match
    independent step oracles; truncated-SVD residual equals tail energy."""
    # TIES: every sign pattern, up to 3 tasks, single-coordinate models
    ties_ok = True
    values = [-2.0, -1.0, 0.0, 1.0, 2.0]
    for n in (1, 2, 3):
        for combo in itertools.product(values, repeat=n):
            got = mergers._ties_combine([np.array([[v]]) for v in combo], 0.7)[0, 0]
            if abs(got - ties_oracle_1d(combo)) > 1e-12:
                ties_ok = False
    # DARE unbiasedness
    gen = substream(0, "accept-dare")
    delta = gen.standard_normal((4, 5))
    acc = np.zeros_like(delta)
    n_draws = 10_000
    for seed in range(n_draws):
        acc += mergers._dare_drop(delta, 0.5, seed, "t", "l")
    se = np.abs(delta) * np.sqrt(0.5 / 0.5) / np.sqrt(n_draws)
    dare_ok = bool(np.all(np.abs(acc / n_draws - delta) <= 3.0 * se + 1e-12))
    # KnOTS / LEGO step oracles
    knots_err = 0.0
    lego_err = 0.0
    for seed in range(10):
        coll = random_collection(seed=3000 + seed, layers=("l0",), d=6, m=5, rank=2)
        got = mergers.merge_knots(coll, lam=0.7, trim_fraction=0.6, drop_prob=0.0,
                                   seed=0)["l0"]
        want = knots_oracle(coll, "l0", 0.7, 0.6)
        knots_err = max(
            knots_err, np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1.0)
        )
        for reweight in ("output", "parameter"):
            merged = mergers.merge_lora_lego(
                coll, k_clusters=3, lego_reweight=reweight, seed=seed
            )["l0"]
            want_d = lego_oracle(coll, "l0", 3, reweight, seed)
            got_d = delta_weight(merged)
            lego_err = max(
                lego_err,
                np.max(np.abs(got_d - want_d)) / max(np.max(np.abs(want_d)), 1.0),
            )
    # truncated SVD: residual equals tail singular energy
    svd_err = 0.0
    for seed in range(10):
        coll = random_collection(seed=4000 + seed, layers=("l0",), d=9, m=7, rank=3)
        merged = mergers.merge_svd(coll, lam=0.3, target_rank=2)["l0"]
        total = 0.3 * sum(delta_weight(ad) for ad in coll.adapters["l0"])
        residual = np.linalg.norm(total - delta_weight(merged))
        sigma = np.linalg.svd(total, compute_uv=False)
        tail = float(np.sqrt(np.sum(sigma[2:] ** 2)))
        svd_err = max(svd_err, abs(residual - tail) / max(sigma[0], 1.0))
    ok = ties_ok and dare_ok and knots_err <= 1e-9 and lego_err <= 1e-9 and svd_err <= 1e-9
    _report(
        "merger oracles",
        ok,
        f"ties exhaustive {'ok' if ties_ok else 'FAILED'}, "
        f"dare unbiased {'ok' if dare_ok else 'FAILED'}, "
        f"knots {knots_err:.2e}, lego {lego_err:.2e}, svd {svd_err:.2e} (tol 1e-9)",
    )


def test_end_to_end_directional(five_seed_runs):
    """Average normalized accuracy over 5 seeds: variant B >= variant A >=
    max(scaled sum, entropy-tuned coefficients) - 1 point, and variant B beats
    the scaled sum on at least 4 of 5 individual seeds."""
    t0 = time.monotonic()
    res = {k: [] for k in ("ta", "adam", "a", "b")}
    for seed, (suite, coll) in enumerate(five_seed_runs):
        rho = np.full(suite.n_tasks, 1.0 / suite.n_tasks)
        res["ta"].append(
            harness.evaluate(mergers.merge_ta(coll, 0.3), suite).avg_normalized
        )
        [(w, _, _)] = tara.merge(
            coll, suite, None, variant="adamerging", optim=tara.OptimConfig(seed=seed)
        )
        res["adam"].append(harness.evaluate(w, suite).avg_normalized)
        [(wa, _, _)] = tara.merge(
            coll, suite, [rho], variant="a", optim=tara.OptimConfig(seed=seed)
        )
        res["a"].append(harness.evaluate(wa, suite).avg_normalized)
        [(wb, _, _)] = tara.merge(
            coll, suite, [rho], variant="b", optim=tara.OptimConfig(seed=seed)
        )
        res["b"].append(harness.evaluate(wb, suite).avg_normalized)
    elapsed = time.monotonic() - t0
    avg = {k: float(np.mean(v)) for k, v in res.items()}
    ordering = avg["b"] >= avg["a"] >= max(avg["ta"], avg["adam"]) - 0.01
    wins = sum(b > t for b, t in zip(res["b"], res["ta"]))
    ok = ordering and wins >= 4 and elapsed < 600.0
    _report(
        "end-to-end directional",
        ok,
        f"avgs: ta {avg['ta']:.4f}, adamerging {avg['adam']:.4f}, "
        f"A {avg['a']:.4f}, B {avg['b']:.4f}; ordering {'ok' if ordering else 'FAILED'}; "
        f"B beats ta in {wins}/5 seeds (need >=4); {elapsed:.1f}s (< 600s)",
    )


def test_preference_responsiveness():
    """Two-task 30-point sweep: per-task accuracy correlates monotonically
    with its preference weight (|Spearman| >= 0.8 per axis). One call runs all
    30 points, each with the bits of its own one-point merge."""
    suite = harness.generate_suite(seed=0, n_tasks=2)
    coll = harness.finetune_all(suite, seed=0)
    rhos = np.linspace(0.02, 0.98, 30)
    acc = np.zeros((30, 2))
    points = tara.merge(coll, suite, [np.array([r1, 1.0 - r1]) for r1 in rhos],
                        variant="b", optim=tara.OptimConfig(seed=0))
    for i, (w, _, _) in enumerate(points):
        acc[i] = harness.evaluate(w, suite).normalized
    c1 = spearmanr(rhos, acc[:, 0]).statistic
    c2 = spearmanr(rhos, acc[:, 1]).statistic
    ok = abs(c1) >= 0.8 and abs(c2) >= 0.8 and c1 > 0 and c2 < 0
    _report(
        "preference responsiveness",
        ok,
        f"Spearman rho-vs-accuracy: task0 {c1:+.3f}, task1 {c2:+.3f} "
        f"(need |corr| >= 0.8, opposite signs)",
    )


def test_xi_protocol(five_seed_runs):
    """Misalignment between uniform and one-hot preferences at the 0.3 scaled
    sum lies in [0, 1] per layer and is exactly 0 for a single task."""
    in_range = True
    for suite, coll in five_seed_runs:
        for layer in coll.layer_ids:
            xi = diagnostics.xi_protocol(diagnostics.ta_jacobian(coll, suite, layer, lam=0.3))
            if not (0.0 <= xi <= 1.0):
                in_range = False
    single = harness.generate_suite(
        seed=0, n_tasks=1, n_train=100, n_eval=60, n_adapt=40
    )
    scoll = harness.finetune_all(single, rank=4, steps=100, seed=0)
    xi1 = diagnostics.xi_protocol(diagnostics.ta_jacobian(scoll, single, "layer0", lam=0.3))
    _report(
        "xi protocol",
        in_range and xi1 == 0.0,
        f"range ok on 5 seeds: {in_range}; single-task xi = {xi1!r} (need exactly 0.0)",
    )


def test_determinism(tmp_path):
    """Seeded generate -> fine-tune -> merge -> evaluate pipeline reruns
    bit-identically, including serialized artifacts."""

    def pipeline(sub):
        suite = harness.generate_suite(
            seed=7, n_tasks=2, d=12, m=10, n_train=120, n_eval=60, n_adapt=40
        )
        coll = harness.finetune_all(suite, rank=4, steps=150, seed=7)
        [(w, phi, trace)] = tara.merge(
            coll, suite, [np.array([0.5, 0.5])], variant="b",
            optim=tara.OptimConfig(seed=7, iters=40),
        )
        rep = harness.evaluate(w, suite)
        d = tmp_path / sub
        d.mkdir()
        harness.save_suite(suite, coll, d / "s.lmk", d / "s.json")
        return (
            (d / "s.lmk").read_bytes(),
            (d / "s.json").read_text(),
            {l: w[l].tobytes() for l in w},
            {l: phi[l].tobytes() for l in phi},
            tuple(trace.objective),
            tuple(rep.normalized),
        )

    a = pipeline("a")
    b = pipeline("b")
    _report("determinism", a == b, "two seeded pipeline runs produced identical bits")
