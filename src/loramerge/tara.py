"""Preference-aligned direction reweighting (TARA variants A/B) and AdaMerging.

Variant A assigns one learnable signed weight to every raw rank-1 adapter
direction. Variant B builds a shared orthonormal left basis per layer from the
SVD of horizontally concatenated task updates and assigns one weight per
(task, singular direction) component. AdaMerging shares the optimizer but
learns one coefficient per (task, layer) on whole updates, minimizing the
uniform mean of per-task entropies without anchors; optimize picks that
objective from the basis variant.

All three are one linear map: per layer, a stack of rank-1 columns and a group
index mapping each column to its phi entry. Variants A and B give every column
its own entry; AdaMerging is the variant-A stack with each column grouped by
its owning task.

The learned objective is a smoothed worst-case scalarization over per-task
predictive-entropy residuals against per-task anchors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .adapters import (
    AdapterCollection, FactorStack, delta_weight, is_integer, is_real, rank1_stack,
)
from .diagnostics import _check_simplex
from .linalg import CodedError, NumericalAbort
from .rng import keyed_integers

RESIDUAL_DEADBAND = 1e-8  # |f - z| below this contributes zero gradient
GRAD_BUDGET_BYTES = 16 * 2**20  # cap on one step's (P, N, d, m) gradient stack in a sweep
PHI_INIT = 0.4  # TARA's starting phi; optimize picks it or the next by basis variant
ADAMERGING_PHI_INIT = 0.3  # AdaMerging starts at the lam = 0.3 task-arithmetic merge
ADAM_BETAS = (0.9, 0.999)  # Adam's fixed constants, shared by TARA and fine-tuning
ADAM_EPS = 1e-8


class TaraError(CodedError):
    pass


class TaraAbort(TaraError, NumericalAbort):
    """The optimizer diverged or met a non-finite entropy."""


@dataclass
class DirectionBasis:
    variant: str                          # "a", "b", or "adamerging"
    layer_ids: list[str]
    base: dict[str, np.ndarray]
    layers: dict[str, FactorStack]        # rank-1 columns per layer
    groups: dict[str, np.ndarray]         # phi entry of each column per layer
    counts: dict[str, int]                # phi entries per layer
    task_ids: list[str]

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    def k(self, layer: str) -> int:
        return self.counts[layer]

    def init_phi(self, value: float) -> dict[str, np.ndarray]:
        return {layer: np.full(self.k(layer), value) for layer in self.layer_ids}


@dataclass
class StchConfig:
    alpha: float = 1.0
    anchors: np.ndarray | None = None

    def __post_init__(self):
        if not (is_real(self.alpha) and self.alpha > 0):
            raise TaraError(f"alpha must be positive and finite, got {self.alpha!r}")


@dataclass
class OptimConfig:
    lr: float = 0.001
    batch_size: int = 16
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        for name, ok, rule in (
            ("lr", is_real(self.lr) and self.lr > 0, "a finite number > 0"),
            ("batch_size", is_integer(self.batch_size) and self.batch_size >= 1,
             "an integer >= 1"),
            ("max_iters", is_integer(self.max_iters) and self.max_iters >= 1,
             "an integer >= 1"),
            ("seed", is_integer(self.seed), "an integer"),
        ):
            if not ok:
                raise TaraError(f"{name} must be {rule}, got {getattr(self, name)!r}",
                                code="bad_config")


@dataclass
class OptimTrace:
    steps: list[int] = field(default_factory=list)
    objective: list = field(default_factory=list)  # (P,) per step; a point's: floats
    per_task: list[np.ndarray] = field(default_factory=list)  # (P, N); a point's: (N,)

    def append(self, step: int, value, f: np.ndarray):
        self.steps.append(step)
        self.objective.append(value)
        self.per_task.append(np.array(f))

    def point(self, j: int) -> "OptimTrace":
        return OptimTrace(list(self.steps), [float(v[j]) for v in self.objective],
                          [f[j] for f in self.per_task])


def _basis(coll: AdapterCollection, variant: str,
           layers: dict[str, FactorStack]) -> DirectionBasis:
    """Basis over the given stacks; AdaMerging groups columns by owning task."""
    groups = {
        l: s.owner if variant == "adamerging" else np.arange(s.sigma.size)
        for l, s in layers.items()
    }
    return DirectionBasis(
        variant=variant,
        layer_ids=list(coll.layer_ids),
        base={l: coll.base[l] for l in coll.layer_ids},
        layers=layers,
        groups=groups,
        counts={l: int(g.max()) + 1 for l, g in groups.items()},
        task_ids=list(coll.task_ids),
    )


def _adapter_stacks(coll: AdapterCollection) -> dict[str, FactorStack]:
    """Scaled adapter columns per layer, so phi == lam reproduces the scaled sum."""
    return {l: rank1_stack(coll.adapters[l], scaled=True) for l in coll.layer_ids}


def build_variant_a(coll: AdapterCollection) -> DirectionBasis:
    """One direction per adapter column; the training scale folds into sigma so
    phi == lam reproduces the scaled-sum merge."""
    return _basis(coll, "a", _adapter_stacks(coll))


def build_variant_b(coll: AdapterCollection, shared_rank: int | None = None) -> DirectionBasis:
    """Shared singular-direction basis from the SVD of [dW_1, ..., dW_N].

    Each retained singular triplet (sigma_k, u_k, v_k) yields N components
    sigma_k * u_k v_ki^T, one per task block of v_k. At full rank with
    phi == 1 the components reconstruct every task update exactly. The shared
    rank defaults to the aggregate adapter capacity, capped at the
    concatenation's max rank.
    """
    n = coll.n_tasks
    r = shared_rank
    if r is None:
        r = min(min(sum(ad.rank for ad in coll.adapters[l]),
                    coll.base[l].shape[0], coll.base[l].shape[1] * n)
                for l in coll.layer_ids)
    layers = {}
    for layer in coll.layer_ids:
        deltas = [delta_weight(ad) for ad in coll.adapters[layer]]
        d, m = deltas[0].shape
        if r > min(d, m * n):
            raise TaraError(
                f"shared rank {r} exceeds available spectrum min{d, m * n} at {layer}"
            )
        res = linalg.svd(np.hstack(deltas))  # (d, m*N)
        layers[layer] = FactorStack(
            left=np.tile(res.u[:, :r], n),
            right=np.hstack([res.v[i * m : (i + 1) * m, :r] for i in range(n)]),
            sigma=np.tile(res.sigma[:r], n),
            owner=np.repeat(np.arange(n), r),
        )
    return _basis(coll, "b", layers)


def build_adamerging(coll: AdapterCollection) -> DirectionBasis:
    """Variant-A columns sharing one coefficient per (task, layer)."""
    return _basis(coll, "adamerging", _adapter_stacks(coll))


def assemble(basis: DirectionBasis, phi: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """W0 + sum_k phi_{group_k} sigma_k left_k right_k^T per layer; linear in phi.
    A (P, K) phi gives (P, d, m) weights, one per row. The stacked product makes
    one (d, K) @ (K, m) GEMM per row, the call a single row makes, so a row's bits
    do not depend on P (one 2-D GEMM over P*d rows may pick another kernel)."""
    weights = {}
    for layer in basis.layer_ids:
        s = basis.layers[layer]
        p = np.asarray(phi[layer], dtype=np.float64)
        if p.shape[-1:] != (basis.k(layer),):
            raise TaraError(f"phi of shape {p.shape} does not end in {basis.k(layer)} "
                            f"components at {layer}")
        coef = s.sigma * np.take(p, basis.groups[layer], axis=-1)  # C order, unlike p[..., idx]
        weights[layer] = basis.base[layer] + (s.left * coef[..., None, :]) @ s.right.T
    return weights


def adaptation_pools(suite, n_tasks: int) -> np.ndarray:
    """(n, P, m) stack of the first n_tasks adaptation pools of the suite.
    Every pool must be nonempty and all of one size P."""
    pools = [suite.adaptation_pool(i) for i in range(n_tasks)]
    sizes = [pool.shape[0] for pool in pools]
    if 0 in sizes:
        raise TaraError(f"task {sizes.index(0)} has no adaptation batches")
    if len(set(sizes)) > 1:
        raise TaraError(f"adaptation pools differ in size, rows per task: {sizes}")
    return np.stack(pools)


def _check_suite_order(task_ids: list[str]) -> None:
    """Suite calls score row i with suite task i, named "task{i}" by fine-tuning,
    so a collection must hold the suite's first n tasks in order."""
    if task_ids != [f"task{i}" for i in range(len(task_ids))]:
        raise TaraError(
            f"tasks {task_ids} are not the suite's first {len(task_ids)} in order",
            code="task_order",
        )


def compute_anchors(coll: AdapterCollection, suite) -> np.ndarray:
    """z_i: mean entropy on task i's adaptation pool with only adapter i applied,
    for all tasks in one suite call."""
    _check_suite_order(coll.task_ids)
    weights = {
        layer: np.stack([coll.base[layer] + delta_weight(ad) for ad in coll.adapters[layer]])
        for layer in coll.layer_ids
    }
    z, _ = suite.entropy_and_grad(weights, adaptation_pools(suite, coll.n_tasks))
    return z


def stch_objective(f, z, rho, alpha: float = 1.0) -> float:
    """alpha * log sum_i exp(rho_i |f_i - z_i| / alpha), stabilized."""
    f = np.asarray(f, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    rho = _check_simplex(rho, f.size)
    StchConfig(alpha=alpha)  # its rule: finite and positive
    return float(_stch(f, z, rho, alpha)[0])


def _stch(f, z, rho, alpha):
    """The smoothed scalarization and dPsi/df_i, with a deadband at the anchor;
    row-wise over (..., N) f and rho."""
    r = f - z
    t = rho * np.abs(r) / alpha
    tmax = t.max(axis=-1, keepdims=True)
    e = np.exp(t - tmax)
    total = e.sum(axis=-1, keepdims=True)
    grad = e / total * rho * np.sign(r)
    np.copyto(grad, 0.0, where=np.abs(r) < RESIDUAL_DEADBAND)
    return alpha * (tmax + np.log(total))[..., 0], grad


def _phi_gradient(basis: DirectionBasis, weight_grads: dict, dpsi_df: np.ndarray):
    """g_k = <sum_i c_i G_i, C_k> for every basis component, summed over the
    columns that share each phi entry; (..., K) from (..., N) c, (..., N, d, m) G."""
    c = dpsi_df.reshape(-1, 1, dpsi_df.shape[-1])  # (P, 1, N)
    out = {}
    for layer in basis.layer_ids:
        g, k = weight_grads[layer], basis.k(layer)
        combined = (c @ g.reshape(len(c), c.shape[-1], -1)).reshape(-1, *g.shape[-2:])
        bins = basis.groups[layer] + k * np.arange(len(c))[:, None]  # row p: bins p*k...
        out[layer] = np.bincount(bins.ravel(), basis.layers[layer].project(combined).ravel(),
                                 len(c) * k).reshape(dpsi_df.shape[:-1] + (k,))
    return out


def _evaluate(basis, phi, suite, batches):
    """Per-task entropies f (..., N) and weight gradients {layer: (..., N, d, m)}
    at W(phi) of a (K,) or (P, K) phi on (N, B, m) batches, in one suite call.
    A non-finite entropy raises TaraAbort, whose .point is the first such row."""
    weights = {l: w[:, None] if w.ndim == 3 else w for l, w in assemble(basis, phi).items()}
    f, weight_grads = suite.entropy_and_grad(weights, batches)
    if not np.isfinite(f).all():
        err = TaraAbort("non-finite entropy encountered")
        err.point = int(np.flatnonzero(~np.isfinite(f).reshape(-1, f.shape[-1]).all(-1))[0])
        raise err
    return f, weight_grads


def stch_value_and_grad(
    basis: DirectionBasis,
    phi: dict[str, np.ndarray],
    suite,
    rho: np.ndarray,
    cfg: StchConfig,
    batches: np.ndarray,
):
    """Objective value, d/dphi, and per-task entropies on (N, B, m) batches;
    row-wise for a (P, K) phi and a (P, N) rho.

    rho rows must be simplex vectors of length N; optimize checks them once per run.
    """
    if cfg is None or cfg.anchors is None:
        raise TaraError("anchors must be computed before optimization")
    f, weight_grads = _evaluate(basis, phi, suite, batches)
    psi, dpsi_df = _stch(f, cfg.anchors, rho, cfg.alpha)
    return psi, _phi_gradient(basis, weight_grads, dpsi_df), f


def mean_entropy_value_and_grad(basis, phi, suite, batches):
    """Uniform-mean entropy objective used by the AdaMerging baseline."""
    f, weight_grads = _evaluate(basis, phi, suite, batches)
    dpsi_df = np.full(f.shape, 1.0 / basis.n_tasks)
    return np.mean(f, axis=-1), _phi_gradient(basis, weight_grads, dpsi_df), f


def adamw_step(params, grads, m, v, t, lr: float):
    """One in-place Adam update (no weight decay) of every array in params at
    step t >= 1."""
    b1, b2 = ADAM_BETAS
    for key in params:
        g = grads[key]
        m[key] = b1 * m[key] + (1 - b1) * g
        v[key] = b2 * v[key] + (1 - b2) * g * g
        mhat = m[key] / (1 - b1**t)
        vhat = v[key] / (1 - b2**t)
        params[key] = params[key] - lr * (mhat / (np.sqrt(vhat) + ADAM_EPS))


def batch_schedule(suite, n_tasks: int, cfg: OptimConfig) -> np.ndarray:
    """(max_iters, N, B) pool indices of every step's batches, drawn up front.

    Step t's batch for task i comes from the (seed, "batch", t, i) stream, so the
    schedule does not depend on the preference and a sweep can share it.
    """
    pool = adaptation_pools(suite, n_tasks).shape[1]
    tags = [("batch", step, i) for step in range(cfg.max_iters) for i in range(n_tasks)]
    idx = keyed_integers(cfg.seed, tags, pool, cfg.batch_size)
    return idx.reshape(cfg.max_iters, n_tasks, cfg.batch_size)


def optimize(
    basis: DirectionBasis,
    suite,
    rho,
    cfg: OptimConfig,
    stch: StchConfig | None = None,
    schedule: np.ndarray | None = None,
    first: int = 0,
):
    """Adam loop over a (P, K) phi per layer, one row per preference of the
    (P, N) or (N,) rho; each step scores every row and task on fresh batches in
    one suite call.

    The objective is the anchored scalarization under rho from phi = PHI_INIT,
    or for an AdaMerging basis the mean entropy from phi = ADAMERGING_PHI_INIT,
    which ignores rho and anchors (P = 1). schedule is the batch_schedule to
    follow; None draws it. Aborts if a row's entropy is non-finite or its
    objective exceeds 10x its initial value or is NaN, naming row j as point
    first + j. Returns (phi, trace); trace.point(j) is row j's own trace.
    """
    _check_suite_order(basis.task_ids)
    n = basis.n_tasks
    mean_entropy = basis.variant == "adamerging"
    rho = np.atleast_2d(np.asarray(np.full(n, 1 / n) if mean_entropy else rho, float))
    for row in rho:
        _check_simplex(row, n)
    pools = adaptation_pools(suite, n)
    if schedule is None:
        schedule = batch_schedule(suite, n, cfg)
    if schedule.shape != (cfg.max_iters, n, cfg.batch_size):
        raise TaraError(f"batch schedule of shape {schedule.shape} does not fit cfg")
    tasks = np.arange(n)[:, None]
    init = basis.init_phi(ADAMERGING_PHI_INIT if mean_entropy else PHI_INIT)
    phi = {l: np.tile(p, (len(rho), 1)) for l, p in init.items()}
    m = {l: np.zeros_like(phi[l]) for l in phi}
    v = {l: np.zeros_like(phi[l]) for l in phi}
    trace = OptimTrace()
    initial = None
    for step in range(cfg.max_iters):
        batches = pools[tasks, schedule[step]]
        try:
            if mean_entropy:
                value, grad, f = mean_entropy_value_and_grad(basis, phi, suite, batches)
            else:
                value, grad, f = stch_value_and_grad(basis, phi, suite, rho, stch, batches)
        except TaraAbort as err:
            raise TaraAbort(f"non-finite entropy encountered at point {first + err.point}, "
                            f"step {step}") from None
        trace.append(step, value, f)
        if initial is None:
            initial, limit = value, 10.0 * value
        if not (value <= limit).all():
            j = np.flatnonzero(~(value <= limit))[0]
            raise TaraAbort(f"divergence guard: point {first + j} objective {value[j]:.4g} "
                            f"exceeds 10x initial {initial[j]:.4g} at step {step}")
        adamw_step(phi, grad, m, v, step + 1, cfg.lr)
    return phi, trace


def sweep_tara(
    coll: AdapterCollection,
    suite,
    rhos,
    variant: str = "b",
    optim: OptimConfig | None = None,
    alpha: float = 1.0,
):
    """TARA merges at each preference in rhos. The basis, the anchors and the
    batch schedule do not depend on the preference: they are built once, and one
    optimize loop runs each chunk of points whose gradient stack fits
    GRAD_BUDGET_BYTES. Yields (weights, phi, trace) per point in order."""
    optim = optim or OptimConfig()
    if variant == "a":
        basis = build_variant_a(coll)
    elif variant == "b":
        basis = build_variant_b(coll)
    else:
        raise TaraError(f"unknown variant {variant!r}")
    stch = StchConfig(alpha=alpha, anchors=compute_anchors(coll, suite))
    schedule = batch_schedule(suite, coll.n_tasks, optim)
    rhos = list(rhos)
    per_point = 8 * coll.n_tasks * sum(w.size for w in basis.base.values())
    size = max(1, GRAD_BUDGET_BYTES // per_point)
    for start in range(0, len(rhos), size):
        chunk = rhos[start:start + size]
        phi, trace = optimize(basis, suite, chunk, optim, stch, schedule=schedule, first=start)
        for j in range(len(chunk)):
            point = {l: p[j] for l, p in phi.items()}
            yield assemble(basis, point), point, trace.point(j)


def merge_tara(
    coll: AdapterCollection,
    suite,
    rho,
    variant: str = "b",
    optim: OptimConfig | None = None,
    alpha: float = 1.0,
):
    """End-to-end merge at one preference: build basis, compute anchors,
    optimize, assemble."""
    return next(sweep_tara(coll, suite, [rho], variant, optim, alpha))


def adamerging_baseline(
    coll: AdapterCollection, suite, cfg: OptimConfig | None = None
):
    """Per-(task, layer) coefficients on whole updates, mean entropy; phi starts
    at ADAMERGING_PHI_INIT."""
    cfg = cfg or OptimConfig()
    basis = build_adamerging(coll)
    phi, trace = optimize(basis, suite, None, cfg)
    phi = {l: p[0] for l, p in phi.items()}
    return assemble(basis, phi), phi, trace.point(0)
