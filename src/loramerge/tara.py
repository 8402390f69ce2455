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
predictive-entropy residuals against per-task anchors. merge is the one entry
for all three: it builds the variant's basis and, for TARA, the anchors, then
runs one optimize loop over every preference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .adapters import AdapterCollection, FactorStack, rank1_stack
from .checks import CodedError, NumericalAbort, check_fields, check_simplex, is_integer, is_real
from .rng import task_integers

RESIDUAL_DEADBAND = 1e-8  # |f - z| below this contributes zero gradient
PHI_INIT = 0.4  # TARA's starting phi; optimize picks it or the next by basis variant
ADAMERGING_PHI_INIT = 0.3  # AdaMerging starts at the lam = 0.3 task-arithmetic merge
ADAM_BETAS = (0.9, 0.999)  # Adam's fixed constants, shared by TARA and fine-tuning
ADAM_EPS = 1e-8


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

    def init_phi(self, value: float) -> dict[str, np.ndarray]:
        return {layer: np.full(self.counts[layer], value) for layer in self.layer_ids}


@dataclass
class StchConfig:
    alpha: float = 1.0
    anchors: np.ndarray | None = None

    def __post_init__(self):
        check_fields(vars(self), [("alpha", is_real(self.alpha) and self.alpha > 0,
                                   "a finite number > 0")])


@dataclass
class OptimConfig:
    lr: float = 0.001
    batch_size: int = 16
    iters: int = 500
    seed: int = 0

    def __post_init__(self):
        check_fields(vars(self), (
            ("lr", is_real(self.lr) and self.lr > 0, "a finite number > 0"),
            ("batch_size", is_integer(self.batch_size) and self.batch_size >= 1,
             "an integer >= 1"),
            ("iters", is_integer(self.iters) and self.iters >= 1, "an integer >= 1"),
            ("seed", is_integer(self.seed), "an integer"),
        ))


@dataclass
class OptimTrace:
    steps: np.ndarray      # (iters,)
    objective: np.ndarray  # (iters, P); a point's: (iters,)
    per_task: np.ndarray   # (iters, P, N); a point's: (iters, N)

    def point(self, j: int) -> "OptimTrace":  # row j's trace: views of its columns
        return OptimTrace(self.steps, self.objective[:, j], self.per_task[:, j])


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


def build_variant_b(coll: AdapterCollection) -> DirectionBasis:
    """Shared singular-direction basis from the SVD of [dW_1, ..., dW_N].

    Each retained singular triplet (sigma_k, u_k, v_k) yields N components
    sigma_k * u_k v_ki^T, one per task block of v_k. At full rank with
    phi == 1 the components reconstruct every task update exactly. The shared
    rank is the aggregate adapter capacity, capped at the concatenation's max
    rank, the smallest over layers. The SVD is taken in factor space: the
    concatenation is [B_1 ... B_N] @ blockdiag(s_i A_i)^T, whose right factor
    svd_product QRs block by block.
    """
    n = coll.n_tasks
    r = min(min(sum(ad.rank for ad in coll.adapters[l]),
                coll.base[l].shape[0], coll.base[l].shape[1] * n)
            for l in coll.layer_ids)
    layers = {}
    for layer in coll.layer_ids:
        ads = coll.adapters[layer]
        m = coll.base[layer].shape[1]
        res = linalg.svd_product(np.hstack([ad.b for ad in ads]),
                                 [ad.scale * ad.a for ad in ads])
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


def _coefficients(basis: DirectionBasis, phi: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """coef_k = sigma_k phi_{group_k} of every column per layer, (..., K) from (..., counts)."""
    coef = {}
    for layer in basis.layer_ids:
        p = np.asarray(phi[layer], dtype=np.float64)
        if p.shape[-1:] != (basis.counts[layer],):
            raise CodedError(f"phi of shape {p.shape} does not end in {basis.counts[layer]} "
                             f"components at {layer}")
        if basis.variant == "adamerging":  # A and B: column k is phi entry k
            # np.take gives C order, unlike p[..., idx]
            p = np.take(p, basis.groups[layer], axis=-1)
        coef[layer] = basis.layers[layer].sigma * p
    return coef


def assemble(basis: DirectionBasis, phi: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """W0 + sum_k phi_{group_k} sigma_k left_k right_k^T per layer; linear in phi.
    A (P, K) phi gives (P, d, m) weights, one per row. The stacked product makes
    one (d, K) @ (K, m) GEMM per row, the call a single row makes, so a row's bits
    do not depend on P (one 2-D GEMM over P*d rows may pick another kernel)."""
    return {
        layer: basis.base[layer] + (basis.layers[layer].left * c[..., None, :])
        @ basis.layers[layer].right.T
        for layer, c in _coefficients(basis, phi).items()
    }


def _check_suite_order(task_ids: list[str], suite) -> None:
    """Suite calls score row i with suite task i, named "task{i}" by fine-tuning,
    so a collection must hold the suite's first n tasks in order, n <= N: the
    pools are the rows suite.adapt_x[:n]."""
    n = len(task_ids)
    if n > suite.n_tasks or task_ids != [f"task{i}" for i in range(n)]:
        raise CodedError(
            f"tasks {task_ids} are not the first {n} of a suite of {suite.n_tasks} in order",
            code="task_order",
        )


def compute_anchors(coll: AdapterCollection, suite) -> np.ndarray:
    """z_i: mean entropy on task i's whole adaptation pool with only adapter i
    applied, for all tasks in one scorer call: point i of the scaled adapter
    stack keeps adapter i's columns, and z is the diagonal of the (n, n) result."""
    _check_suite_order(coll.task_ids, suite)
    n, stacks = coll.n_tasks, _adapter_stacks(coll)
    own = np.arange(n)[:, None]
    coef = {l: np.where(own == s.owner, s.sigma, 0.0) for l, s in stacks.items()}
    f, _ = suite.factor_scorer(coll.base, stacks, suite.adapt_x[:n])(coef, None)
    return f.diagonal().copy()


def _stch(f, z, rho, alpha):
    """alpha * log sum_i exp(rho_i |f_i - z_i| / alpha), stabilized, and dPsi/df_i,
    with a deadband at the anchor; row-wise over (..., N) f and rho."""
    r = f - z
    a = np.abs(r)
    t = rho * a
    t /= alpha
    tmax = np.maximum.reduce(t, -1, keepdims=True)
    t -= tmax
    grad = np.exp(t, out=t)
    total = np.add.reduce(grad, -1, keepdims=True)
    grad /= total
    grad *= rho
    grad *= np.sign(r)
    np.copyto(grad, 0.0, where=a < RESIDUAL_DEADBAND)
    return alpha * (tmax + np.log(total))[..., 0], grad


def _phi_gradient(basis: DirectionBasis, col_grads: dict, dpsi_df: np.ndarray):
    """g = sigma_k sum_i c_i df_i/dcoef_k for every column, summed over the
    columns that share each phi entry; (..., counts) from (..., N) c and
    (..., N, K) column gradients."""
    c = dpsi_df.reshape(-1, 1, dpsi_df.shape[-1])  # (P, 1, N)
    out = {}
    for layer in basis.layer_ids:
        g, k = col_grads[layer], basis.counts[layer]
        cols = basis.layers[layer].sigma * (c @ g.reshape(len(c), *g.shape[-2:]))[:, 0]
        if basis.variant == "adamerging":  # A and B: one column per phi entry
            bins = basis.groups[layer] + k * np.arange(len(c))[:, None]  # row p: bins p*k...
            cols = np.bincount(bins.ravel(), cols.ravel(), len(c) * k)
        out[layer] = cols.reshape(dpsi_df.shape[:-1] + (k,))
    return out


def _evaluate(basis, phi, scorer, idx):
    """Per-task entropies f (..., N) and column gradients {layer: (..., N, K)}
    at W(phi) of a (K,) or (P, K) phi on the (N, B) pool rows idx, in one call
    of the suite's factor_scorer for this basis. A non-finite entropy raises
    NumericalAbort, whose .point is the first such row."""
    f, col_grads = scorer(_coefficients(basis, phi), idx)
    if not np.isfinite(f).all():
        err = NumericalAbort("non-finite entropy encountered")
        err.point = int(np.flatnonzero(~np.isfinite(f).reshape(-1, f.shape[-1]).all(-1))[0])
        raise err
    return f, col_grads


def stch_value_and_grad(
    basis: DirectionBasis,
    phi: dict[str, np.ndarray],
    scorer,
    rho: np.ndarray,
    cfg: StchConfig,
    idx: np.ndarray,
):
    """Objective value, d/dphi, and per-task entropies on the (N, B) pool rows
    idx; row-wise for a (P, K) phi and a (P, N) rho. scorer is the suite's
    factor_scorer for this basis and the pools, which optimize builds once per run.

    rho rows must be simplex vectors of length N; optimize checks them once per run.
    """
    if cfg is None or cfg.anchors is None:
        raise CodedError("anchors must be computed before optimization")
    f, col_grads = _evaluate(basis, phi, scorer, idx)
    if np.shape(rho) != f.shape:
        raise CodedError(f"rho of shape {np.shape(rho)} does not give one preference per "
                         f"phi row: {f.shape} wanted")
    psi, dpsi_df = _stch(f, cfg.anchors, rho, cfg.alpha)
    return psi, _phi_gradient(basis, col_grads, dpsi_df), f


def mean_entropy_value_and_grad(basis, phi, scorer, idx):
    """Uniform-mean entropy objective used by the AdaMerging baseline."""
    f, col_grads = _evaluate(basis, phi, scorer, idx)
    dpsi_df = np.full(f.shape, 1.0 / basis.n_tasks)
    return np.add.reduce(f, -1) / f.shape[-1], _phi_gradient(basis, col_grads, dpsi_df), f


def adamw_step(params, grads, m, v, t, lr: float):
    """One in-place Adam update (no weight decay) of every array in params, m
    and v at step t >= 1."""
    b1, b2 = ADAM_BETAS
    c1, c2 = 1 - b1**t, 1 - b2**t
    for key, g in grads.items():
        # scratch s: (1 - b1) g, (1 - b2) g g, then sqrt(v / c2) + eps; u: the step
        s = np.multiply(g, 1 - b1)
        m[key] *= b1
        m[key] += s
        np.multiply(g, 1 - b2, out=s)
        s *= g
        v[key] *= b2
        v[key] += s
        np.divide(v[key], c2, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        u = np.divide(m[key], c1)
        u /= s
        u *= lr
        params[key] -= u


def batch_schedule(pools: np.ndarray, cfg: OptimConfig) -> np.ndarray:
    """(iters, N, B) indices into the (N, pool, m) adaptation pools of every
    step's batches, drawn up front.

    Task i's rows for every step come from its one (seed, "batch", i) stream, so
    the schedule does not depend on the preference (a sweep shares it), on the
    other tasks or on their count, and its first t rows do not depend on iters.
    """
    n_tasks, pool = pools.shape[:2]
    return task_integers(cfg.seed, [("batch", i) for i in range(n_tasks)], pool,
                         cfg.iters, cfg.batch_size)


def optimize(
    basis: DirectionBasis,
    suite,
    rho,
    cfg: OptimConfig,
    stch: StchConfig | None = None,
):
    """Adam loop over a (P, K) phi per layer, one row per preference of the
    (P, N) or (N,) rho; each step scores every row and task on fresh batches in
    one call of the suite's factor-space scorer, built with its pool products
    once per run.

    The objective is the anchored scalarization under rho from phi = PHI_INIT,
    or for an AdaMerging basis the mean entropy from phi = ADAMERGING_PHI_INIT,
    which ignores rho and anchors (P = 1). Every step's batches come from
    batch_schedule. Aborts before step 0 if an anchor is non-finite, and at the
    first step where a row's entropy is non-finite, naming row j as point j; as
    every entropy lies in [0, log C], no objective can diverge. Returns (phi,
    trace); trace.point(j) is row j's own trace.
    """
    _check_suite_order(basis.task_ids, suite)
    n = basis.n_tasks
    mean_entropy = basis.variant == "adamerging"
    rho = np.atleast_2d(np.asarray(np.full(n, 1 / n) if mean_entropy else rho, float))
    for row in rho:
        check_simplex(row, n)
    anchors = None if mean_entropy or stch is None else stch.anchors
    if anchors is not None and not np.isfinite(anchors).all():
        raise NumericalAbort(f"non-finite anchors {anchors}")
    pools = suite.adapt_x[:n]
    schedule = batch_schedule(pools, cfg)
    scorer = suite.factor_scorer(basis.base, basis.layers, pools)
    init = basis.init_phi(ADAMERGING_PHI_INIT if mean_entropy else PHI_INIT)
    phi = {l: np.tile(p, (len(rho), 1)) for l, p in init.items()}
    m = {l: np.zeros_like(phi[l]) for l in phi}
    v = {l: np.zeros_like(phi[l]) for l in phi}
    trace = OptimTrace(np.arange(cfg.iters), np.empty((cfg.iters, len(rho))),
                       np.empty((cfg.iters, len(rho), n)))
    for step, idx in enumerate(schedule):
        try:
            if mean_entropy:
                value, grad, f = mean_entropy_value_and_grad(basis, phi, scorer, idx)
            else:
                value, grad, f = stch_value_and_grad(basis, phi, scorer, rho, stch, idx)
        except NumericalAbort as err:
            raise NumericalAbort(f"non-finite entropy encountered at point {err.point}, "
                                 f"step {step}") from None
        trace.objective[step] = value
        trace.per_task[step] = f
        adamw_step(phi, grad, m, v, step + 1, cfg.lr)
    return phi, trace


def merge(coll: AdapterCollection, suite, rhos, variant: str = "b",
          optim: OptimConfig | None = None, alpha: float = StchConfig.alpha):
    """Yields (weights, phi, trace) per point in order, assembling each point's
    weights as it is yielded: one point per preference in rhos for TARA variant
    "a" or "b", and one for "adamerging", which ignores rhos and has no anchors.
    The basis, the anchors and the batch schedule do not depend on the
    preference: they are built once, and one optimize loop runs every point, as
    its step memory has no d x m term."""
    # looked up per call, so a rebound builder is the one that runs
    builders = {"a": build_variant_a, "b": build_variant_b, "adamerging": build_adamerging}
    if variant not in builders:
        raise CodedError(f"unknown variant {variant!r}")
    stch = StchConfig(alpha=alpha)
    basis = builders[variant](coll)
    if variant == "adamerging":
        rhos = [None]  # optimize runs the mean entropy at P = 1
    else:
        stch.anchors = compute_anchors(coll, suite)
        rhos = list(rhos)
    phi, trace = optimize(basis, suite, rhos, optim or OptimConfig(), stch)
    for j in range(len(rhos)):
        point = {l: p[j] for l, p in phi.items()}
        yield assemble(basis, point), point, trace.point(j)
