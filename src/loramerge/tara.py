"""Preference-aligned direction reweighting (TARA variants A/B) and AdaMerging.

Variant A assigns one learnable signed weight to every raw rank-1 adapter
direction. Variant B builds a shared orthonormal left basis per layer from the
SVD of horizontally concatenated task updates and assigns one weight per
(task, singular direction) component. AdaMerging shares the optimizer but
learns one coefficient per (task, layer) on whole updates, minimizing the
uniform mean of per-task entropies without anchors.

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
from .adapters import AdapterCollection, FactorStack, delta_weight, rank1_stack
from .diagnostics import _check_simplex
from .rng import substream

RESIDUAL_DEADBAND = 1e-8  # |f - z| below this contributes zero gradient


class TaraError(ValueError):
    pass


@dataclass
class DirectionBasis:
    variant: str                          # "a", "b", or "adamerging"
    layer_ids: list[str]
    base: dict[str, np.ndarray]
    layers: dict[str, FactorStack]        # rank-1 columns per layer
    groups: dict[str, np.ndarray]         # phi entry of each column per layer
    n_tasks: int
    shared_rank: int | None = None        # R for variant B

    def k(self, layer: str) -> int:
        return int(self.groups[layer].max()) + 1

    def init_phi(self, value: float) -> dict[str, np.ndarray]:
        return {layer: np.full(self.k(layer), value) for layer in self.layer_ids}


@dataclass
class StchConfig:
    alpha: float = 1.0
    anchors: np.ndarray | None = None

    def __post_init__(self):
        if self.alpha <= 0:
            raise TaraError("alpha must be positive")


@dataclass
class OptimConfig:
    lr: float = 0.001
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    batch_size: int = 16
    max_iters: int = 500
    phi_init: float = 0.4
    seed: int = 0


@dataclass
class OptimTrace:
    steps: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    per_task: list[np.ndarray] = field(default_factory=list)

    def append(self, step: int, value: float, f: np.ndarray):
        self.steps.append(step)
        self.objective.append(value)
        self.per_task.append(np.array(f))


def _basis(coll: AdapterCollection, variant: str, layers: dict[str, FactorStack],
           shared_rank: int | None = None) -> DirectionBasis:
    """Basis over the given stacks; AdaMerging groups columns by owning task."""
    return DirectionBasis(
        variant=variant,
        layer_ids=list(coll.layer_ids),
        base={l: coll.base[l] for l in coll.layer_ids},
        layers=layers,
        groups={
            l: s.owner if variant == "adamerging" else np.arange(s.sigma.size)
            for l, s in layers.items()
        },
        n_tasks=coll.n_tasks,
        shared_rank=shared_rank,
    )


def _adapter_stacks(coll: AdapterCollection) -> dict[str, FactorStack]:
    """Scaled adapter columns per layer, so phi == lam reproduces the scaled sum."""
    return {l: rank1_stack(coll.adapters[l], scaled=True) for l in coll.layer_ids}


def build_variant_a(coll: AdapterCollection) -> DirectionBasis:
    """One direction per adapter column; the training scale folds into sigma so
    phi == lam reproduces the scaled-sum merge."""
    return _basis(coll, "a", _adapter_stacks(coll))


def default_shared_rank(coll: AdapterCollection) -> int:
    """Aggregate adapter capacity, capped at the concatenation's max rank."""
    r_total = min(sum(ad.rank for ad in coll.adapters[l]) for l in coll.layer_ids)
    cap = min(
        min(coll.base[l].shape[0], coll.base[l].shape[1] * coll.n_tasks)
        for l in coll.layer_ids
    )
    return min(r_total, cap)


def build_variant_b(coll: AdapterCollection, shared_rank: int | None = None) -> DirectionBasis:
    """Shared singular-direction basis from the SVD of [dW_1, ..., dW_N].

    Each retained singular triplet (sigma_k, u_k, v_k) yields N components
    sigma_k * u_k v_ki^T, one per task block of v_k. At full rank with
    phi == 1 the components reconstruct every task update exactly.
    """
    r = default_shared_rank(coll) if shared_rank is None else shared_rank
    n = coll.n_tasks
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
    return _basis(coll, "b", layers, shared_rank=r)


def build_adamerging(coll: AdapterCollection) -> DirectionBasis:
    """Variant-A columns sharing one coefficient per (task, layer)."""
    return _basis(coll, "adamerging", _adapter_stacks(coll))


def assemble(basis: DirectionBasis, phi: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """W0 + sum_k phi_{group_k} sigma_k left_k right_k^T per layer; linear in phi."""
    weights = {}
    for layer in basis.layer_ids:
        s = basis.layers[layer]
        p = np.asarray(phi[layer], dtype=np.float64)
        if p.size != basis.k(layer):
            raise TaraError(
                f"phi length {p.size} != {basis.k(layer)} components at {layer}"
            )
        coef = s.sigma * p[basis.groups[layer]]
        weights[layer] = basis.base[layer] + (s.left * coef) @ s.right.T
    return weights


def entropy_loss(probs) -> float:
    """Mean Shannon entropy (natural log) of a batch of distribution rows."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2:
        raise TaraError("expected a batch of distribution rows")
    if np.any(p < 0) or np.any(np.abs(np.sum(p, axis=1) - 1.0) > 1e-6):
        raise TaraError("rows must be nonnegative and sum to 1")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return float(np.mean(-np.sum(terms, axis=1)))


def compute_anchors(coll: AdapterCollection, suite) -> np.ndarray:
    """z_i: mean entropy on task i's adaptation pool with only adapter i applied."""
    z = np.zeros(coll.n_tasks)
    for i in range(coll.n_tasks):
        weights = {
            layer: coll.base[layer] + delta_weight(coll.adapters[layer][i])
            for layer in coll.layer_ids
        }
        pool = suite.adaptation_pool(i)
        if pool.shape[0] == 0:
            raise TaraError(f"task {i} has no adaptation batches")
        z[i], _ = suite.entropy_and_grad(i, weights, pool)
    return z


def stch_objective(f, z, rho, alpha: float = 1.0) -> float:
    """alpha * log sum_i exp(rho_i |f_i - z_i| / alpha), stabilized."""
    f = np.asarray(f, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    rho = _check_simplex(rho, f.size)
    if alpha <= 0:
        raise TaraError("alpha must be positive")
    t = rho * np.abs(f - z) / alpha
    tmax = float(np.max(t))
    return float(alpha * (tmax + np.log(np.sum(np.exp(t - tmax)))))


def _objective_weights(f, z, rho, alpha) -> np.ndarray:
    """dPsi/df_i for the smoothed scalarization, with a deadband at the anchor."""
    r = np.asarray(f) - np.asarray(z)
    t = rho * np.abs(r) / alpha
    t = t - np.max(t)
    w = np.exp(t)
    w = w / np.sum(w)
    grad = w * rho * np.sign(r)
    grad[np.abs(r) < RESIDUAL_DEADBAND] = 0.0
    return grad


def _phi_gradient_from_weight_grads(
    basis: DirectionBasis, weight_grads: list[dict[str, np.ndarray]], dpsi_df: np.ndarray
) -> dict[str, np.ndarray]:
    """Project d/dW gradients onto basis components: g_k = <sum_i c_i G_i, C_k>,
    summed over the columns that share each phi entry."""
    grad = {}
    for layer in basis.layer_ids:
        g = sum(c * wg[layer] for c, wg in zip(dpsi_df, weight_grads))
        grad[layer] = np.bincount(
            basis.groups[layer],
            weights=basis.layers[layer].project(g),
            minlength=basis.k(layer),
        )
    return grad


def _evaluate(basis, phi, suite, batches):
    """Per-task entropies and weight gradients at W(phi) on the given batches."""
    weights = assemble(basis, phi)
    f = np.zeros(basis.n_tasks)
    weight_grads = []
    for i in range(basis.n_tasks):
        fi, gw = suite.entropy_and_grad(i, weights, batches[i])
        f[i] = fi
        weight_grads.append(gw)
    if not np.all(np.isfinite(f)):
        raise TaraError("non-finite entropy encountered")
    return f, weight_grads


def stch_value_and_grad(
    basis: DirectionBasis,
    phi: dict[str, np.ndarray],
    suite,
    rho,
    cfg: StchConfig,
    batches: dict[int, np.ndarray],
):
    """Objective value, d/dphi, and per-task entropies on fixed batches."""
    rho = _check_simplex(rho, basis.n_tasks)
    if cfg.anchors is None:
        raise TaraError("anchors must be computed before optimization")
    f, weight_grads = _evaluate(basis, phi, suite, batches)
    psi = stch_objective(f, cfg.anchors, rho, cfg.alpha)
    dpsi_df = _objective_weights(f, cfg.anchors, rho, cfg.alpha)
    return psi, _phi_gradient_from_weight_grads(basis, weight_grads, dpsi_df), f


def mean_entropy_value_and_grad(basis, phi, suite, batches):
    """Uniform-mean entropy objective used by the AdaMerging baseline."""
    f, weight_grads = _evaluate(basis, phi, suite, batches)
    dpsi_df = np.full(basis.n_tasks, 1.0 / basis.n_tasks)
    value = float(np.mean(f))
    return value, _phi_gradient_from_weight_grads(basis, weight_grads, dpsi_df), f


def adamw_step(params, grads, m, v, t, cfg: OptimConfig):
    """One in-place AdamW update of every array in params at step t >= 1."""
    b1, b2 = cfg.betas
    for key in params:
        g = grads[key]
        m[key] = b1 * m[key] + (1 - b1) * g
        v[key] = b2 * v[key] + (1 - b2) * g * g
        mhat = m[key] / (1 - b1**t)
        vhat = v[key] / (1 - b2**t)
        params[key] = params[key] - cfg.lr * (
            mhat / (np.sqrt(vhat) + cfg.eps) + cfg.weight_decay * params[key]
        )


def _sample_batches(suite, n_tasks, step, cfg: OptimConfig) -> dict[int, np.ndarray]:
    batches = {}
    for i in range(n_tasks):
        pool = suite.adaptation_pool(i)
        idx = substream(cfg.seed, "batch", step, i).integers(0, pool.shape[0], cfg.batch_size)
        batches[i] = pool[idx]
    return batches


def optimize(
    basis: DirectionBasis,
    suite,
    rho,
    cfg: OptimConfig,
    stch: StchConfig | None = None,
    objective: str = "stch",
):
    """AdamW loop over phi with fresh per-task batches each step.

    objective 'stch' uses the anchored scalarization under rho; 'mean_entropy'
    ignores rho/anchors (AdaMerging). Aborts if the objective exceeds 10x its
    initial value or is NaN. Returns (phi, trace).
    """
    if objective not in ("stch", "mean_entropy"):
        raise TaraError(f"unknown objective {objective!r}")
    phi = basis.init_phi(cfg.phi_init)
    m = {l: np.zeros_like(phi[l]) for l in phi}
    v = {l: np.zeros_like(phi[l]) for l in phi}
    trace = OptimTrace()
    initial = None
    for step in range(cfg.max_iters):
        batches = _sample_batches(suite, basis.n_tasks, step, cfg)
        if objective == "stch":
            value, grad, f = stch_value_and_grad(basis, phi, suite, rho, stch, batches)
        else:
            value, grad, f = mean_entropy_value_and_grad(basis, phi, suite, batches)
        trace.append(step, value, f)
        if initial is None:
            initial = value
        elif not value <= 10.0 * initial:
            raise TaraError(
                f"divergence guard: objective {value:.4g} exceeds 10x initial "
                f"{initial:.4g} at step {step}"
            )
        adamw_step(phi, grad, m, v, step + 1, cfg)
    return phi, trace


def merge_tara(
    coll: AdapterCollection,
    suite,
    rho,
    variant: str = "b",
    optim: OptimConfig | None = None,
    alpha: float = 1.0,
    shared_rank: int | None = None,
):
    """End-to-end merge: build basis, compute anchors, optimize, assemble."""
    optim = optim or OptimConfig()
    if variant == "a":
        basis = build_variant_a(coll)
    elif variant == "b":
        basis = build_variant_b(coll, shared_rank)
    else:
        raise TaraError(f"unknown variant {variant!r}")
    stch = StchConfig(alpha=alpha, anchors=compute_anchors(coll, suite))
    phi, trace = optimize(basis, suite, rho, optim, stch)
    return assemble(basis, phi), phi, trace


def adamerging_baseline(
    coll: AdapterCollection, suite, cfg: OptimConfig | None = None
):
    """Per-(task, layer) coefficients on whole updates, mean entropy; phi starts
    at cfg.phi_init, 0.3 when no cfg is given."""
    cfg = cfg or OptimConfig(phi_init=0.3)
    basis = build_adamerging(coll)
    phi, trace = optimize(basis, suite, None, cfg, objective="mean_entropy")
    return assemble(basis, phi), phi, trace
