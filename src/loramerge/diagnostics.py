"""Subspace-coverage and anisotropy diagnostics for LoRA adapter sets.

Coverage compares three effective ranks per layer: the summed per-task erank
of rank-1 direction stacks, the erank of the stack of all rank-1 directions,
and the erank of the stack of whole per-task updates. Stacked rows are
vectorized d*m matrices, so singular values are computed from the small Gram
matrix of row inner products instead of materializing the stacks.

Anisotropy is measured through the task-loss Jacobian restricted to a set of
rank-1 directions, its singular spectrum and condition number, and the
misalignment index between sensitivity profiles under two preferences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .adapters import AdapterCollection, FactorStack, LoraAdapter, rank1_stack
from .checks import CodedError, NumericalAbort, check_simplex

PROFILE_ZERO_TOL = 1e-12


@dataclass
class CoverageReport:
    """One layer's effective ranks: per task, their sum, LoRA-aware and LoRA-agnostic."""
    per_task: list[float]
    per_task_sum: float
    aware_erank: float | None
    agnostic_erank: float | None
    warnings: list[str] = field(default_factory=list)


@dataclass
class Jacobian:
    """J[i, k]: the derivative of task i's loss along direction k."""
    entries: np.ndarray                      # (N, K)


def _rank1_gram(stack: FactorStack) -> np.ndarray:
    """Gram of vectorized rank-1 rows: <s u v^T, s' u' v'^T> = s s' (u.u')(v.v')."""
    lefts = stack.left * stack.sigma
    return (lefts.T @ lefts) * (stack.right.T @ stack.right)


def _delta_gram(adapters: list[LoraAdapter]) -> np.ndarray:
    """Gram of vectorized updates: the scaled column Gram summed over owner blocks."""
    stack = rank1_stack(adapters, scaled=True)
    owners = np.equal.outer(np.arange(len(adapters)), stack.owner).astype(np.float64)
    return owners @ _rank1_gram(stack) @ owners.T


def _stack_erank(gram: np.ndarray) -> float | None:
    sigma = linalg.singular_values_from_gram(gram)
    if float(np.max(sigma)) <= 0.0:
        return None
    return linalg.effective_rank(sigma)


def coverage_stacks(layer_adapters: list[LoraAdapter]) -> CoverageReport:
    """Per-task, LoRA-aware, and LoRA-agnostic effective ranks for one layer."""
    if not layer_adapters:
        raise CodedError("coverage needs at least one adapter")
    warnings = []
    per_task = []
    stack = rank1_stack(layer_adapters)
    gram = _rank1_gram(stack)
    for i, ad in enumerate(layer_adapters):
        cols = stack.owner == i
        er = _stack_erank(gram[np.ix_(cols, cols)])
        if er is None:
            warnings.append(f"task {ad.task_id}: all-zero direction stack")
            per_task.append(0.0)
        else:
            per_task.append(er)

    aware = _stack_erank(gram)
    if aware is None:
        warnings.append("aware stack is all-zero")
    agnostic = _stack_erank(_delta_gram(layer_adapters))
    if agnostic is None:
        warnings.append("agnostic stack is all-zero")

    return CoverageReport(
        per_task=per_task,
        per_task_sum=float(sum(per_task)),
        aware_erank=aware,
        agnostic_erank=agnostic,
        warnings=warnings,
    )


def coverage_report(coll: AdapterCollection) -> dict[str, CoverageReport]:
    return {layer: coverage_stacks(coll.adapters[layer]) for layer in coll.layer_ids}


def jacobian(directions: FactorStack, grads) -> Jacobian:
    """J[i, k] = <grad_i, S_k>_F, using <G, s u v^T> = s * u^T G v.

    grads is a list of (d, m) gradients or an (N, d, m) stack."""
    if directions.sigma.size == 0 or len(grads) == 0:
        raise CodedError("need at least one direction and one gradient")
    shape = np.shape(grads[0])
    for i, g in enumerate(grads):
        if np.shape(g) != shape:
            raise CodedError(f"gradient {i} shape {np.shape(g)} != {shape}")
    return Jacobian(entries=directions.project(np.asarray(grads, dtype=np.float64)))


def anisotropy(j: Jacobian) -> tuple[np.ndarray, float]:
    """Singular spectrum of J and condition number over the feasible subspace.

    kappa = sigma_max / sigma_min+ with sigma_min+ the smallest singular value
    above EPS_ZERO * sigma_max; zero singular values span directions J cannot
    move and are excluded.
    """
    entries = np.asarray(j.entries, dtype=np.float64)
    if not np.any(entries):
        raise CodedError("zero Jacobian has no anisotropy")
    sigma = linalg.svd(entries).sigma
    positive = sigma[sigma > linalg.EPS_ZERO * sigma[0]]
    kappa = float(sigma[0] / positive[-1])
    return sigma, kappa


def sensitivity_profile(j: Jacobian, rho) -> np.ndarray:
    """h = J^T rho: projection of the preference-scalarized gradient."""
    return j.entries.T @ check_simplex(rho, len(j.entries))


def misalignment_xi(h1, h2) -> float:
    """xi = 1 - |<h1, h2>| / (||h1|| ||h2||), in [0, 1]; sign flips equivalent."""
    a = np.asarray(h1, dtype=np.float64).ravel()
    b = np.asarray(h2, dtype=np.float64).ravel()
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NumericalAbort("undefined misalignment: non-finite sensitivity profile")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < PROFILE_ZERO_TOL or nb < PROFILE_ZERO_TOL:
        raise CodedError("undefined misalignment: zero sensitivity profile")
    if np.array_equal(a, b) or np.array_equal(a, -b):
        return 0.0
    xi = 1.0 - abs(float(a @ b)) / (na * nb)
    return float(min(max(xi, 0.0), 1.0))


def layer_directions(coll: AdapterCollection, layer_id: str) -> FactorStack:
    """Raw rank-1 directions of all tasks' adapters at one layer."""
    return rank1_stack(coll.adapters[layer_id])


def ta_jacobian(coll: AdapterCollection, suite, layer_id: str, lam: float,
                stack: FactorStack | None = None) -> Jacobian:
    """J[i, k] = df_i/dphi_k: the gradient of collection task i's label-free loss
    on its whole adaptation pool along the stack's column k, sigma_k left_k
    right_k^T, at the scaled-sum merge W0 + lam sum_i dW_i, from one call of the
    suite's factor scorer; no (d, m) gradient is formed. The stack defaults to the
    raw directions (sigma 1), at phi = lam times each column's adapter scale; a
    given stack must reach the merge at phi = lam, as variant B's shared basis
    does. Row i is the suite row of collection task i, "task{i}"."""
    rows = {f"task{i}": i for i in range(suite.n_tasks)}
    unknown = [t for t in coll.task_ids if t not in rows]
    if unknown:
        raise CodedError(
            f"tasks {unknown} are not in a suite of {suite.n_tasks} tasks", code="unknown_task"
        )
    if stack is None:
        stack = layer_directions(coll, layer_id)
        phi = lam * rank1_stack(coll.adapters[layer_id], scaled=True).sigma
    else:
        phi = np.full(stack.sigma.size, lam)
    score = suite.factor_scorer({layer_id: coll.base[layer_id]}, {layer_id: stack},
                                suite.adapt_x)
    _, grad = score({layer_id: phi}, None)
    return Jacobian(entries=grad[layer_id][[rows[t] for t in coll.task_ids]])


def xi_protocol(j: Jacobian) -> float:
    """Misalignment between uniform and one-hot preferences: the mean
    xi(uniform, e_i) over the rows of J, ta_jacobian's at the scaled-sum merge.
    The profile of e_i is row i; exactly 0 for a single task."""
    n = len(j.entries)
    h_uniform = sensitivity_profile(j, np.full(n, 1.0 / n))
    return float(np.mean([misalignment_xi(h_uniform, row) for row in j.entries]))
