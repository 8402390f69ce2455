"""Deterministic dense linear algebra: SVD, Frobenius products, effective rank.

All computations are in float64. The SVD is LAPACK's thin SVD with a fixed
sign convention on the singular vectors, so results are bit-reproducible for
identical input on one machine, BLAS build and BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative threshold below which singular values are treated as zero.
EPS_ZERO = 1e-12


class CodedError(ValueError):
    """A validation error; one with a stable code reads "code: message"."""

    def __init__(self, message: str, code: str | None = None):
        super().__init__(f"{code}: {message}" if code else message)
        self.code = code


class NumericalAbort(Exception):
    """A computation on valid input that failed numerically: divergence,
    non-finite values or non-convergence. The CLI reports it as a runtime
    failure (exit 1), although each module's abort also subclasses that
    module's ValueError-based error."""


class LinalgError(ValueError):
    pass


class LinalgAbort(LinalgError, NumericalAbort):
    """LAPACK did not converge."""


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD X = U diag(sigma) V^T with q = min(rows, cols)."""

    u: np.ndarray       # (d, q), orthonormal columns
    sigma: np.ndarray   # (q,), non-increasing, nonnegative
    v: np.ndarray       # (n, q), orthonormal columns

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T


def _as_matrix(x, name: str = "matrix") -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise LinalgError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise LinalgError(f"{name} must have positive dimensions, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise LinalgError(f"{name} contains non-finite entries")
    return a


def svd(x) -> SvdResult:
    """Thin SVD by LAPACK (numpy's gesdd driver), sign-normalized.

    Singular values are sorted descending. Sign convention: the entry of
    largest magnitude in each left singular vector is positive (ties broken
    by lowest index); the right vector is flipped to match.
    """
    a = _as_matrix(x)
    try:
        u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise LinalgAbort(f"SVD did not converge: {exc}") from exc
    q = sigma.size
    flip = np.where(u[np.argmax(np.abs(u), axis=0), np.arange(q)] < 0, -1.0, 1.0)
    return SvdResult(u=u * flip, sigma=sigma, v=vt.T * flip)


def singular_values_from_gram(gram: np.ndarray) -> np.ndarray:
    """Singular values of a matrix X given G = X X^T (rows as samples).

    G is symmetric PSD; its singular values equal its eigenvalues, so the
    singular values of X are their square roots.
    """
    g = _as_matrix(gram, "gram")
    if g.shape[0] != g.shape[1]:
        raise LinalgError("gram matrix must be square")
    eig = svd(g).sigma
    return np.sqrt(np.maximum(eig, 0.0))


def effective_rank(sigma) -> float:
    """Entropy-based effective rank of a nonnegative spectrum.

    erank = exp(-sum p_k log p_k) with p_k = sigma_k^2 / sum sigma_j^2,
    computed over singular values above EPS_ZERO * max(sigma).
    """
    s = np.asarray(sigma, dtype=np.float64).ravel()
    if s.size == 0 or np.any(s < 0) or not np.all(np.isfinite(s)):
        raise LinalgError("spectrum must be a finite nonnegative vector")
    top = float(np.max(s))
    if top <= 0.0:
        raise LinalgError("zero matrix has no effective rank")
    # normalize before squaring so tiny spectra do not underflow to zero
    s = s[s > EPS_ZERO * top] / top
    p = s * s
    p = p / np.sum(p)
    # 0*log 0 = 0 by the filter above; p entries are strictly positive here
    ent = -float(np.sum(p * np.log(p)))
    return float(np.exp(ent))


def frobenius_inner(a, b) -> float:
    """Frobenius inner product <A, B>_F = sum_ij A_ij B_ij."""
    x = _as_matrix(a, "a")
    y = _as_matrix(b, "b")
    if x.shape != y.shape:
        raise LinalgError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.sum(x * y))


def frobenius_norm(a) -> float:
    x = _as_matrix(a, "a")
    return float(np.sqrt(np.sum(x * x)))
