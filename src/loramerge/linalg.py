"""Deterministic dense linear algebra: SVD and effective rank.

All computations are in float64. The SVD is LAPACK's thin SVD with a fixed
sign convention on the singular vectors, so results are bit-reproducible for
identical input on one machine, BLAS build and BLAS thread count. svd_product
takes the SVD of a factored product through the SVD of a small core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import CodedError, NumericalAbort

# Relative threshold below which singular values are treated as zero.
EPS_ZERO = 1e-12


class LinalgError(CodedError):
    """A matrix or spectrum that the routines below do not accept."""


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD X = U diag(sigma) V^T with q = min(rows, cols)."""

    u: np.ndarray       # (d, q), orthonormal columns
    sigma: np.ndarray   # (q,), non-increasing, nonnegative
    v: np.ndarray       # (n, q), orthonormal columns


def _as_matrix(x, name: str = "matrix") -> np.ndarray:
    """x as a 2-D float64 matrix. Every caller passes a computed matrix (stored
    inputs are checked when read), so a non-finite entry is a numerical abort."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise LinalgError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise LinalgError(f"{name} must have positive dimensions, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericalAbort(f"{name} contains non-finite entries")
    return a


def svd(x) -> SvdResult:
    """Thin SVD by LAPACK (numpy's gesdd driver), sign-normalized.

    Singular values are sorted descending. Sign convention: the entry of
    largest magnitude in each left singular vector is positive (ties broken
    by lowest index); the right vector is flipped to match.
    """
    u, sigma, vt = _lapack_svd(_as_matrix(x), compute_uv=True)
    return _sign_normalized(u, sigma, vt.T)


def _lapack_svd(a: np.ndarray, compute_uv: bool):
    """np.linalg.svd of a checked matrix, thin; non-convergence and
    non-finite singular values are aborts."""
    try:
        out = np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalAbort(f"SVD did not converge: {exc}") from exc
    if not np.isfinite(out[1] if compute_uv else out).all():
        raise NumericalAbort("singular values overflow the float range")
    return out


def _sign_normalized(u: np.ndarray, sigma: np.ndarray, v: np.ndarray) -> SvdResult:
    """Flip each pair so the largest-magnitude entry of u's column is positive."""
    flip = np.where(u[np.argmax(np.abs(u), axis=0), np.arange(sigma.size)] < 0, -1.0, 1.0)
    return SvdResult(u=u * flip, sigma=sigma, v=v * flip)


def svd_product(left, right, rank: int = 0) -> SvdResult:
    """Thin SVD of left @ right.T without forming it: QR each factor, svd() of
    the core R_l R_r^T, then map back and sign-normalize as svd() does. Both
    factors are zero-padded to `rank` columns, so QR completes their bases:
    (d, k) and (m, k) factors give min(d, m, max(k, rank)) components.

    Either factor may be a list of 2-D blocks, standing for their block-diagonal
    matrix. With tall or square blocks and no padding, it is QR'd block by
    block, and Q and R are the block-diagonal of the block results: N QRs of
    (d_i, c_i) blocks cost about 2 sum d_i c_i^2 flops, against
    2 (sum d_i)(sum c_i)^2 for the dense block-diagonal matrix."""
    a, b = _blocks(left, "left factor"), _blocks(right, "right factor")
    cols = [sum(x.shape[1] for x in f) for f in (a, b)]
    if cols[0] != cols[1]:
        raise LinalgError(f"factors have {cols[0]} and {cols[1]} columns")
    (q_l, r_l), (q_r, r_r) = _qr(a, rank), _qr(b, rank)
    core = svd(r_l @ r_r.T)  # the one LAPACK SVD, with its abort checks
    return _sign_normalized(q_l @ core.u, core.sigma, q_r @ core.v)


def _blocks(x, name: str) -> list[np.ndarray]:
    """A factor as its checked blocks: a list holds the blocks of a
    block-diagonal matrix, anything else is one matrix."""
    if not isinstance(x, list):
        return [_as_matrix(x, name)]
    if not x:
        raise LinalgError(f"{name} has no blocks")
    return [_as_matrix(blk, f"{name} block {i}") for i, blk in enumerate(x)]


def _qr(blocks: list[np.ndarray], rank: int):
    """Reduced QR of blockdiag(blocks) zero-padded to `rank` columns. Wide blocks
    and padding take the dense matrix, for its completion and component count."""
    if (rank <= sum(x.shape[1] for x in blocks)
            and all(x.shape[0] >= x.shape[1] for x in blocks)):
        q, r = zip(*map(np.linalg.qr, blocks))
        return block_diag(q), block_diag(r)
    a = block_diag(blocks)
    if rank > a.shape[1]:
        a = np.pad(a, ((0, 0), (0, rank - a.shape[1])))
    return np.linalg.qr(a)


def block_diag(blocks) -> np.ndarray:
    """Block-diagonal matrix of 2-D blocks."""
    rows, cols = np.cumsum([(0, 0)] + [b.shape for b in blocks], axis=0).T
    out = np.zeros((rows[-1], cols[-1]))
    for b, i, j in zip(blocks, rows, cols):
        out[i : i + b.shape[0], j : j + b.shape[1]] = b
    return out


def singular_values_from_gram(gram: np.ndarray) -> np.ndarray:
    """Singular values of a matrix X given G = X X^T (rows as samples).

    G is symmetric PSD; its singular values equal its eigenvalues, so the
    singular values of X are their square roots. LAPACK computes the values
    only: no singular vectors are built or sign-normalized.
    """
    g = _as_matrix(gram, "gram")
    if g.shape[0] != g.shape[1]:
        raise LinalgError("gram matrix must be square")
    eig = _lapack_svd(g, compute_uv=False)
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
