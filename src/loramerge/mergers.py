"""Baseline merging algorithms over adapter collections.

Weight-space mergers (ta, ties, dare_ties, knots_*) return merged full
weights per layer; factor-space mergers (linear, svd, lora_lego) return one
merged adapter per layer. All stochastic mergers draw from counter-based
streams keyed by (seed, task, layer), so results are independent of
evaluation order and bit-deterministic under a fixed seed.

_MERGERS declares every method once; the MergeConfig field names are the
merger keywords. TIES and KnOTS-TIES are the drop_prob = 0 case of their
DARE forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .adapters import AdapterCollection, LoraAdapter, delta_weight
from .checks import CodedError, check_fields, is_integer, is_real
from .rng import substream

# method: (merger, fixed keywords, the MergeConfig fields it reads). run_merge
# looks each merger up by name when called, so a rebound module attribute (a
# test double or a tracing wrapper) takes effect.
_MERGERS = {
    "ta": ("merge_ta", {}, ("lam",)),
    "ties": ("merge_dare_ties", {"drop_prob": 0.0}, ("lam", "trim_fraction", "seed")),
    "dare_ties": ("merge_dare_ties", {}, ("lam", "trim_fraction", "drop_prob", "seed")),
    "linear": ("merge_linear", {}, ("lam",)),
    "svd": ("merge_svd", {}, ("lam", "target_rank")),
    "knots_ties": ("merge_knots", {"drop_prob": 0.0}, ("lam", "trim_fraction", "seed")),
    "knots_dare_ties": ("merge_knots", {}, ("lam", "trim_fraction", "drop_prob", "seed")),
    "lora_lego": ("merge_lora_lego", {}, ("k_clusters", "lego_reweight", "seed")),
}
METHODS = tuple(_MERGERS)


@dataclass
class MergeConfig:
    """A baseline merge method and every setting the mergers read."""
    method: str
    lam: float = 0.3
    trim_fraction: float = 0.7
    drop_prob: float = 0.5
    k_clusters: int = 16
    lego_reweight: str = "output"
    seed: int = 0
    target_rank: int = 16

    def __post_init__(self):
        if self.method not in _MERGERS:
            raise CodedError(f"unknown merge method {self.method!r}")
        check_fields(vars(self), (
            ("lam", is_real(self.lam), "a finite number"),
            ("trim_fraction", is_real(self.trim_fraction) and 0 <= self.trim_fraction < 1,
             "a number in [0, 1)"),
            ("drop_prob", is_real(self.drop_prob) and 0 <= self.drop_prob < 1,
             "a number in [0, 1)"),
            ("k_clusters", is_integer(self.k_clusters) and self.k_clusters >= 1,
             "an integer >= 1"),
            ("lego_reweight", self.lego_reweight in ("parameter", "output"),
             "'parameter' or 'output'"),
            ("seed", is_integer(self.seed), "an integer"),
            ("target_rank", is_integer(self.target_rank) and self.target_rank >= 1,
             "an integer >= 1"),
        ))


def merge_ta(coll: AdapterCollection, lam: float) -> dict[str, np.ndarray]:
    """W0 + lam * sum of task updates, per layer."""
    return {
        layer: coll.base[layer] + lam * sum(delta_weight(ad) for ad in coll.adapters[layer])
        for layer in coll.layer_ids
    }


def _trim_top_mass(delta: np.ndarray, trim_fraction: float,
                   size: int | None = None) -> np.ndarray:
    """Keep exactly the top (1 - trim_fraction) fraction of entries by |value|,
    the lowest indices first among entries tied at the cut. size, when given, is
    the entry count the fraction applies to: delta is then the part of a larger
    array outside of which every entry is zero."""
    flat = delta.ravel()
    n_keep = int(np.ceil((1.0 - trim_fraction) * (flat.size if size is None else size)))
    if n_keep >= flat.size:
        return delta.copy()
    # The cut is read from -|x|: with numpy 2.4.6, partitioning |x| ran up to 13x
    # slower when DARE's exact zeros lay below the cut. Setting the sign bit of
    # the float64 entries is copysign(x, -1.0) at the cost of np.abs, where
    # np.copysign took 3x as long. ±0.0 compare equal.
    neg = (flat.view(np.uint64) | np.uint64(1 << 63)).view(np.float64)
    cut = np.partition(neg, n_keep - 1)[n_keep - 1]  # minus the n_keep-th largest |x|
    keep = neg < cut
    keep[np.flatnonzero(neg == cut)[: n_keep - np.count_nonzero(keep)]] = True
    return np.where(keep, flat, 0.0).reshape(delta.shape)


def _ties_combine(deltas: list[np.ndarray], trim_fraction: float,
                  size: int | None = None) -> np.ndarray:
    """Trim per task, elect signs by summed magnitude, average matching survivors;
    size as in _trim_top_mass. The clipped sums P = sum max(t, 0) and
    Q = sum min(t, 0) = -(negative mass) add the matching survivors in task
    order, so they are also the elected sign's total; the zero terms can only
    change the sign of a zero sum, whose entry has no survivor."""
    trimmed = np.stack([_trim_top_mass(d, trim_fraction, size) for d in deltas])
    clipped = np.maximum(trimmed, 0.0)
    pos = clipped.sum(axis=0)
    neg = np.minimum(trimmed, 0.0, out=clipped).sum(axis=0)
    up = pos >= -neg  # ties break positive
    count = np.where(up, (trimmed > 0).sum(axis=0), (trimmed < 0).sum(axis=0))
    total = np.where(up, pos, neg)
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def _dare_drop(delta: np.ndarray, p: float, seed: int, task: str, layer: str,
               shape: tuple[int, int] | None = None) -> np.ndarray:
    """Zero entries with probability p and rescale survivors by 1/(1-p). With
    shape, the uniform mask is drawn at that shape, of which delta is the
    leading block, and its leading block is applied."""
    if p == 0.0:
        return delta
    u = substream(seed, "dare", task, layer).random(shape or delta.shape)
    return np.where(u[: delta.shape[0], : delta.shape[1]] >= p, delta / (1.0 - p), 0.0)


def merge_dare_ties(
    coll: AdapterCollection, lam: float, trim_fraction: float, drop_prob: float, seed: int
) -> dict[str, np.ndarray]:
    """DARE drop-and-rescale of each task update, then TIES; TIES at drop_prob 0."""
    merged = {}
    for layer in coll.layer_ids:
        dropped = [
            _dare_drop(delta_weight(ad), drop_prob, seed, ad.task_id, layer)
            for ad in coll.adapters[layer]
        ]
        merged[layer] = coll.base[layer] + lam * _ties_combine(dropped, trim_fraction)
    return merged


def _require_uniform(adapters: list[LoraAdapter], what: str) -> tuple[int, float]:
    ranks = {ad.rank for ad in adapters}
    alphas = {ad.lora_alpha for ad in adapters}
    if len(ranks) != 1 or len(alphas) != 1:
        raise CodedError(f"{what} requires uniform rank and lora_alpha across tasks")
    return ranks.pop(), alphas.pop()


def merge_linear(coll: AdapterCollection, lam: float) -> dict[str, LoraAdapter]:
    """Sum factors instead of updates: B = lam * sum B_i, A = sum A_i.

    lam multiplies only the B sum so it enters the update once.
    """
    merged = {}
    for layer in coll.layer_ids:
        ads = coll.adapters[layer]
        rank, alpha = _require_uniform(ads, "linear merge")
        b = lam * sum(ad.b for ad in ads)
        a = sum(ad.a for ad in ads)
        merged[layer] = LoraAdapter(
            task_id="__merged__", layer_id=layer, b=b, a=a, rank=rank, lora_alpha=alpha
        )
    return merged


def merge_svd(coll: AdapterCollection, lam: float, target_rank: int) -> dict[str, LoraAdapter]:
    """Truncated SVD of the scaled update sum, refactored as a rank-r adapter.
    The SVD is taken in factor space: the sum is [B_i] @ [lam s_i A_i]^T."""
    merged = {}
    for layer in coll.layer_ids:
        ads = coll.adapters[layer]
        d, m = coll.base[layer].shape
        if target_rank > min(d, m):
            raise CodedError(f"target_rank {target_rank} exceeds min{d, m}")
        res = linalg.svd_product(np.hstack([ad.b for ad in ads]),
                                 np.hstack([lam * ad.scale * ad.a for ad in ads]), target_rank)
        top = slice(target_rank)
        # lora_alpha = rank so the stored factors reproduce the truncation exactly
        merged[layer] = LoraAdapter(task_id="__merged__", layer_id=layer,
                                    b=res.u[:, top] * res.sigma[top], a=res.v[:, top],
                                    rank=target_rank, lora_alpha=float(target_rank))
    return merged


def merge_knots(
    coll: AdapterCollection, lam: float, trim_fraction: float, drop_prob: float, seed: int
) -> dict[str, np.ndarray]:
    """Shared-basis merge: SVD of row-concatenated updates, DARE-TIES merge of
    per-task coefficient blocks U_i Sigma, reconstruction against V^T; the
    inner merge is plain TIES at drop_prob 0. The (N*d, m) stack is
    blockdiag(B_i) @ [s_i A_i]^T, with k <= N*r nonzero sigma; svd_product
    takes the B_i as a block list and QRs them one by one. The dense SVD would
    give (d, q = min(N*d, m)) blocks, zero past column k. Each (d, k) block
    U_i Sigma is drawn its DARE mask at the (d, q) shape and takes its leading
    (d, k) part, then TIES runs on the (d, k) blocks with the trim count of the
    (d, q) shape: the columns past k would merge to 0, and row-major order
    within the first k columns is the full block's, so neither the masks nor
    the trim depend on k."""
    merged = {}
    for layer in coll.layer_ids:
        ads = coll.adapters[layer]
        d, m = coll.base[layer].shape
        res = linalg.svd_product([ad.b for ad in ads],
                                 np.hstack([ad.scale * ad.a for ad in ads]))
        q = min(len(ads) * d, m)
        blocks = [_dare_drop(res.u[i * d : (i + 1) * d] * res.sigma,  # U_i Sigma
                             drop_prob, seed, task, layer, (d, q))
                  for i, task in enumerate(coll.task_ids)]
        combined = _ties_combine(blocks, trim_fraction, size=d * q)
        merged[layer] = coll.base[layer] + lam * (combined @ res.v.T)
    return merged


def _kmeans_pp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: (k, dim) initial centers drawn from rng."""
    n = points.shape[0]
    centroids = [points[int(rng.integers(n))]]
    d2 = np.full(n, np.inf)  # squared distance to the nearest chosen centroid
    for _ in range(1, k):
        d2 = np.minimum(d2, np.sum((points - centroids[-1]) ** 2, axis=1))
        total = float(np.sum(d2))
        if total <= 0.0:
            centroids.append(points[int(rng.integers(n))])
            continue
        r = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(d2), r))
        centroids.append(points[min(idx, n - 1)])
    return np.stack(centroids)


def _nearest(points: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray):
    """Each point's nearest center (lowest index on ties) and its squared
    distance, with the bits of the direct form sum((p - c) ** 2).

    The ranking takes ||p||^2 - 2 p.c + ||c||^2, one GEMM per call. That value
    and the direct one each lie within about dim * eps/2 * (||p|| + ||c||)^2 of
    the exact distance, so the two forms can rank a point's centers differently
    only where its runner-up lies within twice that of its best; those rows are
    ranked again in the direct form. The distances returned are direct, so a
    point on its center scores exactly 0."""
    c_norms = np.einsum("ij,ij->i", centers, centers)
    d2 = sq_norms[:, None] - 2.0 * (points @ centers.T) + c_norms
    assign = np.argmin(d2, axis=1)
    best = d2[np.arange(points.shape[0]), assign]
    slack = 4 * (points.shape[1] + 3) * np.finfo(float).eps * (
        np.sqrt(sq_norms) + np.sqrt(c_norms.max())) ** 2
    near = np.count_nonzero(d2 <= (best + slack)[:, None], axis=1) > 1
    if near.any():
        diff = points[near, None, :] - centers[None, :, :]
        assign[near] = np.argmin(np.sum(diff**2, axis=2), axis=1)
    return assign, np.sum((points - centers[assign]) ** 2, axis=1)


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator):
    """Seeded k-means++ with deterministic empty-cluster reseeding."""
    centers = _kmeans_pp(points, k, rng)
    sq_norms = np.einsum("ij,ij->i", points, points)
    prev_inertia = np.inf
    for _ in range(100):
        assign, own = _nearest(points, sq_norms, centers)
        inertia = float(np.sum(own))
        sizes = np.bincount(assign, minlength=k)
        for c in range(k):
            if sizes[c] == 0:
                # reseed from the point farthest from its centroid (lowest index on
                # ties) among those whose cluster keeps another member; a point
                # handed out here is alone in its new cluster, so none goes twice
                far = int(np.argmax(np.where(sizes[assign] > 1, own, -np.inf)))
                sizes[assign[far]] -= 1
                sizes[c] = 1
                centers[c] = points[far]
                assign[far] = c
            else:
                centers[c] = points[assign == c].mean(axis=0)
        if prev_inertia < np.inf and abs(prev_inertia - inertia) <= 1e-8 * max(
            prev_inertia, 1e-300
        ):
            break
        prev_inertia = inertia
    return centers, assign


def merge_lora_lego(
    coll: AdapterCollection, k_clusters: int, lego_reweight: str, seed: int
) -> dict[str, LoraAdapter]:
    """Cluster minimal semantic units [a_j; b_j] pooled across tasks; centroids
    form a rank-k adapter with the chosen reweighting. Units are pooled in task-id
    order, so the k-means++ seeding does not depend on the collection's order."""
    merged = {}
    for layer in coll.layer_ids:
        ads = sorted(coll.adapters[layer], key=lambda ad: ad.task_id)
        rank, alpha = _require_uniform(ads, "lora_lego")
        m = ads[0].a.shape[0]
        # rows [a_j; b_j], C-ordered so that each unit's sums run along its row
        units = np.concatenate([np.vstack((ad.a, ad.b)) for ad in ads], axis=1).T.copy()
        if k_clusters > units.shape[0]:
            raise CodedError(f"k_clusters {k_clusters} exceeds unit count {units.shape[0]}")
        centers, assign = _kmeans(units, k_clusters, substream(seed, "lego", layer))

        if lego_reweight == "parameter":
            norms = np.linalg.norm(units, axis=1)
            for c in range(k_clusters):
                member_mean = float(np.mean(norms[assign == c]))
                cnorm = float(np.linalg.norm(centers[c]))
                if cnorm > 0:
                    centers[c] *= member_mean / cnorm
        a = centers[:, :m].T
        b = centers[:, m:].T
        if lego_reweight == "output":
            b = b * np.sqrt(rank / k_clusters)
        # keep the per-direction training scale alpha/rank constant under the new rank
        merged[layer] = LoraAdapter(
            task_id="__merged__",
            layer_id=layer,
            b=b,
            a=a,
            rank=k_clusters,
            lora_alpha=alpha * k_clusters / rank,
        )
    return merged


def run_merge(coll: AdapterCollection, cfg: MergeConfig) -> dict[str, np.ndarray]:
    """Run cfg's merger on the fields it reads; full weights per layer, with a
    merged adapter folded onto the collection's base."""
    name, fixed, fields = _MERGERS[cfg.method]
    merged = globals()[name](coll, **fixed, **{f: getattr(cfg, f) for f in fields})
    return {
        layer: w if isinstance(w, np.ndarray) else coll.base[layer] + delta_weight(w)
        for layer, w in merged.items()
    }
