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
from .adapters import AdapterCollection, LoraAdapter, delta_weight, is_integer, is_real
from .linalg import CodedError
from .rng import substream

# method: (merger, fixed keywords, the MergeConfig fields it reads). run_merge
# looks each merger up by name when called, so a rebound module attribute (a
# test double or a tracing wrapper) takes effect.
_MERGERS = {
    "ta": ("merge_ta", {}, ("lam",)),
    "ties": ("merge_dare_ties", {"drop_prob": 0.0}, ("lam", "trim_fraction")),
    "dare_ties": ("merge_dare_ties", {}, ("lam", "trim_fraction", "drop_prob", "seed")),
    "linear": ("merge_linear", {}, ("lam",)),
    "svd": ("merge_svd", {}, ("lam", "target_rank")),
    "knots_ties": ("merge_knots", {"drop_prob": 0.0}, ("lam", "trim_fraction")),
    "knots_dare_ties": ("merge_knots", {}, ("lam", "trim_fraction", "drop_prob", "seed")),
    "lora_lego": ("merge_lora_lego", {}, ("k_clusters", "lego_reweight", "seed")),
}
METHODS = tuple(_MERGERS)


class MergeError(CodedError):
    pass


@dataclass
class MergeConfig:
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
            raise MergeError(f"unknown merge method {self.method!r}")
        for name, ok, rule in (
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
        ):
            if not ok:
                raise MergeError(f"{name} must be {rule}, got {getattr(self, name)!r}",
                                 code="bad_config")


def _layer_deltas(coll: AdapterCollection, layer: str) -> list[np.ndarray]:
    return [delta_weight(ad) for ad in coll.adapters[layer]]


def merge_ta(coll: AdapterCollection, lam: float = 0.3) -> dict[str, np.ndarray]:
    """W0 + lam * sum of task updates, per layer."""
    return {
        layer: coll.base[layer] + lam * sum(_layer_deltas(coll, layer))
        for layer in coll.layer_ids
    }


def _trim_top_mass(delta: np.ndarray, trim_fraction: float) -> np.ndarray:
    """Keep exactly the top (1 - trim_fraction) fraction of entries by |value|."""
    flat = delta.ravel()
    n_keep = int(np.ceil((1.0 - trim_fraction) * flat.size))
    if n_keep >= flat.size:
        return delta.copy()
    order = np.argsort(-np.abs(flat), kind="stable")
    out = np.zeros_like(flat)
    keep = order[:n_keep]
    out[keep] = flat[keep]
    return out.reshape(delta.shape)


def _ties_combine(deltas: list[np.ndarray], trim_fraction: float) -> np.ndarray:
    """Trim per task, elect signs by summed magnitude, average matching survivors."""
    trimmed = np.stack([_trim_top_mass(d, trim_fraction) for d in deltas])
    pos_mass = np.sum(np.where(trimmed > 0, trimmed, 0.0), axis=0)
    neg_mass = np.sum(np.where(trimmed < 0, -trimmed, 0.0), axis=0)
    sign = np.where(pos_mass >= neg_mass, 1.0, -1.0)  # ties break positive
    match = (trimmed * sign) > 0
    count = np.sum(match, axis=0)
    total = np.sum(np.where(match, trimmed, 0.0), axis=0)
    return np.where(count > 0, total / np.maximum(count, 1), 0.0)


def _dare_drop(delta: np.ndarray, p: float, seed: int, task: str, layer: str) -> np.ndarray:
    """Zero entries with probability p and rescale survivors by 1/(1-p)."""
    if p == 0.0:
        return delta
    u = substream(seed, "dare", task, layer).random(delta.shape)
    return np.where(u >= p, delta / (1.0 - p), 0.0)


def merge_dare_ties(
    coll: AdapterCollection,
    lam: float = 1.0,
    trim_fraction: float = 0.7,
    drop_prob: float = 0.5,
    seed: int = 0,
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
        raise MergeError(f"{what} requires uniform rank and lora_alpha across tasks")
    return ranks.pop(), alphas.pop()


def merge_linear(coll: AdapterCollection, lam: float = 0.3) -> dict[str, LoraAdapter]:
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


def merge_svd(
    coll: AdapterCollection, lam: float = 0.3, target_rank: int = 16
) -> dict[str, LoraAdapter]:
    """Truncated SVD of the scaled update sum, refactored as a rank-r adapter."""
    merged = {}
    for layer in coll.layer_ids:
        total = lam * sum(_layer_deltas(coll, layer))
        d, m = total.shape
        if target_rank > min(d, m):
            raise MergeError(f"target_rank {target_rank} exceeds min{d, m}")
        res = linalg.svd(total)
        b = res.u[:, :target_rank] * res.sigma[:target_rank]
        a = res.v[:, :target_rank]
        # lora_alpha = rank so the stored factors reproduce the truncation exactly
        merged[layer] = LoraAdapter(
            task_id="__merged__",
            layer_id=layer,
            b=b,
            a=a,
            rank=target_rank,
            lora_alpha=float(target_rank),
        )
    return merged


def merge_knots(
    coll: AdapterCollection,
    lam: float = 1.0,
    trim_fraction: float = 0.7,
    drop_prob: float = 0.0,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Shared-basis merge: SVD of row-concatenated updates, DARE-TIES merge of
    per-task coefficient blocks U_i Sigma, reconstruction against V^T; the
    inner merge is plain TIES at drop_prob 0."""
    merged = {}
    for layer in coll.layer_ids:
        deltas = _layer_deltas(coll, layer)
        stacked = np.vstack(deltas)                       # (N*d, m)
        res = linalg.svd(stacked)
        d = deltas[0].shape[0]
        blocks = [
            res.u[i * d : (i + 1) * d, :] * res.sigma     # U_i Sigma, (d, q)
            for i in range(len(deltas))
        ]
        blocks = [
            _dare_drop(blk, drop_prob, seed, coll.task_ids[i], layer)
            for i, blk in enumerate(blocks)
        ]
        combined = _ties_combine(blocks, trim_fraction)
        merged[layer] = coll.base[layer] + lam * (combined @ res.v.T)
    return merged


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator):
    """Seeded k-means++ with deterministic empty-cluster reseeding."""
    n = points.shape[0]
    # k-means++ initialization
    centroids = [points[int(rng.integers(n))]]
    for _ in range(1, k):
        d2 = np.min(
            np.stack([np.sum((points - c) ** 2, axis=1) for c in centroids]), axis=0
        )
        total = float(np.sum(d2))
        if total <= 0.0:
            centroids.append(points[int(rng.integers(n))])
            continue
        r = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(d2), r))
        centroids.append(points[min(idx, n - 1)])
    centers = np.stack(centroids)

    prev_inertia = np.inf
    assign = np.zeros(n, dtype=int)
    for _ in range(100):
        dists = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        assign = np.argmin(dists, axis=1)
        inertia = float(np.sum(dists[np.arange(n), assign]))
        for c in range(k):
            members = points[assign == c]
            if len(members) == 0:
                # reseed from the point farthest from its centroid (lowest index on ties)
                far = int(np.argmax(dists[np.arange(n), assign]))
                centers[c] = points[far]
                assign[far] = c
            else:
                centers[c] = members.mean(axis=0)
        if prev_inertia < np.inf and abs(prev_inertia - inertia) <= 1e-8 * max(
            prev_inertia, 1e-300
        ):
            break
        prev_inertia = inertia
    return centers, assign


def merge_lora_lego(
    coll: AdapterCollection,
    k_clusters: int = 16,
    lego_reweight: str = "output",
    seed: int = 0,
) -> dict[str, LoraAdapter]:
    """Cluster minimal semantic units [a_j; b_j] pooled across tasks; centroids
    form a rank-k adapter with the chosen reweighting."""
    if lego_reweight not in ("parameter", "output"):
        raise MergeError("lego_reweight must be 'parameter' or 'output'")
    merged = {}
    for layer in coll.layer_ids:
        ads = coll.adapters[layer]
        rank, alpha = _require_uniform(ads, "lora_lego")
        m = ads[0].a.shape[0]
        units = np.stack(
            [
                np.concatenate([ad.a[:, j], ad.b[:, j]])
                for ad in ads
                for j in range(ad.rank)
            ]
        )
        if k_clusters > units.shape[0]:
            raise MergeError(
                f"k_clusters {k_clusters} exceeds unit count {units.shape[0]}"
            )
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
