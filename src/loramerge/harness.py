"""Synthetic multi-task suite: generation, toy LoRA fine-tuning, evaluation.

Each task is a Gaussian-mixture classification problem over inputs x in R^m.
The model is a single adapted linear feature map followed by a frozen per-task
head: logits = H_i @ ((W0 + dW) @ x). Class means live mostly in the
orthogonal complement of the low-rank base map's row space, so the base model
scores near chance and fine-tuned adapters recover the missing directions —
leaving measurable headroom for merging methods.

All gradients through the entropy and cross-entropy losses are analytic.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields, asdict

import numpy as np

from .adapters import AdapterCollection, LoraAdapter, read_container, save_collection
from .checks import CodedError, NumericalAbort, check_fields, is_integer, is_real
from .rng import substream, task_integers
from .tara import adamw_step

LAYER_ID = "layer0"
LORA_ALPHA = 16.0     # every fine-tuned adapter's lora_alpha
FINETUNE_BATCH = 32   # fine-tuning minibatch size


@dataclass(frozen=True)
class SuiteConfig:
    """Sizes, scales and seed of a synthetic suite; every field is checked."""
    n_tasks: int = 4
    d: int = 32                # feature dimension
    m: int = 24                # input dimension
    n_classes: int = 5
    n_train: int = 400
    n_eval: int = 200
    n_adapt: int = 200
    base_rank: int = 3
    mean_scale: float = 3.0
    leak_scale: float = 0.2    # class-mean component inside the base row space
    noise_std: float = 0.55
    seed: int = 0
    label_offsets: tuple | None = None  # global label id of class 0 per task

    def __post_init__(self):
        check_fields(vars(self), self._rules())

    def _rules(self):
        """(name, ok, rule) of each field, by the type of its default: integers
        (sizes >= 1), finite numbers, and null or integer label offsets."""
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "label_offsets":
                yield (f.name, v is None or (isinstance(v, (tuple, list))
                                             and all(map(is_integer, v))),
                       "null or a list of integers")
            elif f.name == "seed":
                yield f.name, is_integer(v), "an integer"
            elif type(f.default) is int:
                yield f.name, is_integer(v) and v >= 1, "an integer >= 1"
            else:
                yield f.name, is_real(v), "a finite number"


@dataclass
class EvalReport:
    """Per-task eval accuracies, absolute and normalized by the fine-tuned references."""
    task_ids: list[str]
    absolute: list[float]
    normalized: list[float]
    avg_absolute: float
    avg_normalized: float
    hits_at: dict[int, float] | None = None


@dataclass
class TaskSuite:
    """Task-major arrays, row i task i's: train_x (N, n_train, m), train_y
    (N, n_train), eval_x (N, n_eval, m), eval_y (N, n_eval), the unlabeled
    adaptation pools adapt_x (N, n_adapt, m), labels (N, C) the global label id of
    each local class, and heads (N, C, d), None until finetune_all sets them."""
    config: SuiteConfig
    base: dict[str, np.ndarray]           # {LAYER_ID: W0}
    train_x: np.ndarray
    train_y: np.ndarray
    eval_x: np.ndarray
    eval_y: np.ndarray
    adapt_x: np.ndarray
    labels: np.ndarray
    heads: np.ndarray | None
    references: list[float | None]

    @property
    def n_tasks(self) -> int:
        return self.config.n_tasks

    def _trained_heads(self) -> np.ndarray:
        if self.heads is None:
            raise CodedError("the suite has no trained heads")
        return self.heads

    def factor_scorer(self, base: dict, stacks: dict, pools: np.ndarray):
        """Scorer of tasks 0..n-1 of the (n, pool, m) pools at W = W0 + left
        diag(sigma coef) right^T, in factor space: no (d, m) weight or gradient.

        logits = X (H W0)^T + (X right) (coef * (H left sigma)^T): the scorer holds
        H left sigma (n, C, K) and the pool products X right (n, pool, K) and
        X (H W0)^T (n, pool, C), made once per run. It is entropy_and_grad bound to
        them, so scorer(coef, idx) scores one step.
        """
        n, pool = pools.shape[:2]
        h, s = self._trained_heads()[:n], stacks[LAYER_ID]
        hl = h @ (s.left * s.sigma)
        hl_t, hw0_t = np.swapaxes(hl, -1, -2), np.swapaxes(h @ base[LAYER_ID], -1, -2)
        xr, xhw0 = ((pools @ x).reshape(n * pool, -1) for x in (s.right, hw0_t))
        first = pool * np.arange(n)[:, None]  # flat row of each task's row 0
        return functools.partial(self.entropy_and_grad, (hl, hl_t, xr, xhw0, first))

    def entropy_and_grad(self, products: tuple, coef: dict, idx: np.ndarray | None):
        """Mean entropies of tasks 0..n-1 and their gradients along the columns,
        on the pool rows idx, from the per-run products of factor_scorer.

        coef is {LAYER_ID: (..., K)}, each sigma-scaled column's multiplier (phi of
        variants A and B), and idx (n, B) row indices in [0, pool), unchecked, as
        batch_schedule draws them, or None for every pool row in order, read as
        views of the products; row i is scored by head i. Returns f (..., n) and
        {LAYER_ID: (..., n, K)} df_i/dcoef_k = sum_c (H left sigma)_ck (dlogits X
        right)_ck. The entropy helper gets a class-first copy of the logits, and
        the backward GEMM reads its dlogits as a class-major (..., n, C, B) view.
        Every GEMM keeps the per-batch kernel, one per (point, task), so a point's
        bits depend neither on the leading axes nor on gathering rows."""
        hl, hl_t, xr, xhw0, first = products
        if idx is None:
            xr_b, xhw0_b = (x.reshape(len(first), -1, x.shape[-1]) for x in (xr, xhw0))
        elif len(idx) != len(first):
            raise CodedError(f"{len(idx)} batches for a scorer of {len(first)} tasks")
        else:
            rows = first + idx
            xr_b, xhw0_b = xr.take(rows, 0), xhw0.take(rows, 0)  # (n, B, K), (n, B, C)
        logits = xr_b @ (coef[LAYER_ID][..., None, :, None] * hl_t)  # (..., n, B, C)
        logits += xhw0_b
        lead, (b, c) = logits.shape[:-2], logits.shape[-2:]
        f, dl = _entropy_and_dlogits(logits.reshape(-1, b, c).transpose(2, 0, 1).copy())
        dl = dl.transpose(1, 0, 2).reshape(lead + (c, b))           # (..., n, C, B)
        grad = np.einsum("...nck,nck->...nk", dl @ xr_b, hl)
        return f.reshape(lead), {LAYER_ID: grad}

    def accuracy(self, task: int, weights: dict) -> float:
        """Eval-split accuracy; non-finite logits raise NumericalAbort rather than
        let argmax pick a class."""
        logits = self.eval_x[task] @ weights[LAYER_ID].T @ self._trained_heads()[task].T
        if not np.isfinite(logits).all():
            raise NumericalAbort(f"task{task}: weights give non-finite logits")
        return float(np.mean(np.argmax(logits, axis=1) == self.eval_y[task]))


def _softmax(z: np.ndarray) -> np.ndarray:  # over the C axis of (..., C, B) logits
    e = z - np.maximum.reduce(z, -2, keepdims=True)  # z's memory order
    np.exp(e, out=e)
    e /= np.add.reduce(e, -2, keepdims=True)
    return e


def _entropy_and_dlogits(logits: np.ndarray):
    """Mean predictive entropy over the batch axis of class-first (C, ..., B)
    logits, and its gradient w.r.t. every logit, in log-sum-exp form: with
    z = logits - max and s = sum e^z, log p = z - log s and E = log s - sum p z.
    z is clipped at -800, below exp's underflow, so a p of 0 (a -inf logit
    included) adds exactly 0 to E and its gradient; a NaN logit gives NaN."""
    z = logits - np.maximum.reduce(logits, 0, keepdims=True)  # logits untouched
    np.maximum(z, -800.0, out=z)
    p = np.exp(z)
    s = np.add.reduce(p, 0, keepdims=True)
    p /= s
    log_s = np.log(s)
    ent = log_s[0] - np.add.reduce(p * z, 0)   # (..., B)
    # dE/dlogit_j = -p_j (log p_j + E) per sample, built in z
    z -= log_s
    z += ent
    z *= p
    z /= -logits.shape[-1]
    return np.add.reduce(ent, -1) / ent.shape[-1], z    # np.mean's own arithmetic


def _labels(cfg: SuiteConfig) -> np.ndarray:
    """Global label id of each class, a row per label offset (task i's: i * C)."""
    offsets = cfg.label_offsets or tuple(i * cfg.n_classes for i in range(cfg.n_tasks))
    return np.add.outer(np.asarray(offsets, dtype=np.int64), np.arange(cfg.n_classes))


def generate_suite(config: SuiteConfig | None = None, **overrides) -> TaskSuite:
    """Deterministic Gaussian-mixture suite; identical seed, identical suite."""
    cfg = config or SuiteConfig(**overrides)
    gen = substream(cfg.seed, "base")
    # explicit orthonormal row-space basis q so class means can be split
    # into in-row-space and complement components
    q, _ = np.linalg.qr(gen.standard_normal((cfg.m, cfg.base_rank)))  # (m, base_rank)
    w0 = gen.standard_normal((cfg.d, cfg.base_rank)) @ q.T / np.sqrt(cfg.base_rank)
    if len(labels := _labels(cfg)) != cfg.n_tasks:
        raise CodedError("label_offsets length must equal n_tasks")

    n, sizes = cfg.n_tasks, {"train": cfg.n_train, "eval": cfg.n_eval, "adapt": cfg.n_adapt}
    x = {split: np.empty((n, size, cfg.m)) for split, size in sizes.items()}
    y = {split: np.empty((n, sizes[split]), dtype=np.int64) for split in ("train", "eval")}
    for i in range(n):
        mgen = substream(cfg.seed, "task", i, "means")
        raw = mgen.standard_normal((cfg.n_classes, cfg.m))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        inside = (raw @ q) @ q.T
        means = cfg.mean_scale * (raw - inside + cfg.leak_scale * inside)
        for split, size in sizes.items():  # the adaptation pool's labels are dropped
            sgen = substream(cfg.seed, "task", i, split)
            classes = sgen.integers(0, cfg.n_classes, size)
            x[split][i] = means[classes] + cfg.noise_std * sgen.standard_normal((size, cfg.m))
            if split in y:
                y[split][i] = classes
    return TaskSuite(
        config=cfg,
        base={LAYER_ID: w0},
        train_x=x["train"], train_y=y["train"],
        eval_x=x["eval"], eval_y=y["eval"],
        adapt_x=x["adapt"],
        labels=labels,
        heads=None,
        references=[None] * n,
    )


def finetune_all(suite: TaskSuite, rank: int = 16, steps: int = 300, lr: float = 0.02,
                 seed: int = 0) -> AdapterCollection:
    """Train (B, A, head) of every task by cross-entropy, all tasks in one loop
    over (N, ...) stacks; task i draws its initial factors and head from the
    (seed, "finetune", i) stream and its batches for every step from the
    (seed, "finetune", i, "batch") stream. Stores each head and fine-tuned eval
    accuracy on the suite as the normalization reference. These keyword defaults
    are the only ones."""
    cfg = suite.config
    if not (is_integer(rank) and 1 <= rank <= min(cfg.d, cfg.m)):
        raise CodedError(f"rank {rank!r} is not an integer in [1, min(d, m) = "
                         f"{min(cfg.d, cfg.m)}]", code="bad_config")
    check_fields({"steps": steps, "lr": lr}, (
        ("steps", is_integer(steps) and steps >= 0, "an integer >= 0"),
        ("lr", is_real(lr) and lr > 0, "a finite number > 0"),
    ))
    w0, n = suite.base[LAYER_ID], suite.n_tasks
    scale = LORA_ALPHA / rank
    inits = [substream(seed, "finetune", i) for i in range(n)]
    shapes = ((n, cfg.d, rank), (n, cfg.m, rank), (n, cfg.n_classes, cfg.d))  # b, a, h
    cuts = np.cumsum([np.prod(shape) for shape in shapes])
    # one flat buffer each for the parameters, their gradients and Adam's moments,
    # so one Adam update per step covers every task's b, a and h, views of it
    params, grad, m, v = ({"all": buf} for buf in np.zeros((4, cuts[-1])))
    (b, a, h), (gb, ga, gh) = (
        [x.reshape(shape) for x, shape in zip(np.split(buf["all"], cuts[:-1]), shapes)]
        for buf in (params, grad))
    a[:] = [0.01 * g.standard_normal((cfg.m, rank)) for g in inits]
    h[:] = [0.01 * g.standard_normal((cfg.n_classes, cfg.d)) for g in inits]
    train_x = suite.train_x.reshape(n * cfg.n_train, cfg.m)
    # every step's (N, B) rows of the flattened train arrays, and the flat index of
    # each row's true-label probability in a step's (N, C, B) p
    rows = task_integers(seed, [("finetune", i, "batch") for i in range(n)], cfg.n_train,
                         steps, FINETUNE_BATCH)
    rows += cfg.n_train * np.arange(n)[:, None]
    picks = suite.train_y.take(rows) + cfg.n_classes * np.arange(n)[:, None]
    picks *= FINETUNE_BATCH
    picks += np.arange(FINETUNE_BATCH)
    limit = None
    for t in range(steps):
        x = train_x.take(rows[t], 0)                                        # (N, B, m)
        z = x @ (w0 + scale * b @ a.swapaxes(1, 2)).swapaxes(1, 2)
        # the softmax runs class-major; every product keeps its (N, B, C) operand
        p = _softmax((z @ h.swapaxes(1, 2)).swapaxes(1, 2).copy())          # (N, C, B)
        flat, pick = p.reshape(-1), picks[t]
        loss = np.add.reduce(np.log(np.maximum(flat.take(pick), 1e-300)), 1) / -FINETUNE_BATCH
        if limit is None:
            limit = 10.0 * np.maximum(loss, 1e-12)
        if not (loss <= limit).all():  # NaN diverges
            j = np.flatnonzero(~(loss <= limit))[0]
            raise NumericalAbort(
                f"divergence guard: task{j} loss {loss[j]:.4g} exceeds 10x "
                f"initial at step {t}"
            )
        flat[pick] -= 1.0
        dl = p.swapaxes(1, 2).copy()                                        # (N, B, C)
        dl /= FINETUNE_BATCH
        dw = scale * ((dl @ h).swapaxes(1, 2) @ x)
        np.matmul(dw, a, out=gb)
        np.matmul(dw.swapaxes(1, 2), b, out=ga)
        np.matmul(dl.swapaxes(1, 2), z, out=gh)
        adamw_step(params, grad, m, v, t + 1, lr)

    suite.heads = h
    suite.references = [suite.accuracy(i, {LAYER_ID: w0 + scale * b[i] @ a[i].T})
                        for i in range(n)]
    adapters = [LoraAdapter(task_id=f"task{i}", layer_id=LAYER_ID, b=b[i], a=a[i], rank=rank,
                            lora_alpha=LORA_ALPHA) for i in range(n)]
    return AdapterCollection(
        layer_ids=[LAYER_ID],
        task_ids=[ad.task_id for ad in adapters],
        base=dict(suite.base),
        adapters={LAYER_ID: adapters},
    )


def evaluate(weights: dict, suite: TaskSuite) -> EvalReport:
    """Per-task accuracy under each task's own head, normalized by the stored
    fine-tuned references."""
    absolute, normalized = [], []
    for i in range(suite.n_tasks):
        if suite.references[i] is None:
            raise CodedError(f"task {i} has no fine-tuned reference accuracy")
        if not suite.references[i] > 0:
            raise CodedError(f"task {i} has reference accuracy {suite.references[i]!r}; "
                             "normalizing needs a positive one", code="bad_references")
        acc = suite.accuracy(i, weights)
        absolute.append(acc)
        normalized.append(acc / suite.references[i])
    return EvalReport(
        task_ids=[f"task{i}" for i in range(suite.n_tasks)],
        absolute=absolute,
        normalized=normalized,
        avg_absolute=float(np.mean(absolute)),
        avg_normalized=float(np.mean(normalized)),
    )


def evaluate_joint(weights: dict, suite: TaskSuite, ks) -> dict[int, float]:
    """Hits@k over the union label space.

    Each eval sample is scored by every task head; columns sharing a global
    label id are merged by max logit. Hits@k is the fraction of samples whose
    true global label ranks in the top k: the count of higher scores and of
    equal scores in earlier columns, a stable sort's rank for finite scores.
    """
    # sorted set, not np.unique, which imports numpy.ma (about 1 MB peak RSS)
    union = np.array(sorted(set(suite.labels.ravel().tolist())))
    if max(ks) > union.size:
        raise CodedError(f"k={max(ks)} exceeds union label count {union.size}")
    # (N, C) union column of every local class; a task's labels are unique, so one
    # fancy-indexed maximum per head is exact
    cols = np.searchsorted(union, suite.labels)
    heads_t = suite._trained_heads().swapaxes(1, 2)

    ranks = []
    for i, (eval_x, eval_y) in enumerate(zip(suite.eval_x, suite.eval_y)):
        scores = np.full((len(eval_y), union.size), -np.inf)
        features = eval_x @ weights[LAYER_ID].T          # once per eval set
        for j, head_t in enumerate(heads_t):
            scores[:, cols[j]] = np.maximum(scores[:, cols[j]], features @ head_t)
        if not np.isfinite(scores).all():  # a sort and the count rank a NaN apart
            raise NumericalAbort(f"task{i}: weights give non-finite joint scores")
        true_cols = cols[i][eval_y][:, None]
        true = np.take_along_axis(scores, true_cols, axis=1)
        earlier = np.arange(union.size) < true_cols
        ranks.append(np.count_nonzero((scores > true) | ((scores == true) & earlier), axis=1))
    ranks = np.concatenate(ranks)
    return {k: int(np.count_nonzero(ranks < k)) / ranks.size for k in ks}


SUITE_KEY = "__suite__/"  # container key prefix of every suite field


def _suite_fields(cfg: SuiteConfig) -> dict:
    """{field: (dtype, shape)} of every TaskSuite array under cfg."""
    n, c = cfg.n_tasks, cfg.n_classes
    return {
        "train_x": (np.float64, (n, cfg.n_train, cfg.m)),
        "train_y": (np.int64, (n, cfg.n_train)),
        "eval_x": (np.float64, (n, cfg.n_eval, cfg.m)),
        "eval_y": (np.int64, (n, cfg.n_eval)),
        "adapt_x": (np.float64, (n, cfg.n_adapt, cfg.m)),
        "labels": (np.int64, (n, c)),
        "heads": (np.float64, (n, c, cfg.d)),
    }


def _check_suite(cfg: SuiteConfig, coll: AdapterCollection, tensors: dict, path) -> None:
    """A base of shape (d, m), the adapters of tasks task0..task{N-1}, and every
    suite field with the dtype and shape cfg implies, heads also absent, labels
    in range, and the label ids of cfg's label_offsets."""
    want = {SUITE_KEY + name: spec for name, spec in _suite_fields(cfg).items()}
    if not want.keys() & tensors.keys():
        raise CodedError(
            f"{path} holds none of the suite tensors {list(want)}; suite files of an "
            "earlier layout must be re-created with train-toy",
            code="no_suite_tensors",
        )
    missing = [k for k in want if k not in tensors and k != SUITE_KEY + "heads"]
    unknown = [k for k in tensors if k not in want]
    if missing or unknown:
        raise CodedError(
            f"{path}: suite tensors missing {missing}, unexpected {unknown}", code="bad_suite"
        )
    for key, arr in tensors.items():
        dtype, shape = want[key]
        if arr.dtype != dtype or arr.shape != shape:
            raise CodedError(
                f"{path}: {key} is {arr.dtype} {arr.shape}, config implies "
                f"{np.dtype(dtype)} {shape}",
                code="bad_suite",
            )
        if key.endswith("_y") and (arr.min() < 0 or arr.max() >= cfg.n_classes):
            raise CodedError(f"{path}: {key} holds labels outside [0, n_classes)",
                               code="bad_suite")
    if not np.array_equal(tensors[SUITE_KEY + "labels"], _labels(cfg)):
        raise CodedError(f"{path}: {SUITE_KEY}labels are not those of label_offsets "
                         f"{cfg.label_offsets} for {cfg.n_tasks} tasks", code="bad_suite")
    if coll.layer_ids != [LAYER_ID] or coll.base[LAYER_ID].shape != (cfg.d, cfg.m):
        raise CodedError(f"{path}: base weights do not fit a d={cfg.d}, m={cfg.m} suite",
                         code="bad_suite")
    tasks = [f"task{i}" for i in range(cfg.n_tasks)]
    if coll.task_ids != tasks:
        raise CodedError(f"{path}: adapters of tasks {coll.task_ids}, not of the suite's "
                         f"{tasks}", code="bad_suite")


def save_suite(suite: TaskSuite, coll: AdapterCollection, container_path, sidecar_path):
    """One LMK1 container for base, adapters and the suite's arrays and heads;
    a JSON sidecar for the config and references."""
    tensors = {SUITE_KEY + name: getattr(suite, name) for name in _suite_fields(suite.config)
               if getattr(suite, name) is not None}
    _check_suite(suite.config, coll, tensors, container_path)
    save_collection(coll, container_path, tensors)
    with open(sidecar_path, "w") as fh:
        json.dump({"config": asdict(suite.config), "references": suite.references}, fh)


def _read_sidecar(path) -> tuple[SuiteConfig, list]:
    """The config and the references of a sidecar; SuiteConfig checks each field."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodedError(f"{path}: {exc}", code="bad_sidecar") from exc
    if not (isinstance(doc, dict) and {"config", "references"} <= doc.keys()):
        raise CodedError(f"{path} must be an object with config and references",
                         code="bad_sidecar")
    raw, names = doc["config"], {f.name for f in fields(SuiteConfig)}
    if not (isinstance(raw, dict) and raw.keys() == names):
        raise CodedError(f"config must hold exactly the fields {sorted(names)}",
                         code="bad_config")
    offsets = raw["label_offsets"]
    if not (offsets is None or isinstance(offsets, list)):
        raise CodedError(f"config field label_offsets must be null or a list, got "
                         f"{offsets!r}", code="bad_config")
    cfg = SuiteConfig(**{**raw, "label_offsets": None if offsets is None else tuple(offsets)})
    refs = doc["references"]
    if not (isinstance(refs, list) and len(refs) == cfg.n_tasks
            and all(r is None or (is_real(r) and r > 0) for r in refs)):
        raise CodedError(
            f"references must be {cfg.n_tasks} finite positive numbers or nulls, "
            f"got {refs!r}",
            code="bad_references",
        )
    return cfg, refs


def load_suite(container_path, sidecar_path):
    """Inverse of save_suite; returns (suite, collection)."""
    coll, tensors = read_container(container_path)
    cfg, references = _read_sidecar(sidecar_path)
    _check_suite(cfg, coll, tensors, container_path)
    suite = TaskSuite(
        config=cfg,
        base=dict(coll.base),
        references=references,
        **{name: tensors.get(SUITE_KEY + name) for name in _suite_fields(cfg)},
    )
    return suite, coll
