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

import json
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .adapters import (
    AdapterCollection, LoraAdapter, is_integer, is_real, read_container,
    save_collection,
)
from .linalg import CodedError, NumericalAbort
from .rng import keyed_integers, substream
from .tara import adamw_step, adaptation_pools

LAYER_ID = "layer0"
LORA_ALPHA = 16.0     # every fine-tuned adapter's lora_alpha
FINETUNE_BATCH = 32   # fine-tuning minibatch size


class HarnessError(CodedError):
    pass


class HarnessAbort(HarnessError, NumericalAbort):
    """Fine-tuning diverged, or weights gave non-finite logits."""


@dataclass(frozen=True)
class SuiteConfig:
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
        """Each field is checked by the type of its default: integers (sizes >= 1),
        finite numbers, and null or integer label offsets."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "label_offsets":
                ok = value is None or (isinstance(value, (tuple, list))
                                       and all(map(is_integer, value)))
                rule = "null or a list of integers"
            elif type(f.default) is int:
                ok = is_integer(value) and (f.name == "seed" or value >= 1)
                rule = "an integer" if f.name == "seed" else "an integer >= 1"
            else:
                ok, rule = is_real(value), "a finite number"
            if not ok:
                raise HarnessError(f"{f.name} must be {rule}, got {value!r}",
                                   code="bad_config")


@dataclass
class TaskData:
    train_x: np.ndarray
    train_y: np.ndarray
    eval_x: np.ndarray
    eval_y: np.ndarray
    adapt_x: np.ndarray
    labels: np.ndarray      # global label ids, one per local class


TASK_FIELDS = tuple(f.name for f in fields(TaskData))


@dataclass
class EvalReport:
    task_ids: list[str]
    absolute: list[float]
    normalized: list[float]
    avg_absolute: float
    avg_normalized: float
    hits_at: dict[int, float] | None = None
    seen: dict | None = None

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class TaskSuite:
    config: SuiteConfig
    base: dict[str, np.ndarray]           # {LAYER_ID: W0}
    tasks: list[TaskData]
    heads: list[np.ndarray | None] = field(default_factory=list)
    references: list[float | None] = field(default_factory=list)

    @property
    def n_tasks(self) -> int:
        return self.config.n_tasks

    def adaptation_pool(self, task: int) -> np.ndarray:
        return self.tasks[task].adapt_x

    def _logits(self, task: int, weights: dict, x: np.ndarray) -> np.ndarray:
        if self.heads[task] is None:
            raise HarnessError(f"task {task} has no trained head")
        return x @ weights[LAYER_ID].T @ self.heads[task].T

    def _stacked_heads(self, n: int) -> np.ndarray:
        """(n, C, d) stack of the first n tasks' heads."""
        if n > self.n_tasks:
            raise HarnessError(f"{n} batches for a suite of {self.n_tasks} tasks")
        missing = [i for i, h in enumerate(self.heads[:n]) if h is None]
        if missing:
            raise HarnessError(f"tasks {missing} have no trained head")
        return np.stack(self.heads[:n])

    def entropy_and_grad(self, weights: dict, batches: np.ndarray):
        """Mean predictive entropy of tasks 0..n-1, each on its own batch, and
        its gradient w.r.t. W, in one call.

        batches is (n, B, m), row i scored by head i; n may be below n_tasks
        when a merge covers only the first n tasks. weights[LAYER_ID] is one
        (d, m) matrix shared by those tasks, an (n, d, m) stack, one per task,
        or P of either stacked (P, 1|n, d, m), all scored on the same batches.
        Returns f (n,) and {LAYER_ID: (n, d, m)}, led by P for a P-stack.
        """
        w, n = weights[LAYER_ID], batches.shape[0]
        if w.ndim == 3 and w.shape[0] != n or w.ndim == 4 and w.shape[1] not in (1, n):
            raise HarnessError(f"{w.shape[-3]} per-task weights for {n} batches")
        h = self._stacked_heads(n)
        z = batches @ np.swapaxes(w, -1, -2)            # ([P,] n, B, d)
        p = _softmax(z @ np.swapaxes(h, -1, -2))         # ([P,] n, B, C)
        logp = np.log(p, out=np.zeros_like(p), where=p > 0)
        ent = -np.sum(p * logp, axis=-1)                 # ([P,] n, B)
        # dE/dlogit_j = -p_j (log p_j + E) per sample
        dl = -p * (logp + ent[..., None]) / batches.shape[1]
        dz = dl @ h                                      # ([P,] n, B, d)
        return np.mean(ent, axis=-1), {LAYER_ID: np.swapaxes(dz, -1, -2) @ batches}

    def task_loss_gradients(self, weights: dict) -> dict:
        """Gradient of every task's label-free loss on its whole adaptation pool,
        {LAYER_ID: (N, d, m)}."""
        _, grad = self.entropy_and_grad(weights, adaptation_pools(self, self.n_tasks))
        return grad

    def accuracy(self, task: int, weights: dict) -> float:
        """Eval-split accuracy; non-finite logits raise HarnessAbort rather than
        let argmax pick a class."""
        td = self.tasks[task]
        logits = self._logits(task, weights, td.eval_x)
        if not np.isfinite(logits).all():
            raise HarnessAbort(f"task{task}: weights give non-finite logits")
        return float(np.mean(np.argmax(logits, axis=1) == td.eval_y))


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def generate_suite(config: SuiteConfig | None = None, **overrides) -> TaskSuite:
    """Deterministic Gaussian-mixture suite; identical seed, identical suite."""
    cfg = config or SuiteConfig(**overrides)
    gen = substream(cfg.seed, "base")
    # explicit orthonormal row-space basis q so class means can be split
    # into in-row-space and complement components
    q, _ = np.linalg.qr(gen.standard_normal((cfg.m, cfg.base_rank)))  # (m, base_rank)
    w0 = gen.standard_normal((cfg.d, cfg.base_rank)) @ q.T / np.sqrt(cfg.base_rank)
    offsets = cfg.label_offsets or tuple(i * cfg.n_classes for i in range(cfg.n_tasks))
    if len(offsets) != cfg.n_tasks:
        raise HarnessError("label_offsets length must equal n_tasks")

    tasks = []
    for i in range(cfg.n_tasks):
        mgen = substream(cfg.seed, "task", i, "means")
        raw = mgen.standard_normal((cfg.n_classes, cfg.m))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        inside = (raw @ q) @ q.T
        means = cfg.mean_scale * (raw - inside + cfg.leak_scale * inside)

        def draw(tag, n):
            sgen = substream(cfg.seed, "task", i, tag)
            y = sgen.integers(0, cfg.n_classes, n)
            x = means[y] + cfg.noise_std * sgen.standard_normal((n, cfg.m))
            return x, y

        train_x, train_y = draw("train", cfg.n_train)
        eval_x, eval_y = draw("eval", cfg.n_eval)
        adapt_x, _ = draw("adapt", cfg.n_adapt)
        tasks.append(
            TaskData(
                train_x=train_x,
                train_y=train_y,
                eval_x=eval_x,
                eval_y=eval_y,
                adapt_x=adapt_x,
                labels=np.arange(cfg.n_classes) + offsets[i],
            )
        )
    return TaskSuite(
        config=cfg,
        base={LAYER_ID: w0},
        tasks=tasks,
        heads=[None] * cfg.n_tasks,
        references=[None] * cfg.n_tasks,
    )


def _finetune(suite: TaskSuite, tasks: list[int], rank: int = 16, steps: int = 300,
              lr: float = 0.02, seed: int = 0) -> list[LoraAdapter]:
    """Train (B, A, head) of every listed task by cross-entropy, all tasks in one
    loop over (N, ...) stacks; each task draws from its own (seed, "finetune", i)
    streams. Stores each head and fine-tuned eval accuracy on the suite as the
    normalization reference. These keyword defaults are the only ones."""
    cfg = suite.config
    if not (is_integer(rank) and 1 <= rank <= min(cfg.d, cfg.m)):
        raise HarnessError(f"rank {rank!r} is not an integer in [1, min(d, m) = "
                           f"{min(cfg.d, cfg.m)}]", code="bad_config")
    if not (is_integer(steps) and steps >= 0):
        raise HarnessError(f"steps must be an integer >= 0, got {steps!r}", code="bad_config")
    if not (is_real(lr) and lr > 0):
        raise HarnessError(f"lr must be a finite number > 0, got {lr!r}", code="bad_config")
    w0 = suite.base[LAYER_ID]
    scale = LORA_ALPHA / rank
    inits = [substream(seed, "finetune", i) for i in tasks]
    params = {
        "b": np.zeros((len(tasks), cfg.d, rank)),
        "a": np.stack([0.01 * g.standard_normal((cfg.m, rank)) for g in inits]),
        "h": np.stack([0.01 * g.standard_normal((cfg.n_classes, cfg.d)) for g in inits]),
    }
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    train_x = np.stack([suite.tasks[i].train_x for i in tasks])
    train_y = np.stack([suite.tasks[i].train_y for i in tasks])
    tags = [("finetune", i, "batch", t) for t in range(steps) for i in tasks]
    schedule = keyed_integers(seed, tags, cfg.n_train, FINETUNE_BATCH).reshape(
        steps, len(tasks), FINETUNE_BATCH)
    rows, cols = np.arange(len(tasks))[:, None], np.arange(FINETUNE_BATCH)
    initial_loss = None
    for t in range(steps):
        x, y = train_x[rows, schedule[t]], train_y[rows, schedule[t]]   # (N, B, m), (N, B)
        w = w0 + scale * params["b"] @ np.swapaxes(params["a"], 1, 2)
        z = x @ np.swapaxes(w, 1, 2)
        p = _softmax(z @ np.swapaxes(params["h"], 1, 2))
        loss = np.mean(-np.log(np.maximum(p[rows, cols, y], 1e-300)), axis=1)
        if initial_loss is None:
            initial_loss = np.maximum(loss, 1e-12)
        diverged = np.flatnonzero(~(loss <= 10.0 * initial_loss))  # NaN diverges
        if diverged.size:
            j = diverged[0]
            raise HarnessAbort(
                f"divergence guard: task{tasks[j]} loss {loss[j]:.4g} exceeds 10x "
                f"initial at step {t}"
            )
        dl = p.copy()
        dl[rows, cols, y] -= 1.0
        dl /= FINETUNE_BATCH
        dz = dl @ params["h"]
        dw = np.swapaxes(dz, 1, 2) @ x
        grads = {
            "b": scale * dw @ params["a"],
            "a": scale * np.swapaxes(dw, 1, 2) @ params["b"],
            "h": np.swapaxes(dl, 1, 2) @ z,
        }
        adamw_step(params, grads, m, v, t + 1, lr)

    adapters = []
    for row, i in enumerate(tasks):
        ad = LoraAdapter(task_id=f"task{i}", layer_id=LAYER_ID, b=params["b"][row],
                         a=params["a"][row], rank=rank, lora_alpha=LORA_ALPHA)
        suite.heads[i] = params["h"][row]
        suite.references[i] = suite.accuracy(i, {LAYER_ID: w0 + scale * ad.b @ ad.a.T})
        adapters.append(ad)
    return adapters


def finetune_lora(suite: TaskSuite, task: int, **kwargs) -> LoraAdapter:
    """Fine-tune one task; stores its head and reference on the suite. kwargs are
    _finetune's rank, steps, lr and seed."""
    return _finetune(suite, [task], **kwargs)[0]


def finetune_all(suite: TaskSuite, **kwargs) -> AdapterCollection:
    """Fine-tune every task of the suite in one batched loop; kwargs as finetune_lora."""
    adapters = _finetune(suite, list(range(suite.n_tasks)), **kwargs)
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
            raise HarnessError(f"task {i} has no fine-tuned reference accuracy")
        if not suite.references[i] > 0:
            raise HarnessError(f"task {i} has reference accuracy {suite.references[i]!r}; "
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


def evaluate_joint(weights: dict, suite: TaskSuite, ks=(1, 3, 5)) -> dict[int, float]:
    """Hits@k over the union label space.

    Each eval sample is scored by every task head; columns sharing a global
    label id are merged by max logit. Hits@k is the fraction of samples whose
    true global label ranks in the top k.
    """
    all_labels = np.concatenate([td.labels for td in suite.tasks])
    union = np.unique(all_labels)
    if max(ks) > union.size:
        raise HarnessError(f"k={max(ks)} exceeds union label count {union.size}")
    col_of = {lab: j for j, lab in enumerate(union)}

    hits = {k: 0 for k in ks}
    total = 0
    for i, td in enumerate(suite.tasks):
        n = td.eval_x.shape[0]
        scores = np.full((n, union.size), -np.inf)
        for j in range(suite.n_tasks):
            logits = suite._logits(j, weights, td.eval_x)
            for c, lab in enumerate(suite.tasks[j].labels):
                col = col_of[lab]
                scores[:, col] = np.maximum(scores[:, col], logits[:, c])
        true_cols = np.array([col_of[lab] for lab in td.labels])[td.eval_y]
        order = np.argsort(-scores, axis=1, kind="stable")
        for k in ks:
            hits[k] += int(np.sum(np.any(order[:, :k] == true_cols[:, None], axis=1)))
        total += n
    return {k: hits[k] / total for k in ks}


def unseen_split_eval(coll, suite, seen: list[str], merge_fn) -> EvalReport:
    """Merge only the seen tasks' adapters, then evaluate every task."""
    if not seen:
        raise HarnessError("seen task set is empty")
    sub = coll.subset(seen)
    weights = merge_fn(sub, suite)
    report = evaluate(weights, suite)
    seen_idx = [coll.task_ids.index(t) for t in seen]
    unseen_idx = [i for i in range(suite.n_tasks) if i not in seen_idx]
    report.seen = {
        "seen_tasks": seen,
        "seen_avg_normalized": float(
            np.mean([report.normalized[i] for i in seen_idx])
        ),
        "unseen_tasks": [coll.task_ids[i] for i in unseen_idx],
        "unseen_avg_normalized": (
            float(np.mean([report.normalized[i] for i in unseen_idx]))
            if unseen_idx
            else None
        ),
        "combined_avg_normalized": report.avg_normalized,
    }
    return report


def _suite_key(task: int, name: str) -> str:
    return f"__suite__/task{task}/{name}"


def _check_suite_tensors(cfg: SuiteConfig, tensors: dict, path) -> None:
    """Every task field with the dtype and shape cfg implies, labels in range,
    and a head of shape (n_classes, d) or none."""
    if not tensors:
        raise HarnessError(
            f"{path} holds no suite tensors; suite files written before the suite "
            "arrays moved into the container must be re-created with train-toy",
            code="no_suite_tensors",
        )
    layout = {
        "train_x": (np.float64, (cfg.n_train, cfg.m)),
        "train_y": (np.int64, (cfg.n_train,)),
        "eval_x": (np.float64, (cfg.n_eval, cfg.m)),
        "eval_y": (np.int64, (cfg.n_eval,)),
        "adapt_x": (np.float64, (cfg.n_adapt, cfg.m)),
        "labels": (np.int64, (cfg.n_classes,)),
        "head": (np.float64, (cfg.n_classes, cfg.d)),
    }
    want = {_suite_key(i, name): spec
            for i in range(cfg.n_tasks) for name, spec in layout.items()}
    missing = [k for k in want if k not in tensors and not k.endswith("/head")]
    unknown = [k for k in tensors if k not in want]
    if missing or unknown:
        raise HarnessError(
            f"{path}: suite tensors missing {missing}, unexpected {unknown}", code="bad_suite"
        )
    for key, arr in tensors.items():
        dtype, shape = want[key]
        if arr.dtype != dtype or arr.shape != shape:
            raise HarnessError(
                f"{path}: {key} is {arr.dtype} {arr.shape}, config implies "
                f"{np.dtype(dtype)} {shape}",
                code="bad_suite",
            )
        if key.endswith("_y") and (arr.min() < 0 or arr.max() >= cfg.n_classes):
            raise HarnessError(f"{path}: {key} holds labels outside [0, n_classes)",
                               code="bad_suite")


def save_suite(suite: TaskSuite, coll: AdapterCollection, container_path, sidecar_path):
    """One LMK1 container for base, adapters and the suite's arrays and heads;
    a JSON sidecar for the config and references."""
    tensors = {}
    for i, td in enumerate(suite.tasks):
        for name in TASK_FIELDS:
            tensors[_suite_key(i, name)] = getattr(td, name)
        if suite.heads[i] is not None:
            tensors[_suite_key(i, "head")] = suite.heads[i]
    _check_suite_tensors(suite.config, tensors, container_path)
    save_collection(coll, container_path, tensors)
    with open(sidecar_path, "w") as fh:
        json.dump({"config": asdict(suite.config), "references": suite.references}, fh)


def _read_sidecar(path) -> tuple[SuiteConfig, list]:
    """The config and the references of a sidecar; SuiteConfig checks each field."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HarnessError(f"{path}: {exc}", code="bad_sidecar") from exc
    if not (isinstance(doc, dict) and {"config", "references"} <= doc.keys()):
        raise HarnessError(f"{path} must be an object with config and references",
                           code="bad_sidecar")
    raw, names = doc["config"], {f.name for f in fields(SuiteConfig)}
    if not (isinstance(raw, dict) and raw.keys() == names):
        raise HarnessError(f"config must hold exactly the fields {sorted(names)}",
                           code="bad_config")
    offsets = raw["label_offsets"]
    if not (offsets is None or isinstance(offsets, list)):
        raise HarnessError(f"config field label_offsets must be null or a list, got "
                           f"{offsets!r}", code="bad_config")
    cfg = SuiteConfig(**{**raw, "label_offsets": None if offsets is None else tuple(offsets)})
    refs = doc["references"]
    if not (isinstance(refs, list) and len(refs) == cfg.n_tasks
            and all(r is None or (is_real(r) and r > 0) for r in refs)):
        raise HarnessError(
            f"references must be {cfg.n_tasks} finite positive numbers or nulls, "
            f"got {refs!r}",
            code="bad_references",
        )
    return cfg, refs


def load_suite(container_path, sidecar_path):
    """Inverse of save_suite; returns (suite, collection)."""
    coll, tensors = read_container(container_path)
    cfg, references = _read_sidecar(sidecar_path)
    _check_suite_tensors(cfg, tensors, container_path)
    if coll.layer_ids != [LAYER_ID] or coll.base[LAYER_ID].shape != (cfg.d, cfg.m):
        raise HarnessError(f"{container_path}: base weights do not fit a d={cfg.d}, "
                           f"m={cfg.m} suite", code="bad_suite")
    suite = TaskSuite(
        config=cfg,
        base=dict(coll.base),
        tasks=[
            TaskData(**{name: tensors[_suite_key(i, name)] for name in TASK_FIELDS})
            for i in range(cfg.n_tasks)
        ],
        heads=[tensors.get(_suite_key(i, "head")) for i in range(cfg.n_tasks)],
        references=references,
    )
    return suite, coll
