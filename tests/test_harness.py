import dataclasses
import functools
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_collection
from loramerge import harness, mergers, tara
from loramerge.adapters import FactorStack
from loramerge.checks import CodedError, NumericalAbort
from loramerge.harness import SuiteConfig
from loramerge.rng import substream


class TestGeneration:
    def test_deterministic(self):
        s1 = harness.generate_suite(seed=5, n_tasks=2, n_train=50, n_eval=30, n_adapt=20)
        s2 = harness.generate_suite(seed=5, n_tasks=2, n_train=50, n_eval=30, n_adapt=20)
        assert np.array_equal(s1.base["layer0"], s2.base["layer0"])
        assert np.array_equal(s1.train_x, s2.train_x)
        assert np.array_equal(s1.eval_y, s2.eval_y)

    def test_seed_changes_data(self):
        s1 = harness.generate_suite(seed=0, n_tasks=1, n_train=50, n_eval=30, n_adapt=20)
        s2 = harness.generate_suite(seed=1, n_tasks=1, n_train=50, n_eval=30, n_adapt=20)
        assert not np.array_equal(s1.train_x, s2.train_x)

    def test_base_is_low_rank(self):
        suite = harness.generate_suite(seed=0)
        sigma = np.linalg.svd(suite.base["layer0"], compute_uv=False)
        assert np.sum(sigma > 1e-10 * sigma[0]) == suite.config.base_rank

    def test_disjoint_default_labels(self):
        suite = harness.generate_suite(seed=0, n_tasks=3)
        seen = set()
        for row in suite.labels:
            labels = set(row.tolist())
            assert not labels & seen
            seen |= labels

    def test_config_validation(self):
        with pytest.raises(CodedError, match="bad_config: n_tasks must be an integer >= 1"):
            SuiteConfig(n_tasks=0)
        with pytest.raises(CodedError, match="label_offsets length must equal n_tasks"):
            harness.generate_suite(seed=0, n_tasks=2, label_offsets=(0,))


def _per_task_finetune(suite, task, rank, steps, lr, seed, lora_alpha=16.0, batch_size=32):
    """Per-task reference for the batched fine-tuning loop: one task, 2-D
    arrays, step t's batch from row t of the task's one batch stream, and the
    same guard against 10x the initial loss. Returns (b, a, head, reference)."""
    cfg = suite.config
    w0 = suite.base["layer0"]
    scale = lora_alpha / rank
    init = substream(seed, "finetune", task)
    params = {
        "b": np.zeros((cfg.d, rank)),
        "a": 0.01 * init.standard_normal((cfg.m, rank)),
        "h": 0.01 * init.standard_normal((cfg.n_classes, cfg.d)),
    }
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    train_x, train_y = suite.train_x[task], suite.train_y[task]
    batches = substream(seed, "finetune", task, "batch").integers(0, cfg.n_train,
                                                                   (steps, batch_size))
    for t in range(steps):
        idx = batches[t]
        x, y = train_x[idx], train_y[idx]
        z = x @ (w0 + scale * params["b"] @ params["a"].T).T
        logits = z @ params["h"].T
        e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
        dl = e / np.sum(e, axis=1, keepdims=True)
        loss = np.mean(-np.log(np.maximum(dl[np.arange(batch_size), y], 1e-300)))
        if t == 0:
            initial = max(loss, 1e-12)
        if not loss <= 10.0 * initial:
            raise NumericalAbort(f"divergence guard: task{task} loss {loss:.4g} "
                                 f"exceeds 10x initial at step {t}")
        dl[np.arange(batch_size), y] -= 1.0
        dl /= batch_size
        dw = (dl @ params["h"]).T @ x
        grads = {
            "b": scale * dw @ params["a"],
            "a": scale * dw.T @ params["b"],
            "h": dl.T @ z,
        }
        tara.adamw_step(params, grads, m, v, t + 1, lr)
    w = w0 + scale * params["b"] @ params["a"].T
    pred = np.argmax(suite.eval_x[task] @ w.T @ params["h"].T, axis=1)
    return params["b"], params["a"], params["h"], float(np.mean(pred == suite.eval_y[task]))


def _reference_finetune(suite, rank=16, steps=300, lr=0.02, seed=0, batch_size=32):
    """The batched fine-tuning loop before its flat Adam buffer: (N, B, C) logits,
    one dict entry per parameter and moment, and new gradient arrays every step.
    Returns (b, a, heads, references) and leaves the suite untouched."""
    cfg, w0, n = suite.config, suite.base["layer0"], suite.n_tasks
    scale = 16.0 / rank
    inits = [substream(seed, "finetune", i) for i in range(n)]
    params = {
        "b": np.zeros((n, cfg.d, rank)),
        "a": np.stack([0.01 * g.standard_normal((cfg.m, rank)) for g in inits]),
        "h": np.stack([0.01 * g.standard_normal((cfg.n_classes, cfg.d)) for g in inits]),
    }
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    train_x, train_y = suite.train_x, suite.train_y
    schedule = np.stack([
        substream(seed, "finetune", i, "batch").integers(0, cfg.n_train, (steps, batch_size))
        for i in range(n)
    ], axis=1)
    rows, cols = np.arange(n)[:, None], np.arange(batch_size)
    initial_loss = None
    for t in range(steps):
        x, y = train_x[rows, schedule[t]], train_y[rows, schedule[t]]
        w = w0 + scale * params["b"] @ np.swapaxes(params["a"], 1, 2)
        z = x @ np.swapaxes(w, 1, 2)
        logits = z @ np.swapaxes(params["h"], 1, 2)
        e = np.exp(logits - logits.max(-1, keepdims=True))
        p = e / e.sum(-1, keepdims=True)
        loss = np.mean(-np.log(np.maximum(p[rows, cols, y], 1e-300)), axis=1)
        if initial_loss is None:
            initial_loss = np.maximum(loss, 1e-12)
        diverged = np.flatnonzero(~(loss <= 10.0 * initial_loss))
        if diverged.size:
            j = diverged[0]
            raise NumericalAbort(f"divergence guard: task{j} loss {loss[j]:.4g} "
                                 f"exceeds 10x initial at step {t}")
        dl = p.copy()
        dl[rows, cols, y] -= 1.0
        dl /= batch_size
        dw = np.swapaxes(dl @ params["h"], 1, 2) @ x
        grads = {
            "b": scale * dw @ params["a"],
            "a": scale * np.swapaxes(dw, 1, 2) @ params["b"],
            "h": np.swapaxes(dl, 1, 2) @ z,
        }
        tara.adamw_step(params, grads, m, v, t + 1, lr)
    refs = []
    for i in range(n):
        w = w0 + scale * params["b"][i] @ params["a"][i].T
        pred = np.argmax(suite.eval_x[i] @ w.T @ params["h"][i].T, axis=1)
        refs.append(float(np.mean(pred == suite.eval_y[i])))
    return params["b"], params["a"], params["h"], refs


class TestFinetune:
    @pytest.mark.parametrize("n_tasks", [1, 3])
    def test_batched_matches_per_task_loop(self, n_tasks):
        suite = harness.generate_suite(seed=6, n_tasks=n_tasks, d=12, m=10,
                                       n_train=90, n_eval=40, n_adapt=20)
        coll = harness.finetune_all(suite, rank=4, steps=60, lr=0.03, seed=5)
        for i in range(n_tasks):
            b, a, head, reference = _per_task_finetune(suite, i, 4, 60, 0.03, seed=5)
            ad = coll.adapters["layer0"][i]
            assert np.array_equal(ad.b, b) and np.array_equal(ad.a, a)
            assert np.array_equal(suite.heads[i], head)
            assert suite.references[i] == reference

    def test_divergence_names_the_task(self):
        """Each task is guarded against its own initial loss; the abort names the
        first task to diverge, as the per-task loop does."""
        def suite():
            return harness.generate_suite(seed=0, n_tasks=2, d=12, m=10, n_train=60,
                                          n_eval=30, n_adapt=20)

        alone = {}
        for i in range(2):
            with pytest.raises(NumericalAbort, match=f"task{i} loss") as exc:
                _per_task_finetune(suite(), i, 4, 50, 100.0, seed=0)
            step = int(str(exc.value).rsplit("step ", 1)[1])
            alone[(step, i)] = str(exc.value)
        with pytest.raises(NumericalAbort) as exc:
            harness.finetune_all(suite(), rank=4, steps=50, lr=100.0)
        assert str(exc.value) == alone[min(alone)]

    @pytest.mark.parametrize("suite_kwargs,train_kwargs", [
        ({}, {}),
        ({"seed": 3, "n_tasks": 2, "n_train": 120, "n_eval": 60, "n_adapt": 20},
         {"rank": 2, "steps": 80}),
    ], ids=["default", "two_tasks_rank_2"])
    def test_bits_match_the_reference_loop(self, suite_kwargs, train_kwargs):
        """The flat Adam buffer and class-major softmax keep every bit of B, A, the
        heads and the references."""
        suite = harness.generate_suite(**suite_kwargs)
        coll = harness.finetune_all(suite, **train_kwargs)
        b, a, heads, refs = _reference_finetune(harness.generate_suite(**suite_kwargs),
                                                **train_kwargs)
        for i, ad in enumerate(coll.adapters["layer0"]):
            assert np.array_equal(ad.b, b[i]) and np.array_equal(ad.a, a[i])
            assert np.array_equal(suite.heads[i], heads[i])
        assert suite.references == refs

    def test_divergence_message_matches_the_reference_loop(self):
        def suite():
            return harness.generate_suite(seed=0, n_tasks=2, d=12, m=10, n_train=60,
                                          n_eval=30, n_adapt=20)

        with pytest.raises(NumericalAbort) as want:
            _reference_finetune(suite(), rank=4, steps=50, lr=100.0)
        with pytest.raises(NumericalAbort) as got:
            harness.finetune_all(suite(), rank=4, steps=50, lr=100.0)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "kwargs",
        [{"rank": 0}, {"rank": -1}, {"steps": -3}, {"lr": 0.0}, {"lr": float("nan")},
         {"lr": float("inf")}],
        ids=["rank_0", "negative_rank", "negative_steps", "zero_lr", "nan_lr", "inf_lr"],
    )
    def test_bad_hyperparameters(self, kwargs):
        suite = harness.generate_suite(seed=0, n_tasks=1, n_train=40, n_eval=20,
                                       n_adapt=10)
        with pytest.raises(ValueError) as exc:
            harness.finetune_all(suite, **{"rank": 4, "steps": 5, **kwargs})
        assert exc.value.code == "bad_config"
        assert suite.heads is None and suite.references == [None]

    def test_references_meet_bar(self, default_suite):
        suite, _ = default_suite
        assert all(r >= 0.9 for r in suite.references)

    def test_base_model_well_below(self, default_suite):
        suite, _ = default_suite
        for i in range(suite.n_tasks):
            assert suite.accuracy(i, dict(suite.base)) <= 0.6

    def test_zero_steps_is_zero_delta(self):
        suite = harness.generate_suite(seed=1, n_tasks=1, n_train=50, n_eval=30,
                                       n_adapt=20)
        (ad,) = harness.finetune_all(suite, rank=4, steps=0).adapters["layer0"]
        assert np.all(ad.b == 0.0)

    def test_deterministic_adapters(self):
        s1 = harness.generate_suite(seed=2, n_tasks=1, n_train=80, n_eval=40, n_adapt=20)
        s2 = harness.generate_suite(seed=2, n_tasks=1, n_train=80, n_eval=40, n_adapt=20)
        (a1,) = harness.finetune_all(s1, rank=4, steps=50, seed=7).adapters["layer0"]
        (a2,) = harness.finetune_all(s2, rank=4, steps=50, seed=7).adapters["layer0"]
        assert np.array_equal(a1.b, a2.b)
        assert np.array_equal(a1.a, a2.a)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    def test_nan_loss_trips_the_guard(self):
        """A NaN loss is not <= 10x the initial loss, so it aborts naming the task
        instead of reaching the adapter's finiteness check."""
        suite = harness.generate_suite(seed=0, n_tasks=2, d=12, m=10, n_train=60,
                                       n_eval=30, n_adapt=20)
        with pytest.raises(NumericalAbort, match="task0 loss nan"):
            harness.finetune_all(suite, rank=4, steps=5, lr=1e300)

    def test_rank_bound(self):
        suite = harness.generate_suite(seed=0, n_tasks=1, n_train=40, n_eval=20,
                                       n_adapt=10)
        with pytest.raises(CodedError, match=r"rank 25 is not an integer in \[1, min"):
            harness.finetune_all(suite, rank=25)


class TestEvaluate:
    def test_finetuned_is_exactly_one(self, default_suite):
        suite, coll = default_suite
        for i in range(suite.n_tasks):
            ad = coll.adapters["layer0"][i]
            weights = {
                "layer0": suite.base["layer0"] + ad.scale * ad.b @ ad.a.T
            }
            rep = harness.evaluate(weights, suite)
            assert rep.normalized[i] == pytest.approx(1.0, abs=1e-12)

    def test_normalization_arithmetic(self, default_suite):
        suite, _ = default_suite
        rep = harness.evaluate(dict(suite.base), suite)
        for i in range(suite.n_tasks):
            assert rep.normalized[i] == pytest.approx(
                rep.absolute[i] / suite.references[i]
            )
            assert rep.normalized[i] <= 1.0 + 1e-12

    def test_missing_reference(self):
        suite = harness.generate_suite(seed=3, n_tasks=1, n_train=40, n_eval=20,
                                       n_adapt=10)
        with pytest.raises(CodedError, match="task 0 has no fine-tuned reference accuracy"):
            harness.evaluate(dict(suite.base), suite)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_logits_abort(self, small_suite, bad):
        """argmax of NaN logits picks class 0, and a sort and a rank count place
        a NaN score differently, so both evaluations refuse them."""
        suite, _ = small_suite
        w = suite.base["layer0"].copy()
        w[0, 0] = bad
        with pytest.raises(NumericalAbort, match="non-finite logits"):
            harness.evaluate({"layer0": w}, suite)
        with pytest.raises(NumericalAbort, match="non-finite joint scores"):
            harness.evaluate_joint({"layer0": w}, suite, ks=(1,))

    @pytest.mark.parametrize("reference", [0.0, -0.5])
    def test_non_positive_reference(self, small_suite, reference):
        suite, _ = small_suite
        bad = dataclasses.replace(suite, references=[suite.references[0], reference])
        with pytest.raises(CodedError) as exc:
            harness.evaluate(dict(suite.base), bad)
        assert exc.value.code == "bad_references"


class TestJointEval:
    def test_hits_monotone_and_saturate(self, default_suite):
        suite, coll = default_suite
        weights = mergers.merge_ta(coll, 0.3)
        union = len(set(suite.labels.ravel().tolist()))
        hits = harness.evaluate_joint(weights, suite, ks=(1, 3, 5, union))
        ks = sorted(hits)
        for a, b in zip(ks, ks[1:]):
            assert hits[a] <= hits[b] + 1e-12
        assert hits[union] == 1.0

    def test_k_too_large(self, default_suite):
        suite, coll = default_suite
        with pytest.raises(CodedError, match="k=100 exceeds union label count"):
            harness.evaluate_joint(dict(suite.base), suite, ks=(100,))

    def test_matches_brute_force(self, small_suite):
        """Independent top-k scorer over explicitly built union logits, at the
        TA merge and at zero weights, which tie every score: a stable sort
        ranks tied labels in label order."""
        suite, coll = small_suite
        ta = mergers.merge_ta(coll, 0.3)
        for weights in (ta, {"layer0": np.zeros_like(ta["layer0"])}):
            got = harness.evaluate_joint(weights, suite, ks=(1, 2))
            union = sorted(set(suite.labels.ravel().tolist()))
            hits = {1: 0, 2: 0}
            total = 0
            for i in range(suite.n_tasks):
                for s in range(suite.eval_x.shape[1]):
                    scores = {lab: -np.inf for lab in union}
                    for j in range(suite.n_tasks):
                        logits = (
                            suite.heads[j] @ weights["layer0"] @ suite.eval_x[i, s]
                        )
                        for c, lab in enumerate(suite.labels[j]):
                            scores[lab] = max(scores[lab], logits[c])
                    ranked = sorted(union, key=lambda lab: -scores[lab])
                    true = suite.labels[i, suite.eval_y[i, s]]
                    for k in (1, 2):
                        hits[k] += true in ranked[:k]
                    total += 1
            for k in (1, 2):
                assert got[k] == pytest.approx(hits[k] / total, abs=1e-12)

    def test_overlapping_labels_merge_columns(self):
        suite = harness.generate_suite(
            seed=4, n_tasks=2, n_train=60, n_eval=30, n_adapt=20,
            label_offsets=(0, 0),  # identical label spaces
        )
        coll = harness.finetune_all(suite, rank=4, steps=100, seed=4)
        weights = mergers.merge_ta(coll, 0.3)
        hits = harness.evaluate_joint(weights, suite, ks=(5,))
        assert hits[5] == 1.0  # union has exactly 5 labels


def _per_task_entropy_and_grad(head, w, batch):
    """Per-task reference for the batched suite call: one task, one (d, m) W."""
    logits = batch @ w.T @ head.T
    e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    p = e / np.sum(e, axis=1, keepdims=True)
    logp = np.log(p)
    ent = -np.sum(p * logp, axis=1)
    dl = -p * (logp + ent[:, None]) / batch.shape[0]
    return float(np.mean(ent)), (dl @ head).T @ batch


class _PerTaskSuite:
    """The suite scored one task per call by the per-task reference: the only
    dense form. Its factor scorer assembles each point's W and projects each
    task's weight gradient onto the columns."""

    def __init__(self, suite):
        self.suite, self.adapt_x = suite, suite.adapt_x

    def dense_entropy_and_grad(self, weights, batches):
        """f (N,) and {"layer0": (N, d, m)} weight gradients of the N tasks at
        one (d, m) W, each task on its own batch."""
        out = [_per_task_entropy_and_grad(self.suite.heads[i], weights["layer0"], b)
               for i, b in enumerate(batches)]
        return np.array([f for f, _ in out]), {"layer0": np.stack([g for _, g in out])}

    def factor_scorer(self, coll, stacks):
        s, pools = stacks["layer0"], self.adapt_x

        def score(coef, idx):  # (P, K) coef of sigma-scaled columns; idx None: whole pools
            batches = pools if idx is None else pools[np.arange(len(pools))[:, None], idx]
            f, cols = [], []
            for c in coef["layer0"]:
                fp, g = self.dense_entropy_and_grad(
                    {"layer0": coll.base["layer0"] + (s.left * (s.sigma * c)) @ s.right.T},
                    batches)
                f.append(fp)
                cols.append(s.project(g["layer0"]))
            return np.stack(f), {"layer0": np.stack(cols)}

        return score


def reference_factor_scorer(suite, coll, stacks):
    """TaskSuite.factor_scorer as it was before its per-run pool products, with
    sigma folded into H left: its score(coef, batches) multiplies each call's
    (N, B, m) batches and scores (..., B, C) logits with the log-sum-exp reference
    helper. At C < 8 the suite's scorer(coef, idx) must match it bit for bit on
    batches = pools[tasks, idx]."""
    h, s = suite.heads, stacks["layer0"]
    hl = h @ (s.left * s.sigma)
    hl_t, hw0_t = np.swapaxes(hl, -1, -2), np.swapaxes(h @ coll.base["layer0"], -1, -2)

    def score(coef, batches):
        xr = batches @ s.right                           # (N, B, K)
        scaled = coef["layer0"][..., None, :, None] * hl_t  # (..., N, K, C)
        f, dl = reference_lse_entropy_and_dlogits(batches @ hw0_t + xr @ scaled)
        grad = np.einsum("...nck,nck->...nk", np.swapaxes(dl, -1, -2) @ xr, hl)
        return f, {"layer0": grad}

    return score


def reference_lse_entropy_and_dlogits(logits):
    """The entropy helper's log-sum-exp form over (..., B, C) logits, with
    numpy's wrappers: log p = z - log s, E = log s - sum p z, z clipped at -800.
    harness._entropy_and_dlogits must match it bit for bit."""
    z = np.maximum(logits - np.max(logits, axis=-1, keepdims=True), -800.0)
    e = np.exp(z)
    s = np.sum(e, axis=-1, keepdims=True)
    p = e / s
    log_s = np.log(s)
    ent = log_s[..., 0] - np.sum(p * z, axis=-1)
    dl = -p * (z - log_s + ent[..., None]) / logits.shape[-2]
    return np.mean(ent, axis=-1), dl


def reference_entropy_and_dlogits(logits):
    """The entropy helper as first written, with numpy's wrappers and a masked
    log of the normalized p: harness._entropy_and_dlogits must match it to
    rounding."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / np.sum(e, axis=-1, keepdims=True)
    logp = np.log(p, out=np.zeros_like(p), where=p > 0)
    ent = -np.sum(p * logp, axis=-1)
    dl = -p * (logp + ent[..., None]) / logits.shape[-2]
    return np.mean(ent, axis=-1), dl


@st.composite
def _logits(draw, finite=False):
    """(..., B, C) logits with +-inf and NaN entries (unless finite), and entries
    more than 745 from the rest of their row, so that exp underflows and p is
    exactly 0."""
    shape = draw(st.sampled_from([(1, 1), (3, 5), (2, 4, 3), (2, 3, 16, 5)]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = gen.normal(0.0, draw(st.sampled_from([1.0, 30.0])), shape)
    flat = logits.reshape(-1)
    specials = st.sampled_from([800.0, -800.0, -1e4] if finite
                               else [np.inf, -np.inf, np.nan, 800.0, -800.0, -1e4])
    for where, value in draw(st.lists(st.tuples(st.integers(0, flat.size - 1), specials),
                                      max_size=8)):
        flat[where] = value
    return logits


class TestEntropyHelper:
    @settings(max_examples=300, deadline=None)
    @given(logits=_logits(), contiguous=st.booleans())
    def test_bits_match_the_reference(self, logits, contiguous):
        """The helper takes class-first logits: a contiguous copy, as the scorer
        passes, or a view of (..., B, C) memory."""
        class_first = np.moveaxis(logits, -1, 0)
        with np.errstate(all="ignore"):
            f, dl = harness._entropy_and_dlogits(
                class_first.copy() if contiguous else class_first)
            got = f, np.moveaxis(dl, 0, -1)
            want = reference_lse_entropy_and_dlogits(logits)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w, equal_nan=True)
            finite = ~np.isnan(w)
            assert np.array_equal(np.signbit(g)[finite], np.signbit(w)[finite])

    @settings(max_examples=300, deadline=None)
    @given(logits=_logits())
    def test_masked_log_form_to_rounding(self, logits):
        """The log-sum-exp form agrees with the masked log of the normalized p:
        the same NaNs, and finite entries to rounding. The absolute term covers
        near-zero entropies, where log p of a p near 1 rounds."""
        with np.errstate(all="ignore"):
            f, dl = harness._entropy_and_dlogits(np.moveaxis(logits, -1, 0).copy())
            got = f, np.moveaxis(dl, 0, -1)
            want = reference_entropy_and_dlogits(logits)
        for g, w in zip(got, want):
            assert np.array_equal(np.isnan(g), np.isnan(w))
            finite = np.isfinite(w)
            assert np.all(np.abs(g - w)[finite] <= 1e-12 * np.abs(w)[finite] + 1e-15)

    @settings(max_examples=300, deadline=None)
    @given(logits=_logits(finite=True))
    def test_mean_entropy_is_bounded(self, logits):
        """The bound TARA's objective rests on: for finite logits the mean
        entropy lies in [0, log C], up to rounding."""
        f, _ = harness._entropy_and_dlogits(np.moveaxis(logits, -1, 0).copy())
        assert np.all(f >= 0) and np.all(f <= np.log(logits.shape[-1]) + 1e-12)

    def test_nine_classes_match_the_reference_to_rounding(self, nine_class_suite):
        """At C >= 8 numpy sums a contiguous class axis pairwise and a leading one
        in sequence, so the bits may differ; the values agree to rounding."""
        suite, _ = nine_class_suite
        logits = suite.adapt_x @ suite.base["layer0"].T @ np.swapaxes(suite.heads, -1, -2)
        f, dl = harness._entropy_and_dlogits(np.moveaxis(logits, -1, 0).copy())
        want_f, want_dl = reference_entropy_and_dlogits(logits)
        assert np.max(np.abs(f - want_f)) <= 1e-12 * np.max(np.abs(want_f))
        assert (np.max(np.abs(np.moveaxis(dl, 0, -1) - want_dl))
                <= 1e-12 * np.max(np.abs(want_dl)))


class TestEntropyAndGrad:
    @pytest.mark.parametrize("per_task", [False, True], ids=["shared", "per_task"])
    def test_matches_per_task_loop(self, default_suite, per_task):
        """The scorer's entropies and column gradients, at one point or at one
        point per task, match the dense per-task loop."""
        suite, coll = default_suite
        n, (d, m) = suite.n_tasks, suite.base["layer0"].shape
        gen = substream(31, "weights")
        stack = FactorStack(left=gen.standard_normal((d, 6)), right=gen.standard_normal((m, 6)),
                            sigma=np.ones(6), owner=np.zeros(6, dtype=int))
        coef = {"layer0": 0.1 * gen.standard_normal((n, 6) if per_task else (6,))}
        idx = np.tile(np.arange(16), (n, 1))
        f, grads = suite.factor_scorer(coll, {"layer0": stack})(coef, idx)
        assert f.shape == coef["layer0"].shape[:-1] + (n,)
        assert grads["layer0"].shape == f.shape + (6,)
        want_f, want_g = _PerTaskSuite(suite).factor_scorer(coll, {"layer0": stack})(
            {"layer0": np.atleast_2d(coef["layer0"])}, idx)
        assert np.max(np.abs(f - want_f.reshape(f.shape))) <= 1e-12
        want_g = want_g["layer0"].reshape(grads["layer0"].shape)
        assert np.max(np.abs(grads["layer0"] - want_g)) <= 1e-12 * np.max(np.abs(want_g))

    def test_whole_pools_keep_the_bits_of_gathered_rows(self, default_suite):
        """idx None reads every pool row in order from views of the pool
        products: the bits of gathering rows 0..pool-1 of every pool."""
        suite, coll = default_suite
        basis = tara.build_variant_b(coll)
        pools = suite.adapt_x
        score = suite.factor_scorer(basis, basis.layers)
        coef = tara._coefficients(basis, basis.init_phi(0.4))
        f, grads = score(coef, None)
        want_f, want_g = score(coef, np.tile(np.arange(pools.shape[1]), (len(pools), 1)))
        assert np.array_equal(f, want_f)
        assert np.array_equal(grads["layer0"], want_g["layer0"])

    def test_missing_head(self):
        suite = harness.generate_suite(seed=0, n_tasks=2, n_train=20, n_eval=10, n_adapt=10)
        coll = random_collection(seed=0, n_tasks=2, layers=("layer0",), d=32, m=24, rank=1)
        with pytest.raises(CodedError, match="no trained head"):
            suite.factor_scorer(coll, tara._adapter_stacks(coll))


@functools.lru_cache(maxsize=1)
def _tiny_suite_files() -> tuple[bytes, bytes]:
    """suite.lmk and suite.json bytes of a small trained two-task suite."""
    suite = harness.generate_suite(seed=3, n_tasks=2, d=4, m=3, n_classes=2,
                                   n_train=6, n_eval=4, n_adapt=3)
    coll = harness.finetune_all(suite, rank=2, steps=3, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        lmk, side = Path(tmp) / "s.lmk", Path(tmp) / "s.json"
        harness.save_suite(suite, coll, lmk, side)
        return lmk.read_bytes(), side.read_bytes()


class TestSerialization:
    def test_round_trip(self, tmp_path, small_suite):
        suite, coll = small_suite
        harness.save_suite(suite, coll, tmp_path / "s.lmk", tmp_path / "s.json")
        loaded, lcoll = harness.load_suite(tmp_path / "s.lmk", tmp_path / "s.json")
        assert loaded.config == suite.config
        assert loaded.references == suite.references
        for name in ("train_x", "train_y", "eval_x", "eval_y", "adapt_x", "labels", "heads"):
            got, want = getattr(loaded, name), getattr(suite, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
        assert lcoll.task_ids == coll.task_ids
        assert json.loads((tmp_path / "s.json").read_text()).keys() == {
            "config", "references"
        }

    def test_untrained_suite_round_trips(self, tmp_path):
        """A suite without heads or references loads with heads None."""
        suite = harness.generate_suite(seed=1, n_tasks=2, n_train=8, n_eval=5, n_adapt=4)
        coll = harness.finetune_all(harness.generate_suite(suite.config), rank=2, steps=1)
        harness.save_suite(suite, coll, tmp_path / "s.lmk", tmp_path / "s.json")
        loaded, _ = harness.load_suite(tmp_path / "s.lmk", tmp_path / "s.json")
        assert loaded.heads is None and loaded.references == [None, None]
        assert np.array_equal(loaded.eval_y, suite.eval_y)

    def test_saved_bytes_stable(self, tmp_path, small_suite):
        suite, coll = small_suite
        harness.save_suite(suite, coll, tmp_path / "a.lmk", tmp_path / "a.json")
        harness.save_suite(suite, coll, tmp_path / "b.lmk", tmp_path / "b.json")
        assert (tmp_path / "a.lmk").read_bytes() == (tmp_path / "b.lmk").read_bytes()
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_save_holds_no_copy_of_the_payload(self, tmp_path, default_suite):
        """Each tensor goes to the file as it is converted, so saving allocates
        less than the file holds."""
        suite, coll = default_suite
        tracemalloc.start()
        try:
            harness.save_suite(suite, coll, tmp_path / "s.lmk", tmp_path / "s.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (tmp_path / "s.lmk").stat().st_size

    def test_tensors_must_fit_the_config(self, tmp_path, small_suite):
        suite, coll = small_suite
        bad = dataclasses.replace(suite, train_y=suite.train_y[:, :-1])
        with pytest.raises(CodedError) as exc:
            harness.save_suite(bad, coll, tmp_path / "s.lmk", tmp_path / "s.json")
        assert exc.value.code == "bad_suite"

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_byte_mutation_loads_or_raises_coded_error(self, data):
        """Any one-byte replacement, insertion or deletion of a saved suite
        container either loads or raises a coded CodedError."""
        blob, sidecar = _tiny_suite_files()
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        kind = data.draw(st.sampled_from(["replace", "insert", "delete"]), label="kind")
        byte = b"" if kind == "delete" else bytes([data.draw(st.integers(0, 255))])
        with tempfile.TemporaryDirectory() as tmp:
            lmk, side = Path(tmp) / "s.lmk", Path(tmp) / "s.json"
            lmk.write_bytes(blob[:pos] + byte + blob[pos + (kind != "insert"):])
            side.write_bytes(sidecar)
            try:
                harness.load_suite(lmk, side)
            except CodedError as exc:
                assert exc.code is not None
