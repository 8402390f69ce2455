import dataclasses
import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loramerge import harness, mergers, tara
from loramerge.adapters import AdapterCollection, ContainerError
from loramerge.harness import HarnessError, SuiteConfig
from loramerge.rng import substream


class TestGeneration:
    def test_deterministic(self):
        s1 = harness.generate_suite(seed=5, n_tasks=2, n_train=50, n_eval=30, n_adapt=20)
        s2 = harness.generate_suite(seed=5, n_tasks=2, n_train=50, n_eval=30, n_adapt=20)
        assert np.array_equal(s1.base["layer0"], s2.base["layer0"])
        for t1, t2 in zip(s1.tasks, s2.tasks):
            assert np.array_equal(t1.train_x, t2.train_x)
            assert np.array_equal(t1.eval_y, t2.eval_y)

    def test_seed_changes_data(self):
        s1 = harness.generate_suite(seed=0, n_tasks=1, n_train=50, n_eval=30, n_adapt=20)
        s2 = harness.generate_suite(seed=1, n_tasks=1, n_train=50, n_eval=30, n_adapt=20)
        assert not np.array_equal(s1.tasks[0].train_x, s2.tasks[0].train_x)

    def test_base_is_low_rank(self):
        suite = harness.generate_suite(seed=0)
        sigma = np.linalg.svd(suite.base["layer0"], compute_uv=False)
        assert np.sum(sigma > 1e-10 * sigma[0]) == suite.config.base_rank

    def test_disjoint_default_labels(self):
        suite = harness.generate_suite(seed=0, n_tasks=3)
        seen = set()
        for td in suite.tasks:
            labels = set(td.labels.tolist())
            assert not labels & seen
            seen |= labels

    def test_config_validation(self):
        with pytest.raises(HarnessError):
            SuiteConfig(n_tasks=0)
        with pytest.raises(HarnessError):
            harness.generate_suite(seed=0, n_tasks=2, label_offsets=(0,))


def _per_task_finetune(suite, task, rank, steps, lr, seed, lora_alpha=16.0, batch_size=32):
    """Per-task reference for the batched fine-tuning loop: one task, 2-D
    arrays, one fresh substream per step. Returns (b, a, head, reference)."""
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
    td = suite.tasks[task]
    for t in range(steps):
        idx = substream(seed, "finetune", task, "batch", t).integers(0, cfg.n_train,
                                                                      batch_size)
        x, y = td.train_x[idx], td.train_y[idx]
        z = x @ (w0 + scale * params["b"] @ params["a"].T).T
        logits = z @ params["h"].T
        e = np.exp(logits - np.max(logits, axis=1, keepdims=True))
        dl = e / np.sum(e, axis=1, keepdims=True)
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
    pred = np.argmax(td.eval_x @ w.T @ params["h"].T, axis=1)
    return params["b"], params["a"], params["h"], float(np.mean(pred == td.eval_y))


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
        first task to diverge, as that task's own run does."""
        def suite():
            return harness.generate_suite(seed=0, n_tasks=2, d=12, m=10, n_train=60,
                                          n_eval=30, n_adapt=20)

        alone = {}
        for i in range(2):
            with pytest.raises(harness.HarnessAbort, match=f"task{i} loss") as exc:
                harness.finetune_lora(suite(), i, rank=4, steps=50, lr=100.0)
            step = int(str(exc.value).rsplit("step ", 1)[1])
            alone[(step, i)] = str(exc.value)
        with pytest.raises(harness.HarnessAbort) as exc:
            harness.finetune_all(suite(), rank=4, steps=50, lr=100.0)
        assert str(exc.value) == alone[min(alone)]

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
            harness.finetune_lora(suite, 0, **{"rank": 4, "steps": 5, **kwargs})
        assert exc.value.code == "bad_config"
        assert suite.heads == [None] and suite.references == [None]

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
        ad = harness.finetune_lora(suite, 0, rank=4, steps=0)
        assert np.all(ad.b == 0.0)

    def test_deterministic_adapters(self):
        s1 = harness.generate_suite(seed=2, n_tasks=1, n_train=80, n_eval=40, n_adapt=20)
        s2 = harness.generate_suite(seed=2, n_tasks=1, n_train=80, n_eval=40, n_adapt=20)
        a1 = harness.finetune_lora(s1, 0, rank=4, steps=50, seed=7)
        a2 = harness.finetune_lora(s2, 0, rank=4, steps=50, seed=7)
        assert np.array_equal(a1.b, a2.b)
        assert np.array_equal(a1.a, a2.a)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    def test_nan_loss_trips_the_guard(self):
        """A NaN loss is not <= 10x the initial loss, so it aborts naming the task
        instead of reaching the adapter's finiteness check."""
        suite = harness.generate_suite(seed=0, n_tasks=2, d=12, m=10, n_train=60,
                                       n_eval=30, n_adapt=20)
        with pytest.raises(harness.HarnessAbort, match="task0 loss nan"):
            harness.finetune_all(suite, rank=4, steps=5, lr=1e300)

    def test_rank_bound(self):
        suite = harness.generate_suite(seed=0, n_tasks=1, n_train=40, n_eval=20,
                                       n_adapt=10)
        with pytest.raises(HarnessError):
            harness.finetune_lora(suite, 0, rank=25)


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
        with pytest.raises(HarnessError):
            harness.evaluate(dict(suite.base), suite)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_logits_abort(self, small_suite, bad):
        """argmax of NaN logits picks class 0, so evaluate refuses them."""
        suite, _ = small_suite
        w = suite.base["layer0"].copy()
        w[0, 0] = bad
        with pytest.raises(harness.HarnessAbort, match="non-finite logits"):
            harness.evaluate({"layer0": w}, suite)

    @pytest.mark.parametrize("reference", [0.0, -0.5])
    def test_non_positive_reference(self, small_suite, reference):
        suite, _ = small_suite
        bad = dataclasses.replace(suite, references=[suite.references[0], reference])
        with pytest.raises(HarnessError) as exc:
            harness.evaluate(dict(suite.base), bad)
        assert exc.value.code == "bad_references"


class TestJointEval:
    def test_hits_monotone_and_saturate(self, default_suite):
        suite, coll = default_suite
        weights = mergers.merge_ta(coll, 0.3)
        union = len({lab for td in suite.tasks for lab in td.labels.tolist()})
        hits = harness.evaluate_joint(weights, suite, ks=(1, 3, 5, union))
        ks = sorted(hits)
        for a, b in zip(ks, ks[1:]):
            assert hits[a] <= hits[b] + 1e-12
        assert hits[union] == 1.0

    def test_k_too_large(self, default_suite):
        suite, coll = default_suite
        with pytest.raises(HarnessError):
            harness.evaluate_joint(dict(suite.base), suite, ks=(100,))

    def test_matches_brute_force(self, small_suite):
        """Independent top-k scorer over explicitly built union logits."""
        suite, coll = small_suite
        weights = mergers.merge_ta(coll, 0.3)
        got = harness.evaluate_joint(weights, suite, ks=(1, 2))
        union = sorted({lab for td in suite.tasks for lab in td.labels.tolist()})
        hits = {1: 0, 2: 0}
        total = 0
        for i, td in enumerate(suite.tasks):
            for s in range(td.eval_x.shape[0]):
                scores = {lab: -np.inf for lab in union}
                for j in range(suite.n_tasks):
                    logits = (
                        suite.heads[j] @ weights["layer0"] @ td.eval_x[s]
                    )
                    for c, lab in enumerate(suite.tasks[j].labels):
                        scores[lab] = max(scores[lab], logits[c])
                ranked = sorted(union, key=lambda lab: -scores[lab])
                true = td.labels[td.eval_y[s]]
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
    """The suite scored one task per call by the per-task reference."""

    def __init__(self, suite):
        self.suite = suite

    def adaptation_pool(self, task):
        return self.suite.adaptation_pool(task)

    def entropy_and_grad(self, weights, batches):
        w = weights["layer0"]
        if w.ndim == 4:  # P weights, each (1|n, d, m), all on the same batches
            out = [self.entropy_and_grad({"layer0": wp[0] if len(wp) == 1 else wp}, batches)
                   for wp in w]
            grads = np.stack([g["layer0"] for _, g in out])
            return np.stack([f for f, _ in out]), {"layer0": grads}
        out = [
            _per_task_entropy_and_grad(self.suite.heads[i], w[i] if w.ndim == 3 else w, b)
            for i, b in enumerate(batches)
        ]
        return np.array([f for f, _ in out]), {"layer0": np.stack([g for _, g in out])}


class TestEntropyAndGrad:
    @pytest.mark.parametrize("per_task", [False, True], ids=["shared", "per_task"])
    def test_matches_per_task_loop(self, default_suite, per_task):
        suite, _ = default_suite
        n, w0 = suite.n_tasks, suite.base["layer0"]
        gen = substream(31, "weights")
        w = w0 + 0.3 * gen.standard_normal(((n,) if per_task else ()) + w0.shape)
        batches = np.stack([suite.adaptation_pool(i)[:16] for i in range(n)])
        f, grads = suite.entropy_and_grad({"layer0": w}, batches)
        assert f.shape == (n,) and grads["layer0"].shape == (n,) + w0.shape
        for i in range(n):
            want_f, want_g = _per_task_entropy_and_grad(
                suite.heads[i], w[i] if per_task else w, batches[i]
            )
            assert abs(f[i] - want_f) <= 1e-12
            assert np.max(np.abs(grads["layer0"][i] - want_g)) <= 1e-12

    @pytest.mark.parametrize("per_task", [False, True], ids=["shared", "per_task"])
    def test_point_stack_matches_separate_calls(self, default_suite, per_task):
        """A (P, 1|n, d, m) stack scores each of its P weights on the same batches."""
        suite, _ = default_suite
        n, w0 = suite.n_tasks, suite.base["layer0"]
        gen = substream(32, "weights")
        w = w0 + 0.3 * gen.standard_normal((3, n if per_task else 1) + w0.shape)
        batches = np.stack([suite.adaptation_pool(i)[:16] for i in range(n)])
        f, grads = suite.entropy_and_grad({"layer0": w}, batches)
        assert f.shape == (3, n) and grads["layer0"].shape == (3, n) + w0.shape
        for p in range(3):
            want_f, want_g = suite.entropy_and_grad(
                {"layer0": w[p] if per_task else np.repeat(w[p], n, axis=0)}, batches)
            assert np.max(np.abs(f[p] - want_f)) <= 1e-12
            assert np.max(np.abs(grads["layer0"][p] - want_g["layer0"])) <= 1e-12

    @pytest.mark.parametrize("tasks", [["task0"], ["task0", "task1"]], ids=["one", "two"])
    def test_merge_of_fewer_tasks_than_the_suite(self, default_suite, tasks):
        """A collection of the suite's first n tasks is scored by heads 0..n-1 only."""
        suite, coll = default_suite
        sub = coll.subset(tasks)
        reference = _PerTaskSuite(suite)
        z = tara.compute_anchors(sub, suite)
        assert z.shape == (len(tasks),)
        assert np.max(np.abs(z - tara.compute_anchors(sub, reference))) <= 1e-12
        rho = np.full(len(tasks), 1.0 / len(tasks))
        cfg = tara.OptimConfig(max_iters=20)
        got, _, _ = tara.merge_tara(sub, suite, rho, optim=cfg)
        want, _, _ = tara.merge_tara(sub, reference, rho, optim=cfg)
        assert np.max(np.abs(got["layer0"] - want["layer0"])) <= 1e-10

    def test_rows_must_fit_the_suite(self, small_suite):
        suite, _ = small_suite
        batches = np.stack([suite.adaptation_pool(i)[:4] for i in range(2)])
        with pytest.raises(HarnessError, match="suite of 2 tasks"):
            suite.entropy_and_grad(dict(suite.base), np.concatenate([batches, batches[:1]]))
        stacked = np.stack([suite.base["layer0"]] * 3)
        with pytest.raises(HarnessError, match="3 per-task weights for 2 batches"):
            suite.entropy_and_grad({"layer0": stacked}, batches)
        with pytest.raises(HarnessError, match="3 per-task weights for 2 batches"):
            suite.entropy_and_grad({"layer0": stacked[None]}, batches)

    def test_missing_head(self):
        suite = harness.generate_suite(seed=0, n_tasks=2, n_train=20, n_eval=10, n_adapt=10)
        batches = np.stack([suite.adaptation_pool(i) for i in range(2)])
        with pytest.raises(HarnessError, match="no trained head"):
            suite.entropy_and_grad(dict(suite.base), batches)


class TestSweepAndSplit:
    def test_unseen_split(self, small_suite):
        suite, coll = small_suite

        def merge_fn(c, s):
            return mergers.merge_ta(c, 0.3)

        rep = harness.unseen_split_eval(coll, suite, ["task0"], merge_fn)
        assert rep.seen["seen_tasks"] == ["task0"]
        assert rep.seen["unseen_tasks"] == ["task1"]
        assert rep.seen["combined_avg_normalized"] == pytest.approx(rep.avg_normalized)
        with pytest.raises(HarnessError):
            harness.unseen_split_eval(coll, suite, [], merge_fn)

    def test_seen_all_tasks(self, small_suite):
        suite, coll = small_suite

        def merge_fn(c, s):
            return mergers.merge_ta(c, 0.3)

        rep = harness.unseen_split_eval(coll, suite, ["task0", "task1"], merge_fn)
        assert rep.seen["unseen_avg_normalized"] is None
        assert rep.seen["seen_avg_normalized"] == pytest.approx(rep.avg_normalized)


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
        assert len(loaded.tasks) == len(suite.tasks)
        for t1, t2 in zip(loaded.tasks, suite.tasks):
            for f in dataclasses.fields(harness.TaskData):
                got, want = getattr(t1, f.name), getattr(t2, f.name)
                assert (got.dtype, got.shape) == (want.dtype, want.shape), f.name
                assert got.tobytes() == want.tobytes(), f.name
        assert len(loaded.heads) == len(suite.heads)
        for h1, h2 in zip(loaded.heads, suite.heads):
            assert (h1.dtype, h1.shape) == (h2.dtype, h2.shape)
            assert h1.tobytes() == h2.tobytes()
        assert lcoll.task_ids == coll.task_ids
        assert json.loads((tmp_path / "s.json").read_text()).keys() == {
            "config", "references"
        }

    def test_untrained_suite_round_trips(self, tmp_path):
        """Tasks without a head or a reference load as None."""
        suite = harness.generate_suite(seed=1, n_tasks=2, n_train=8, n_eval=5, n_adapt=4)
        empty = AdapterCollection(layer_ids=["layer0"], task_ids=[], base=dict(suite.base),
                                  adapters={"layer0": []})
        harness.save_suite(suite, empty, tmp_path / "s.lmk", tmp_path / "s.json")
        loaded, _ = harness.load_suite(tmp_path / "s.lmk", tmp_path / "s.json")
        assert loaded.heads == [None, None] and loaded.references == [None, None]
        assert np.array_equal(loaded.tasks[1].eval_y, suite.tasks[1].eval_y)

    def test_saved_bytes_stable(self, tmp_path, small_suite):
        suite, coll = small_suite
        harness.save_suite(suite, coll, tmp_path / "a.lmk", tmp_path / "a.json")
        harness.save_suite(suite, coll, tmp_path / "b.lmk", tmp_path / "b.json")
        assert (tmp_path / "a.lmk").read_bytes() == (tmp_path / "b.lmk").read_bytes()
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_tensors_must_fit_the_config(self, tmp_path, small_suite):
        suite, coll = small_suite
        short = dataclasses.replace(suite.tasks[0], train_y=suite.tasks[0].train_y[:-1])
        bad = dataclasses.replace(suite, tasks=[short, suite.tasks[1]])
        with pytest.raises(HarnessError) as exc:
            harness.save_suite(bad, coll, tmp_path / "s.lmk", tmp_path / "s.json")
        assert exc.value.code == "bad_suite"

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_byte_mutation_loads_or_raises_coded_error(self, data):
        """Any one-byte replacement, insertion or deletion of a saved suite
        container either loads or raises ContainerError or HarnessError."""
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
            except (ContainerError, HarnessError):
                pass
