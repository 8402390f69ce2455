"""The three benchmark workloads: set-up, one timed pass, and output checks.

Each workload is driven in one process through the public API. ``setup``
builds the inputs from the seed; ``run_pass`` runs one pass, handing each
step to the runner's ``step(name, fn)``, which times it; ``check`` verifies
that pass's outputs outside the timed region and records every operation as
attempted and, when it raised, exited nonzero or produced a wrong output, as
failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from loramerge import adapters, cli, diagnostics, harness, linalg, mergers, tara
from loramerge.rng import substream

TOY_MERGES = ("ta", "tara-a", "tara-b", "adamerging")
TARA_METHODS = ("tara-a", "tara-b", "adamerging")
SWEEP_POINTS = 2
WIDE_TASKS = 4
CLI_COMMANDS = ("train-toy", "diagnose", *(f"merge.{m}" for m in TOY_MERGES), "sweep", "eval")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY is for the smoke test."""

    train_args: tuple = ()           # extra train-toy flags
    tara_args: tuple = ()            # extra merge/sweep flags for optimizer methods
    wide_dims: tuple = (64, 128)     # one square layer per entry
    wide_rank: int = 16
    setup_repeats: int = 7           # set-ups per run; setup_s is their median


FULL = Sizes()
TINY = Sizes(
    train_args=("--d", "8", "--m", "6", "--n-train", "40", "--n-eval", "20",
                "--n-adapt", "20", "--rank", "2", "--steps", "10"),
    tara_args=("--iters", "3"),
    wide_dims=(8, 16),
    wide_rank=2,
    setup_repeats=1,
)


@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    wrong_output: int = 0
    problems: list = field(default_factory=list)

    def op(self, name: str, error: str | None = None, wrong: bool = False):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.wrong_output += int(wrong)
            if len(self.problems) < 20:
                self.problems.append(f"{name}: {error}")


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _rel(got, want) -> float:
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def _only_child(path: Path) -> Path:
    (child,) = list(path.iterdir())
    return child


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in process; returns (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue().strip()


def _finite_report(path: Path) -> str | None:
    rep = json.loads(path.read_text())
    values = rep["absolute"] + rep["normalized"] + [rep["avg_normalized"]]
    values += list(rep["hits_at"].values())
    if not all(math.isfinite(v) for v in values):
        return f"non-finite accuracy in {path.name}"
    return None


class ToyPipeline:
    """The user's CLI pipeline on the default suite, one command after another."""

    name = "toy_pipeline"

    def __init__(self, seed: int, work: Path, sizes: Sizes):
        self.seed, self.work, self.sizes = seed, work, sizes
        self.first_merged: dict[str, bytes] = {}
        self.quality: list[float] = []

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)

    def run_pass(self, p: int, step):
        out = self.work / f"pass{p}"
        steps = []

        def run(label, argv):
            target = out / label
            rc, err = step(label, lambda: _cli(argv + ["--out", str(target)]))
            steps.append((label, rc, err, target))
            return rc == 0

        if not run("train-toy", ["train-toy", "--seed", str(self.seed),
                                 *self.sizes.train_args]):
            return steps
        suite = _only_child(out / "train-toy")
        src = [str(suite / "suite.lmk"), "--sidecar", str(suite / "suite.json")]
        run("diagnose", ["diagnose", *src, "--stacks", "--xi", "--kappa"])
        for method in TOY_MERGES:
            extra = list(self.sizes.tara_args) if method in TARA_METHODS else []
            run(f"merge-{method}", ["merge", *src, "--method", method, *extra])
        if (out / "merge-tara-b").is_dir():
            weights = _only_child(out / "merge-tara-b") / "merged.lmk"
            run("eval", ["eval", *src, "--weights", str(weights)])
        return steps

    def check(self, p: int, steps: list, ledger: Ledger):
        done = {label for label, *_ in steps}
        expected = ["train-toy", "diagnose"] + [f"merge-{m}" for m in TOY_MERGES] + ["eval"]
        for label in expected:
            if label not in done:
                ledger.op(label, "not run: an earlier command failed")
        for label, rc, err, target in steps:
            if rc != 0:
                ledger.op(label, f"exit {rc}: {err}")
                continue
            try:
                problem = self._check_outputs(label, _only_child(target))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
            ledger.op(label, problem, wrong=problem is not None)
        shutil.rmtree(self.work / f"pass{p}", ignore_errors=True)

    def _check_outputs(self, label: str, run: Path) -> str | None:
        if label == "train-toy":
            refs = json.loads((run / "references.json").read_text())
            if not all(math.isfinite(v) for v in refs.values()):
                return "non-finite reference accuracy"
            return None
        if label == "diagnose":
            for name in ("coverage.json", "xi.json", "kappa.json"):
                json.loads((run / name).read_text())
            return None
        problem = _finite_report(run / "report.json")
        if problem or label == "eval":
            return problem
        method = label[len("merge-"):]
        merged = (run / "merged.lmk").read_bytes()
        if self.first_merged.setdefault(method, merged) != merged:
            return "merged.lmk differs from the first pass with the same seed"
        if method == "tara-b":
            rep = json.loads((run / "report.json").read_text())
            self.quality.append(rep["avg_normalized"])
        return None


class PreferenceSweep:
    """One `sweep` command of K TARA-B points on a suite trained in set-up."""

    name = "preference_sweep"

    def __init__(self, seed: int, work: Path, sizes: Sizes):
        self.seed, self.work, self.sizes = seed, work, sizes
        self.setups = 0
        self.first_csv: bytes | None = None
        self.quality: list[float] = []

    def setup(self):
        target = self.work / f"setup{self.setups}"
        self.setups += 1
        rc, err = _cli(["train-toy", "--seed", str(self.seed), *self.sizes.train_args,
                        "--out", str(target)])
        if rc != 0:
            raise RuntimeError(f"train-toy failed in set-up: exit {rc}: {err}")
        suite = _only_child(target)
        self.src = [str(suite / "suite.lmk"), "--sidecar", str(suite / "suite.json")]

    def run_pass(self, p: int, step):
        target = self.work / f"pass{p}"
        rc, err = step("sweep", lambda: _cli([
            "sweep", *self.src, "--method", "tara-b",
            "--random", str(SWEEP_POINTS), "--seed", str(self.seed),
            *self.sizes.tara_args, "--out", str(target)]))
        return rc, err, target

    def check(self, p: int, result, ledger: Ledger):
        rc, err, target = result
        k = SWEEP_POINTS
        if rc != 0:
            for i in range(k):
                ledger.op(f"point{i}", f"sweep exit {rc}: {err}")
            return
        path = _only_child(target) / "sweep.csv"
        data = path.read_bytes()
        rows = list(csv.reader(io.StringIO(data.decode())))[1:]
        same = self.first_csv is None or self.first_csv == data
        self.first_csv = self.first_csv or data
        for i in range(k):
            if i >= len(rows):
                ledger.op(f"point{i}", "missing row in sweep.csv", wrong=True)
                continue
            values = [float(v) for v in rows[i]]
            n = len(values) // 2
            rho, acc = np.array(values[:n]), np.array(values[n:])
            problem = None
            if np.any(rho < 0) or abs(float(np.sum(rho)) - 1.0) > 1e-9:
                problem = f"rho {rho.tolist()} is off the simplex"
            elif not np.all(np.isfinite(acc)):
                problem = "non-finite accuracy"
            elif not same:
                problem = "sweep.csv differs from the first pass with the same seed"
            else:
                self.quality.append(float(np.mean(acc)))
            ledger.op(f"point{i}", problem, wrong=problem is not None)
        if len(rows) > k:
            ledger.op("sweep.csv", f"{len(rows)} rows for {k} points", wrong=True)
        shutil.rmtree(target, ignore_errors=True)


def wide_collection(seed: int, sizes: Sizes) -> adapters.AdapterCollection:
    """Random square layers with one rank-r adapter per task, as in the tests."""
    gen = substream(seed, "bench", "wide")
    layer_ids = [f"l{d}" for d in sizes.wide_dims]
    task_ids = [f"task{i}" for i in range(WIDE_TASKS)]
    r = sizes.wide_rank
    base, ads = {}, {}
    for layer, d in zip(layer_ids, sizes.wide_dims):
        base[layer] = gen.standard_normal((d, d))
        ads[layer] = [
            adapters.LoraAdapter(task_id=t, layer_id=layer, b=gen.standard_normal((d, r)),
                                 a=gen.standard_normal((d, r)), rank=r)
            for t in task_ids
        ]
    return adapters.AdapterCollection(layer_ids=layer_ids, task_ids=task_ids,
                                      base=base, adapters=ads)


class WideLayers:
    """Every merger, basis, coverage, anisotropy and container I/O on wide layers."""

    name = "wide_layers"

    def __init__(self, seed: int, work: Path, sizes: Sizes):
        self.seed, self.work, self.sizes = seed, work, sizes
        self.first: dict[str, bytes] = {}
        self.quality: list[float] = []

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.coll = wide_collection(self.seed, self.sizes)
        gen = substream(self.seed, "bench", "wide", "grads")
        self.grads = {
            layer: [gen.standard_normal(self.coll.base[layer].shape)
                    for _ in range(self.coll.n_tasks)]
            for layer in self.coll.layer_ids
        }

    def run_pass(self, p: int, step):
        coll, r = self.coll, self.sizes.wide_rank
        out = {}

        def op(name, fn):
            def guarded():
                try:
                    return fn(), None
                except Exception as exc:  # every failure is counted, then the pass goes on
                    return None, f"{type(exc).__name__}: {exc}"

            out[name] = step(name, guarded)

        for method in mergers.METHODS:
            cfg = mergers.MergeConfig(method=method, target_rank=r, k_clusters=r)
            op(method, lambda: mergers.run_merge(coll, cfg))
        op("variant_b", lambda: tara.build_variant_b(coll))
        op("coverage", lambda: diagnostics.coverage_report(coll))

        def anisotropy():
            res = {}
            for layer in coll.layer_ids:
                jac = diagnostics.jacobian(diagnostics.layer_directions(coll, layer),
                                           self.grads[layer])
                res[layer] = (jac, diagnostics.anisotropy(jac))
            return res

        op("anisotropy", anisotropy)
        path = self.work / f"pass{p}.lmk"

        def round_trip():
            adapters.save_collection(coll, path)
            return adapters.load_collection(path)

        op("round_trip", round_trip)
        path.unlink(missing_ok=True)
        return out

    def check(self, p: int, out: dict, ledger: Ledger):
        for name, (value, error) in out.items():
            if error is not None:
                ledger.op(name, error)
                continue
            try:
                problem = getattr(self, f"_check_{name}", self._check_merge)(value, p)
            except (ValueError, KeyError, TypeError, np.linalg.LinAlgError) as exc:
                problem = f"check raised {exc!r}"
            if problem is None and name in mergers.METHODS:
                digest = _digest(*(value[l] for l in self.coll.layer_ids))
                if self.first.setdefault(name, digest) != digest:
                    problem = "merged weights differ from the first pass"
            ledger.op(name, problem, wrong=problem is not None)

    def _check_merge(self, weights: dict, p: int) -> str | None:
        if not all(np.all(np.isfinite(w)) for w in weights.values()):
            return "non-finite merged weights"
        return None

    def _check_ta(self, weights: dict, p: int) -> str | None:
        lam = mergers.MergeConfig(method="ta").lam
        for layer in self.coll.layer_ids:
            want = self.coll.base[layer] + lam * sum(self._deltas(layer))
            if _rel(weights[layer], want) > 1e-12:
                return f"TA differs from W0 + lam * sum(dW) at {layer}"
        return None

    def _check_svd(self, weights: dict, p: int) -> str | None:
        # the merged update is the rank-r truncation, so its spectrum is the top r sigma
        lam, r = mergers.MergeConfig(method="svd").lam, self.sizes.wide_rank
        for layer in self.coll.layer_ids:
            total = lam * sum(self._deltas(layer))
            want = np.linalg.svd(total, compute_uv=False)[:r]
            got = np.linalg.svd(weights[layer] - self.coll.base[layer], compute_uv=False)[:r]
            if np.max(np.abs(got - want)) > 1e-10 * want[0]:
                return f"SVD merge sigma differs from numpy at {layer}"
        return None

    def _check_knots_ties(self, weights: dict, p: int) -> str | None:
        # merge_knots does not return its sigma, so decompose its stack once per run
        problem = self._check_merge(weights, p)
        if problem is not None or p > 0:
            return problem
        for layer in self.coll.layer_ids:
            stack = np.vstack(self._deltas(layer))
            want = np.linalg.svd(stack, compute_uv=False)
            if np.max(np.abs(linalg.svd(stack).sigma - want)) > 1e-10 * want[0]:
                return f"KnOTS stack sigma differs from numpy at {layer}"
        return None

    def _deltas(self, layer: str) -> list[np.ndarray]:
        return [ad.scale * ad.b @ ad.a.T for ad in self.coll.adapters[layer]]

    def _check_variant_b(self, basis, p: int) -> str | None:
        n = self.coll.n_tasks
        for layer in self.coll.layer_ids:
            dirs = basis.layers[layer].directions
            r = len(dirs) // n
            deltas = self._deltas(layer)
            sigma = np.array([s.sigma for s in dirs[:r]])
            want = np.linalg.svd(np.hstack(deltas), compute_uv=False)[:r]
            if np.max(np.abs(sigma - want)) > 1e-10 * want[0]:
                return f"variant B sigma differs from numpy at {layer}"
            for i, delta in enumerate(deltas):
                got = sum(s.matrix() for s in dirs[i * r:(i + 1) * r])
                if np.linalg.norm(got - delta) > 1e-10 * np.linalg.norm(delta):
                    return f"variant B at phi=1 does not reconstruct task {i} at {layer}"
        return None

    def _check_coverage(self, report: dict, p: int) -> str | None:
        for layer in self.coll.layer_ids:
            ads = self.coll.adapters[layer]
            rows = np.stack([np.outer(ad.b[:, j], ad.a[:, j]).ravel()
                             for ad in ads for j in range(ad.rank)])
            updates = np.stack([delta.ravel() for delta in self._deltas(layer)])
            for kind, stack in (("aware", rows), ("agnostic", updates)):
                want = linalg.effective_rank(np.linalg.svd(stack, compute_uv=False))
                got = getattr(report[layer], f"{kind}_erank")
                if got is None or abs(got - want) > 1e-10 * want:
                    return f"{kind} effective rank differs from numpy at {layer}"
        return None

    def _check_anisotropy(self, res: dict, p: int) -> str | None:
        for layer, (jac, (sigma, kappa)) in res.items():
            ads = self.coll.adapters[layer]
            b = np.hstack([ad.b for ad in ads])
            a = np.hstack([ad.a for ad in ads])
            want_j = np.stack([np.einsum("dk,dm,mk->k", b, g, a) for g in self.grads[layer]])
            if _rel(jac.entries, want_j) > 1e-12:
                return f"Jacobian differs from the einsum reference at {layer}"
            want = np.linalg.svd(jac.entries, compute_uv=False)
            if np.max(np.abs(sigma - want)) > 1e-10 * want[0] or not math.isfinite(kappa):
                return f"anisotropy sigma differs from numpy at {layer}"
        return None

    def _check_round_trip(self, loaded, p: int) -> str | None:
        coll = self.coll

        def f32(x):
            return np.asarray(x, dtype="<f4").astype(np.float64)

        for layer in coll.layer_ids:
            if not np.array_equal(loaded.base[layer], f32(coll.base[layer])):
                return f"base weight at {layer} is not the float32 cast"
            for got, ad in zip(loaded.adapters[layer], coll.adapters[layer]):
                if not (np.array_equal(got.b, f32(ad.b)) and np.array_equal(got.a, f32(ad.a))):
                    return f"adapter {ad.task_id}/{layer} is not the float32 cast"
        return None


WORKLOADS = {w.name: w for w in (ToyPipeline, PreferenceSweep, WideLayers)}
