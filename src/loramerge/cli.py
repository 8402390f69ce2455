"""Command-line entry point for reproducible merge experiments.

Commands: train-toy, diagnose, merge, sweep, eval. Each run resolves its
configuration (JSON file + flag overrides, flags win), creates a fresh
directory named by timestamp and seed, and writes a manifest with the config as
given and sha256 of every artifact so the run can be reproduced bit-exactly.
Every setting's name, type and default is declared once, by the dataclass or
signature that uses it; the flag tables below are read from those.

Exit codes: 0 success; 1 runtime failure: an I/O error, or a numerical abort
(linalg.NumericalAbort: optimizer or fine-tuning divergence, a non-finite
entropy, logit, SVD input or merged weight, SVD non-convergence); 2 usage or validation error: bad flags,
config, preference or method parameters, or a malformed container
(ContainerError).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict, fields
from inspect import signature
from pathlib import Path

import numpy as np

from . import diagnostics, harness, mergers, tara
from .adapters import AdapterCollection, is_real, load_collection, save_collection
from .linalg import NumericalAbort
from .rng import substream

# optimizer config keys and the OptimConfig fields they set
OPTIM_FIELDS = {"iters": "max_iters", "lr": "lr", "batch_size": "batch_size", "seed": "seed"}
# {config key: flag type} of train-toy and merge, each typed by its default where
# it is declared; every key is also a --flag
TRAIN_FLAGS = {
    **{f.name: type(f.default) for f in fields(harness.SuiteConfig)
       if f.name not in ("base_rank", "label_offsets")},
    **{k: type(p.default) for k, p in signature(harness._finetune).parameters.items()
       if p.default is not p.empty},
}
MERGE_FLAGS = {
    "method": str,
    "preference": str,  # comma-separated simplex vector
    **{f.name: type(f.default) for f in fields(mergers.MergeConfig) if f.name != "method"},
    "alpha": type(tara.StchConfig.alpha),
    **{key: type(getattr(tara.OptimConfig, f)) for key, f in OPTIM_FIELDS.items()},
}
# config keys each method reads besides seed; any other key is rejected
METHOD_KEYS = {
    **{method: reads for method, (_, _, reads) in mergers._MERGERS.items()},
    "tara-a": ("alpha", *OPTIM_FIELDS),
    "tara-b": ("alpha", *OPTIM_FIELDS),
    "adamerging": tuple(OPTIM_FIELDS),
}
ALL_METHODS = tuple(METHOD_KEYS)
HITS_AT = (1, 3, 5)  # the k of every Hits@k report


class UsageError(ValueError):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_dir(out: str, seed: int) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = Path(out) / f"{stamp}-seed{seed}"
    run = base
    n = 1
    while run.exists():
        run = Path(f"{base}-{n}")
        n += 1
    run.mkdir(parents=True)
    return run


def _write_manifest(run: Path, command: str, config: dict):
    artifacts = {
        p.name: _sha256(p) for p in sorted(run.iterdir()) if p.name != "manifest.json"
    }
    manifest = {"command": command, "config": config, "artifacts": artifacts}
    (run / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))


def _resolve(args, keys) -> dict:
    """JSON config overlaid with explicitly-passed flags (flags win)."""
    config = {}
    if getattr(args, "config", None):
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(config) - set(keys)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            config[key] = val
    return config


def _preference(values, n: int) -> np.ndarray:
    """A list of n finite numbers on the simplex, checked by the one simplex rule."""
    if not (isinstance(values, list) and all(is_real(v) for v in values)):
        raise UsageError(f"bad preference {values!r}: expected a list of finite numbers")
    return diagnostics._check_simplex(values, n)


def _write_report(run: Path, name: str, report: harness.EvalReport):
    (run / name).write_text(json.dumps(report.to_json(), indent=1))


def _write_trace(run: Path, name: str, trace: tara.OptimTrace):
    with open(run / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        n = len(trace.per_task[0]) if trace.per_task else 0
        writer.writerow(["step", "objective"] + [f"f{i}" for i in range(n)])
        for step, val, f in zip(trace.steps, trace.objective, trace.per_task):
            writer.writerow([step, repr(val)] + [repr(float(x)) for x in f])


def cmd_train_toy(args) -> int:
    config = _resolve(args, TRAIN_FLAGS)  # unconverted, so a wrong type is refused
    suite_keys = {f.name for f in fields(harness.SuiteConfig)}
    suite = harness.generate_suite(
        harness.SuiteConfig(**{k: v for k, v in config.items() if k in suite_keys}))
    # a set, since numpy's first np.unique call raises the peak RSS by about 2 MB
    labels = len({lab for td in suite.tasks for lab in td.labels.tolist()})
    if labels < max(HITS_AT):
        raise UsageError(f"the suite has {labels} labels; Hits@{max(HITS_AT)} needs at "
                         f"least {max(HITS_AT)}")
    seed = suite.config.seed
    coll = harness.finetune_all(
        suite, seed=seed, **{k: v for k, v in config.items() if k not in suite_keys})
    run = _run_dir(args.out, seed)
    harness.save_suite(suite, coll, run / "suite.lmk", run / "suite.json")
    refs = {f"task{i}": suite.references[i] for i in range(suite.n_tasks)}
    (run / "references.json").write_text(json.dumps(refs, indent=1))
    for task, acc in refs.items():
        print(f"{task}: fine-tuned eval accuracy {acc:.4f}")
    _write_manifest(run, "train-toy", config)
    return 0


def cmd_diagnose(args) -> int:
    if not (args.stacks or args.xi or args.kappa):
        raise UsageError("diagnose needs at least one of --stacks, --xi, --kappa")
    suite, coll = harness.load_suite(args.container, args.sidecar)
    lam = mergers.MergeConfig("ta", **({} if args.lam is None else {"lam": args.lam})).lam
    docs = {}
    if args.stacks:
        docs["coverage.json"] = {
            layer: asdict(rep) for layer, rep in diagnostics.coverage_report(coll).items()
        }
    if args.xi:
        docs["xi.json"] = {
            layer: diagnostics.xi_protocol(coll, suite, layer, lam=lam)
            for layer in coll.layer_ids
        }
    if args.kappa:
        doc = docs["kappa.json"] = {}
        grads = suite.task_loss_gradients(mergers.merge_ta(coll, lam))
        basis_b = tara.build_variant_b(coll)
        for layer in coll.layer_ids:
            raw_dirs = diagnostics.layer_directions(coll, layer)
            _, kappa_raw = diagnostics.anisotropy(
                diagnostics.jacobian(raw_dirs, grads[layer])
            )
            shared = basis_b.layers[layer]
            _, kappa_shared = diagnostics.anisotropy(
                diagnostics.jacobian(shared, grads[layer])
            )
            doc[layer] = {"raw": kappa_raw, "shared_svd": kappa_shared}
    run = _run_dir(args.out, suite.config.seed)
    for name, doc in docs.items():
        (run / name).write_text(json.dumps(doc, indent=1))
    _write_manifest(
        run,
        "diagnose",
        {"stacks": args.stacks, "xi": args.xi, "kappa": args.kappa, "lam": args.lam},
    )
    print(f"diagnostics written to {run}")
    return 0


def _save_weights(weights: dict, layer_ids: list[str], path):
    shell = AdapterCollection(
        layer_ids=list(layer_ids),
        task_ids=[],
        base={l: weights[l] for l in layer_ids},
        adapters={l: [] for l in layer_ids},
    )
    save_collection(shell, path)


def _optim_config(config: dict) -> tara.OptimConfig:
    """The optimizer keys given in config go to OptimConfig unconverted, so it
    rejects a wrong type and supplies the defaults of the rest."""
    given = {field: config[key] for key, field in OPTIM_FIELDS.items() if key in config}
    return tara.OptimConfig(**given)


def _tara_points(coll, suite, method, prefs, config):
    """tara-a/tara-b merges at every preference, sharing basis, anchors and
    batch schedule; yields one (weights, phi, trace) per preference."""
    return tara.sweep_tara(
        coll,
        suite,
        prefs,
        variant=method[-1],
        optim=_optim_config(config),
        **{key: config[key] for key in ("alpha",) if key in config},
    )


def _merge_with_method(coll, suite, method, rho, config):
    """Dispatch any method name to merged weights; returns (weights, trace|None)."""
    irrelevant = set(config) - {"seed", *METHOD_KEYS[method]}
    if irrelevant:
        raise UsageError(
            f"parameters {sorted(irrelevant)} are not relevant to method {method!r}"
        )
    if method in mergers.METHODS:
        return mergers.run_merge(coll, mergers.MergeConfig(method, **config)), None
    if method == "adamerging":
        weights, _, trace = tara.adamerging_baseline(coll, suite, _optim_config(config))
        return weights, trace
    weights, _, trace = next(_tara_points(coll, suite, method, [rho], config))
    return weights, trace


def cmd_merge(args) -> int:
    config = _resolve(args, MERGE_FLAGS)
    method = config.pop("method", None)
    if method is None:
        raise UsageError("merge requires --method")
    if method not in ALL_METHODS:
        raise UsageError(f"unknown method {method!r}; choose from {ALL_METHODS}")
    # the seed names the run directory, so OptimConfig's rule holds for every method
    seed = _optim_config(config).seed
    suite, coll = harness.load_suite(args.container, args.sidecar)
    if "preference" in config:
        values = config.pop("preference")  # a flag's text, or a config file's list
        if isinstance(values, str):
            try:
                values = [float(v) for v in values.split(",")]
            except ValueError as exc:
                raise UsageError(f"bad preference: {exc}") from exc
        rho = _preference(values, suite.n_tasks)
    else:
        rho = np.full(suite.n_tasks, 1.0 / suite.n_tasks)
    weights, trace = _merge_with_method(coll, suite, method, rho, config)
    for layer, w in weights.items():  # merged.lmk stores float32
        if not np.all(np.abs(w) <= np.finfo(np.float32).max):  # NaN fails too
            raise NumericalAbort(f"merged weights at {layer} are non-finite or overflow float32")
    report = harness.evaluate(weights, suite)
    report.hits_at = harness.evaluate_joint(weights, suite, ks=HITS_AT)
    run = _run_dir(args.out, seed)
    _save_weights(weights, coll.layer_ids, run / "merged.lmk")
    _write_report(run, "report.json", report)
    if trace is not None:
        _write_trace(run, "trace.csv", trace)
    _write_manifest(run, "merge", {"method": method, "preference": rho.tolist(), **config})
    print(
        f"{method}: avg normalized accuracy {report.avg_normalized:.4f} "
        f"(per task: {', '.join(f'{v:.4f}' for v in report.normalized)})"
    )
    return 0


def _sweep_preferences(args, n_tasks: int, seed: int) -> list[np.ndarray]:
    if args.preferences:
        try:
            rows = json.loads(Path(args.preferences).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read preferences: {exc}") from exc
        if not (isinstance(rows, list) and rows):
            raise UsageError("preferences file must hold a nonempty list of rows")
        return [_preference(row, n_tasks) for row in rows]
    if args.random is None:
        raise UsageError("sweep needs --preferences FILE or --random K")
    if args.random < 1:
        raise UsageError("--random must be positive")
    fixed = {}
    if args.fixed:
        for pair in args.fixed.split(","):
            try:
                idx, val = pair.split(":")
                fixed[int(idx)] = float(val)
            except ValueError as exc:
                raise UsageError(f"bad --fixed entry {pair!r}") from exc
    if any(i < 0 or i >= n_tasks for i in fixed):
        raise UsageError("--fixed index out of range")
    budget = 1.0 - sum(fixed.values())
    free = [i for i in range(n_tasks) if i not in fixed]
    if not free:
        raise UsageError("no free coordinates left to sample")
    prefs = []
    for k in range(args.random):
        gen = substream(seed, "sweep", k)
        # uniform Dirichlet over the free coordinates, scaled to the leftover mass
        sample = gen.dirichlet(np.ones(len(free))) * max(budget, 0.0)
        rho = np.zeros(n_tasks)
        for i, v in fixed.items():
            rho[i] = v
        rho[free] = sample
        prefs.append(diagnostics._check_simplex(rho, n_tasks))
    return prefs


def cmd_sweep(args) -> int:
    suite, coll = harness.load_suite(args.container, args.sidecar)
    method = args.method or "tara-b"
    if method not in ALL_METHODS:
        raise UsageError(f"unknown method {method!r}; choose from {ALL_METHODS}")
    config = _resolve(args, ("seed", "iters"))
    seed = _optim_config(config).seed
    prefs = _sweep_preferences(args, suite.n_tasks, seed)
    if method in ("tara-a", "tara-b"):  # each point is evaluated as it is yielded
        points = _tara_points(coll, suite, method, prefs, config)
        results = [(rho, harness.evaluate(w, suite)) for rho, (w, _, _) in zip(prefs, points)]
    else:  # every other method ignores rho: one merge and evaluation serve each row
        report = harness.evaluate(_merge_with_method(coll, suite, method, None, config)[0], suite)
        results = [(rho, report) for rho in prefs]
    run = _run_dir(args.out, seed)
    with open(run / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"rho{i}" for i in range(suite.n_tasks)]
            + [f"acc{i}" for i in range(suite.n_tasks)]
        )
        for rho, report in results:
            writer.writerow(
                [repr(float(v)) for v in rho]
                + [repr(float(v)) for v in report.normalized]
            )
    _write_manifest(run, "sweep", {"method": method, "n_points": len(prefs), **config})
    print(f"sweep of {len(prefs)} points written to {run / 'sweep.csv'}")
    return 0


def cmd_eval(args) -> int:
    suite, _ = harness.load_suite(args.container, args.sidecar)
    merged = load_collection(args.weights)
    weights = {l: merged.base[l] for l in merged.layer_ids}
    report = harness.evaluate(weights, suite)
    report.hits_at = harness.evaluate_joint(weights, suite, ks=HITS_AT)
    run = _run_dir(args.out, suite.config.seed)
    _write_report(run, "report.json", report)
    _write_manifest(run, "eval", {"weights": str(args.weights)})
    print(f"avg normalized accuracy {report.avg_normalized:.4f}")
    return 0


def _add_flags(p, table: dict):
    for key, typ in table.items():
        p.add_argument("--" + key.replace("_", "-"), type=typ)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loramerge",
        description="LoRA adapter merging, diagnostics, and preference sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-toy", help="generate a synthetic suite and fine-tune adapters")
    p.add_argument("--config", help="JSON config file (flags override)")
    p.add_argument("--out", default="runs", help="output root directory")
    _add_flags(p, TRAIN_FLAGS)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("diagnose", help="coverage, misalignment, anisotropy reports")
    p.add_argument("container")
    p.add_argument("--sidecar", required=True)
    p.add_argument("--out", default="runs")
    p.add_argument("--stacks", action="store_true")
    p.add_argument("--xi", action="store_true")
    p.add_argument("--kappa", action="store_true")
    p.add_argument("--lam", type=float, help="task-arithmetic scale (default: MergeConfig's)")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("merge", help="merge adapters and evaluate")
    p.add_argument("container")
    p.add_argument("--sidecar", required=True)
    p.add_argument("--out", default="runs")
    p.add_argument("--config")
    _add_flags(p, MERGE_FLAGS)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("sweep", help="preference sweep: merge + eval per point")
    p.add_argument("container")
    p.add_argument("--sidecar", required=True)
    p.add_argument("--out", default="runs")
    p.add_argument("--method")
    p.add_argument("--preferences", help="JSON file with a list of preference rows")
    p.add_argument("--random", type=int, help="sample K random simplex points")
    p.add_argument("--fixed", help='pin coordinates, e.g. "0:0.125,1:0.125"')
    p.add_argument("--seed", type=int)
    p.add_argument("--iters", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate stored merged weights against a suite")
    p.add_argument("container")
    p.add_argument("--sidecar", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericalAbort as exc:  # before ValueError: each abort also subclasses it
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # UsageError, MergeError and the other coded errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # other runtime failures (IO)
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
