"""Command-line entry point for reproducible merge experiments.

Commands: train-toy, diagnose, merge, sweep, eval. Each run resolves its
configuration (JSON file + flag overrides, flags win), creates a fresh
directory named by timestamp and seed, and writes a manifest with the config as
given and sha256 of every artifact so the run can be reproduced bit-exactly.
Every setting's name, type and default is declared once, by the dataclass or
signature that uses it; the flag tables below are read from those.

Exit codes: 0 success; 1 runtime failure: an I/O error, or a numerical abort
(checks.NumericalAbort: fine-tuning divergence, a non-finite anchor, entropy,
logit, SVD input or merged weight, SVD non-convergence); 2 usage or validation
error (checks.CodedError): bad flags, config, preference or method parameters,
a malformed container or sidecar, or a weights file that is not merged weights
for the suite.
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
from .adapters import AdapterCollection, load_collection, save_collection
from .checks import CodedError, NumericalAbort, check_simplex, is_real
from .rng import substream

# optimizer config keys: the OptimConfig fields
OPTIM_FIELDS = tuple(f.name for f in fields(tara.OptimConfig))
# {config key: flag type} of train-toy and merge, each typed by its default where
# it is declared; every key is also a --flag
TRAIN_FLAGS = {
    **{f.name: type(f.default) for f in fields(harness.SuiteConfig)
       if f.name not in ("base_rank", "label_offsets")},
    **{k: type(p.default) for k, p in signature(harness.finetune_all).parameters.items()
       if p.default is not p.empty},
}
MERGE_FLAGS = {
    "method": str,
    "preference": str,  # comma-separated simplex vector
    **{f.name: type(f.default) for f in fields(mergers.MergeConfig) if f.name != "method"},
    "alpha": type(tara.StchConfig.alpha),
    **{f.name: type(f.default) for f in fields(tara.OptimConfig)},
}
# the tara.merge variant of each optimizer method
OPTIMIZERS = {"tara-a": "a", "tara-b": "b", "adamerging": "adamerging"}
# config keys each method reads besides seed; any other key is rejected
METHOD_KEYS = {
    **{method: reads for method, (_, _, reads) in mergers._MERGERS.items()},
    **{method: OPTIM_FIELDS if variant == "adamerging" else ("alpha", *OPTIM_FIELDS)
       for method, variant in OPTIMIZERS.items()},
}
ALL_METHODS = tuple(METHOD_KEYS)
HITS_AT = (1, 3, 5)  # the k of every Hits@k report


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
            raise CodedError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise CodedError("config file must hold a JSON object")
        unknown = set(config) - set(keys)
        if unknown:
            raise CodedError(f"unknown config keys: {sorted(unknown)}")
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            config[key] = val
    return config


def _preference(values, n: int) -> np.ndarray:
    """A list of n finite numbers on the simplex, checked by the one simplex rule."""
    if not (isinstance(values, list) and all(is_real(v) for v in values)):
        raise CodedError(f"bad preference {values!r}: expected a list of finite numbers")
    return check_simplex(values, n)


def _write_report(run: Path, name: str, report: harness.EvalReport):
    (run / name).write_text(json.dumps(asdict(report), indent=1))


def _write_trace(run: Path, name: str, trace: tara.OptimTrace):
    # the bytes csv.writer writes: no field needs quoting, rows end in \r\n
    n = trace.per_task.shape[-1]
    with open(run / name, "w", newline="") as fh:
        fh.write(",".join(["step", "objective"] + [f"f{i}" for i in range(n)]) + "\r\n")
        for step, val, f in zip(trace.steps.tolist(), trace.objective.tolist(),
                                trace.per_task.tolist()):
            fh.write(",".join([str(step), repr(val), *map(repr, f)]) + "\r\n")


def cmd_train_toy(args) -> int:
    config = _resolve(args, TRAIN_FLAGS)  # unconverted, so a wrong type is refused
    suite_keys = {f.name for f in fields(harness.SuiteConfig)}
    suite = harness.generate_suite(
        harness.SuiteConfig(**{k: v for k, v in config.items() if k in suite_keys}))
    # a set, since numpy's first np.unique call raises the peak RSS by about 2 MB
    labels = len(set(suite.labels.ravel().tolist()))
    if labels < max(HITS_AT):
        raise CodedError(f"the suite has {labels} labels; Hits@{max(HITS_AT)} needs at "
                         f"least {max(HITS_AT)}")
    seed = suite.config.seed
    coll = harness.finetune_all(
        suite, seed=seed, **{k: v for k, v in config.items() if k not in suite_keys})
    run = _run_dir(args.out, seed)
    harness.save_suite(suite, coll, run / "suite.lmk", run / "suite.json")
    refs = dict(zip(harness.task_ids(suite.n_tasks), suite.references))
    (run / "references.json").write_text(json.dumps(refs, indent=1))
    for task, acc in refs.items():
        print(f"{task}: fine-tuned eval accuracy {acc:.4f}")
    _write_manifest(run, "train-toy", config)
    return 0


def cmd_diagnose(args) -> int:
    if not (args.stacks or args.xi or args.kappa):
        raise CodedError("diagnose needs at least one of --stacks, --xi, --kappa")
    suite, coll = harness.load_suite(args.container, args.sidecar)
    lam = mergers.MergeConfig("ta", **({} if args.lam is None else {"lam": args.lam})).lam
    docs = {}
    if args.stacks:
        docs["coverage.json"] = {
            layer: asdict(rep) for layer, rep in diagnostics.coverage_report(coll).items()
        }
    if args.xi or args.kappa:  # one raw Jacobian per layer serves both
        raw = {l: diagnostics.ta_jacobian(coll, suite, l, lam) for l in coll.layer_ids}
    if args.xi:
        docs["xi.json"] = {l: diagnostics.xi_protocol(j) for l, j in raw.items()}
    if args.kappa:
        basis_b = tara.build_variant_b(coll)
        docs["kappa.json"] = {
            l: {"raw": diagnostics.anisotropy(j)[1], "shared_svd": diagnostics.anisotropy(
                diagnostics.ta_jacobian(coll, suite, l, lam, basis_b.layers[l]))[1]}
            for l, j in raw.items()
        }
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
    return tara.OptimConfig(**{key: config[key] for key in OPTIM_FIELDS if key in config})


def _check_method(method, config: dict) -> int:
    """Refuse an unknown method, a key the method does not read, or a bad merger or
    optimizer setting before any input is read; returns the run's seed."""
    if method not in ALL_METHODS:
        raise CodedError(f"unknown method {method!r}; choose from {ALL_METHODS}")
    irrelevant = set(config) - {"seed", *METHOD_KEYS[method]}
    if irrelevant:
        raise CodedError(
            f"parameters {sorted(irrelevant)} are not relevant to method {method!r}"
        )
    if method in mergers.METHODS:
        mergers.MergeConfig(method, **config)
    # the seed names the run directory, so OptimConfig's rule holds for every method
    return _optim_config(config).seed


def _merges(coll, suite, method, rhos, config):
    """(weights, trace|None) per point, each yielded as it is made: one point for
    a merger or AdaMerging, which ignore rho, and one per rho in rhos for TARA."""
    if method in mergers.METHODS:
        yield mergers.run_merge(coll, mergers.MergeConfig(method, **config)), None
        return
    alpha = {"alpha": config["alpha"]} if "alpha" in config else {}
    for weights, _, trace in tara.merge(coll, suite, rhos, OPTIMIZERS[method],
                                        _optim_config(config), **alpha):
        yield weights, trace


def cmd_merge(args) -> int:
    config = _resolve(args, MERGE_FLAGS)
    method = config.pop("method", None)
    if method is None:
        raise CodedError("merge requires --method")
    seed = _check_method(method, {k: v for k, v in config.items() if k != "preference"})
    suite, coll = harness.load_suite(args.container, args.sidecar)
    if "preference" in config:
        values = config.pop("preference")  # a flag's text, or a config file's list
        if isinstance(values, str):
            try:
                values = [float(v) for v in values.split(",")]
            except ValueError as exc:
                raise CodedError(f"bad preference: {exc}") from exc
        rho = _preference(values, suite.n_tasks)
    else:
        rho = np.full(suite.n_tasks, 1.0 / suite.n_tasks)
    [(weights, trace)] = _merges(coll, suite, method, [rho], config)
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


def _check_rows(args) -> dict:
    """Row-flag checks that need no task count; returns the --fixed pins {index: value}."""
    if args.preferences is not None:
        if args.random is not None or args.fixed is not None:
            raise CodedError("--preferences takes neither --random nor --fixed")
        return {}
    if args.random is None:
        raise CodedError("sweep needs --preferences FILE or --random K")
    if args.random < 1:
        raise CodedError("--random must be positive")
    fixed = {}
    for pair in [] if args.fixed is None else args.fixed.split(","):
        try:
            idx, val = pair.split(":")
            idx, val = int(idx), float(val)
        except ValueError as exc:
            raise CodedError(f"bad --fixed entry {pair!r}") from exc
        if idx in fixed:
            raise CodedError(f"--fixed pins coordinate {idx} twice")
        fixed[idx] = val
    return fixed


def _sweep_preferences(args, fixed: dict, n_tasks: int, seed: int) -> list[np.ndarray]:
    if args.preferences is not None:
        try:
            rows = json.loads(Path(args.preferences).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CodedError(f"cannot read preferences: {exc}") from exc
        if not (isinstance(rows, list) and rows):
            raise CodedError("preferences file must hold a nonempty list of rows")
        return [_preference(row, n_tasks) for row in rows]
    if any(i < 0 or i >= n_tasks for i in fixed):
        raise CodedError("--fixed index out of range")
    budget = 1.0 - sum(fixed.values())
    free = [i for i in range(n_tasks) if i not in fixed]
    if not free:
        raise CodedError("no free coordinates left to sample")
    prefs = []
    for k in range(args.random):
        gen = substream(seed, "sweep", k)
        # uniform Dirichlet over the free coordinates, scaled to the leftover mass
        sample = gen.dirichlet(np.ones(len(free))) * max(budget, 0.0)
        rho = np.zeros(n_tasks)
        rho[list(fixed)] = list(fixed.values())
        rho[free] = sample
        prefs.append(check_simplex(rho, n_tasks))
    return prefs


def cmd_sweep(args) -> int:
    method = args.method or "tara-b"
    config = _resolve(args, ("seed", "iters"))
    seed, fixed = _check_method(method, config), _check_rows(args)
    suite, coll = harness.load_suite(args.container, args.sidecar)
    prefs = _sweep_preferences(args, fixed, suite.n_tasks, seed)
    # each point is evaluated as it is yielded
    reports = [harness.evaluate(w, suite) for w, _ in _merges(coll, suite, method, prefs, config)]
    if len(reports) == 1:  # a method that ignores rho: its one merge serves every row
        reports *= len(prefs)
    run = _run_dir(args.out, seed)
    with open(run / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"rho{i}" for i in range(suite.n_tasks)]
            + [f"acc{i}" for i in range(suite.n_tasks)]
        )
        for rho, report in zip(prefs, reports, strict=True):
            writer.writerow(
                [repr(float(v)) for v in rho]
                + [repr(float(v)) for v in report.normalized]
            )
    rows = {k: getattr(args, k) for k in ("preferences", "random", "fixed")}  # as given
    _write_manifest(run, "sweep", {"method": method, "n_points": len(prefs), **config, **rows})
    print(f"sweep of {len(prefs)} points written to {run / 'sweep.csv'}")
    return 0


def cmd_eval(args) -> int:
    suite, _ = harness.load_suite(args.container, args.sidecar)
    merged = load_collection(args.weights)
    got = [(l, merged.base[l].shape) for l in merged.layer_ids]
    want = [(l, w.shape) for l, w in suite.base.items()]
    if merged.task_ids or got != want:
        raise CodedError(f"{args.weights} holds adapters of {len(merged.task_ids)} tasks and "
                         f"layers {got}; merged weights for this suite hold no adapters and "
                         f"layers {want}", code="bad_weights")
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every command's subparser, with flags only on the named command's, or on
    all of them when command is None: argparse asks the terminal size for every
    flag, so main builds only the flags of the command it runs."""
    parser = argparse.ArgumentParser(
        prog="loramerge",
        description="LoRA adapter merging, diagnostics, and preference sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, text, func, reads_suite=True):
        """The subparser to give flags to, or None for a command not built."""
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        if command not in (None, name):
            return None
        if reads_suite:
            p.add_argument("container")
            p.add_argument("--sidecar", required=True)
        return p

    if p := add("train-toy", "generate a synthetic suite and fine-tune adapters",
                cmd_train_toy, reads_suite=False):
        p.add_argument("--config", help="JSON config file (flags override)")
        p.add_argument("--out", default="runs", help="output root directory")
        _add_flags(p, TRAIN_FLAGS)

    if p := add("diagnose", "coverage, misalignment, anisotropy reports", cmd_diagnose):
        p.add_argument("--out", default="runs")
        p.add_argument("--stacks", action="store_true")
        p.add_argument("--xi", action="store_true")
        p.add_argument("--kappa", action="store_true")
        p.add_argument("--lam", type=float, help="task-arithmetic scale (default: MergeConfig's)")

    if p := add("merge", "merge adapters and evaluate", cmd_merge):
        p.add_argument("--out", default="runs")
        p.add_argument("--config")
        _add_flags(p, MERGE_FLAGS)

    if p := add("sweep", "preference sweep: merge + eval per point", cmd_sweep):
        p.add_argument("--out", default="runs")
        p.add_argument("--method")
        p.add_argument("--preferences", help="JSON file with a list of preference rows")
        p.add_argument("--random", type=int, help="sample K random simplex points")
        p.add_argument("--fixed", help='pin coordinates, e.g. "0:0.125,1:0.125"')
        p.add_argument("--seed", type=int)
        p.add_argument("--iters", type=int)

    if p := add("eval", "evaluate stored merged weights against a suite", cmd_eval):
        p.add_argument("--weights", required=True)
        p.add_argument("--out", default="runs")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # a finiteness check catches every overflow; no warning precedes its abort
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except NumericalAbort as exc:  # before ValueError: an abort is also a CodedError
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # CodedError, and any other value error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # other runtime failures (IO)
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
