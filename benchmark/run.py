#!/usr/bin/env python3
"""Benchmark for loramerge: three workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py --workload toy_pipeline --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Workloads: toy_pipeline, preference_sweep, wide_layers (see README.md next to
this file). ``--trace 0`` times untraced passes and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, including the tracing overhead. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the environment and, for every timed
step, its wall seconds and the mean speed-probe seconds during it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("toy_pipeline", "preference_sweep", "wide_layers")
MIN_PASSES = 2          # determinism checks compare passes; trace mode needs one of each
IMPORT_CODE = ("import json, sys; sys.path.insert(0, sys.argv[1]); import numpy, run; "
               "print(json.dumps(run.time_import()))")
PROBE_ITERS = 200           # one probe is about 0.3 ms
PROBE_INTERVAL_S = 0.02
NOMINAL_PROBE_S = 0.0003    # reported times are scaled as if a probe took this long


def _import_modules():
    """Import the package from this checkout's src/ and the benchmark modules."""
    if not (SRC / "loramerge" / "__init__.py").is_file():
        raise SystemExit(f"error: no loramerge package under {SRC}; "
                         "run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import loramerge
    import spans
    import workloads

    if Path(loramerge.__file__).resolve().parent != SRC / "loramerge":
        raise SystemExit(f"error: imported loramerge from {loramerge.__file__}, not {SRC}")
    return spans, workloads


def time_import() -> list:
    """(seconds, probe seconds) of importing the package and the benchmark
    modules, with the speed probe running; numpy is already loaded."""
    times = {}
    with SpeedProbe() as probe:
        probe.step(times, "import", _import_modules)
    return times["import"]


def import_in_child() -> tuple:
    """time_import() in a fresh interpreter.

    The set-up time counts this rather than the benchmark's own first import,
    so that it can be repeated; .pyc files are already written by then.
    """
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(BENCH)], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    return tuple(json.loads(out.splitlines()[-1]))


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


class SpeedProbe:
    """Samples the machine's speed while the timed steps run.

    Every PROBE_INTERVAL_S a SIGALRM handler times a fixed loop of
    Python-level 32-element dot products; it calls no loramerge code, so a
    change to the package cannot move it. A step's speed-normalized time is
    its wall time over the mean probe time during the step. The machine this
    was tuned on flips between two speeds about 2x apart; README.md
    (Steadiness) compares the spread of wall and normalized times.

    While ``tracer`` is set, each sample's time is added to its ``probe_s``,
    so that the spans exclude it and it is charged to the ``bench`` span.
    """

    def __init__(self):
        import numpy as np

        self._a = np.arange(1024, dtype=np.float64).reshape(32, 32) / 1024
        self._busy = False
        self.samples = []
        self.tracer = None

    def sample(self, *_):
        if self._busy:          # the timer fired during a direct call
            return
        self._busy = True
        a = self._a
        t0 = time.perf_counter()
        s = 0.0
        for i in range(PROBE_ITERS):
            s += float(a[i & 31] @ a[:, i & 31])
        self.samples.append(time.perf_counter() - t0)
        if self.tracer is not None:
            self.tracer.probe_s += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, since: int) -> float:
        """Mean probe seconds from sample `since` on, plus three taken now,
        so that a step shorter than the timer interval still has samples."""
        for _ in range(3):
            self.sample()
        return statistics.fmean(self.samples[since:])

    def step(self, times: dict, name: str, fn):
        """Run fn() and record (wall seconds, mean probe seconds) under name."""
        since = len(self.samples)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            dt = time.perf_counter() - t0
            times[name] = (dt, self.speed(since))


def nominal_seconds(samples) -> float:
    """Median speed-normalized time of (seconds, probe seconds) samples, in
    seconds on a machine where a probe takes NOMINAL_PROBE_S."""
    return NOMINAL_PROBE_S * statistics.median(t / r for t, r in samples)


def measure(wl, spans, probe: SpeedProbe, seconds: float, trace: bool, ledger):
    """Run passes for `seconds`; returns the step times of untraced and traced passes.

    In trace mode even passes run untraced and odd passes run with the
    wrappers installed; the wrappers are removed again after each traced pass.
    """
    tracer = spans.Tracer() if trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    p = 0
    while p < MIN_PASSES or time.perf_counter() - start < seconds:
        is_traced = trace and p % 2 == 1
        times = {}
        restore = spans.install(tracer) if is_traced else []
        try:
            if is_traced:
                probe.tracer = tracer
                span = tracer.start_pass()
            out = wl.run_pass(p, lambda name, fn: probe.step(times, name, fn))
            if is_traced:
                tracer.end_pass(span)
        finally:
            probe.tracer = None
            spans.uninstall(restore)
        (traced if is_traced else untraced).append(times)
        wl.check(p, out, ledger)
        p += 1
    return untraced, traced, tracer


def pass_seconds(passes: list[dict]) -> float:
    """Nominal seconds for one pass: the sum over its steps of each step's median.

    Medians per step rather than per pass drop the samples that a short slow
    spell hit, as long as it hit fewer than half of them.
    """
    steps = {name for times in passes for name in times}
    return sum(nominal_seconds([t[name] for t in passes if name in t]) for name in steps)


def layer_metrics(spans, workloads, tracer, untraced: list, traced: list, quality: list) -> dict:
    """Per-layer metrics, as averages over the traced passes.

    Times are in nominal seconds: wall seconds scaled by NOMINAL_PROBE_S over
    the median probe time of the traced passes.
    """
    n = len(traced)
    c = tracer.count
    per_pass = NOMINAL_PROBE_S / statistics.median(r for t in traced for _, r in t.values()) / n
    m = {f"{name}.self_s": (tracer.self_s[name] * per_pass, "s") for name in spans.SPAN_NAMES}
    m["bench.self_s"] = (tracer.self_s["bench"] * per_pass, "s")
    for key in ("harness.entropy_and_grad.calls", "tara.assemble.calls", "tara.optimize.steps",
                "tara.build_variant_a.calls", "tara.build_variant_b.calls",
                "tara.compute_anchors.calls", "rng.substream.calls", "linalg.svd.calls",
                "linalg.svd.pair_work", "adapters.delta_weight.calls"):
        m[key] = (c[key] / n, "count")
    for key in ("harness.save_suite.sidecar_bytes", "harness.load_suite.sidecar_bytes",
                "adapters.save_collection.bytes", "adapters.load_collection.bytes"):
        m[key] = (c[key] / n, "bytes")
    m["linalg.svd.repeat_frac"] = (c["linalg.svd.repeats"] / max(c["linalg.svd.calls"], 1),
                                   "ratio")
    for command in workloads.CLI_COMMANDS:
        key = f"cli.main.{command}.total_s"
        m[key] = (tracer.total_s[key] * per_pass, "s")
    for method in workloads.mergers.METHODS:
        key = f"mergers.run_merge.{method}"
        m[f"{key}.total_s"] = (tracer.total_s[f"{key}.total_s"] * per_pass, "s")
        m[f"{key}.failed"] = (c[f"{key}.failed"] / n, "count")
    m["harness.evaluate.avg_norm_acc"] = (statistics.fmean(quality) if quality else 0.0,
                                          "ratio")
    base, with_spans = pass_seconds(untraced), pass_seconds(traced)
    m["trace.pass_s"] = (tracer.total_s["bench.pass"] * per_pass, "s")
    m["trace.untraced_pass_s"] = (base, "s")
    m["trace.overhead_s"] = (with_spans - base, "s")
    m["trace.overhead_frac"] = ((with_spans - base) / base, "ratio")
    return m


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spans, workloads = _import_modules()

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    sizes = sizes or workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, work, sizes)
    ledger = workloads.Ledger()
    import_times = {f"import{k}": import_in_child() for k in range(sizes.setup_repeats)}
    setup_times = {}
    try:
        with SpeedProbe() as probe:
            for k in range(sizes.setup_repeats):
                probe.step(setup_times, f"setup{k}", wl.setup)
            untraced, traced, tracer = measure(wl, spans, probe, args.seconds,
                                               bool(args.trace), ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = layer_metrics(spans, workloads, tracer, untraced, traced, wl.quality)
    else:
        metrics = {
            "setup_s": (nominal_seconds(import_times.values())
                        + nominal_seconds(setup_times.values()), "s"),
            "pass_s": (pass_seconds(untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": (1.0 - ledger.failed / ledger.attempted, "ratio"),
        }
    info = {
        "workload": args.workload,
        "env": environment(args.seed),
        "import_samples_s": import_times,
        "setup_samples_s": setup_times,
        "untraced_step_samples_s": untraced,
        "traced_step_samples_s": traced,
        "problems": ledger.problems,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": ledger.wrong_output == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # BLAS threads are pinned before numpy loads: the matrices are small, so
    # extra threads only add scheduling noise to the timings.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
