"""Span and counter collection for the traced benchmark run.

Tracing wraps public functions of the ``loramerge`` modules from outside the
package: every name a caller resolves at call time (a module attribute, a
name bound by ``from ... import``, or a class attribute) is rebound to a
timing wrapper, and restored afterwards. Nothing under ``src/`` changes, and
an untraced pass runs with no wrapper installed.

A span's self time is its duration minus the time of the spans nested in it,
so the self times of one pass, plus the benchmark's own ``bench`` span, add
up to the pass time. Time the speed probe spends inside a span is left out
of the span and charged to ``bench``.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from collections import defaultdict

import numpy as np

from loramerge import adapters, cli, diagnostics, harness, linalg, mergers, rng, tara

MODULES = (adapters, linalg, rng, harness, mergers, tara, diagnostics, cli)


class Tracer:
    """Accumulates self time per span name, total time per key, and counters.

    ``probe_s`` is the running total of speed-probe time; spans subtract what
    accrued while they were open, and the pass span charges it to ``bench``.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.count = defaultdict(int)
        self.probe_s = 0.0
        self._children = []          # child time accumulated per open span
        self._svd_seen = set()

    def start_pass(self) -> tuple:
        """Open the span of one pass; repeat detection for SVD inputs is per pass."""
        self._svd_seen.clear()
        return self.open()

    def end_pass(self, start: tuple):
        probe = self.close("bench", start, "bench.pass")
        self.self_s["bench"] += probe
        self.total_s["bench.pass"] += probe

    def open(self) -> tuple:
        self._children.append(0.0)
        return time.perf_counter(), self.probe_s

    def close(self, name: str, start: tuple, total_key: str | None = None) -> float:
        """Close a span; returns the probe seconds left out of it."""
        t0, probe0 = start
        dt = time.perf_counter() - t0
        probe = self.probe_s - probe0
        dt -= probe
        child = self._children.pop()
        self.self_s[name] += dt - child
        if total_key is not None:
            self.total_s[total_key] += dt
        if self._children:
            self._children[-1] += dt
        return probe

    def svd_input(self, x):
        a = np.asarray(x, dtype=np.float64)
        if a.ndim != 2:         # linalg.svd rejects it with its own error
            return
        rows, n = max(a.shape), min(a.shape)
        self.count["linalg.svd.pair_work"] += rows * n * (n - 1) // 2
        key = (a.shape, hashlib.blake2b(np.ascontiguousarray(a).tobytes()).digest())
        if key in self._svd_seen:
            self.count["linalg.svd.repeats"] += 1
        self._svd_seen.add(key)


def _size(path) -> int:
    """File size, or 0 for a missing file, so the traced call fails as it would untraced."""
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _cli_key(argv):
    argv = list(argv or [])
    command = argv[0] if argv else "none"
    if command == "merge" and "--method" in argv[:-1]:
        command = f"merge.{argv[argv.index('--method') + 1]}"
    return f"cli.main.{command}.total_s"


def _wrap(tracer: Tracer, name: str, fn, key=None, before=None, after=None, failed=None):
    """Timing wrapper for fn under span name.

    key(args) names a total to accumulate; before(args) and after(args,
    result) record counters; failed(args) names a counter bumped when fn
    raises.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count[f"{name}.calls"] += 1
        if before is not None:
            before(args)
        total_key = key(args) if key is not None else None
        start = tracer.open()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            if failed is not None:
                tracer.count[failed(args)] += 1
            raise
        finally:
            tracer.close(name, start, total_key)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _targets(tracer: Tracer):
    """(owner, attribute, span name, hooks) for every traced function."""
    c = tracer.count

    def add(counter, amount):
        c[counter] += amount

    return [
        (cli, "main", "cli.main", {"key": lambda a: _cli_key(a[0] if a else None)}),
        (harness, "generate_suite", "harness.generate_suite", {}),
        (harness, "finetune_all", "harness.finetune_all", {}),
        (harness, "save_suite", "harness.save_suite", {
            "after": lambda a, r: add("harness.save_suite.sidecar_bytes", _size(a[3]))}),
        (harness, "load_suite", "harness.load_suite", {
            "before": lambda a: add("harness.load_suite.sidecar_bytes", _size(a[1]))}),
        (harness.TaskSuite, "entropy_and_grad", "harness.entropy_and_grad", {}),
        (harness, "evaluate", "harness.evaluate", {}),
        (harness, "evaluate_joint", "harness.evaluate_joint", {}),
        (tara, "assemble", "tara.assemble", {}),
        (tara, "stch_value_and_grad", "tara.stch_value_and_grad", {}),
        (tara, "mean_entropy_value_and_grad", "tara.mean_entropy_value_and_grad", {}),
        (tara, "optimize", "tara.optimize", {
            "after": lambda a, r: add("tara.optimize.steps", len(r[1].steps))}),
        (tara, "build_variant_a", "tara.build_variant_a", {}),
        (tara, "build_variant_b", "tara.build_variant_b", {}),
        (tara, "build_adamerging", "tara.build_adamerging", {}),
        (tara, "compute_anchors", "tara.compute_anchors", {}),
        (rng, "substream", "rng.substream", {}),
        (linalg, "svd", "linalg.svd", {"before": lambda a: tracer.svd_input(a[0])}),
        (mergers, "run_merge", "mergers.run_merge", {
            "key": lambda a: f"mergers.run_merge.{a[1].method}.total_s",
            "failed": lambda a: f"mergers.run_merge.{a[1].method}.failed"}),
        (diagnostics, "coverage_report", "diagnostics.coverage_report", {}),
        (diagnostics, "jacobian", "diagnostics.jacobian", {}),
        (diagnostics, "anisotropy", "diagnostics.anisotropy", {}),
        (diagnostics, "xi_protocol", "diagnostics.xi_protocol", {}),
        (adapters, "save_collection", "adapters.save_collection", {
            "after": lambda a, r: add("adapters.save_collection.bytes", _size(a[1]))}),
        (adapters, "load_collection", "adapters.load_collection", {
            "before": lambda a: add("adapters.load_collection.bytes", _size(a[0]))}),
        (adapters, "delta_weight", "adapters.delta_weight", {}),
    ]


SPAN_NAMES = tuple(name for _, _, name, _ in _targets(Tracer()))


def install(tracer: Tracer) -> list:
    """Rebind every traced function wherever a caller resolves it.

    Returns the bindings to hand back to uninstall().
    """
    restore = []
    for owner, attr, name, hooks in _targets(tracer):
        fn = owner.__dict__[attr]
        wrapper = _wrap(tracer, name, fn, **hooks)
        owners = [owner] if isinstance(owner, type) else MODULES
        for mod in owners:
            for bound in [k for k, v in vars(mod).items() if v is fn]:
                restore.append((mod, bound, fn))
                setattr(mod, bound, wrapper)
    return restore


def uninstall(restore: list):
    for owner, attr, fn in reversed(restore):
        setattr(owner, attr, fn)
