"""Smoke test: each workload runs at tiny sizes, prints every metric with its
unit, and its output checks run."""

import json
import math
from pathlib import Path

import pytest

import run
import spans
import workloads
from loramerge import cli, harness, linalg, mergers, tara

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run_tiny(capsys, workload, trace, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, sizes=workloads.TINY) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "env" in json.loads(lines[-2])["info"]
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_reports_every_metric(capsys, workload, trace):
    originals = (linalg.svd, tara.assemble, harness.TaskSuite.entropy_and_grad)
    result = _run_tiny(capsys, workload, trace)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 2 and result["failed"] >= 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    # wrappers are gone after the run
    assert (linalg.svd, tara.assemble, harness.TaskSuite.entropy_and_grad) == originals
    if trace:
        # self times partition the traced pass time
        self_total = sum(v for name, v in values.items() if name.endswith(".self_s"))
        assert self_total == pytest.approx(values["trace.pass_s"], rel=1e-9)
        assert values["linalg.svd.calls"] > 0


def test_wrong_output_is_caught(capsys, monkeypatch):
    monkeypatch.setattr(mergers, "merge_ta", lambda coll, lam=0.3: dict(coll.base))
    result = _run_tiny(capsys, "wide_layers", 0)
    assert result["correct"] is False
    assert result["failed"] >= 2


def test_span_names_cover_the_layers():
    layers = {name.split(".")[0] for name in spans.SPAN_NAMES}
    assert layers == {"cli", "harness", "tara", "mergers", "linalg", "diagnostics",
                      "adapters", "rng"}


def test_probe_time_is_charged_to_bench():
    tracer, probe = spans.Tracer(), run.SpeedProbe()
    probe.tracer = tracer
    start = tracer.start_pass()
    inner = tracer.open()
    probe.sample()
    tracer.close("linalg.svd", inner)
    tracer.end_pass(start)
    assert tracer.self_s["bench"] >= probe.samples[0]
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.total_s["bench.pass"], rel=1e-12)


def test_traced_errors_match_untraced(tmp_path):
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        with pytest.raises(FileNotFoundError):
            harness.load_suite(tmp_path / "missing.lmk", tmp_path / "missing.json")
        with pytest.raises(linalg.LinalgError):
            linalg.svd([1.0, 2.0])
        assert cli.main(["merge", "x.lmk", "--sidecar", "x.json", "--method"]) == 2
    finally:
        spans.uninstall(restore)
    assert tracer.count["linalg.svd.calls"] == 1
