"""The seed-0 artifact set against the committed golden file.

The set is built through cli.main in a temporary directory: train-toy,
diagnose --stacks --xi --kappa, every merge method, a preference merge, four
sweeps and eval. Every artifact's sha256 must match when the environment
recorded in the golden file (numpy, BLAS, machine, BLAS thread variables)
equals the running one; elsewhere the numbers decoded from the text artifacts
must match in type and to 1e-9 relative, and their other fields exactly. manifest.json,
which records run paths, stays out.

A change that moves a bit rewrites the file with its one writer,

    PYTHONPATH=src python tests/test_golden.py

and the diff names the artifacts that moved, one line each.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

from loramerge import cli, mergers

GOLDEN = Path(__file__).with_name("golden_seed0.json")
RTOL = 1e-9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OPTIMIZERS = ("tara-a", "tara-b", "adamerging")


def environment() -> dict:
    """What the bits of a float pipeline depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(blas.get(k)) for k in ("name", "version", "openblas configuration"))
    except (TypeError, KeyError):  # numpy < 1.26 prints its config and takes no mode
        blas = "unknown"
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "")
    return {
        "numpy": np.__version__,
        "blas": blas,
        "machine": f"{platform.machine()} {cpu or platform.processor()}".strip(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _commands(out: Path):
    """(step, argv) in run order, each made after the steps before it ran: every
    later command reads the train step's suite, and eval merge-tara-b's weights."""
    def src():
        run = next((out / "train").iterdir())
        return [str(run / "suite.lmk"), "--sidecar", str(run / "suite.json")]

    yield "train", ["train-toy", "--seed", "0"]
    yield "diag", ["diagnose", *src(), "--stacks", "--xi", "--kappa"]
    for method in mergers.METHODS + OPTIMIZERS:
        yield f"merge-{method}", ["merge", *src(), "--method", method]
    yield "merge-tara-b-pref", ["merge", *src(), "--method", "tara-b",
                                "--preference", "0.7,0.1,0.1,0.1"]
    for method in ("ta",) + OPTIMIZERS:
        yield f"sweep-{method}", ["sweep", *src(), "--method", method, "--random", "3"]
    merged = next((out / "merge-tara-b").iterdir()) / "merged.lmk"
    yield "eval", ["eval", *src(), "--weights", str(merged)]


def _decode(path: Path):
    """The parsed text of a JSON or CSV artifact, each CSV cell read as a JSON
    number, so an int cell stays an int; None for a binary one."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        return [header] + [[json.loads(cell) for cell in row] for row in rows]
    return None


def build(out: Path) -> dict:
    """{step/name: {"sha256", "decoded"}} of every artifact but the manifests."""
    artifacts = {}
    for step, argv in _commands(out):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", str(out / step)])
        assert code == 0, f"{step}: {' '.join(argv)} exited {code}"
        run = next((out / step).iterdir())
        for path in sorted(run.iterdir()):
            if path.name != "manifest.json":
                artifacts[f"{step}/{path.name}"] = {
                    "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                    "decoded": _decode(path),
                }
    return artifacts


def write(path: Path = GOLDEN) -> None:
    """Build the set and write it with the environment, one artifact per line."""
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = build(Path(tmp))
    lines = [f"{json.dumps(name)}: {json.dumps(entry)}" for name, entry in artifacts.items()]
    path.write_text('{"environment": ' + json.dumps(environment(), sort_keys=True)
                    + ',\n"artifacts": {\n' + ",\n".join(lines) + "\n}}\n")


def _mismatches(got, want, where: str):
    """Every place where got differs from want: a number in its type or by more
    than RTOL relative, anything else at all."""
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if type(got) is not type(want) or not abs(got - want) <= RTOL * max(abs(got),
                                                                            abs(want)):
            yield f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        for key in want:
            yield from _mismatches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _mismatches(g, w, f"{where}[{i}]")
    elif got != want:
        yield f"{where}: {got!r} != {want!r}"


def test_seed0_artifacts_match_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got, want = build(tmp_path), golden["artifacts"]
    assert list(got) == list(want)
    if golden["environment"] == environment():
        moved = [name for name in want if got[name]["sha256"] != want[name]["sha256"]]
        assert not moved, f"artifacts whose bytes moved: {moved}"
    else:
        wrong = [line for name in want if want[name]["decoded"] is not None
                 for line in _mismatches(got[name]["decoded"], want[name]["decoded"], name)]
        assert not wrong, "\n".join(wrong[:20])


if __name__ == "__main__":
    write()
    print(f"wrote {GOLDEN}")
