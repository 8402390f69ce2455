import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loramerge
from loramerge import cli, harness, mergers, tara
from loramerge.adapters import AdapterCollection, read_container, save_collection
from loramerge.cli import METHOD_KEYS, build_parser, main

FAST_TRAIN = [
    "--n-tasks", "2", "--d", "12", "--m", "10", "--n-train", "120",
    "--n-eval", "60", "--n-adapt", "40", "--rank", "4", "--steps", "150",
]


def _train(tmp_path, seed=0):
    out = tmp_path / "runs"
    rc = main(["train-toy", "--seed", str(seed), "--out", str(out)] + FAST_TRAIN)
    assert rc == 0
    runs = sorted(out.iterdir())
    run = runs[-1]
    return run / "suite.lmk", run / "suite.json", out


class TestTrainToy:
    def test_writes_artifacts_and_manifest(self, tmp_path):
        container, sidecar, out = _train(tmp_path)
        assert container.exists() and sidecar.exists()
        run = container.parent
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["command"] == "train-toy"
        assert "suite.lmk" in manifest["artifacts"]
        refs = json.loads((run / "references.json").read_text())
        assert len(refs) == 2

    def test_rerun_identical_bytes(self, tmp_path):
        c1, s1, _ = _train(tmp_path / "a", seed=3)
        c2, s2, _ = _train(tmp_path / "b", seed=3)
        assert c1.read_bytes() == c2.read_bytes()
        assert s1.read_text() == s2.read_text()

    def test_invalid_rank_rejected_before_work(self, tmp_path):
        rc = main([
            "train-toy", "--out", str(tmp_path / "runs"),
            "--d", "8", "--m", "6", "--rank", "10",
        ])
        assert rc == 2
        assert not (tmp_path / "runs").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_tasks": 2, "d": 12, "m": 10, "n_train": 80, "n_eval": 40,
            "n_adapt": 30, "rank": 4, "steps": 60, "seed": 1,
        }))
        rc = main(["train-toy", "--config", str(cfg), "--out",
                   str(tmp_path / "runs"), "--seed", "9"])
        assert rc == 0
        run = sorted((tmp_path / "runs").iterdir())[-1]
        assert "seed9" in run.name  # flag wins over config

    def test_too_few_labels_for_hits_at_refused_before_work(self, tmp_path, capsys,
                                                           monkeypatch):
        """merge and eval report Hits@5, so a suite of 4 labels is refused before
        fine-tuning rather than after every merge."""
        monkeypatch.setattr(harness, "finetune_all", lambda *a, **k: pytest.fail("trained"))
        out = tmp_path / "runs"
        capsys.readouterr()
        assert main(["train-toy", *FAST_TRAIN, "--n-tasks", "1", "--n-classes", "4",
                     "--out", str(out)]) == 2
        assert "Hits@5" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_sets_are_pinned(self):
        """The train-toy and merge flags are read from the config dataclasses; a
        field change must not add or drop a flag unnoticed."""
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        want = {
            "train-toy": "--config --out --seed --n-tasks --d --m --n-classes --n-train "
                         "--n-eval --n-adapt --noise-std --mean-scale --leak-scale --rank "
                         "--steps --lr",
            "merge": "--sidecar --out --config --method --preference --lam --trim-fraction "
                     "--drop-prob --k-clusters --lego-reweight --target-rank "
                     "--alpha --iters --lr --batch-size --seed",
            "sweep": "--sidecar --out --method --preferences --random --fixed --seed --iters",
        }
        for command, flags in want.items():
            got = set(sub.choices[command]._option_string_actions)
            assert got == {"-h", "--help", *flags.split()}, command

    def test_only_the_named_command_gets_flags(self):
        """main builds the flags of the command it runs; build_parser() builds all."""
        def flags(parser):
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            return {name: [a.dest for a in p._actions] for name, p in sub.choices.items()}

        every = flags(build_parser())
        for command in every:
            got = flags(build_parser(command))
            assert got.keys() == every.keys()
            for name in every:
                assert got[name] == (every[name] if name == command else ["help"]), name

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["train-toy", "--config", str(cfg), "--out",
                     str(tmp_path / "runs")]) == 2


class TestMerge:
    def test_ta_merge_report(self, tmp_path):
        container, sidecar, out = _train(tmp_path)
        rc = main([
            "merge", str(container), "--sidecar", str(sidecar),
            "--method", "ta", "--lam", "0.3", "--out", str(out),
        ])
        assert rc == 0
        run = sorted(out.iterdir())[-1]
        report = json.loads((run / "report.json").read_text())
        assert len(report["normalized"]) == 2
        assert (run / "merged.lmk").exists()

    def test_tara_trace_rows(self, tmp_path):
        container, sidecar, out = _train(tmp_path)
        rc = main([
            "merge", str(container), "--sidecar", str(sidecar),
            "--method", "tara-b", "--iters", "20", "--out", str(out),
        ])
        assert rc == 0
        run = sorted(out.iterdir())[-1]
        with open(run / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 21  # header + 20 steps
        assert rows[0][:2] == ["step", "objective"]

    def test_one_task_objective_rising_from_near_zero_completes(self, tmp_path):
        """On this one-task suite TARA-B's objective starts at 0.0053 and passes
        0.09 by step 3. With one task it is |f - z|, at most log 5 at five
        classes: a rise that is no divergence, so the run completes."""
        out = tmp_path / "runs"
        assert main(["train-toy", "--n-tasks", "1", "--seed", "3", "--out", str(out)]) == 0
        (run,) = out.iterdir()
        assert main(["merge", str(run / "suite.lmk"), "--sidecar", str(run / "suite.json"),
                     "--method", "tara-b", "--iters", "20", "--out", str(tmp_path / "m")]) == 0
        (merged,) = (tmp_path / "m").iterdir()
        assert len((merged / "trace.csv").read_text().splitlines()) == 21

    def test_trace_bytes_are_the_csv_writer_rows(self, tmp_path):
        values = [-0.0, 1e-05, 0.1, 1.0, -2.5e-300, 123456789.0, float("inf"), float("nan")]
        steps = range(len(values) - 2)
        trace = tara.OptimTrace(np.arange(len(steps)), np.array(values[2:]),
                                np.array([values[step : step + 3] for step in steps]))
        cli._write_trace(tmp_path, "trace.csv", trace)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "objective", "f0", "f1", "f2"])
            for step in steps:
                writer.writerow([step, repr(values[step + 2])]
                                + [repr(x) for x in values[step : step + 3]])
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_optimizer_keys_are_the_optim_config_fields(self):
        """Every OptimConfig field is a merge flag typed by its default, and a config
        key of each optimizing method, under its own name."""
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a.type for a in sub.choices["merge"]._actions}
        for f in dataclasses.fields(tara.OptimConfig):
            assert flags[f.name] is type(f.default), f.name
            for method in ("tara-a", "tara-b", "adamerging"):
                assert f.name in METHOD_KEYS[method], (method, f.name)

    def test_unknown_method_exit_2(self, tmp_path):
        container, sidecar, out = _train(tmp_path)
        assert main([
            "merge", str(container), "--sidecar", str(sidecar),
            "--method", "bogus", "--out", str(out),
        ]) == 2

    def test_irrelevant_param_exit_2(self, tmp_path):
        container, sidecar, out = _train(tmp_path)
        assert main([
            "merge", str(container), "--sidecar", str(sidecar),
            "--method", "ta", "--drop-prob", "0.5", "--out", str(out),
        ]) == 2

    def test_bad_preference_exit_2(self, tmp_path):
        container, sidecar, out = _train(tmp_path)
        assert main([
            "merge", str(container), "--sidecar", str(sidecar),
            "--method", "ta", "--preference", "0.9,0.9", "--out", str(out),
        ]) == 2

    def test_seed_draws_the_dare_masks(self, tmp_path, trained_and_merged):
        """One --seed names the run and seeds DARE, as MergeConfig's seed does."""
        container, sidecar, _ = trained_and_merged
        _, coll = harness.load_suite(container, sidecar)
        merged = {}
        for seed in (0, 3):
            out = tmp_path / f"seed{seed}"
            assert main(["merge", str(container), "--sidecar", str(sidecar), "--method",
                         "dare_ties", "--seed", str(seed), "--out", str(out)]) == 0
            (run,) = out.iterdir()
            assert run.name.endswith(f"-seed{seed}")
            merged[seed] = read_container(run / "merged.lmk")[0].base["layer0"]
            want = mergers.run_merge(coll, mergers.MergeConfig("dare_ties", seed=seed))
            assert np.array_equal(merged[seed], want["layer0"].astype(np.float32))
        assert not np.array_equal(merged[0], merged[3])

    def test_missing_container_exit_1(self, tmp_path):
        assert main([
            "merge", str(tmp_path / "missing.lmk"), "--sidecar",
            str(tmp_path / "missing.json"), "--method", "ta",
            "--out", str(tmp_path / "runs"),
        ]) == 1


class TestExitCodes:
    """0 success, 1 runtime failure (numerical aborts included), 2 usage or
    validation error."""

    def test_success_exits_0(self, tmp_path):
        container, sidecar, out = _train(tmp_path)
        assert main([
            "sweep", str(container), "--sidecar", str(sidecar), "--method", "tara-a",
            "--random", "2", "--iters", "10", "--out", str(out / "sweep"),
        ]) == 0
        (run,) = (out / "sweep").iterdir()
        assert len((run / "sweep.csv").read_text().splitlines()) == 3  # header + 2 points

    @pytest.mark.parametrize("abort", ["svd", "entropy", "finetune"])
    def test_numerical_abort_exits_1(self, tmp_path, monkeypatch, capsys, abort):
        container, sidecar, out = _train(tmp_path)
        src = [str(container), "--sidecar", str(sidecar), "--out", str(out)]
        if abort == "svd":
            def no_convergence(*args, **kwargs):
                raise np.linalg.LinAlgError("SVD did not converge")

            monkeypatch.setattr(np.linalg, "svd", no_convergence)
            argv = ["merge", *src, "--method", "tara-b", "--iters", "3"]
        elif abort == "entropy":
            real = harness.TaskSuite.factor_scorer

            def nan_entropy(self, *args):
                score = real(self, *args)

                def nan_scores(coef, idx):
                    f, grads = score(coef, idx)
                    return np.full_like(f, np.nan), grads

                return nan_scores

            monkeypatch.setattr(harness.TaskSuite, "factor_scorer", nan_entropy)
            argv = ["merge", *src, "--method", "tara-a", "--iters", "3"]
        else:  # a learning rate this large trips the fine-tuning divergence guard
            argv = ["train-toy", "--out", str(tmp_path / "diverged"), *FAST_TRAIN,
                    "--lr", "100"]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("runtime failure:")

    @pytest.mark.parametrize("argv", [
        ["merge", "--method", "ta", "--drop-prob", "0.5"],
        ["merge", "--method", "ta", "--lam", "nan"],
        ["sweep", "--method", "bogus", "--random", "2"],
        ["sweep", "--method", "ta", "--random", "2", "--iters", "5"],
        ["sweep", "--method", "tara-b", "--random", "2", "--iters", "0"],
    ], ids=["merge_irrelevant_key", "merge_bad_lam", "sweep_unknown_method",
            "sweep_irrelevant_key", "sweep_zero_iters"])
    def test_method_is_checked_before_the_suite_is_read(self, tmp_path, capsys, argv):
        """A bad method, a key it does not read or a bad setting exits 2 although
        the suite's files are missing, which alone exits 1."""
        missing = [str(tmp_path / "missing.lmk"), "--sidecar", str(tmp_path / "missing.json")]
        capsys.readouterr()
        assert main([argv[0], *missing, *argv[1:], "--out", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("rows", [
        ["--random", "0"],
        ["--random", "2", "--preferences", "p.json"],
        ["--fixed", "0:0.5", "--preferences", "p.json"],
        ["--random", "2", "--fixed", "0:x"],
        ["--random", "2", "--fixed", "0:0.1,0:0.2"],
        [],
    ], ids=["random_0", "preferences_beside_random", "preferences_beside_fixed",
            "bad_fixed", "fixed_twice", "no_rows"])
    def test_sweep_rows_are_checked_before_the_suite_is_read(self, tmp_path, capsys, rows):
        """The row flags' checks that need no task count exit 2, with no run
        directory, although the suite's files are missing, which alone exits 1."""
        missing = [str(tmp_path / "missing.lmk"), "--sidecar", str(tmp_path / "missing.json")]
        capsys.readouterr()
        assert main(["sweep", *missing, "--method", "ta", *rows,
                     "--out", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "runs").exists()

    def test_validation_error_exits_2(self, tmp_path, capsys):
        container, sidecar, out = _train(tmp_path)
        capsys.readouterr()
        assert main([
            "merge", str(container), "--sidecar", str(sidecar), "--method", "tara-b",
            "--alpha", "-1", "--iters", "3", "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err.startswith(
            "error: bad_config: alpha must be a finite number > 0, got -1.0")

    @pytest.mark.parametrize(
        "argv",
        [
            ["train-toy", "--rank", "0"],
            ["train-toy", "--steps", "-3"],
            ["train-toy", "--lr", "nan"],
            ["merge", "--method", "tara-b", {"iters": -5}],
            ["merge", "--method", "tara-b", {"iters": 0}],
            ["merge", "--method", "tara-b", {"iters": 1.5}],
            ["merge", "--method", "tara-b", {"batch_size": 0}],
            ["merge", "--method", "tara-b", {"lr": "nan"}],
            ["merge", "--method", "tara-b", {"batch_size": True}],
            ["merge", "--method", "tara-b", {"alpha": float("inf")}],
            ["merge", "--method", "tara-b", {"lam": "x"}],
            ["merge", "--method", "tara-a", {"trim_fraction": 0.2}],
            ["merge", "--method", "adamerging", {"alpha": 1.0}],
            ["merge", "--method", "adamerging", {"iters": 0}],
            ["sweep", "--method", "tara-b", "--random", "2", "--iters", "0"],
            ["merge", "--method", "ta", {"lam": "x"}],
            ["merge", "--method", "ta", {"lam": [1]}],
            ["merge", "--method", "ta", {"lam": float("nan")}],
            ["merge", "--method", "svd", {"target_rank": 2.5}],
            ["merge", "--method", "svd", {"target_rank": 0}],
            ["merge", "--method", "lora_lego", {"k_clusters": "4"}],
            ["merge", "--method", "lora_lego", {"seed": 1.5}],
            ["merge", "--method", "ties", {"trim_fraction": "0.5"}],
            ["merge", "--method", "dare_ties", {"drop_prob": [0.1]}],
            ["merge", "--method", "ta", {"lam": 10**400}],
            ["merge", "--method", "tara-b", {"seed": 2.7}],
            ["merge", "--method", "tara-b", {"seed": "x"}],
            ["merge", "--method", "ta", {"seed": 2.7}],
            ["merge", "--method", "ta", {"preference": [0.5, "0.5"]}],
        ],
        ids=["rank_0", "negative_steps", "nan_lr", "negative_iters", "zero_iters",
             "fractional_iters", "zero_batch", "string_lr", "bool_batch", "inf_alpha",
             "tara_lam", "tara_trim", "adamerging_alpha", "adamerging_zero_iters",
             "sweep_zero_iters", "string_lam", "list_lam", "nan_lam",
             "fractional_target_rank", "zero_target_rank", "string_k_clusters",
             "fractional_rng_seed", "string_trim", "list_drop_prob", "huge_int_lam",
             "fractional_seed", "string_seed", "ta_fractional_seed", "string_in_preference"],
    )
    def test_bad_hyperparameter_exits_2(self, tmp_path, capsys, trained_and_merged, argv):
        """Hyperparameters are checked before any run directory is made."""
        container, sidecar, _ = trained_and_merged
        out = tmp_path / "runs"
        if argv[0] == "train-toy":
            argv = [*argv[:1], *FAST_TRAIN, *argv[1:]]
        else:
            argv = [argv[0], str(container), "--sidecar", str(sidecar), *argv[1:]]
        if isinstance(argv[-1], dict):
            (tmp_path / "cfg.json").write_text(json.dumps(argv[-1]))
            argv[-1:] = ["--config", str(tmp_path / "cfg.json")]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,prefs",
        [
            (["merge", "--method", "ta", "--preference", "nan,nan"], None),
            (["merge", "--method", "tara-b", "--preference", "nan,nan"], None),
            (["merge", "--method", "ta", "--preference", "inf,0"], None),
            (["sweep", "--method", "ta", "--random", "2", "--fixed", "0:nan"], None),
            (["sweep", "--method", "ta"], [1]),
            (["sweep", "--method", "ta"], [None]),
            (["sweep", "--method", "ta"], [[None, 1]]),
            (["sweep", "--method", "ta"], [["0.5", "0.5"]]),
            (["sweep", "--method", "ta"], {"a": 1}),
            (["sweep", "--random", "3"], [[0.5, 0.5]]),
            (["sweep", "--fixed", "0:0.9"], [[0.5, 0.5]]),
            (["sweep", "--random", "3", "--fixed", "0:0.9"], [[0.5, 0.5]]),
            (["sweep", "--random", "3", "--fixed", "0:0.2,0:0.3"], None),
        ],
        ids=["merge_nan", "tara_nan", "merge_inf", "fixed_nan", "int_row", "null_row",
             "null_entry", "string_entries", "object", "file_and_random", "file_and_fixed",
             "file_random_and_fixed", "fixed_twice"],
    )
    def test_bad_preference_exits_2(self, tmp_path, capsys, trained_and_merged, argv,
                                    prefs):
        """Every preference passes the one simplex check before any merge, so a
        NaN or non-number is refused and no run directory is made. So are rows
        given two ways (a file beside --random or --fixed) and a coordinate
        pinned twice."""
        container, sidecar, _ = trained_and_merged
        out = tmp_path / "runs"
        argv = [argv[0], str(container), "--sidecar", str(sidecar), *argv[1:]]
        if prefs is not None:
            (tmp_path / "prefs.json").write_text(json.dumps(prefs))
            argv += ["--preferences", str(tmp_path / "prefs.json")]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("rank", 2.7), ("rank", "4"), ("steps", 10.5), ("lr", "0.02"), ("seed", 1.5),
        ("d", 12.0), ("mean_scale", True), ("leak_scale", [1]), ("noise_std", "x"),
        ("noise_std", float("nan")),
    ])
    def test_train_toy_config_values_are_not_converted(self, tmp_path, capsys, field,
                                                       value):
        """A config-file value of the wrong type is refused, not truncated."""
        cfg = {"n_tasks": 2, "d": 12, "m": 10, "n_train": 40, "n_eval": 20,
               "n_adapt": 20, "rank": 4, "steps": 5, field: value}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "runs"
        capsys.readouterr()
        assert main(["train-toy", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad_config: {field}")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["merge", "--method", "ta", "--lam", "1e307"],
        ["merge", "--method", "ta", "--lam", "1e40"],
        ["merge", "--method", "svd", "--lam", "1e307", "--target-rank", "4"],
        ["diagnose", "--kappa", "--lam", "1e307"],
        ["train-toy", "--lr", "1e300", "--steps", "5"],
    ], ids=["ta_huge_lam", "ta_float32_overflow", "svd", "diagnose_kappa", "nan_loss"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    def test_overflow_is_a_numerical_abort(self, tmp_path, capsys, trained_and_merged,
                                           argv):
        """A finite setting whose numbers overflow exits 1 before any run directory
        is made: not a report scored from NaN logits, a merged.lmk that eval
        refuses, or a validation error (exit 2)."""
        container, sidecar, _ = trained_and_merged
        out = tmp_path / "runs"
        if argv[0] == "train-toy":
            argv = [argv[0], *FAST_TRAIN, *argv[1:]]
        else:
            argv = [argv[0], str(container), "--sidecar", str(sidecar), *argv[1:]]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("runtime failure:")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train-toy", "--lr", "1e300", "--steps", "5"],
        ["diagnose", "--kappa", "--lam", "1e307"],
        ["merge", "--method", "ta", "--lam", "1e307"],
    ], ids=["nan_loss", "diagnose_kappa", "ta_huge_lam"])
    def test_overflow_abort_is_the_first_stderr_line(self, tmp_path, trained_and_merged,
                                                    argv):
        """Outside pytest, which captures warnings, numpy's overflow warning must not
        precede the abort line."""
        container, sidecar, _ = trained_and_merged
        if argv[0] == "train-toy":
            argv = [argv[0], *FAST_TRAIN, *argv[1:]]
        else:
            argv = [argv[0], str(container), "--sidecar", str(sidecar), *argv[1:]]
        env = {**os.environ, "PYTHONPATH": str(Path(loramerge.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "loramerge.cli", *argv, "--out", str(tmp_path / "runs")],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 1
        assert proc.stderr.startswith("runtime failure:"), proc.stderr


class TestSweep:
    def test_random_with_fixed(self, tmp_path):
        container, sidecar, out = _train(tmp_path)
        rc = main([
            "sweep", str(container), "--sidecar", str(sidecar),
            "--method", "ta", "--random", "4", "--fixed", "0:0.125",
            "--out", str(out), "--seed", "0",
        ])
        assert rc == 0
        run = sorted(out.iterdir())[-1]
        with open(run / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5
        for row in rows[1:]:
            rho = [float(v) for v in row[:2]]
            assert rho[0] == pytest.approx(0.125)
            assert sum(rho) == pytest.approx(1.0, abs=1e-9)

    def test_preference_file(self, tmp_path):
        container, sidecar, out = _train(tmp_path)
        prefs = tmp_path / "prefs.json"
        prefs.write_text(json.dumps([[0.3, 0.7], [0.7, 0.3]]))
        rc = main([
            "sweep", str(container), "--sidecar", str(sidecar),
            "--method", "ta", "--preferences", str(prefs), "--out", str(out),
        ])
        assert rc == 0
        run = sorted(out.iterdir())[-1]
        with open(run / "sweep.csv") as fh:
            assert len(list(csv.reader(fh))) == 3

    def test_manifest_records_how_rows_were_drawn(self, tmp_path, trained_and_merged):
        container, sidecar, _ = trained_and_merged
        prefs = tmp_path / "prefs.json"
        prefs.write_text(json.dumps([[0.3, 0.7]]))
        for name, flags, want in [
            ("random", ["--random", "2", "--fixed", "0:0.125"],
             {"preferences": None, "random": 2, "fixed": "0:0.125"}),
            ("file", ["--preferences", str(prefs)],
             {"preferences": str(prefs), "random": None, "fixed": None}),
        ]:
            assert main(["sweep", str(container), "--sidecar", str(sidecar), "--method", "ta",
                         *flags, "--out", str(tmp_path / name)]) == 0
            (run,) = (tmp_path / name).iterdir()
            config = json.loads((run / "manifest.json").read_text())["config"]
            assert {k: config[k] for k in want} == want

    def test_empty_preferences_exit_2(self, tmp_path):
        container, sidecar, out = _train(tmp_path)
        prefs = tmp_path / "prefs.json"
        prefs.write_text("[]")
        assert main([
            "sweep", str(container), "--sidecar", str(sidecar),
            "--preferences", str(prefs), "--out", str(out),
        ]) == 2

    @pytest.mark.parametrize("method", [["ta"], ["adamerging", "--iters", "20"]],
                             ids=["ta", "adamerging"])
    def test_method_without_preference_merges_once(self, tmp_path, trained_and_merged,
                                                   method):
        """Every row of a ta or AdaMerging sweep holds the normalized accuracies of
        that method's merge."""
        container, sidecar, _ = trained_and_merged
        src = [str(container), "--sidecar", str(sidecar)]
        assert main(["merge", *src, "--method", *method, "--out", str(tmp_path / "m")]) == 0
        (run,) = (tmp_path / "m").iterdir()
        want = json.loads((run / "report.json").read_text())["normalized"]
        assert main(["sweep", *src, "--method", *method, "--random", "3",
                     "--out", str(tmp_path / "s")]) == 0
        (run,) = (tmp_path / "s").iterdir()
        with open(run / "sweep.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 3
        assert all([float(v) for v in row[2:]] == want for row in rows)

    def test_requires_source(self, tmp_path):
        container, sidecar, out = _train(tmp_path)
        assert main([
            "sweep", str(container), "--sidecar", str(sidecar),
            "--out", str(out),
        ]) == 2


class TestDiagnoseAndEval:
    def test_diagnose_outputs(self, tmp_path):
        container, sidecar, out = _train(tmp_path)
        rc = main([
            "diagnose", str(container), "--sidecar", str(sidecar),
            "--stacks", "--xi", "--kappa", "--out", str(out),
        ])
        assert rc == 0
        run = sorted(out.iterdir())[-1]
        cov = json.loads((run / "coverage.json").read_text())
        assert "layer0" in cov
        xi = json.loads((run / "xi.json").read_text())
        assert 0.0 <= xi["layer0"] <= 1.0
        kappa = json.loads((run / "kappa.json").read_text())
        assert kappa["layer0"]["raw"] >= 1.0
        assert kappa["layer0"]["shared_svd"] >= 1.0

    def test_diagnose_needs_a_flag(self, tmp_path):
        container, sidecar, out = _train(tmp_path)
        assert main([
            "diagnose", str(container), "--sidecar", str(sidecar),
            "--out", str(out),
        ]) == 2

    @pytest.mark.parametrize("argv,code,message", [
        (["--xi", "--lam", "nan"], 2, "error: bad_config: lam"),
        (["--xi", "--lam", "1e307"], 1, "runtime failure: undefined misalignment"),
        ([], 2, "error: diagnose needs"),
    ], ids=["nan_lam", "overflowing_lam", "no_flag"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    def test_refused_diagnose_makes_no_run(self, tmp_path, capsys, trained_and_merged,
                                           argv, code, message):
        """A NaN lam fails MergeConfig's rule; at lam 1e307 the merged weights
        overflow, so the sensitivity profiles are NaN and xi is undefined."""
        container, sidecar, _ = trained_and_merged
        out = tmp_path / "runs"
        capsys.readouterr()
        assert main(["diagnose", str(container), "--sidecar", str(sidecar), *argv,
                     "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_eval_round_trip(self, tmp_path):
        container, sidecar, out = _train(tmp_path)
        rc = main([
            "merge", str(container), "--sidecar", str(sidecar),
            "--method", "ta", "--out", str(out),
        ])
        assert rc == 0
        merge_run = sorted(out.iterdir())[-1]
        rc = main([
            "eval", str(container), "--sidecar", str(sidecar),
            "--weights", str(merge_run / "merged.lmk"), "--out", str(out),
        ])
        assert rc == 0
        eval_run = sorted(out.iterdir())[-1]
        got = json.loads((eval_run / "report.json").read_text())
        want = json.loads((merge_run / "report.json").read_text())
        assert got["normalized"] == want["normalized"]


def _edit(name, fn):
    """A tensor edit that replaces suite tensor name by fn of it, or drops it
    when fn returns None."""
    key = f"__suite__/{name}"

    def edit(tensors):
        tensors = dict(tensors)
        new = fn(tensors.pop(key))
        if new is not None:
            tensors[key] = new
        return tensors

    return edit


def _per_task_layout(tensors):
    """The suite tensors under the keys of the earlier per-task layout,
    __suite__/task{i}/<field> with a head per task."""
    return {k.replace("__suite__/", f"__suite__/task{i}/").replace("heads", "head"): row
            for k, arr in tensors.items() for i, row in enumerate(arr)}


@pytest.fixture(scope="module")
def trained_and_merged(tmp_path_factory):
    """A trained suite and a ta merge of it, shared by the malformed-suite cases."""
    tmp = tmp_path_factory.mktemp("suite")
    container, sidecar, out = _train(tmp)
    assert main(["merge", str(container), "--sidecar", str(sidecar), "--method", "ta",
                 "--out", str(out / "merge")]) == 0
    (run,) = (out / "merge").iterdir()
    return container, sidecar, run / "merged.lmk"


def _imported_modules(*args):
    """Modules a `python -X importtime *args` process imports, in order."""
    env = {**os.environ, "PYTHONPATH": str(Path(loramerge.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    return [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")]


def test_merge_does_not_import_numpy_ma(tmp_path, trained_and_merged):
    """Hits@k takes its label union from a sorted set: np.unique imports numpy.ma,
    which costs every merge, eval and sweep process about 1 MB of peak RSS.
    numpy 1.x imports numpy.ma with numpy itself, so there is nothing to save."""
    if "numpy.ma" in _imported_modules("-c", "import numpy"):
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    container, sidecar, _ = trained_and_merged
    imported = _imported_modules(
        "-m", "loramerge.cli", "merge", str(container), "--sidecar", str(sidecar),
        "--method", "ta", "--out", str(tmp_path / "runs"))
    assert "loramerge.harness" in imported
    assert "numpy.ma" not in imported


class TestMalformedSuite:
    """A malformed sidecar or suite container exits 2 with a coded error."""

    @pytest.mark.parametrize(
        "edit_sidecar,edit_tensors,code",
        [
            (lambda doc: {}, None, "bad_sidecar"),
            (lambda doc: [doc], None, "bad_sidecar"),
            (lambda doc: {"config": doc["config"]}, None, "bad_sidecar"),
            (lambda doc: {**doc, "config": {**doc["config"], "n_tasks": "2"}}, None,
             "bad_config"),
            (lambda doc: {**doc, "config": {**doc["config"], "extra": 1}}, None,
             "bad_config"),
            (lambda doc: {**doc, "config": {**doc["config"], "noise_std": None}}, None,
             "bad_config"),
            (lambda doc: {**doc, "config": {**doc["config"], "n_tasks": 0}}, None,
             "bad_config"),
            (lambda doc: {**doc, "references": doc["references"][:1]}, None,
             "bad_references"),
            (lambda doc: {**doc, "references": ["0.9", None]}, None, "bad_references"),
            (lambda doc: {**doc, "references": [0, doc["references"][1]]}, None,
             "bad_references"),
            (lambda doc: {**doc, "references": [-0.5, doc["references"][1]]}, None,
             "bad_references"),
            (None, lambda t: {}, "no_suite_tensors"),
            (None, _per_task_layout, "no_suite_tensors"),
            (None, _edit("eval_y", lambda a: None), "bad_suite"),
            (None, _edit("train_x", lambda a: a[:, 1:]), "bad_suite"),
            (None, _edit("eval_y", lambda a: a + 9), "bad_suite"),
            (None, _edit("heads", lambda a: a.swapaxes(1, 2).copy()), "bad_suite"),
        ],
        ids=["empty", "list", "no_references", "string_n_tasks", "unknown_field",
             "null_float", "zero_tasks", "short_references", "string_reference",
             "zero_reference", "negative_reference",
             "no_suite_tensors", "per_task_layout", "missing_tensor", "short_train_x",
             "label_range", "head_shape"],
    )
    def test_eval_exits_2(self, tmp_path, capsys, trained_and_merged, edit_sidecar,
                          edit_tensors, code):
        container, sidecar, merged = trained_and_merged
        if edit_sidecar is not None:
            sidecar = tmp_path / "suite.json"
            doc = edit_sidecar(json.loads(trained_and_merged[1].read_text()))
            sidecar.write_text(json.dumps(doc))
        if edit_tensors is not None:
            coll, tensors = read_container(trained_and_merged[0])
            container = tmp_path / "suite.lmk"
            save_collection(coll, container, edit_tensors(tensors))
        capsys.readouterr()
        assert main(["eval", str(container), "--sidecar", str(sidecar),
                     "--weights", str(merged), "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {code}: ")
        if code == "no_suite_tensors":
            assert "train-toy" in err


    @pytest.mark.parametrize("argv", [
        ["merge", "--method", "ta"],
        ["merge", "--method", "tara-b", "--iters", "2"],
        ["diagnose", "--xi"],
    ], ids=["ta", "tara-b", "diagnose"])
    def test_extra_adapter_exits_2(self, tmp_path, capsys, trained_and_merged, argv):
        """A container whose adapters are not exactly the suite's tasks task0..task{N-1}
        is refused before any command reads a row of it."""
        coll, tensors = read_container(trained_and_merged[0])
        extra = dataclasses.replace(coll.adapters["layer0"][0], task_id="task2")
        coll = dataclasses.replace(coll, task_ids=[*coll.task_ids, "task2"],
                                   adapters={"layer0": [*coll.adapters["layer0"], extra]})
        container = tmp_path / "suite.lmk"
        save_collection(coll, container, tensors)
        capsys.readouterr()
        assert main([argv[0], str(container), "--sidecar", str(trained_and_merged[1]),
                     *argv[1:], "--out", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err.startswith("error: bad_suite: ")
        assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("weights", ["suite", "no_layer0", "wrong_shape"])
def test_eval_refuses_what_is_not_merged_weights(tmp_path, capsys, trained_and_merged,
                                                 weights):
    """The suite container itself, weights of another layer and weights of
    another shape are each refused before the run directory is made."""
    container, sidecar, _ = trained_and_merged
    path = container
    if weights != "suite":
        layer, shape = ("other", (12, 10)) if weights == "no_layer0" else ("layer0", (16, 10))
        path = tmp_path / "weights.lmk"
        save_collection(AdapterCollection(layer_ids=[layer], task_ids=[],
                                          base={layer: np.zeros(shape)},
                                          adapters={layer: []}), path)
    capsys.readouterr()
    assert main(["eval", str(container), "--sidecar", str(sidecar), "--weights", str(path),
                 "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err.startswith("error: bad_weights: ")
    assert not (tmp_path / "runs").exists()


class TestDeterminism:
    def test_full_pipeline_bit_identical(self, tmp_path):
        """train-toy -> merge -> eval rerun produces byte-identical artifacts."""
        outputs = []
        for sub in ("a", "b"):
            container, sidecar, out = _train(tmp_path / sub, seed=11)
            before = set(out.iterdir())
            rc = main([
                "merge", str(container), "--sidecar", str(sidecar),
                "--method", "tara-a", "--iters", "15", "--out", str(out),
            ])
            assert rc == 0
            (run,) = set(out.iterdir()) - before
            outputs.append((
                (run / "merged.lmk").read_bytes(),
                (run / "report.json").read_text(),
                (run / "trace.csv").read_text(),
            ))
        assert outputs[0] == outputs[1]
