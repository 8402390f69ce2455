#!/usr/bin/env python3
"""Train the default synthetic suite and compare every merging method.

Prints one row per (seed, method) plus per-method averages over seeds.
"""

import argparse

import numpy as np

from loramerge import harness, mergers, tara


def run_seed(seed, iters):
    suite = harness.generate_suite(seed=seed)
    coll = harness.finetune_all(suite, seed=seed)
    rho = np.full(suite.n_tasks, 1.0 / suite.n_tasks)
    rows = {}
    cfg = mergers.MergeConfig("ta", lam=0.3)
    rows["ta(0.3)"] = harness.evaluate(mergers.run_merge(coll, cfg), suite)
    for method in ("ties", "dare_ties", "linear", "svd", "knots_ties", "lora_lego"):
        cfg = mergers.MergeConfig(method=method, k_clusters=16, target_rank=16)
        rows[method] = harness.evaluate(mergers.run_merge(coll, cfg), suite)
    optim = tara.OptimConfig(seed=seed, max_iters=iters)
    w, _, _ = tara.adamerging_baseline(coll, suite, optim)
    rows["adamerging"] = harness.evaluate(w, suite)
    for variant in ("a", "b"):
        w, _, _ = tara.merge_tara(coll, suite, rho, variant=variant, optim=optim)
        rows[f"tara-{variant}"] = harness.evaluate(w, suite)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--iters", type=int, default=500)
    args = parser.parse_args()

    totals = {}
    for seed in range(args.seeds):
        rows = run_seed(seed, args.iters)
        for method, rep in rows.items():
            totals.setdefault(method, []).append(rep.avg_normalized)
            print(f"seed {seed}  {method:<12s} avg normalized {rep.avg_normalized:.4f}")
    print("\n=== averages over seeds ===")
    for method, vals in sorted(totals.items(), key=lambda kv: -np.mean(kv[1])):
        print(f"{method:<12s} {np.mean(vals):.4f} +/- {np.std(vals):.4f}")


if __name__ == "__main__":
    main()
