#!/usr/bin/env python3
"""Two-task preference sweep: trade-off curve of normalized accuracies.

Writes a CSV of (rho_0, rho_1, acc_0, acc_1) rows suitable for plotting.
"""

import argparse
import csv

import numpy as np

from loramerge import harness, tara


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--variant", choices=["a", "b"], default="b")
    parser.add_argument("--out", default="sweep.csv")
    args = parser.parse_args()

    suite = harness.generate_suite(seed=args.seed, n_tasks=2)
    coll = harness.finetune_all(suite, seed=args.seed)
    r0s = np.linspace(0.02, 0.98, args.points)
    points = tara.sweep_tara(
        coll, suite, [np.array([r0, 1.0 - r0]) for r0 in r0s], variant=args.variant,
        optim=tara.OptimConfig(seed=args.seed),
    )
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho0", "rho1", "acc0", "acc1"])
        for r0, (w, _, _) in zip(r0s, points):
            rep = harness.evaluate(w, suite)
            writer.writerow([f"{r0:.4f}", f"{1 - r0:.4f}",
                             f"{rep.normalized[0]:.4f}", f"{rep.normalized[1]:.4f}"])
            print(f"rho=({r0:.2f},{1-r0:.2f}) acc=({rep.normalized[0]:.3f},"
                  f"{rep.normalized[1]:.3f})")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
