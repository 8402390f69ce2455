#!/usr/bin/env python3
"""Coverage, misalignment, and anisotropy diagnostics on trained suites.

For each seed: effective-rank stacks per layer, the misalignment index
between uniform and one-hot preferences at the 0.3 scaled-sum merge, and the
restricted-Jacobian condition number under the raw and shared-SVD bases.
"""

import argparse

from loramerge import diagnostics, harness, mergers, tara


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()

    for seed in range(args.seeds):
        suite = harness.generate_suite(seed=seed)
        coll = harness.finetune_all(suite, seed=seed)
        grads = suite.task_loss_gradients(mergers.merge_ta(coll, 0.3))
        basis_b = tara.build_variant_b(coll)
        for layer in coll.layer_ids:
            rep = diagnostics.coverage_stacks(coll.adapters[layer])
            xi = diagnostics.xi_protocol(coll, suite, layer)
            raw = diagnostics.layer_directions(coll, layer)
            _, kappa_raw = diagnostics.anisotropy(diagnostics.jacobian(raw, grads[layer]))
            shared = basis_b.layers[layer]
            _, kappa_b = diagnostics.anisotropy(diagnostics.jacobian(shared, grads[layer]))
            print(
                f"seed {seed} {layer}: per-task-sum {rep.per_task_sum:.2f} "
                f">= aware {rep.aware_erank:.2f} >= agnostic {rep.agnostic_erank:.2f} | "
                f"xi {xi:.3f} | kappa raw {kappa_raw:.1f} shared {kappa_b:.1f}"
            )


if __name__ == "__main__":
    main()
