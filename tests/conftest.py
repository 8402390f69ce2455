import numpy as np
import pytest

from loramerge import harness
from loramerge.adapters import AdapterCollection, LoraAdapter
from loramerge.rng import substream


def random_adapter(gen, task_id, layer_id, d, m, rank, lora_alpha=16.0, scale=1.0):
    return LoraAdapter(
        task_id=task_id,
        layer_id=layer_id,
        b=scale * gen.standard_normal((d, rank)),
        a=scale * gen.standard_normal((m, rank)),
        rank=rank,
        lora_alpha=lora_alpha,
    )


def random_collection(seed=0, n_tasks=3, layers=("l0", "l1"), d=8, m=6, rank=2,
                      lora_alpha=16.0):
    gen = substream(seed, "collection")
    layer_ids = list(layers)
    task_ids = [f"task{i}" for i in range(n_tasks)]
    base = {l: gen.standard_normal((d, m)) for l in layer_ids}
    adapters = {
        l: [random_adapter(gen, t, l, d, m, rank, lora_alpha) for t in task_ids]
        for l in layer_ids
    }
    return AdapterCollection(
        layer_ids=layer_ids, task_ids=task_ids, base=base, adapters=adapters
    )


def sub_collection(coll, task_ids):
    """The collection's adapters of the given tasks, in the order given."""
    idx = [coll.task_ids.index(t) for t in task_ids]
    return AdapterCollection(
        layer_ids=list(coll.layer_ids), task_ids=list(task_ids), base=dict(coll.base),
        adapters={l: [coll.adapters[l][i] for i in idx] for l in coll.layer_ids},
    )


@pytest.fixture(scope="session")
def small_suite():
    """Tiny trained two-task suite shared by optimizer-heavy tests."""
    suite = harness.generate_suite(
        seed=0, n_tasks=2, d=12, m=10, n_train=150, n_eval=100, n_adapt=60
    )
    coll = harness.finetune_all(suite, rank=4, steps=200, seed=0)
    return suite, coll


@pytest.fixture(scope="session")
def nine_class_suite():
    """The small suite's sizes with nine classes, where numpy's pairwise summation
    reaches the class axis."""
    suite = harness.generate_suite(
        seed=0, n_tasks=2, d=12, m=10, n_classes=9, n_train=150, n_eval=100, n_adapt=60
    )
    coll = harness.finetune_all(suite, rank=4, steps=200, seed=0)
    return suite, coll


@pytest.fixture(scope="session")
def default_suite():
    """Default-scale trained suite for the end-to-end and diagnostics tests."""
    suite = harness.generate_suite(seed=0)
    coll = harness.finetune_all(suite, seed=0)
    return suite, coll


def assert_weights_close(w1, w2, tol=1e-12):
    assert set(w1) == set(w2)
    for layer in w1:
        denom = max(np.max(np.abs(w2[layer])), 1e-300)
        assert np.max(np.abs(w1[layer] - w2[layer])) / denom <= tol
