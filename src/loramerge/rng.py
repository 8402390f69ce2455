"""Counter-based random streams keyed by (seed, tags).

Every stochastic component in the library draws from a Philox stream whose
key is derived from the run seed plus a tuple of identifying tags (task id,
layer id, step index, ...). Streams are independent of evaluation order, so
parallel or reordered execution cannot change results.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key(seed: int, tags: tuple) -> np.ndarray:
    digest = hashlib.blake2b(repr((int(seed),) + tags).encode(), digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64)


def substream(seed: int, *tags) -> np.random.Generator:
    """Return a Generator whose state depends only on (seed, *tags)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, tags)))


def keyed_integers(seed: int, tags: list[tuple], high: int, size: int) -> np.ndarray:
    """(len(tags), size) int64 array whose row j equals
    substream(seed, *tags[j]).integers(0, high, size).

    A stream is only its key, so one Philox is re-keyed per row: it is given the
    whole state of a new generator (counter 0, empty buffers) with that row's
    key, which costs half as much as constructing a generator per row.
    """
    bitgen = np.random.Philox(0)
    fresh = bitgen.state
    gen = np.random.Generator(bitgen)
    out = np.empty((len(tags), size), dtype=np.int64)
    for row, tag in enumerate(tags):
        fresh["state"]["key"] = _key(seed, tag)
        bitgen.state = fresh
        out[row] = gen.integers(0, high, size)
    return out
