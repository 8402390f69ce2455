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

    A stream is only its key, so one Philox is re-keyed per row (counter 0, empty
    buffers, the row's key). For 1 <= high <= 2**32, numpy's bounded rule (Lemire's
    multiply-shift on each 32-bit half of the raw words) maps all rows at once;
    rows that hit its rejection step, and all rows for other high, use Generator.integers.
    """
    bitgen = np.random.Philox(0)
    fresh, gen = bitgen.state, np.random.Generator(bitgen)

    def rekey(tag):
        fresh["state"]["key"] = _key(seed, tag)
        bitgen.state = fresh

    out, redo = np.empty((len(tags), size), dtype=np.int64), range(len(tags))
    if 1 <= high <= 2**32:
        words = np.empty((len(tags), (size + 1) // 2), dtype="<u8")
        for row, tag in enumerate(tags):
            rekey(tag)
            words[row] = bitgen.random_raw(words.shape[1])
        # "<u4" view: low half first. The product must be uint64: numpy 1.x keeps a
        # uint32 array times a uint64 scalar that fits in 32 bits as uint32, and wraps.
        m = words.view("<u4")[:, :size].astype(np.uint64) * np.uint64(high)
        redo = np.flatnonzero(np.any(m.astype(np.uint32) < (2**32 - high) % high, axis=1))
        out = (m >> 32).view(np.int64)
    for row in redo:
        rekey(tags[row])
        out[row] = gen.integers(0, high, size)
    return out
