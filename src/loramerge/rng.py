"""Counter-based random streams keyed by (seed, tags).

Every stochastic component in the library draws from a Philox stream whose
key is derived from the run seed plus a tuple of identifying tags (task id,
layer id, ...). Streams are independent of evaluation order, so parallel or
reordered execution cannot change results. A batch schedule draws each task's
rows for every step from that task's one stream (task_integers).
"""

from __future__ import annotations

import hashlib

import numpy as np

from .checks import CodedError, is_integer


def _digest(seed: int, tags: tuple) -> bytes:
    """Keys a str subclass as its str, a numpy integer as its int; refuses a
    seed that is not an integer and a tag that is neither."""
    if not is_integer(seed):
        raise CodedError(f"stream seed {seed!r} is not an integer", code="bad_tag")
    bad = [t for t in tags if not (isinstance(t, str) or is_integer(t))]
    if bad:
        raise CodedError(f"stream tag {bad[0]!r} is neither a str nor an integer", code="bad_tag")
    key = (int(seed), *(str(t) if isinstance(t, str) else int(t) for t in tags))
    return hashlib.blake2b(repr(key).encode(), digest_size=16).digest()


def substream(seed: int, *tags) -> np.random.Generator:
    """Return a Generator whose state depends only on (seed, *tags)."""
    key = np.frombuffer(_digest(seed, tags), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def task_integers(seed: int, tags: list[tuple], high: int, steps: int,
                  size: int) -> np.ndarray:
    """(steps, len(tags), size) int64 draws in [0, high) whose column i is
    substream(seed, *tags[i]).integers(0, high, (steps, size)).

    Column i depends on neither the other tags nor their order, and its first
    s rows are the same for every steps >= s. No tags give (steps, 0, size).
    """
    out = np.empty((steps, len(tags), size), dtype=np.int64)
    for i, tag in enumerate(tags):
        out[:, i] = substream(seed, *tag).integers(0, high, (steps, size))
    return out
