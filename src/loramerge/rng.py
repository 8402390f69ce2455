"""Counter-based random streams keyed by (seed, tags).

Every stochastic component in the library draws from a Philox stream whose
key is derived from the run seed plus a tuple of identifying tags (task id,
layer id, step index, ...). Streams are independent of evaluation order, so
parallel or reordered execution cannot change results.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Philox4x64-10 (Salmon et al., SC 2011) as numpy's Philox runs it. Every
# constant is np.uint64, so numpy 1.x's value-based casting keeps all of the
# arithmetic in uint64.
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_MUL = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], np.uint64)[:, None, None]
_MUL_LO, _MUL_HI = _MUL & _LOW32, _MUL >> _SHIFT32
_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], np.uint64)[:, None, None]


def _digest(seed: int, tags: tuple) -> bytes:
    return hashlib.blake2b(repr((int(seed),) + tags).encode(), digest_size=16).digest()


def _digests(seed: int, tags: list[tuple]) -> bytes:
    """b"".join(_digest(seed, tag) for tag in tags); when every tag starts with one
    str, the repr up to it is hashed once and each row hashes only its rest."""
    head = tags[0][0] if tags and tags[0] else None
    if type(head) is not str or not all(t and type(t[0]) is str and t[0] == head
                                        for t in tags):
        return b"".join(_digest(seed, tag) for tag in tags)
    root = hashlib.blake2b(f"({int(seed)!r}, {head!r}".encode(), digest_size=16)
    out = []
    for t in tags:
        h = root.copy()
        h.update((", %r" * (len(t) - 1) % t[1:] + ")").encode())  # a tuple's repr
        out.append(h.digest())
    return b"".join(out)


def substream(seed: int, *tags) -> np.random.Generator:
    """Return a Generator whose state depends only on (seed, *tags)."""
    key = np.frombuffer(_digest(seed, tags), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _philox_words(keys: np.ndarray, blocks: int) -> np.ndarray:
    """(R, 4 * blocks) "<u8" raw words of R fresh Philox streams with (R, 2) keys,
    all rows at once: what random_raw(4 * blocks) gives right after
    Philox(key=row), whose first block is counter 1.

    A counter is (c0, c1, c2, c3); state[0] holds (c0, c2), the words a round
    multiplies, and state[1] holds (c1, c3). A round with key (k0, k1) maps it to
    (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)), and the key
    gains the bump constants before each round after the first.
    """
    rows = len(keys)
    key = np.array(keys.T, dtype=np.uint64)[:, :, None]              # (2, R, 1)
    state = np.zeros((2, 2, rows, blocks), np.uint64)
    state[0, 0] = np.arange(1, blocks + 1, dtype=np.uint64)
    x, odd = state[0], state[1]
    a0, a1, t, lo = np.empty((4,) + x.shape, np.uint64)
    for r in range(10):
        if r:
            key += _BUMP
        # 64 x 64 -> 128-bit products of x by the multipliers, from 32-bit halves
        np.bitwise_and(x, _LOW32, out=a0)
        np.right_shift(x, _SHIFT32, out=a1)
        np.multiply(a0, _MUL_LO, out=lo)
        lo >>= _SHIFT32
        np.multiply(a1, _MUL_LO, out=t)
        t += lo                                     # a1 lo(M) + hi(a0 lo(M))
        a0 *= _MUL_HI
        np.bitwise_and(t, _LOW32, out=lo)
        a0 += lo                                    # a0 hi(M) + lo(t)
        a1 *= _MUL_HI
        t >>= _SHIFT32
        a1 += t
        a0 >>= _SHIFT32
        a1 += a0                                    # the high words
        np.multiply(x, _MUL, out=lo)                # the low words
        np.bitwise_xor(a1[::-1], odd, out=x)
        x ^= key
        odd[...] = lo[::-1]
    words = np.empty((rows, blocks, 2, 2), "<u8")
    words[...] = state.transpose(2, 3, 1, 0)        # block order c0, c1, c2, c3
    return words.reshape(rows, 4 * blocks)


def keyed_integers(seed: int, tags: list[tuple], high: int, size: int) -> np.ndarray:
    """(len(tags), size) int64 array whose row j equals
    substream(seed, *tags[j]).integers(0, high, size).

    For 1 <= high <= 2**32, every row's raw words come from one vectorized
    Philox pass over the rows' joined keys, and numpy's bounded rule (Lemire's
    multiply-shift on each 32-bit half of the raw words) maps all rows at once;
    rows that hit its rejection step, and all rows for other high, draw from
    their own substream.
    """
    out, redo = np.empty((len(tags), size), dtype=np.int64), range(len(tags))
    if 1 <= high <= 2**32:
        keys = np.frombuffer(_digests(seed, tags), dtype=np.uint64)
        words = _philox_words(keys.reshape(-1, 2), -(-size // 8))
        # "<u4" view: low half first. The product must be uint64: numpy 1.x keeps a
        # uint32 array times a uint64 scalar that fits in 32 bits as uint32, and wraps.
        m = words.view("<u4")[:, :size].astype(np.uint64)
        m *= np.uint64(high)
        redo = np.flatnonzero(np.any(m.astype(np.uint32) < (2**32 - high) % high, axis=1))
        m >>= _SHIFT32
        out = m.view(np.int64)
    for row in redo:
        out[row] = substream(seed, *tags[row]).integers(0, high, size)
    return out
