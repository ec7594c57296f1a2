"""Deterministic derivation of child random streams.

Monte Carlo estimators partition their draws into fixed-size chunks and give
every chunk its own ``numpy`` generator seeded by ``child_seed(master, tag,
index)``.  Per-chunk results are reduced in chunk-index order
(:func:`merge_moments`), so the output is identical for any worker count.

The mixing function is fixed so the partition of randomness is reproducible
from the documented recipe alone:

    h     = FNV-1a 64-bit hash of the tag (UTF-8 bytes)
    x     = splitmix64(master XOR h)
    seed  = splitmix64(x XOR index)

where splitmix64 is the standard finalizer
``z = (x + 0x9E3779B97F4A7C15); z ^= z>>30; z *= 0xBF58476D1CE4E5B9;
z ^= z>>27; z *= 0x94D049BB133111EB; z ^= z>>31`` with 64-bit wraparound.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _fnv1a64(tag: str) -> int:
    h = 0xCBF29CE484222325
    for byte in tag.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def child_seed(master: int, tag: str, index: int) -> int:
    """64-bit seed for chunk ``index`` of the stream family ``tag``."""
    x = _splitmix64((master & _MASK) ^ _fnv1a64(tag))
    return _splitmix64(x ^ (index & _MASK))


def child_rng(master: int, tag: str, index: int) -> np.random.Generator:
    """Generator for chunk ``index`` of the stream family ``tag``."""
    return np.random.Generator(np.random.PCG64(child_seed(master, tag, index)))


def chunk_sizes(total: int, chunk: int) -> list[int]:
    """Split ``total`` draws into fixed-size chunks (last one may be short)."""
    if total <= 0:
        return []
    full, rest = divmod(total, chunk)
    return [chunk] * full + ([rest] if rest else [])


def chunk_moments(values: np.ndarray):
    """``(count, mean, m2)`` of one chunk's draws along axis 0, where ``m2``
    is the centered sum of squares."""
    mean = values.mean(axis=0)
    return values.shape[0], mean, np.square(values - mean).sum(axis=0)


def merge_moments(parts):
    """Merge per-chunk ``(count, mean, m2)`` triples in the given order,
    where ``m2`` is the centered sum of squares, by the pairwise update of
    Chan, Golub and LeVeque; ``mean`` and ``m2`` may be scalars or arrays.
    Avoids the cancellation of ``sum_sq/N - mean**2`` for small variances,
    and the fixed order keeps the result independent of the worker count.
    """
    count, mean, m2 = parts[0]
    for n, mu, s in parts[1:]:
        total = count + n
        delta = mu - mean
        mean = mean + delta * (n / total)
        m2 = m2 + s + delta * delta * (count * n / total)
        count = total
    return count, mean, m2
