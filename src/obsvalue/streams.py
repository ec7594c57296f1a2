"""Deterministic derivation of child random streams, and the one Monte
Carlo loop.

Every Monte Carlo estimator runs through :func:`mc_mean`: it partitions the
draws into fixed-size chunks, gives every chunk its own ``numpy`` generator
seeded by ``child_seed(master, tag, index)``, draws the chunks one after
another in the calling thread, and reduces the per-chunk moments in
chunk-index order (:func:`merge_moments`).  The output therefore depends
only on the seed, the tag and the number of draws.

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

from typing import Callable

import numpy as np

from .constants import CI_SIGMA, MC_CHUNK

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
    and the fixed order makes the result a function of the draws alone.
    """
    count, mean, m2 = parts[0]
    for n, mu, s in parts[1:]:
        total = count + n
        delta = mu - mean
        mean = mean + delta * (n / total)
        m2 = m2 + s + delta * delta * (count * n / total)
        count = total
    return count, mean, m2


def mc_mean(tag: str, seed: int, samples: int,
            draw: Callable[[np.random.Generator, int], np.ndarray]):
    """Mean and ``CI_SIGMA`` half-width of ``samples`` >= 1 Monte Carlo rows.

    Chunk ``i`` of ``MC_CHUNK`` rows (the last may be short) is
    ``draw(child_rng(seed, tag, i), rows)``, an array with one row per draw
    along axis 0; the rows may be scalars or vectors, and the mean and
    half-width have the shape of one row.  Chunks are drawn in order in the
    calling thread and their moments merged in that order.
    """
    parts = [chunk_moments(draw(child_rng(seed, tag, i), rows))
             for i, rows in enumerate(chunk_sizes(samples, MC_CHUNK))]
    _, mean, m2 = merge_moments(parts)
    return mean, CI_SIGMA * np.sqrt(m2 / samples / samples)
