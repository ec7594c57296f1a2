"""Deterministic derivation of child random streams, and the one Monte
Carlo loop.

Every Monte Carlo estimator runs through :func:`mc_mean`: it partitions the
draws into fixed-size chunks, gives every chunk its own ``numpy`` generator
seeded by ``child_seed(master, tag, index)``, draws the chunks one after
another in the calling thread, and merges each chunk's moments into the
running ones as it is drawn, in chunk-index order.  The output therefore
depends only on the seed, the tag and the number of draws.

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

from .constants import MC_CHUNK

# All confidence intervals are 3-sigma normal intervals.
CI_SIGMA = 3.0

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


def mc_mean(tag: str, seed: int, samples: int,
            draw: Callable[[np.random.Generator, int], np.ndarray]):
    """Mean and ``CI_SIGMA`` half-width of ``samples`` >= 1 Monte Carlo rows.

    Chunk ``i`` of ``MC_CHUNK`` rows (the last may be short) is
    ``draw(child_rng(seed, tag, i), rows)``, an array with one row per draw
    along axis 0; the rows may be scalars or vectors, and the mean and
    half-width have the shape of one row.  Chunks are drawn in order in the
    calling thread, and each chunk's count, mean and centered sum of
    squares m2 are merged into the running ones as it is drawn, by the
    pairwise update of Chan, Golub and LeVeque.  That avoids the
    cancellation of ``sum_sq/N - mean**2`` for small variances, and the
    fixed order makes the result a function of the draws alone.
    """
    for i, lo in enumerate(range(0, samples, MC_CHUNK)):
        values = draw(child_rng(seed, tag, i), min(MC_CHUNK, samples - lo))
        n, mu = values.shape[0], values.mean(axis=0)
        s = np.square(values - mu).sum(axis=0)
        if i == 0:
            count, mean, m2 = n, mu, s
            continue
        total = count + n
        delta = mu - mean
        mean = mean + delta * (n / total)
        m2 = m2 + s + delta * delta * (count * n / total)
        count = total
    return mean, CI_SIGMA * np.sqrt(m2 / samples / samples)
