"""Chunk reduction tests; the oracle is the two-pass variance over all
draws at once."""

import numpy as np

from obsvalue.streams import chunk_moments, chunk_sizes, merge_moments


def merged(values, chunk):
    parts, start = [], 0
    for rows in chunk_sizes(len(values), chunk):
        parts.append(chunk_moments(values[start:start + rows]))
        start += rows
    return merge_moments(parts)


def test_merge_matches_two_pass_moments():
    values = np.random.default_rng(4).random((10_000, 3))
    count, mean, m2 = merged(values, 999)
    assert count == 10_000
    assert np.allclose(mean, values.mean(axis=0), rtol=1e-14, atol=0.0)
    centered = np.square(values - values.mean(axis=0)).sum(axis=0)
    assert np.allclose(m2, centered, rtol=1e-12, atol=0.0)


def test_no_cancellation_on_a_large_offset():
    # Var = 1/12 on an offset of 1e9: sum_sq/N - mean^2 cancels about 18 of
    # its 16 significant digits, the merged centered sums keep ~7 digits.
    values = 1e9 + np.random.default_rng(5).random(20_000)
    count, mean, m2 = merged(values, 8192)
    naive = np.square(values).sum() / count - values.mean() ** 2
    assert abs(naive - 1 / 12) > 1.0  # the formula the merge replaces
    assert abs(m2 / count - values.var()) < 1e-6 * values.var()

