"""Tests of the Monte Carlo loop's chunk merge; the oracle is the two-pass
mean and centered sum of squares over all draws at once."""

import numpy as np
import pytest

from obsvalue import streams
from obsvalue.streams import CI_SIGMA


def merged(values, monkeypatch):
    """``(mean, m2)`` of ``values`` as ``mc_mean`` merges them, fed in
    chunks of 999 rows; m2 is recovered from the half-width."""
    monkeypatch.setattr(streams, "MC_CHUNK", 999)
    rows = iter(np.split(values, range(999, len(values), 999)))

    def draw(rng, size):
        block = next(rows)
        assert block.shape[0] == size
        return block

    mean, half = streams.mc_mean("test", 0, len(values), draw)
    assert next(rows, None) is None  # every chunk drawn
    return mean, np.square(half / CI_SIGMA) * len(values) ** 2


def two_pass(values):
    mean = values.mean(axis=0)
    return mean, np.square(values - mean).sum(axis=0)


def test_merge_matches_two_pass_moments(monkeypatch):
    values = np.random.default_rng(4).random((10_000, 3))
    mean, m2 = merged(values, monkeypatch)
    ref_mean, ref_m2 = two_pass(values)
    assert np.allclose(mean, ref_mean, rtol=1e-14, atol=0.0)
    assert np.allclose(m2, ref_m2, rtol=1e-12, atol=0.0)


def test_no_cancellation_on_a_large_offset(monkeypatch):
    # Var = 1/12 on an offset of 1e9: sum_sq/N - mean^2 cancels about 18 of
    # its 16 significant digits, the merged centered sums keep ~7 digits.
    values = 1e9 + np.random.default_rng(5).random(20_000)
    _, m2 = merged(values, monkeypatch)
    count = values.size
    naive = np.square(values).sum() / count - values.mean() ** 2
    assert abs(naive - 1 / 12) > 1.0  # the formula the merge replaces
    assert abs(m2 / count - values.var()) < 1e-6 * values.var()


@pytest.mark.parametrize("samples", [500, 999, 3 * 999, 3 * 999 + 1])
def test_chunk_edges_match_two_pass_moments(monkeypatch, samples):
    # one short chunk, one full chunk, an exact multiple, a multiple plus a
    # chunk of one row
    values = np.random.default_rng(samples).random((samples, 2))
    mean, m2 = merged(values, monkeypatch)
    ref_mean, ref_m2 = two_pass(values)
    assert np.allclose(mean, ref_mean, rtol=1e-14, atol=0.0)
    assert np.allclose(m2, ref_m2, rtol=1e-12, atol=0.0)

