"""Distribution-core tests; the oracle is full 2^m Bernoulli enumeration
(``obsvalue.verify.enum_pmf``)."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from obsvalue.lower import bayes_risk_curve
from obsvalue.pbin import (_PMF_BLOCK, EnumerationGuardError, _compositions,
                           binom_pmf, enumeration_fits, multinomial_enumerate,
                           n_compositions,
                           pbin_pmf, pbin_pmf_rows, pbin_shift_difference,
                           pbin_survival)
from obsvalue.verify import enum_pmf

EXACT = 1e-12


def nexcom_compositions(trials, m):
    """Order oracle: the NEXCOM successor loop (constant amortized work per
    row) that ``_compositions`` replaced."""
    total = n_compositions(trials, m)
    out = np.zeros((total, m), dtype=np.int64)
    if m == 1:
        out[0, 0] = trials
        return out
    row = np.zeros(m, dtype=np.int64)
    row[0] = trials
    out[0] = row
    t, h = trials, 0
    for k in range(1, total):
        if t != 1:
            h = 0
        h += 1
        t = int(row[h - 1])
        row[h - 1] = 0
        row[0] = t - 1
        row[h] += 1
        out[k] = row
    return out


def alloc_step(pmf, q):
    """Oracle: the allocating Bernoulli step that the in-place
    ``pbin.bernoulli_step`` replaced (pmf of S + Bernoulli(q) along the
    last axis)."""
    nxt = np.zeros(pmf.shape[:-1] + (pmf.shape[-1] + 1,))
    nxt[..., :-1] = pmf * (1.0 - q)
    nxt[..., 1:] += pmf * q
    return nxt


def alloc_pmf_rows(probs):
    pmf = np.ones((probs.shape[0], 1))
    for q in probs.T[:, :, None]:
        pmf = alloc_step(pmf, q)
    return pmf


def alloc_risk_curve(r, n_max):
    """Oracle: ``bayes_risk_curve``'s values by the allocating step."""
    a = 1.0 / (2.0 * r)
    values = np.empty(n_max + 1)
    values[0] = 0.5
    pmf = np.array([1.0])
    for n in range(1, n_max + 1):
        pmf = alloc_step(pmf, a)
        values[n] = 0.5 * float(np.minimum(pmf, pmf[::-1]).sum())
    return np.minimum.accumulate(values)


def enum_survival(probs, l):
    if l > len(probs):
        return 0.0
    return float(enum_pmf(np.asarray(probs, dtype=float))[max(l, 0):].sum())


class TestPmf:
    def test_empty(self):
        assert pbin_pmf([]).tolist() == [1.0]

    def test_fair_pair(self):
        assert np.allclose(pbin_pmf([0.5, 0.5]), [0.25, 0.5, 0.25], atol=EXACT)

    def test_three_bernoullis_vs_enumeration(self):
        probs = [0.1, 0.2, 0.3]
        expected = enum_pmf(np.array(probs))
        assert np.abs(expected - [0.504, 0.398, 0.092, 0.006]).max() < EXACT
        assert np.abs(pbin_pmf(probs) - expected).max() < EXACT

    def test_matches_enumeration_up_to_m12(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            probs = rng.random(int(rng.integers(0, 13)))
            assert np.abs(pbin_pmf(probs) - enum_pmf(probs)).max() < EXACT

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            probs = rng.random(8)
            base = pbin_pmf(probs)
            assert np.abs(pbin_pmf(rng.permutation(probs)) - base).max() < EXACT

    @pytest.mark.parametrize("m", range(13))
    def test_row_kernel_equals_per_row_pmf(self, m):
        rng = np.random.default_rng(300 + m)
        probs = rng.random((17, m))
        got = pbin_pmf_rows(probs)
        assert got.shape == (17, m + 1)
        assert np.array_equal(got, np.array([pbin_pmf(p) for p in probs]))

    @pytest.mark.parametrize("m", [0, 1, 14, 64])
    def test_blocked_kernel_equals_allocating_steps(self, m):
        width = max(1, _PMF_BLOCK // (m + 1))  # rows per block
        rng = np.random.default_rng(400 + m)
        for rows in (0, 1, width - 1, width, width + 1, 3 * width + 7):
            probs = rng.random((rows, m))
            got = pbin_pmf_rows(probs)
            assert got.flags.c_contiguous and got.shape == (rows, m + 1)
            assert np.array_equal(got, alloc_pmf_rows(probs))

    def test_kernel_extra_memory_is_the_output(self):
        # the size of cube_lower(7, r)'s call: 203 490 rows of 14
        probs = np.random.default_rng(9).random((203_490, 14))
        tracemalloc.start()
        try:
            out = pbin_pmf_rows(probs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * 2**20

    @pytest.mark.parametrize("r", [1.5, 2.0, 4.0])
    def test_risk_curve_equals_allocating_steps(self, r):
        assert np.array_equal(bayes_risk_curve(r, 1024).values,
                              alloc_risk_curve(r, 1024))

    def test_mass_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            probs = rng.random(int(rng.integers(1, 30)))
            assert abs(pbin_pmf(probs).sum() - 1.0) < EXACT

    @pytest.mark.parametrize("bad", [[-0.1], [1.5], [0.2, float("nan")]])
    def test_rejects_bad_probabilities(self, bad):
        with pytest.raises(ValueError):
            pbin_pmf(bad)


class TestSurvival:
    def test_examples(self):
        assert abs(pbin_survival([0.25, 0.5], 1) - 0.625) < EXACT
        assert pbin_survival([0.25, 0.5], 3) == 0.0
        assert pbin_survival([1.0, 1.0], 2) == 1.0
        assert pbin_survival([0.3], 0) == 1.0
        assert pbin_survival([0.3], -2) == 1.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            probs = rng.random(6)
            for l in range(-1, 8):
                want = enum_survival(probs, l) if l <= 6 else 0.0
                if l <= 0:
                    want = 1.0
                assert abs(pbin_survival(probs, l) - want) < EXACT

    def test_stochastic_monotonicity(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            probs = rng.random(int(rng.integers(1, 11)))
            i = int(rng.integers(probs.size))
            lowered = probs.copy()
            lowered[i] = rng.uniform(0.0, probs[i])
            for l in range(probs.size + 1):
                assert (pbin_survival(lowered, l)
                        <= pbin_survival(probs, l) + EXACT)


class TestShiftDifference:
    def test_degenerate_bernoulli(self):
        assert pbin_shift_difference([], 1.0, 0.0, 1) == (1.0, 1.0)

    def test_two_parameter_case(self):
        lhs, rhs = pbin_shift_difference([0.5], 0.8, 0.3, 1)
        assert abs(lhs - 0.25) < EXACT and abs(rhs - 0.25) < EXACT

    def test_five_parameter_case_vs_enumeration(self):
        rest = [0.1, 0.2, 0.3, 0.4]
        lhs, rhs = pbin_shift_difference(rest, 0.9, 0.1, 2)
        brute = (enum_survival(rest + [0.9], 2)
                 - enum_survival(rest + [0.1], 2))
        assert abs(lhs - rhs) < EXACT
        assert abs(lhs - brute) < EXACT

    def test_identity_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            rest = rng.random(int(rng.integers(0, 10)))
            lo, hi = np.sort(rng.random(2))
            if hi == lo:
                continue
            l = int(rng.integers(1, rest.size + 2))
            lhs, rhs = pbin_shift_difference(rest, hi, lo, l)
            assert abs(lhs - rhs) < EXACT

    def test_rejects_unordered_pair_and_bad_l(self):
        with pytest.raises(ValueError):
            pbin_shift_difference([0.5], 0.3, 0.8, 1)
        with pytest.raises(ValueError):
            pbin_shift_difference([0.5], 0.8, 0.3, 3)
        with pytest.raises(ValueError):
            pbin_shift_difference([0.5], 0.8, 0.3, 0)


class TestBinomPmf:
    def test_matches_exact_rationals(self):
        for n in (0, 1, 5, 12):
            for p in (0.25, 0.5, 0.9):
                got = binom_pmf(n, p)
                frac = Fraction(p).limit_denominator(10**9)
                want = [float(math.comb(n, k) * frac**k * (1 - frac)**(n - k))
                        for k in range(n + 1)]
                assert np.abs(got - want).max() < 1e-13

    @pytest.mark.parametrize("n", [1000, 10_000, 99_999])
    def test_mode_matches_exact_integers(self, n):
        # the lgamma form was 1.3e-13, 1.4e-11 and 3.4e-10 off here
        want = math.comb(n, n // 2) / 2**n
        assert abs(binom_pmf(n, 0.5)[n // 2] / want - 1.0) < 1e-14

    def test_degenerate(self):
        assert binom_pmf(3, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert binom_pmf(3, 1.0).tolist() == [0.0, 0.0, 0.0, 1.0]

    @pytest.mark.parametrize("n, p", [
        (0, 0.3), (5, 5e-324), (5, 1e-300), (5, 1 - 2**-53),
        (10, 0.01), (10, 0.99),  # mode at 0 and at n
    ])
    def test_edge_cases_are_finite_and_normalized(self, n, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = binom_pmf(n, p)
        assert np.isfinite(got).all() and abs(got.sum() - 1.0) < 1e-15
        frac = Fraction(p)
        want = [float(math.comb(n, k) * frac**k * (1 - frac)**(n - k))
                for k in range(n + 1)]
        assert np.abs(got - want).max() < 1e-15

    def test_agrees_with_convolution(self):
        for n, p in ((17, 0.3), (64, 0.05)):
            assert np.abs(binom_pmf(n, p) - pbin_pmf([p] * n)).max() < 1e-13


class TestMultinomial:
    def test_enumerate_one_trial(self):
        counts, probs = multinomial_enumerate(1, [0.5, 0.5])
        table = dict(zip(map(tuple, counts.tolist()), probs))
        assert table.keys() == {(1, 0), (0, 1)}
        assert all(abs(v - 0.5) < EXACT for v in table.values())

    def test_enumerate_two_trials(self):
        counts, probs = multinomial_enumerate(2, [0.5, 0.5])
        table = dict(zip(map(tuple, counts.tolist()), probs))
        assert abs(table[(2, 0)] - 0.25) < EXACT
        assert abs(table[(1, 1)] - 0.5) < EXACT
        assert abs(table[(0, 2)] - 0.25) < EXACT

    def test_enumerate_three_trials_vs_coefficient_oracle(self):
        counts, probs = multinomial_enumerate(3, [0.2, 0.3, 0.5])
        assert len(probs) == 10 == n_compositions(3, 3)
        weights = [0.2, 0.3, 0.5]
        for row, p in zip(counts.tolist(), probs):
            coef = math.factorial(3)
            want = 1.0
            for c, w in zip(row, weights):
                coef //= math.factorial(c)
                want *= w**c
            assert abs(p - coef * want) < EXACT
        one_each = probs[(counts == 1).all(axis=1)][0]
        assert abs(one_each - 0.18) < EXACT

    def test_enumerate_total_mass(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            w = rng.random(m)
            w /= w.sum()
            _, probs = multinomial_enumerate(int(rng.integers(0, 8)), w)
            assert abs(probs.sum() - 1.0) < 1e-10

    def test_compositions_match_nexcom_order(self):
        for trials in range(9):
            for m in range(1, 15):
                got = _compositions(trials, m)
                assert got.dtype == np.int64
                assert np.array_equal(got, nexcom_compositions(trials, m))

    def test_guard_refuses_large_enumerations(self):
        assert n_compositions(9, 16) == 1307504
        with pytest.raises(EnumerationGuardError):
            multinomial_enumerate(9, [1.0 / 16] * 16)

    def test_guard_counts_table_entries(self):
        # The largest enumerations in use stay exact: cube_lower(7, r) at
        # Mult(8) over 14 cells, c8's mixedpbin_mass(8, 16).
        assert enumeration_fits(8, 14) and enumeration_fits(8, 16)
        assert not enumeration_fits(9, 16)
        # 10^5 compositions pass a count of rows, not of entries.
        assert n_compositions(1, 100_000) == 100_000
        assert not enumeration_fits(1, 100_000)

    def test_guard_raises_before_allocating(self):
        w = np.full(100_000, 1e-5)  # the table would take 74.5 GiB
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationGuardError):
                multinomial_enumerate(1, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sample_frequencies_match_enumeration(self):
        weights = np.array([0.2, 0.3, 0.5])
        trials, draws = 3, 10**6
        counts, probs = multinomial_enumerate(trials, weights)
        rng = np.random.default_rng(2024)
        samples = rng.multinomial(trials, weights / weights.sum(), size=draws)
        key = samples @ np.array([1, 5, 25])
        for row, p in zip(counts, probs):
            freq = np.count_nonzero(key == row @ np.array([1, 5, 25])) / draws
            se = math.sqrt(p * (1.0 - p) / draws)
            assert abs(freq - p) <= 4.0 * se
