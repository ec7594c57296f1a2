"""Distribution-core tests; the oracle is full 2^m Bernoulli enumeration
(``obsvalue.verify.enum_pmf``)."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsvalue import pbin
from obsvalue.pbin import (_BLOCK, ENUM_GUARD, _binom_band,
                           _compositions, _poisson_band, binom_pmf,
                           _arrangements, _partitions, enumeration_fits,
                           multinomial_classes, multinomial_enumerate,
                           multinomial_logpmf, n_compositions, pbin_pmf,
                           pbin_pmf_rows, pbin_shift_difference,
                           pbin_survival)
from obsvalue.verify import LEVEL, dp_risk_curve, enum_pmf, min_two_sided

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


def poisson_pmf(t, lam):
    """``pbin._poisson_band`` written out on all of {0, ..., t}."""
    lo, band = _poisson_band(t, lam)
    assert 0 <= lo and lo + band.size <= t + 1
    return pbin._spread(t + 1, lo, band)


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
    """Oracle: ``verify.dp_risk_curve``'s values by the allocating step."""
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
        width = max(1, _BLOCK // (m + 1))  # rows per block
        rng = np.random.default_rng(400 + m)
        for rows in (0, 1, width - 1, width, width + 1, 3 * width + 7):
            probs = rng.random((rows, m))
            got = pbin_pmf_rows(probs)
            assert got.flags.c_contiguous and got.shape == (rows, m + 1)
            assert np.array_equal(got, alloc_pmf_rows(probs))

    def test_kernel_extra_memory_is_the_output(self, traced_peak):
        # the size of cube_lower(7, r)'s table: 203 490 rows of 14
        probs = np.random.default_rng(9).random((203_490, 14))
        out, peak = traced_peak(lambda: pbin_pmf_rows(probs))
        assert peak <= out.nbytes + 2 * 2**20

    @pytest.mark.parametrize("r", [1.5, 2.0, 4.0])
    def test_risk_curve_equals_allocating_steps(self, r):
        assert np.array_equal(dp_risk_curve(r, 1024),
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

    def test_small_survivals_match_exact_rationals(self):
        # 1 less the lower tail was 8.3e-8 off, relative, in the first case
        def exact(probs, l):
            pmf = [Fraction(1)]
            for q in map(Fraction, probs):
                pmf = [a * (1 - q) + b * q
                       for a, b in zip(pmf + [0], [0] + pmf)]
            return sum(pmf[l:])

        rng = np.random.default_rng(31)
        cases = [([1e-10] * 10, 1), ([1e-3] * 20, 2), ([0.5] * 12, 1),
                 ([0.999] * 9, 9)]
        cases += [(list(rng.random(12) ** 6), int(rng.integers(1, 13)))
                  for _ in range(40)]
        for probs, l in cases:
            want = exact(probs, l)
            got = Fraction(pbin_survival(probs, l))
            assert float(abs(got / want - 1)) < 1e-14, (probs, l)

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

    @pytest.mark.parametrize("n", [0, 5, 1000])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_is_the_band_in_zeros(self, n, p):
        lo, band = _binom_band(n, p)
        want = np.zeros(n + 1)
        want[lo:lo + band.size] = band
        assert np.array_equal(binom_pmf(n, p), want)

    def test_output_over_the_budget_is_refused_before_building(
            self, traced_peak):
        # Bin(2^27, 1/2)'s 2^27 + 1 masses take 8 bytes more than
        # OUTPUT_BUDGET; its band alone would take about 10 MiB.
        def call():
            with pytest.raises(ValueError, match="output budget"):
                binom_pmf(2**27, 0.5)

        _, peak = traced_peak(call)
        assert peak < 1 << 20

    def test_agrees_with_convolution(self):
        for n, p in ((17, 0.3), (64, 0.05)):
            assert np.abs(binom_pmf(n, p) - pbin_pmf([p] * n)).max() < 1e-13


def binom_width(n, p):
    """The width bound of ``_binom_band``'s docstring: min(n + 1, 2T + 1),
    T = L/3 + sqrt(L^2/9 + 2 L n p (1-p)), L = 1022 log 2 + log(n+1) + 1."""
    big_l = 1022 * math.log(2) + math.log(n + 1) + 1
    t = big_l / 3 + math.sqrt(big_l**2 / 9 + 2 * big_l * n * p * (1 - p))
    return min(n + 1, int(2 * t) + 1)


class TestBinomBandGuard:
    @pytest.mark.parametrize("n", [0, 10, 1000, 10**6, 3 * 10**8])
    @pytest.mark.parametrize("p", [0.0, 1e-6, 0.01, 0.25, 0.5, 0.9, 1.0])
    def test_band_is_within_its_width_bound(self, n, p):
        lo, band = _binom_band(n, p)
        assert band.size <= binom_width(n, p)
        assert 0 <= lo and lo + band.size <= n + 1

    @pytest.mark.parametrize("n", [10**6, 10**8])
    @pytest.mark.parametrize("p", [0.01, 0.25, 0.5])
    def test_memory_is_within_the_charge(self, traced_peak, n, p):
        # The guard charges 32 bytes an entry of the bound.
        _binom_band(1000, p)  # warm caches
        _, peak = traced_peak(lambda: _binom_band(n, p))
        assert peak <= 32 * binom_width(n, p)

    def test_refuses_before_building(self, traced_peak):
        # Bin(10^14, 1/4), the band of `upper mad --r 2 --n 10^14`, would
        # have taken 7.3 GiB.
        def call():
            with pytest.raises(ValueError, match="output budget"):
                _binom_band(10**14, 0.25)
        _, peak = traced_peak(call)
        assert peak < 64 << 10

    def test_budget_edge(self, monkeypatch):
        width = binom_width(10**6, 0.25)
        monkeypatch.setattr("obsvalue.constants.OUTPUT_BUDGET", 32 * width)
        _binom_band(10**6, 0.25)
        monkeypatch.setattr("obsvalue.constants.OUTPUT_BUDGET", 32 * width - 1)
        with pytest.raises(ValueError, match="output budget"):
            _binom_band(10**6, 0.25)


class TestPoissonPmf:
    @pytest.mark.parametrize("lam", [32, 512, 8192, 32_768])
    def test_ratios_to_the_mode_match_high_precision(self, lam):
        # P(k) / P(mode) within 6 sqrt(lam) of lam, on {0, ..., 2 lam};
        # the lgamma form was 5.2e-14, 7.5e-13, 2.9e-11 and 1.1e-10 off
        t, mode = 2 * lam, lam
        got = poisson_pmf(t, float(lam))
        half = math.floor(6.0 * math.sqrt(lam))
        ks = range(max(0, lam - half), min(t, lam + half) + 1)
        with mpmath.workprec(200):
            log_mode = mpmath.loggamma(mode + 1)
            want = [mpmath.exp((k - mode) * mpmath.log(lam) + log_mode
                               - mpmath.loggamma(k + 1)) for k in ks]
            worst = max(abs(float(mpmath.mpf(got[k] / got[mode]) / w - 1))
                        for k, w in zip(ks, want))
        assert worst < 1e-14

    @pytest.mark.parametrize("t", [0, 7, 1000])
    @pytest.mark.parametrize("lam", ["zero", "tiny", "t"])
    def test_edge_cases_are_finite_and_normalized(self, t, lam):
        lam = {"zero": 0.0, "tiny": 1e-300, "t": float(t)}[lam]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = poisson_pmf(t, lam)
        assert got.shape == (t + 1,)
        assert np.isfinite(got).all() and abs(got.sum() - 1.0) < 1e-15


def walk_band(size, mode, up, down, first=1024):
    """The band builder that searched for its extent: running products
    from ``mode`` in chunks that double from ``first`` entries, each chunk's
    first ratio multiplied by the last product so far, until a chunk
    leaves the normal range or the support ends.  The bit-for-bit oracle
    of the bands built over their Bernstein reach."""
    def walk(ratio, start, stop, step):
        parts, carry, width = [], 1.0, first
        while start != stop and carry >= pbin._TINY:
            end = (min(start + width, stop) if step > 0
                   else max(start - width, stop))
            p = ratio(np.arange(start, end, step, dtype=float))
            if parts:
                p[0] *= carry
            np.cumprod(p, out=p)
            parts.append(p)
            carry, start, width = p[-1], end, 2 * width
        if carry < pbin._TINY:
            parts[-1] = parts[-1][:np.count_nonzero(parts[-1] >= pbin._TINY)]
        return np.concatenate(parts) if parts else np.empty(0)

    above, below = walk(up, mode + 1, size, 1), walk(down, mode, 0, -1)
    band = np.concatenate((below[::-1], [1.0], above))
    return mode - below.size, band / band.sum()


def binom_law(n, p):
    """Bin(n, p)'s size, mode and neighbour ratios, as ``_binom_band``
    takes them."""
    q = 1.0 - p
    return (n + 1, min(int((n + 1) * p), n),
            lambda j: (n - j + 1) * p / (j * q),
            lambda j: j * q / ((n - j + 1) * p))


def poisson_law(t, lam):
    """Pois(lam) on {0, ..., t}: size, mode and neighbour ratios."""
    return t + 1, min(int(lam), t), lambda j: lam / j, lambda j: j / lam


def assert_walks_band(got, law, first=1024):
    """``got`` is the ``(lo, band)`` that ``walk_band(*law, first)`` gives,
    bit for bit."""
    want = walk_band(*law, first)
    assert got[0] == want[0]
    assert got[1].shape == want[1].shape and np.array_equal(got[1], want[1])


EDGE_PS = [0.0, 5e-324, 1e-300, 1e-6, 0.01, 0.25, 1 / 3, 0.5, 0.9,
           1 - 2**-53, 1.0]


class TestBandsOverTheirReach:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 256, 257, 1000, 10**4, 10**6,
                                   10**8])
    @pytest.mark.parametrize("p", EDGE_PS)
    def test_binomial_is_the_walks_band(self, n, p):
        assert_walks_band(_binom_band(n, p), binom_law(n, p))

    @pytest.mark.parametrize("t", [0, 1, 7, 1000, 10**6])
    @pytest.mark.parametrize("lam", [0.0, 1e-300, 1e-3, 0.5, 7.3, "half",
                                     "t", "twice"])
    def test_poisson_is_the_walks_band(self, t, lam):
        lam = {"half": t / 2, "t": float(t), "twice": 2.0 * t}.get(lam, lam)
        assert_walks_band(_poisson_band(t, lam), poisson_law(t, lam))

    @settings(database=None, deadline=None, max_examples=60)
    @given(st.integers(0, 10**8),
           st.one_of(st.sampled_from(EDGE_PS), st.floats(0.0, 1.0)))
    def test_binomial_draws_are_the_walks_band(self, n, p):
        assert_walks_band(_binom_band(n, p), binom_law(n, p))

    @settings(database=None, deadline=None, max_examples=60)
    @given(st.integers(0, 10**6).flatmap(lambda t: st.tuples(
        st.just(t), st.one_of(st.sampled_from([0.0, 1e-300]),
                              st.floats(0.0, 3.0 * t)))))
    def test_poisson_draws_are_the_walks_band(self, law):
        # lam above t puts the mode at t
        t, lam = law
        assert_walks_band(_poisson_band(t, lam), poisson_law(t, lam))

    @pytest.mark.parametrize("kind, size, x", [
        ("bin", 10**5, 0.5), ("bin", 10**5, 0.01), ("bin", 3 * 10**4, 0.9),
        ("bin", 5000, 1e-4), ("pois", 2 * 10**5, 10**5),
        ("pois", 10**4, 30.0), ("pois", 5000, 2 * 10**4),
    ])
    def test_reach_holds_every_normal_product(self, kind, size, x):
        # The products over the whole support, not only the reach: the
        # band is the run of those at or above 2^-1022 of the mode.
        band_of, law_of = {"bin": (_binom_band, binom_law),
                           "pois": (_poisson_band, poisson_law)}[kind]
        lo, band = band_of(size, x)
        size, mode, up, down = law_of(size, x)
        normal = [np.cumprod(ratio(np.arange(start, stop, step, dtype=float)))
                  >= pbin._TINY
                  for ratio, start, stop, step in ((down, mode, 0, -1),
                                                   (up, mode + 1, size, 1))]
        below, above = map(np.count_nonzero, normal)
        assert normal[0][:below].all() and normal[1][:above].all()
        assert (lo, band.size) == (mode - below, below + 1 + above)


@pytest.mark.parametrize("size", [1, 2, 9, 300, 1024, 5000])
def test_bands_do_not_depend_on_the_chunk_size(size):
    # The walk's chunks of 1, 2, 4, ... entries, each carrying its last
    # product into the next, give the one cumprod's band bit for bit.
    t = size - 1
    for lam in (0.0, 1e-3, 0.5, 1.0, 7.3, size / 2, float(t)):
        assert_walks_band(_poisson_band(t, lam), poisson_law(t, lam), 1)
    for p in (0.0, 0.3, 0.5, 1.0):
        assert_walks_band(_binom_band(t, p), binom_law(t, p), 1)


@pytest.mark.parametrize("lam", [0.5, 1e4, 1e6])
def test_bands_end_at_the_least_normal_double(lam):
    # A product at the least subnormal stayed there until a ratio fell
    # below 1/2: the band was 1.5 million entries wide at lam = 10^6, of
    # which about 75 000 were normal.  (k - lam)^2 / (2 lam) <= 1022 log 2
    # gives its width.
    lo, band = _poisson_band(int(2 * lam), lam)
    assert band.size <= 2.0 * math.sqrt(1417.0 * lam) + 150
    assert band.min() / band.max() >= 2.0**-1022


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
                assert got.dtype == np.uint8
                assert np.array_equal(got, nexcom_compositions(trials, m))

    def test_guard_refuses_large_enumerations(self):
        assert n_compositions(9, 16) == 1307504
        with pytest.raises(ValueError, match="guard"):
            multinomial_enumerate(9, [1.0 / 16] * 16)
        # Past the 254-trial cap, however small the table.
        with pytest.raises(ValueError, match="guard"):
            multinomial_enumerate(255, [0.5, 0.5])

    def test_guard_counts_table_entries(self):
        # The largest enumerations in use stay exact: cube_lower(7, r) at
        # Mult(8) over 14 cells, c8's mixedpbin_mass(8, 16).
        assert enumeration_fits(8, 14) and enumeration_fits(8, 16)
        assert not enumeration_fits(9, 16)
        # 10^5 compositions pass a count of rows, not of entries.
        assert n_compositions(1, 100_000) == 100_000
        assert not enumeration_fits(1, 100_000)
        # The trials fit the uint8 compositions up to 254.
        assert enumeration_fits(254, 1) and not enumeration_fits(255, 1)

    def test_guard_raises_before_allocating(self, traced_peak):
        w = np.full(100_000, 1e-5)  # the table would take 74.5 GiB

        def call():
            with pytest.raises(ValueError, match="guard"):
                multinomial_enumerate(1, w)

        _, peak = traced_peak(call)
        assert peak < 1 << 20

    def test_guard_matches_the_exact_count(self):
        for t in range(41):
            for m in range(1, 61):
                want = n_compositions(t, m) * (m + 1) <= ENUM_GUARD
                assert enumeration_fits(t, m) == want, (t, m)
        for t, m in ((8, 14), (8, 16), (9, 16), (1, 100_000), (0, ENUM_GUARD),
                     (0, ENUM_GUARD - 1), (1, 2895), (1, 2896)):
            want = n_compositions(t, m) * (m + 1) <= ENUM_GUARD
            assert enumeration_fits(t, m) == want, (t, m)

    @pytest.mark.parametrize("t, m", [(5, 4), (4, 5), (0, 3), (3, 1)])
    def test_guard_is_inclusive(self, monkeypatch, t, m):
        entries = n_compositions(t, m) * (m + 1)
        monkeypatch.setattr(pbin, "ENUM_GUARD", entries)
        assert enumeration_fits(t, m)
        monkeypatch.setattr(pbin, "ENUM_GUARD", entries - 1)
        assert not enumeration_fits(t, m)

    def test_guard_refuses_huge_tables_without_counting_them(self):
        # C(3 * 2^20, 2^20 + 1) has about 2.5 million bits; the trial cap
        # refuses it before the binomial is taken.
        assert not enumeration_fits(2**20 + 1, 2**21)
        assert not enumeration_fits(2**21, 2**20 + 1)
        # Under the cap the binomial has at most 254 factors.
        assert not enumeration_fits(254, 10**9)

    @pytest.mark.parametrize("trials", [9, 10, 11])
    def test_compositions_match_nexcom_order_to_eleven_trials(self, trials):
        for m in range(1, 10):
            got = _compositions(trials, m)
            assert got.dtype == np.uint8
            assert np.array_equal(got, nexcom_compositions(trials, m))

    @pytest.mark.parametrize("trials, dtype", [
        (200, np.uint8), (254, np.uint8)])
    def test_compositions_match_nexcom_order_near_the_trial_cap(
            self, trials, dtype):
        for m in (2, 3):
            got = _compositions(trials, m)
            assert got.dtype == dtype
            assert np.array_equal(got, nexcom_compositions(trials, m))

    @pytest.mark.parametrize("trials, m", [
        (1, 2895), (2, 250), (8, 16), (254, 2), (0, 5)])
    def test_compositions_at_admitted_edge_shapes(self, trials, m):
        # Admitted edge shapes, most too large for the NEXCOM loop.
        # n_compositions(trials, m) rows that each sum to trials, strictly
        # increasing read from the last part, are every composition once in
        # NEXCOM order: no other table passes.
        assert enumeration_fits(trials, m)
        got = _compositions(trials, m)
        assert got.dtype == np.uint8
        assert got.shape == (n_compositions(trials, m), m)
        assert np.all(got.sum(axis=1, dtype=np.int64) == trials)
        # The last part where each row differs from the row before (part
        # m - 1 for an equal row, which the check then fails).
        last = m - 1 - np.argmax((got[1:] != got[:-1])[:, ::-1], axis=1)
        rows = np.arange(last.size)
        assert np.all(got[1:][rows, last] > got[:-1][rows, last])

    @pytest.mark.parametrize("block", [None, 7, 64])
    @pytest.mark.parametrize("trials, w", [
        (6, np.full(12, 1.0 / 12)),
        (5, [0.1, 0.0, 0.2, 0.3, 0.4]),
        (7, [0.05, 0.15, 0.2, 0.25, 0.35]),
    ])
    def test_blocked_probs_equal_dense_logpmf(self, monkeypatch, block,
                                              trials, w):
        # The dense evaluation multinomial_enumerate replaced, over one
        # int64 table.
        if block is not None:
            monkeypatch.setattr(pbin, "_BLOCK", block)
        w = np.asarray(w)
        counts, probs = multinomial_enumerate(trials, w)
        dense = _compositions(trials, w.size).astype(np.int64)
        assert np.array_equal(counts, dense)
        assert np.array_equal(probs, np.exp(multinomial_logpmf(dense, w)))

    def test_logpmf_bits_do_not_depend_on_the_layout(self):
        # A column permutation by fancy indexing is F-ordered, and numpy
        # sums the rows of such a table in another order: without the
        # C-ordered copy, 185 of these 1287 rows differed.
        w = np.random.default_rng(4).permutation(np.arange(1.0, 10.0)) / 45
        perm = np.random.default_rng(5).permutation(9)
        counts = _compositions(5, 9)
        f_ordered = counts[:, perm]
        assert f_ordered.flags.f_contiguous
        assert np.array_equal(
            multinomial_logpmf(f_ordered, w),
            multinomial_logpmf(np.take(counts, perm, axis=1), w))

    def test_sample_frequencies_match_enumeration(self):
        weights = np.array([0.2, 0.3, 0.5])
        trials, draws = 3, 10**6
        counts, probs = multinomial_enumerate(trials, weights)
        rng = np.random.default_rng(2024)
        samples = rng.multinomial(trials, weights / weights.sum(), size=draws)
        digits = np.array([1, 5, 25])
        hits = np.bincount(samples @ digits, minlength=76)[counts @ digits]
        assert min_two_sided(hits, draws, probs) >= LEVEL


def assert_rows_map_to_their_sorted_counts(t, m, reps):
    """``pbin._composition_classes((t,), m)`` gives ``reps`` as the
    representatives and takes each composition, in the row order of
    ``_compositions``, to the class of its counts in nonincreasing
    order."""
    ((own, cls),) = pbin._composition_classes((t,), m)
    assert np.array_equal(own, reps)
    counts = _compositions(t, m)
    assert np.array_equal(reps[cls], np.sort(counts, axis=1)[:, ::-1])


# Trials and the equal weights of the class tests' enumeration oracle.
CLASS_WEIGHTS = [
    (8, np.full(14, 1.0 / 14)),
    (6, np.full(8, 1.0 / 8)),
    (7, np.full(4, 0.25)),
    (5, np.full(6, 1.0 / 6)),
    (6, np.full(5, 0.2)),
    (4, np.ones(1)),
]


class TestMultinomialClasses:
    @pytest.mark.parametrize("trials, w", CLASS_WEIGHTS)
    def test_counts_and_total_probability(self, trials, w):
        # Each class's probability is Mult(trials, w)'s at its
        # representative, bit for bit.
        reps, mult, probs = multinomial_classes(trials, len(w))
        assert mult.sum() == n_compositions(trials, len(w))
        assert abs(mult @ probs - 1.0) <= 1e-12
        assert np.all(reps.sum(axis=1) == trials)
        assert np.array_equal(probs, np.exp(multinomial_logpmf(reps, w)))

    @pytest.mark.parametrize("trials, w", CLASS_WEIGHTS)
    def test_classes_group_the_enumeration(self, trials, w):
        # Each composition, its counts sorted, is one class's
        # representative; the class holds mult of them, each of the
        # representative's probability.
        reps, mult, probs = multinomial_classes(trials, len(w))
        counts, row_probs = multinomial_enumerate(trials, w)
        where = {tuple(r): i for i, r in enumerate(reps.tolist())}
        assert len(where) == len(reps)
        key = np.sort(counts, axis=1)[:, ::-1]
        cls = np.array([where[tuple(r)] for r in key.tolist()])
        assert np.array_equal(np.bincount(cls, minlength=len(reps)), mult)
        assert np.abs(row_probs - probs[cls]).max() <= 1e-15

    def test_every_table_the_guard_admits(self):
        # Every (t, m) with t <= 10 and m <= 16 that enumeration_fits
        # admits: the multiplicities count the compositions, the classes
        # carry all the mass, and _composition_classes names each
        # composition's sorted counts.
        pairs = [(t, m) for t in range(11) for m in range(1, 17)
                 if enumeration_fits(t, m)]
        assert {(0, 1), (0, 16), (10, 1), (8, 16)} <= set(pairs)
        for t, m in pairs:
            reps, mult, probs = multinomial_classes(t, m)
            assert mult.sum() == n_compositions(t, m)
            assert abs(mult @ probs - 1.0) <= 1e-12
            assert_rows_map_to_their_sorted_counts(t, m, reps)

    @pytest.mark.parametrize("t, m", [(20, 2)])
    def test_each_row_maps_to_its_sorted_counts(self, t, m):
        # Past the t <= 10 of the test above.
        assert_rows_map_to_their_sorted_counts(
            t, m, multinomial_classes(t, m)[0])

    @pytest.mark.parametrize("total, parts", [
        (0, 3), (1, 1), (4, 1), (3, 4), (8, 14), (10, 3), (12, 12), (1, 500),
        (254, 2)])
    def test_partitions_and_their_counts(self, total, parts):
        rows = _partitions(total, parts)
        assert rows.dtype == np.uint8
        mult = _arrangements(rows)
        seen = {tuple(r) for r in rows.tolist()}
        assert len(seen) == len(rows)
        assert all(sum(r) == total and list(r) == sorted(r, reverse=True)
                   for r in seen)
        for r, k in zip(rows.tolist(), mult):
            assert k == math.factorial(parts) // math.prod(
                math.factorial(r.count(v)) for v in set(r))
        assert mult.sum() == n_compositions(total, parts)

    def test_guard_raises_before_allocating(self, traced_peak):
        def call():
            with pytest.raises(ValueError, match="guard"):
                multinomial_classes(1, 100_000)

        _, peak = traced_peak(call)
        assert peak < 1 << 20
