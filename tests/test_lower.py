"""Lower-bound tests; oracles are exact rationals, hand enumeration and the
coupled Monte Carlo reference estimators of ``obsvalue.verify``."""

import dataclasses
import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsvalue import lower, pbin
from obsvalue.cli import main as cli_main
from obsvalue.constants import EXACT_TOL, OUTPUT_BUDGET
from obsvalue.lower import (bayes_risk_curve, cube_lower, cube_lowers,
                            mixedpbin_mass, richness_lower_bound)
from obsvalue.pbin import (_compositions, binom_pmf, multinomial_logpmf,
                           pbin_pmf_rows, pbin_survival)
from obsvalue.verify import (dp_risk_curve, enum_pmf, mc_cube_gaps,
                             mc_mixed_pmf, simulate_mixture_risk,
                             simulate_multitest_risk)

EXACT = 1e-12


def rational_risk(r: Fraction, n: int) -> Fraction:
    """Exact Bayes risk oracle: (1/2) sum_k min of the two Binomial pmfs."""
    a = 1 / (2 * r)
    pmf0 = [math.comb(n, k) * a**k * (1 - a)**(n - k) for k in range(n + 1)]
    return Fraction(1, 2) * sum(min(p, q) for p, q in zip(pmf0, pmf0[::-1]))


def mp_risk(r: float, n: int):
    """High-precision oracle: P(B > n/2) + P(B = n/2)/2, B ~ Bin(n, 1/(2r)),
    in 200-bit arithmetic, summed from k = ceil(n/2) until the terms drop
    below 2^-80 of the sum (they fall at a ratio at most a/(1-a))."""
    with mpmath.workprec(200):
        a = 1 / (2 * mpmath.mpf(r))
        k = n - n // 2
        term = mpmath.binomial(n, k) * a**k * (1 - a)**(n - k)
        total = term / 2 if n % 2 == 0 else term
        while k < n and term >= total * mpmath.mpf(2) ** -80:
            term *= mpmath.mpf(n - k) / (k + 1) * a / (1 - a)
            k += 1
            total += term
        return total


def _mul_trunc(p, q, t):
    """Product of polynomials in x (lists of z-coefficient lists), truncated
    at x^t."""
    out = [[] for _ in range(t + 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q[:t + 1 - i]):
            acc = out[i + j]
            acc.extend([Fraction(0)] * (len(a) + len(b) - 1 - len(acc)))
            for u, x in enumerate(a):
                for v, y in enumerate(b):
                    acc[u + v] += x * y
    return out


def rational_mixed_pmf(t: int, m: int, f) -> list:
    """Exact pmf of PBin(f(N_1), ..., f(N_m)) mixed over N ~ Mult(t, 1/m):
    t!/m^t [x^t] (sum_k x^k/k! (1 - f(k) + f(k) z))^m, in rationals."""
    base = [[(1 - f[k]) / math.factorial(k), f[k] / math.factorial(k)]
            for k in range(t + 1)]
    acc, e = [[Fraction(1)]], m
    while e:
        if e & 1:
            acc = _mul_trunc(acc, base, t)
        e >>= 1
        if e:
            base = _mul_trunc(base, base, t)
    coef = acc[t] + [Fraction(0)] * (m + 1 - len(acc[t]))
    return [Fraction(math.factorial(t), m**t) * c for c in coef]


def rational_cube_gaps(n: int, r: Fraction) -> np.ndarray:
    """Exact per-l survival gaps of the 2n-cell witness, as floats."""
    risks = [rational_risk(r, k) for k in range(n + 2)]
    surv = []
    for t in (n, n + 1):
        pmf = rational_mixed_pmf(t, 2 * n, risks)
        surv.append([sum(pmf[l:]) for l in range(1, 2 * n + 1)])
    return np.array([float(a - b) for a, b in zip(*surv)])


def enum_mixed_survival(count_law, risks, l):
    """Oracle for E[P(PBin(r(N_1), ..., r(N_m)) >= l)] over an explicit
    count law {counts: prob}, each PBin law by 2^m enumeration."""
    return sum(w * enum_pmf(risks[list(counts)])[l:].sum()
               for counts, w in count_law.items())


def dense_enumeration(trials, w):
    """Counts (int64) and probabilities of Mult(trials, w), each table
    made whole: the dense formulas the blocked exact path replaced."""
    counts = _compositions(trials, len(w)).astype(np.int64)
    return counts, np.exp(multinomial_logpmf(counts, np.asarray(w)))


def dense_survival_gap(n, m, risks):
    """Oracle for ``cube_lower``'s exact path: every row's survival held
    at once, and one product through the reversed view."""
    acc = []
    for trials in (n, n + 1):
        counts, probs = dense_enumeration(trials, np.full(m, 1.0 / m))
        pmfs = pbin_pmf_rows(risks[counts])
        surv = np.cumsum(pmfs[:, ::-1], axis=1)[:, ::-1]
        acc.append(probs @ surv)
    return (acc[0] - acc[1])[1:]


def fsum_mixed_masses(n, w, table):
    """Oracle for ``mixedpbin_mass``'s exact path: every row's products
    probs[i] * pmf_i[k], made whole, each added by ``math.fsum``."""
    counts, probs = dense_enumeration(n, w)
    terms = probs[:, None] * pbin_pmf_rows(table[counts])
    return np.array([math.fsum(col) for col in terms.T])


def limit_amplitude(r: float, c: float, terms: int = 200) -> float:
    """A(r, c) = E[r(C) - r(C+1)] / sqrt(2 pi c sigma^2), the limit of
    sqrt(n+1) delta_n for the witness with m = c n cells: C, N ~ Pois(1/c),
    X | N ~ Bernoulli(r(N)), mu = E r(N) and sigma^2 = mu (1 - mu) - c
    Cov(X, N)^2, the variance of a cell's error given the cells' total
    count (a local CLT under Poissonization).  Its Poisson series, summed
    with ``math.fsum`` to ``terms`` terms."""
    lam = 1.0 / c
    risk = bayes_risk_curve(r, terms + 1).values
    pois = [math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1.0))
            for k in range(terms + 1)]
    mu = math.fsum(p * risk[k] for k, p in enumerate(pois))
    cov = math.fsum(p * risk[k] * k for k, p in enumerate(pois)) - mu * lam
    var = mu * (1.0 - mu) - c * cov * cov
    drop = math.fsum(p * (risk[k] - risk[k + 1]) for k, p in enumerate(pois))
    return drop / math.sqrt(2.0 * math.pi * c * var)


def assert_grid_holds_every_entry_above_the_cut(calls):
    """For each recorded ``_gf_grid`` call, every entry of the full grid
    outside the returned rectangle has modulus below e^cut (the
    guarantee its proof gives), each modulus taken in logs from the
    factors without powering."""
    for (factors, extra, cut, K_z), (cols, rows) in calls:
        K = extra.size
        z = np.exp(-2j * math.pi * np.arange(K_z // 2 + 1) / K_z)
        with np.errstate(divide="ignore"):
            log_mod = np.log(np.abs(extra))[:, None] + sum(
                mult * np.log(np.abs(a[:, None] + z * b[:, None]))
                for mult, a, b in factors)
        inside = np.zeros((K, z.size), dtype=bool)
        inside[np.arange(K)[cols], :rows] = True
        assert log_mod[~inside].max(initial=-np.inf) < cut + 1e-9


def kept_grid(monkeypatch, calls=None):
    """Record the (x-nodes, z-nodes, all entries) of each pruned grid, and
    in ``calls`` the arguments and result of each ``_gf_grid`` call."""
    seen = []
    grid = lower._gf_grid

    def spy(factors, extra, cut, K_z):
        cols, rows = grid(factors, extra, cut, K_z)
        width = extra.size if isinstance(cols, slice) else cols.size
        seen.append((width, rows, extra.size * (K_z // 2 + 1)))
        if calls is not None:
            calls.append(((factors, extra.copy(), cut, K_z), (cols, rows)))
        return cols, rows

    monkeypatch.setattr(lower, "_gf_grid", spy)
    return seen


class TestBayesRiskCurve:
    # Leading 16 hex digits of sha256(values.tobytes()), recorded with the
    # recurrence that adds one term per value between anchors every
    # ``_CURVE_ANCHOR`` = 256 h.
    SHA256 = {
        (1.01, 0): "4cfa5b42ca669328",
        (1.01, 1): "6cbf9dadc77150e5",
        (1.01, 7): "9adf08bf0625e43a",
        (1.01, 257): "aa782ee36b1a742b",
        (1.01, 65539): "eddcb23028dc60c5",
        (1.5, 0): "4cfa5b42ca669328",
        (1.5, 1): "b1de0a0d270b4882",
        (1.5, 7): "54c9053a862d5c2e",
        (1.5, 257): "492143dccbfb678c",
        (1.5, 65539): "ff652a31f78d4cd0",
        (2.0, 0): "4cfa5b42ca669328",
        (2.0, 1): "9543aca8e8dc3f8c",
        (2.0, 7): "d64ae70bda3dd2db",
        (2.0, 257): "be1e10a080083708",
        (2.0, 65539): "9833aa8abbc2487d",
        (4.0, 0): "4cfa5b42ca669328",
        (4.0, 1): "fe5da4358eba7ccd",
        (4.0, 7): "c219eb6360100e22",
        (4.0, 257): "a131d3321083ba99",
        (4.0, 65539): "8ac688685d549435",
        (1000.0, 0): "4cfa5b42ca669328",
        (1000.0, 1): "df1235fdd5e330f3",
        (1000.0, 7): "bb3526fcb51312a1",
        (1000.0, 257): "31ebff54ae589cdd",
        (1000.0, 65539): "563fc18c339f1290",
    }

    @pytest.mark.parametrize("r", [1.01, 1.5, 2.0, 4.0, 1000.0])
    @pytest.mark.parametrize("n_max", [0, 1, 7, 257, 2**16 + 3])
    def test_values_are_byte_identical_to_the_per_term_loop(self, r, n_max):
        values = bayes_risk_curve(r, n_max).values
        assert hashlib.sha256(values.tobytes()).hexdigest()[:16] == \
            self.SHA256[r, n_max]

    @pytest.mark.parametrize("spacing", [1, 17, 4096])
    def test_other_anchor_spacings_move_no_value_by_1e_13(self, monkeypatch,
                                                          spacing):
        # An anchor at every h (pure tail sums), at a spacing prime to 256,
        # and one anchor for the whole curve.  Below the smallest normal
        # double the error is measured against that double, as subnormals
        # carry fewer bits.
        rs = (1.01, 1.1, 2.0, 50.0, 1.0 + 1e-6, 1e3)
        want = {r: bayes_risk_curve(r, 6000).values for r in rs}
        monkeypatch.setattr(lower, "_CURVE_ANCHOR", spacing)
        for r, values in want.items():
            got = bayes_risk_curve(r, 6000).values
            scale = np.maximum(values, np.finfo(float).tiny)
            assert np.all(np.abs(got - values) <= 1e-13 * scale)

    @pytest.mark.parametrize("h, stop", [(32768, 1000), (501, 40), (2, 2),
                                         (300, 0)])
    def test_anchor_sum_adds_the_terms_one_at_a_time(self, h, stop):
        # Slowly falling terms (r = 1.001); Python floats repeat each
        # rounding.
        def sequential(h, stop, rho):
            acc, term = 0.5, 1.0
            for i in range(stop):
                term *= (h - i) * rho / (h + 1 + i)
                acc += term
            return acc

        a = 0.5 / 1.001
        rho = a / (1.0 - a)
        assert lower._anchor_sum(h, stop, rho) == sequential(h, stop, rho)

    @pytest.mark.parametrize("r", [1.01, 1.05, 1.5, 2.0, 4.0, 1e3,
                                   1.0 + 1e-6])
    def test_even_n_repeats_the_odd_n_before_it(self, r):
        # r(2h) = r(2h-1) exactly; a tail summed for each n misses it in
        # the last bit (1651 times at r = 2).
        v = bayes_risk_curve(r, 20_000).values
        assert v[2::2].tobytes() == v[1:-1:2].tobytes()

    def test_r2_spot_values(self):
        curve = bayes_risk_curve(2.0, 3)
        assert curve.values[0] == 0.5
        assert abs(curve.values[1] - 0.25) < EXACT
        assert abs(curve.values[2] - 0.25) < EXACT
        assert abs(curve.values[3] - 0.15625) < EXACT

    def test_matches_rational_oracle(self):
        for r in (Fraction(3, 2), Fraction(2), Fraction(4)):
            curve = bayes_risk_curve(float(r), 64)
            for n in range(65):
                assert abs(curve.values[n]
                           - float(rational_risk(r, n))) <= 1e-15

    @pytest.mark.parametrize("r", [1.05, 1.5, 2.0])
    def test_matches_high_precision_at_large_n(self, r):
        # Measured: at most 8.6e-14.  With log(4a(1-a)) in place of
        # log1p(-((r-1)/r)^2), the power is 4.7e-12 off at r = 1.05,
        # n = 262 145.
        values = bayes_risk_curve(r, 262_145).values
        for n in (10_000, 100_000, 262_145):
            want = mp_risk(r, n)
            if want > mpmath.mpf(10) ** -290:
                assert abs(values[n] - want) <= 1e-12 * want
            else:
                assert 0.0 <= values[n] <= 1e-289

    @settings(database=None, deadline=None)
    @given(st.floats(1.01, 1e3), st.integers(0, 400))
    def test_matches_the_bernoulli_step_dp(self, r, n_max):
        got = bayes_risk_curve(r, n_max).values
        want = dp_risk_curve(r, n_max)
        assert np.all(np.abs(got - want) <= 1e-13 * want + 1e-17)

    @pytest.mark.parametrize("r", [1.0 + 1e-6, 1e300])
    @pytest.mark.parametrize("n_max", [0, 1, 2000])
    def test_extreme_r_gives_valid_curves(self, r, n_max):
        # RiskCurve validates the range and the monotonicity; the suite
        # turns any floating-point warning into an error.
        v = bayes_risk_curve(r, n_max).values
        assert v.size == n_max + 1 and v[0] == 0.5 and v.min() >= 0.0
        if n_max >= 1:
            assert abs(v[1] - 0.5 / r) <= 1e-16 * (0.5 / r)

    @pytest.mark.parametrize("r", [1.01, 1.1, 2.0, 50.0])
    def test_matches_the_dp_across_anchor_seams(self, r):
        # Anchors at h = 258, 514 and 770, that is n = 516, 1028 and 1540.
        got = bayes_risk_curve(r, 2000).values
        want = dp_risk_curve(r, 2000)
        assert np.all(np.abs(got - want) <= 1e-13 * want + 1e-17)

    def test_prefix_is_bit_identical_across_blocks(self):
        # r = 1.1 keeps every value here above the underflow, so each block
        # runs.  Blocks start at h = 3, and a block's anchor is its last h,
        # at n = 2h; the next block starts at n = 2h + 1.
        step = lower._CURVE_ANCHOR
        seams = [2 * (2 + k * step) for k in (1, 2, 3)]
        long = bayes_risk_curve(1.1, seams[-1] + 3).values
        for seam in seams:
            for n in range(seam - 3, seam + 3):
                want = bayes_risk_curve(1.1, n).values
                assert long[:n + 1].tobytes() == want.tobytes()

    def test_extra_memory_is_bounded(self, traced_peak):
        out, peak = traced_peak(lambda: bayes_risk_curve(2.0, 10**6).values)
        assert peak <= out.nbytes + 8 * 2**20

    def test_memory_near_r_1_is_the_output(self, traced_peak):
        # r = 1.05 keeps about 150 000 h above the underflow here.
        out, peak = traced_peak(
            lambda: bayes_risk_curve(1.05, 300_000).values)
        assert peak <= out.nbytes + 2**20

    @pytest.mark.parametrize("at", [1, pbin._BLOCK - 1, pbin._BLOCK,
                                    2 * pbin._BLOCK + 1])
    def test_validation_sees_a_rise_at_every_pair(self, at):
        # Monotonicity is checked over blocks that share one entry, so a
        # rise between two blocks is seen too; flat steps are allowed.
        v = np.linspace(0.5, 0.0, 2 * pbin._BLOCK + 3)
        v[at + 1] = v[at]
        lower.RiskCurve(2.0, v)
        v[at + 1] = np.nextafter(v[at], 1.0)
        with pytest.raises(ValueError, match="nonincreasing"):
            lower.RiskCurve(2.0, v)

    @pytest.mark.parametrize("values, match", [
        ([0.5, np.nan, 0.6], "nonincreasing"),  # NaN defeats min, max, >
        ([0.5, 0.4, np.nan], "nonincreasing"),
        ([np.nan, 0.4], "1/2"),
        ([0.5, 0.25, -1e-300], r"\[0, 1/2\]"),
        ([0.5, 0.25, -np.inf], r"\[0, 1/2\]"),
    ])
    def test_validation_rejects_nan_and_negative_risks(self, values, match):
        with pytest.raises(ValueError, match=match):
            lower.RiskCurve(2.0, np.array(values))

    def test_one_observation_risk(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            r = float(rng.uniform(1.001, 50.0))
            curve = bayes_risk_curve(r, 1)
            assert abs(curve.values[1] - 1.0 / (2.0 * r)) < EXACT

    def test_first_drop_is_half_alpha(self):
        for r in (1.5, 2.0, 4.0, 11.0):
            v = bayes_risk_curve(r, 1).values
            assert abs((v[0] - v[1]) - (1.0 - 1.0 / r) / 2.0) < EXACT

    def test_nonincreasing_up_to_256(self):
        for r in (1.5, 2.0, 4.0):
            values = bayes_risk_curve(r, 256).values
            assert np.all(np.diff(values) <= 0.0)

    def test_rejects_r_at_most_one(self):
        with pytest.raises(ValueError):
            bayes_risk_curve(1.0, 4)

    @pytest.mark.parametrize("r", [1.5, 2.0, 4.0])
    def test_prefix_of_a_longer_curve_is_bit_identical(self, r):
        # What lets a sweep build one curve and hand each n its prefix.
        long = bayes_risk_curve(r, 1025).values
        for n in (0, 1, 6, 7, 63, 500, 1023):
            want = bayes_risk_curve(r, n + 1).values
            assert long[:n + 2].tobytes() == want.tobytes()


class TestRichnessLowerBound:
    def test_spot_value(self):
        assert abs(richness_lower_bound(0.5, 1.0, 1)
                   - 0.5 / (12.0 * math.sqrt(2.0) * math.sqrt(2.0))) < EXACT
        assert abs(richness_lower_bound(0.5, 1.0, 1) - 0.0208333333) < 1e-9

    def test_scaled_constant_for_r2(self):
        # alpha = 1 - 1/r with unit beta gives (1 - 1/r) / (12 sqrt 2)
        c = richness_lower_bound(0.5, 1.0, 7) * math.sqrt(8.0)
        assert abs(c - 0.029462782549439476) < EXACT

    def test_small_alpha_limit(self):
        assert richness_lower_bound(1e-12, 1.0, 1) < 1e-12

    def test_rejects_nonpositive_parameters(self):
        for alpha, beta in ((0.0, 1.0), (0.5, 0.0), (-0.1, 1.0), (0.5, 2.0)):
            with pytest.raises(ValueError):
                richness_lower_bound(alpha, beta, 1)
        with pytest.raises(ValueError):
            richness_lower_bound(0.5, 1.0, 0)


class TestCubeLower:
    def test_n1_r2_vs_hand_enumeration(self):
        risks = bayes_risk_curve(2.0, 2).values
        law_n = {(1, 0): 0.5, (0, 1): 0.5}
        law_n1 = {(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25}
        res = cube_lower(1, 2.0)
        assert res.method == "exact"
        for l in (1, 2):
            want = (enum_mixed_survival(law_n, risks, l)
                    - enum_mixed_survival(law_n1, risks, l))
            assert abs(res.per_l[l - 1] - want) < EXACT
        assert abs(res.delta - 0.09375) < EXACT
        assert res.l_star == 1
        assert abs(res.delta_avg - 0.0625) < EXACT
        assert res.ci_at_star == 0.0

    def test_n2_r2_vs_hand_enumeration(self):
        from obsvalue.pbin import multinomial_enumerate
        risks = bayes_risk_curve(2.0, 3).values
        res = cube_lower(2, 2.0)
        assert res.method == "exact"
        law = {}
        for trials in (2, 3):
            counts, probs = multinomial_enumerate(trials, [0.25] * 4)
            law[trials] = dict(zip(map(tuple, counts.tolist()), probs))
        for l in range(1, 5):
            want = (enum_mixed_survival(law[2], risks, l)
                    - enum_mixed_survival(law[3], risks, l))
            assert abs(res.per_l[l - 1] - want) < EXACT

    @pytest.mark.parametrize("r", [1.5, 2.0, 4.0])
    def test_exact_path_equals_dense_formula(self, r):
        risks = bayes_risk_curve(r, 8).values
        for n in range(1, 8):
            res = cube_lower(n, r)
            assert res.method == "exact"
            assert np.array_equal(
                res.per_l, dense_survival_gap(n, 2 * n, risks[:n + 2]))

    @pytest.mark.parametrize("block", [16, 100])
    def test_sum_carried_across_small_blocks(self, monkeypatch, block):
        # Blocks of 1 and 6 rows of 17 entries: the carry crosses hundreds
        # of block boundaries, and the last block is partial.
        monkeypatch.setattr(pbin, "_BLOCK", block)
        risks = bayes_risk_curve(2.0, 5).values
        for n in (1, 4):
            assert np.array_equal(cube_lower(n, 2.0).per_l,
                                  dense_survival_gap(n, 2 * n, risks[:n + 2]))

    def test_exact_path_memory_is_bounded(self, traced_peak):
        # The compact count table and a few blocks, one enumeration at a
        # time; 87 MiB held every row's risks, pmf and survival at once.
        res, peak = traced_peak(lambda: cube_lower(7, 2.0))
        assert res.method == "exact"
        assert peak <= 8 * 2**20

    def test_deltas_nonnegative(self):
        for n, r in ((1, 1.5), (2, 2.0), (3, 4.0), (8, 2.0)):
            res = cube_lower(n, r)
            assert res.per_l.min() >= 0.0
            assert res.delta == res.per_l.max()

    def test_dominates_closed_form(self):
        for r in (1.5, 2.0, 4.0):
            for n in (1, 2, 4, 8):
                res = cube_lower(n, r)
                bound = richness_lower_bound(1.0 - 1.0 / r, 1.0, n)
                assert res.delta >= bound - res.ci_at_star

    def test_spot_bound_comparison(self):
        res = cube_lower(1, 2.0)
        assert res.delta >= richness_lower_bound(0.5, 1.0, 1)

    def test_guard_switches_to_gf(self):
        assert cube_lower(7, 2.0).method == "exact"
        res = cube_lower(8, 2.0)
        assert res.method == "gf" and res.samples == 0
        assert not res.ci.any()

    def test_mc_agrees_with_exact(self):
        exact = cube_lower(2, 2.0)
        per_l, ci = mc_cube_gaps(2, 2.0, 40_000, 99)
        assert np.all(np.abs(per_l - exact.per_l) <= np.maximum(ci, 1e-12))

    @pytest.mark.parametrize("n", [8, 16])
    def test_gf_agrees_with_coupled_mc(self, n):
        res = cube_lower(n, 2.0)
        assert res.method == "gf"
        per_l, ci = mc_cube_gaps(n, 2.0, 20_000, 40 + n)
        assert np.all(np.abs(per_l - res.per_l) <= np.maximum(ci, 1e-12))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_gf_matches_rational_oracle(self, n):
        want = rational_cube_gaps(n, Fraction(2))
        risks = bayes_risk_curve(2.0, n + 1).values
        assert np.abs(lower._gf_survival_gap(n, 2 * n, risks)
                      - want).max() <= EXACT_TOL
        if n <= 6:  # enumeration is 1.3e-12 off at n = 7
            assert np.abs(cube_lower(n, 2.0).per_l - want).max() <= EXACT_TOL

    def test_worker_count_does_not_change_result(self, capsys):
        outputs = []
        for workers in ("1", "3"):
            assert cli_main(["lower", "cube", "--r", "2", "--n", "8:9",
                             "--workers", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert [row.split(",")[-1] for row in
                outputs[0].splitlines()[1:]] == ["gf", "gf"]

    @pytest.mark.parametrize("n", [1024, 4096])
    def test_z_window_agrees_with_the_full_dft(self, n, monkeypatch):
        assert lower._gf_z_size(n, 2 * n) < 2 * n
        windowed = cube_lower(n, 2.0).per_l
        monkeypatch.setattr(lower, "_gf_z_size", lambda t, size: size)
        assert np.abs(cube_lower(n, 2.0).per_l - windowed).max() <= 1e-15

    @pytest.mark.parametrize("n", [8, 32])
    def test_z_window_over_every_threshold_is_the_full_dft(self, n,
                                                           monkeypatch):
        assert lower._gf_z_size(n, 2 * n) == 2 * n
        windowed = cube_lower(n, 2.0).per_l
        monkeypatch.setattr(lower, "_gf_z_size", lambda t, size: size)
        assert np.array_equal(cube_lower(n, 2.0).per_l, windowed)

    def test_large_n_is_exact_and_repeatable(self):
        one = cube_lower(1024, 2.0)
        assert one.method == "gf" and one.per_l.min() >= 0.0
        assert one.per_l.tobytes() == cube_lower(1024, 2.0).per_l.tobytes()

    @pytest.mark.parametrize("n", [8, 1024])
    def test_z_blocks_agree_with_one_block(self, n, monkeypatch):
        # Blocks of one or two z-nodes: the powering loop crosses every
        # block boundary, and the last block may be partial.  The x-sum's
        # rounding may depend on how many rows one product takes.
        whole = cube_lower(n, 2.0)
        assert whole.method == "gf"
        monkeypatch.setattr(pbin, "_BLOCK", 100)
        assert np.abs(cube_lower(n, 2.0).per_l - whole.per_l).max() <= 1e-15

    @pytest.mark.parametrize("n", [1024, 4096, 65536])
    def test_pruned_grid_agrees_with_the_dense_engine(self, n, monkeypatch):
        seen = kept_grid(monkeypatch)
        pruned = cube_lower(n, 2.0)
        (width, rows, total), = seen
        assert width * rows < total / 50
        monkeypatch.setattr(lower, "_GF_PRUNE_MIN", math.inf)
        dense = cube_lower(n, 2.0)
        assert np.abs(pruned.per_l - dense.per_l).max() <= 1e-15
        assert pruned.l_star == dense.l_star

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_grid_with_nothing_pruned_is_bit_identical(self, n, monkeypatch):
        monkeypatch.setattr(lower, "_GF_PRUNE_MIN", 0)  # bound every grid
        seen = kept_grid(monkeypatch)
        pruned = cube_lower(n, 2.0).per_l
        (width, rows, total), = seen
        assert width * rows == total
        monkeypatch.setattr(lower, "_GF_PRUNE_MIN", math.inf)
        assert np.array_equal(cube_lower(n, 2.0).per_l, pruned)

    @pytest.mark.parametrize("n, r", [(64, 2.0), (1024, 2.0), (4096, 2.0),
                                      (1024, 1.5), (1024, 4.0)])
    def test_every_dropped_entry_is_below_the_cut(self, n, r, monkeypatch):
        calls = []
        kept_grid(monkeypatch, calls)
        cube_lower(n, r)
        assert_grid_holds_every_entry_above_the_cut(calls)

    def test_kept_grid_is_flat_in_n(self, monkeypatch):
        # Measured: 1190, 1122, 1085 and 1116 entries, of 80 608 up to
        # 73 million; about 31 x-nodes by 36 z-nodes at 2^20.
        seen = kept_grid(monkeypatch)
        for n in (1024, 4096, 2**16, 2**20):
            cube_lower(n, 2.0)
        assert len(seen) == 4
        assert max(width * rows for width, rows, _ in seen) <= 1300

    def test_output_guard_refuses_before_allocating(self, traced_peak):
        def call():
            with pytest.raises(ValueError, match="output budget"):
                cube_lower(2**40, 2.0)

        _, peak = traced_peak(call)
        assert peak < 1 << 20

    def test_memory_is_the_budgeted_outputs(self, traced_peak):
        # The risk curve, per_l and ci, the 5n + 2 floats the guard
        # counts, and under 1 MiB more.
        n = 2**18
        cube_lower(64, 2.0)  # warm caches and imports
        res, peak = traced_peak(lambda: cube_lower(n, 2.0))
        assert res.method == "gf" and res.ci.shape == (2 * n,)
        assert peak < 8 * (5 * n + 2) + (1 << 20)

    def test_output_budget_admits_n_2_24(self):
        lower.check_cube_output(2**24)
        with pytest.raises(ValueError, match="output budget"):
            lower.check_cube_output(OUTPUT_BUDGET // 40 + 1)

    # (n, l_star, delta) of cube_lower(n, 2.0), recorded when the engine
    # still took its powers with numpy's ``**``.
    PINS = [(64, 52, 0.01172381803360226),
            (256, 205, 0.005869019655509488),
            (1024, 820, 0.0029357770469854464)]

    @pytest.mark.parametrize("n, l_star, delta", PINS)
    def test_pinned_values(self, n, l_star, delta):
        res = cube_lower(n, 2.0)
        assert res.method == "gf" and res.l_star == l_star
        assert abs(res.delta - delta) <= 1e-15

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            cube_lower(0, 2.0)
        with pytest.raises(ValueError):
            cube_lower(1, 1.0)
        for r in (math.nan, math.inf):
            with pytest.raises(ValueError):
                cube_lower(1, r)


class TestCubeLowers:
    @staticmethod
    def counted_curves(monkeypatch):
        calls = []

        def counted(r, n_max):
            calls.append(n_max)
            return bayes_risk_curve(r, n_max)
        monkeypatch.setattr(lower, "bayes_risk_curve", counted)
        return calls

    @pytest.mark.parametrize("r", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("ns", [range(1, 40),
                                    [4 << k for k in range(11)]],
                             ids=["dense", "geometric"])
    def test_bit_identical_to_per_n_cube_lower(self, r, ns, monkeypatch):
        calls = self.counted_curves(monkeypatch)
        got = list(cube_lowers(r, ns))
        assert calls == [ns[-1] + 1]  # one curve for every n
        monkeypatch.undo()
        assert [res.n for res in got] == list(ns)
        for res in got:
            want = cube_lower(res.n, r)
            for field in dataclasses.fields(res):
                a, b = getattr(res, field.name), getattr(want, field.name)
                if isinstance(a, np.ndarray):
                    assert a.tobytes() == b.tobytes(), field.name
                else:
                    assert a == b, field.name

    @pytest.mark.parametrize("ns", [[], range(5, 5), [0, 1], [4, 2],
                                    [3, 3], range(9, 0, -1)])
    def test_bad_grid_raises_before_any_curve(self, ns, monkeypatch):
        calls = self.counted_curves(monkeypatch)
        with pytest.raises(ValueError, match="increasing"):
            cube_lowers(2.0, ns)
        assert calls == []

    def test_oversized_last_n_is_refused_before_any_curve(
            self, traced_peak, monkeypatch):
        calls = self.counted_curves(monkeypatch)

        def call():
            with pytest.raises(ValueError, match="output budget"):
                cube_lowers(2.0, range(1, 30_000_001))
        _, peak = traced_peak(call)
        assert calls == [] and peak < 64 << 10

    @pytest.mark.parametrize("r", [1.05, 1.5, 2.0, 4.0, 1e6])
    def test_closed_is_the_richness_bound(self, r):
        for res in cube_lowers(r, [1, 2, 7, 8, 100, 4096]):
            assert res.closed == richness_lower_bound(1.0 - 1.0 / r, 1.0,
                                                      res.n)


class TestMixedPbinMass:
    def test_output_check_at_its_budget_edge(self):
        # 8 (4m + n + 3) bytes: at m = 2^25 - 1, n = 1 fills 2^30 exactly.
        m = (1 << 25) - 1
        lower.check_mixedpbin_output(1, m)
        with pytest.raises(ValueError, match="output budget"):
            lower.check_mixedpbin_output(2, m)
        lower.check_mixedpbin_output((1 << 27) - 7, 1)
        with pytest.raises(ValueError, match="output budget"):
            lower.check_mixedpbin_output((1 << 27) - 6, 1)

    def test_single_cell_constant_half(self):
        res = mixedpbin_mass(1, 1, [1.0], [0.5, 0.5])
        assert abs(res.mass - 0.5) < EXACT
        assert res.mass >= 1.0 / 3.0

    def test_n1_m2_uniform_r2(self):
        table = bayes_risk_curve(2.0, 1).values
        res = mixedpbin_mass(1, 2, [0.5, 0.5], table)
        assert res.method == "exact"
        assert np.abs(res.masses - [0.375, 0.5, 0.125]).max() < EXACT
        assert res.k_star == 1
        assert res.mass >= 1.0 / (3.0 * math.sqrt(2.0))

    def test_constant_one_is_point_mass_at_m(self):
        res = mixedpbin_mass(2, 3, [0.2, 0.3, 0.5], [1.0, 1.0, 1.0])
        assert res.k_star == 3
        assert abs(res.mass - 1.0) < EXACT

    def test_exact_vs_hand_enumeration(self):
        from obsvalue.pbin import multinomial_enumerate
        table = np.array([0.5, 0.3, 0.1])
        counts, probs = multinomial_enumerate(2, [0.6, 0.4])
        want = np.zeros(3)
        for row, w in zip(counts.tolist(), probs):
            p1, p2 = table[row[0]], table[row[1]]
            want += w * np.array([(1 - p1) * (1 - p2),
                                  p1 * (1 - p2) + (1 - p1) * p2, p1 * p2])
        res = mixedpbin_mass(2, 2, [0.6, 0.4], table)
        assert np.abs(res.masses - want).max() < EXACT

    # The masses are summed a block of rows at a time; one BLAS product
    # over all rows, as before the streaming, was 1.65e-13 off at (10, 10).
    @pytest.mark.parametrize("m, n", [(9, 9), (8, 12), (10, 10)])
    def test_exact_path_equals_dense_formula(self, m, n):
        w = np.full(m, 1.0 / m)
        table = bayes_risk_curve(2.0, n).values
        res = mixedpbin_mass(n, m, w, table)
        assert res.method == "exact"
        want = fsum_mixed_masses(n, w, table)
        assert np.abs(res.masses - want).max() <= 1e-15

    @pytest.mark.parametrize("n, block", [(12, None), (5, 30)])
    def test_exact_path_equals_dense_formula_nonuniform(self, monkeypatch,
                                                        n, block):
        if block is not None:  # blocks of 3 rows of 9 entries
            monkeypatch.setattr(pbin, "_BLOCK", block)
        w = np.random.default_rng(11).dirichlet(np.ones(8))
        w /= w.sum()
        table = bayes_risk_curve(1.5, n).values
        res = mixedpbin_mass(n, 8, w, table)
        assert res.method == "exact"
        want = fsum_mixed_masses(n, w, table)
        assert np.abs(res.masses - want).max() <= 1e-15

    def test_exact_path_memory_is_bounded(self, traced_peak):
        # Mult(8) over 16 cells: 490 314 rows.  The uint8 counts (8 MB),
        # their probabilities (4 MB) and a block; no (rows, m + 1) pmf
        # table (67 MB) and no (rows, m) float table of risks.
        table = bayes_risk_curve(2.0, 8).values
        res, peak = traced_peak(
            lambda: mixedpbin_mass(8, 16, np.full(16, 1.0 / 16), table))
        assert res.method == "exact"
        assert peak <= 16 * 2**20

    def test_gf_path_beyond_guard(self):
        table = bayes_risk_curve(2.0, 16).values
        res = mixedpbin_mass(16, 16, np.full(16, 1 / 16), table)
        assert res.method == "gf" and res.samples == 0
        assert res.mass * 4.0 >= 1.0 / 6.0
        assert not res.ci.any()
        assert abs(res.masses.sum() - 1.0) <= 1e-10
        mean, ci = mc_mixed_pmf(16, np.full(16, 1 / 16), table, 20_000, 6)
        assert np.all(np.abs(mean - res.masses) <= np.maximum(ci, 1e-12))

    # (128, 4) raises each group factor to the power 128 (numpy's ``**``
    # took that power with libm cpow, above its squaring cut-off of 100);
    # there mixedpbin_mass dispatches to the GF too.
    @pytest.mark.parametrize("m, n", [(9, 9), (10, 10), (128, 4)])
    def test_gf_matches_rational_oracle(self, m, n):
        r = Fraction(2)
        want = np.array([float(p) for p in rational_mixed_pmf(
            n, m, [rational_risk(r, k) for k in range(n + 1)])])
        table = bayes_risk_curve(2.0, n).values
        got = lower._gf_mixed_pbin(n, [(m, 1.0 / m)], table)
        assert np.abs(got - want).max() <= EXACT_TOL
        assert np.abs(mixedpbin_mass(n, m, np.full(m, 1.0 / m), table).masses
                      - want).max() <= 1e-14

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_gf_at_large_poisson_means(self, n):
        # Two cells of weight 1/2: the count law is Bin(n, 1/2), and each
        # cell's Poisson mean in the engine is n / 2.
        table = 0.5 * np.exp(-3.0 * np.arange(n + 1) / n)
        law = binom_pmf(n, 0.5)
        pmfs = pbin_pmf_rows(np.stack([table, table[::-1]], axis=1))
        want = [math.fsum(law * pmfs[:, k]) for k in range(3)]
        got = lower._gf_mixed_pbin(n, [(2, 0.5)], table)
        assert np.abs(got - want).max() <= 1e-15

    def test_z_window_with_two_weight_groups(self, monkeypatch):
        # The window is centred on the mean summed over both groups.
        n, m = 512, 1024
        w = np.repeat([1.0 / 1536, 2.0 / 1536], m // 2)
        table = bayes_risk_curve(2.0, n).values
        assert lower._gf_z_size(n, m + 1) < m + 1
        windowed = mixedpbin_mass(n, m, w, table).masses
        monkeypatch.setattr(lower, "_gf_z_size", lambda t, size: size)
        full = mixedpbin_mass(n, m, w, table).masses
        assert np.abs(windowed - full).max() <= 1e-15
        assert abs(windowed.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [1024, 4096, 65536])
    def test_pruned_grid_with_two_weight_groups(self, n, monkeypatch):
        w = np.repeat([1.0 / (1.5 * n), 2.0 / (1.5 * n)], n // 2)
        table = bayes_risk_curve(2.0, n).values
        seen = kept_grid(monkeypatch)
        pruned = mixedpbin_mass(n, n, w, table).masses
        (width, rows, total), = seen
        assert width * rows < total / 20
        monkeypatch.setattr(lower, "_GF_PRUNE_MIN", math.inf)
        dense = mixedpbin_mass(n, n, w, table).masses
        assert np.abs(pruned - dense).max() <= 1e-15

    def test_every_dropped_entry_is_below_the_cut(self, monkeypatch):
        # Two weight groups, each factor bounding the other's arc.
        n = 1024
        w = np.repeat([1.0 / (1.5 * n), 2.0 / (1.5 * n)], n // 2)
        calls = []
        kept_grid(monkeypatch, calls)
        mixedpbin_mass(n, n, w, bayes_risk_curve(2.0, n).values)
        assert_grid_holds_every_entry_above_the_cut(calls)

    def test_gf_nonuniform_weights_match_enumeration(self):
        from obsvalue.pbin import multinomial_enumerate
        w = [0.1, 0.2, 0.2, 0.5]
        table = bayes_risk_curve(1.5, 7).values
        counts, probs = multinomial_enumerate(7, w)
        want = probs @ pbin_pmf_rows(table[counts])
        got = lower._gf_mixed_pbin(7, [(1, 0.1), (2, 0.2), (1, 0.5)], table)
        assert np.abs(got - want).max() <= EXACT_TOL

    def test_rejects_non_monotone_table(self):
        with pytest.raises(ValueError, match="monotone"):
            mixedpbin_mass(2, 2, [0.5, 0.5], [0.2, 0.5, 0.3])
        with pytest.raises(ValueError):
            mixedpbin_mass(2, 2, [0.5, 0.5], [0.2, 0.3])  # wrong length
        with pytest.raises(ValueError):
            mixedpbin_mass(2, 2, [0.5, 0.5], [0.2, 0.3, 1.4])

    def test_rejects_bad_cell_count_and_weights(self):
        with pytest.raises(ValueError, match="m >= 1"):
            mixedpbin_mass(2, 0, [], [0.5, 0.4, 0.3])
        with pytest.raises(ValueError):
            mixedpbin_mass(2, 2, [0.5], [0.5, 0.4, 0.3])
        table = bayes_risk_curve(2.0, 16).values
        with pytest.raises(ValueError):  # beyond the guard: GF path
            mixedpbin_mass(16, 16, np.full(16, 0.07), table)

    @pytest.mark.parametrize("n", [2, 16])  # enumeration, then GF
    @pytest.mark.parametrize("bad, message", [
        ("negative", "weights must be nonnegative"),
        ("nan", "weights must be nonnegative"),
        ("sum", "weights must sum to 1 within 1e-12"),
    ])
    def test_rejects_bad_weights_alike_on_both_paths(self, n, bad, message):
        w = np.full(n, 1.0 / n)
        if bad == "negative":
            w[0], w[1] = -w[0], w[1] + 2.0 * w[0]  # still sums to 1
        elif bad == "nan":
            w[0] = np.nan
        else:
            w *= 1.1
        with pytest.raises(ValueError, match=f"^{message}$"):
            mixedpbin_mass(n, n, w, bayes_risk_curve(2.0, n).values)


class TestAsymptoticOracle:
    """sqrt(n+1) delta_n against its limit A(r, c): the one check of the
    engine beyond n of about 10^3 that is not Monte Carlo."""

    def test_limit_constants(self):
        assert abs(limit_amplitude(2.0, 2.0) - 0.0939455149) <= 1e-10
        assert abs(limit_amplitude(2.0, 1.0) - 0.0957015) <= 1e-7
        assert abs(limit_amplitude(4.0, 2.0) - 0.1472123) <= 1e-7

    @pytest.mark.parametrize("n", [2**12, 2**16, 2**20])
    def test_cube_lower_approaches_the_limit(self, n):
        # Measured: 0.027/n, 0.044/n and 0.039/n.
        delta = cube_lower(n, 2.0).delta
        assert abs(math.sqrt(n + 1) * delta
                   - limit_amplitude(2.0, 2.0)) <= 0.1 / n


class TestMulPower:
    @pytest.mark.parametrize("mult", [0, 1, 2, 3, 99, 100, 101, 511, 65535])
    def test_matches_high_precision_powers(self, mult):
        """acc * w**mult on the closed unit disk against 100-bit mpmath.

        Squaring's first rounding is raised to the power mult/2, so the
        error is of order mult * eps (log2(mult) * eps is out of reach for
        any double-precision method); measured here: at most 0.48 mult eps.
        Below the normal range the bound is taken relative to the smallest
        normal double."""
        rng = np.random.default_rng(11)
        radius = np.concatenate([np.sqrt(rng.random(150)),  # uniform
                                 1.0 - 10.0 ** -rng.uniform(3, 12, 100),
                                 np.ones(50)])
        w = radius * np.exp(2j * np.pi * rng.random(radius.size))
        w = np.concatenate([w, [0.0, 1.0, -1.0, 1j, -0.5 + 0.5j]])
        acc = np.exp(2j * np.pi * rng.random(w.size))
        got = acc.copy()
        lower._mul_power(got, w.copy(), mult)
        with mpmath.workprec(100):
            want = np.array([complex(mpmath.mpc(x) * mpmath.mpc(y) ** mult)
                             for x, y in zip(acc, w)])
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        bound = 2.0 * max(mult, 1) * eps * np.maximum(np.abs(want), tiny)
        assert np.all(np.abs(got - want) <= bound)


class TestSimulations:
    def test_multitest_fair_pair(self):
        rng = np.random.default_rng(5)
        est = simulate_multitest_risk([0.5, 0.5], 1, 10**6, rng)
        se = math.sqrt(0.75 * 0.25 / 10**6)
        assert abs(est - 0.75) <= 4.0 * se

    def test_multitest_zero_risks(self):
        rng = np.random.default_rng(6)
        assert simulate_multitest_risk([0.0, 0.0], 1, 10**4, rng) == 0.0

    def test_multitest_two_of_two(self):
        rng = np.random.default_rng(7)
        est = simulate_multitest_risk([0.25, 0.5], 2, 10**6, rng)
        se = math.sqrt(0.125 * 0.875 / 10**6)
        assert abs(est - 0.125) <= 4.0 * se

    def test_multitest_matches_survival_on_random_configs(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = int(rng.integers(1, 7))
            risks = rng.random(m)
            l = int(rng.integers(1, m + 1))
            want = pbin_survival(risks, l)
            est = simulate_multitest_risk(risks, l, 10**5, rng)
            se = math.sqrt(max(want * (1 - want), 1e-12) / 10**5)
            assert abs(est - want) <= 4.0 * se

    def test_multitest_rejects_bad_input(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            simulate_multitest_risk([0.5], 1, 9_999, rng)
        with pytest.raises(ValueError):
            simulate_multitest_risk([0.5, 0.5], 3, 10**4, rng)

    def test_mixture_weighted_average(self):
        rng = np.random.default_rng(10)
        est = simulate_mixture_risk([0.1, 0.3], [0.5, 0.5], 10**6, rng)
        se = math.sqrt(0.2 * 0.8 / 10**6)
        assert abs(est - 0.2) <= 4.0 * se

    def test_mixture_single_component(self):
        rng = np.random.default_rng(11)
        est = simulate_mixture_risk([0.37], [1.0], 10**5, rng)
        se = math.sqrt(0.37 * 0.63 / 10**5)
        assert abs(est - 0.37) <= 4.0 * se

    def test_mixture_zero_risks(self):
        rng = np.random.default_rng(12)
        assert simulate_mixture_risk([0.0, 0.0], [0.3, 0.7], 10**4, rng) == 0.0

    def test_mixture_rejects_bad_input(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            simulate_mixture_risk([0.5], [0.5, 0.5], 10**4, rng)
        with pytest.raises(ValueError):
            simulate_mixture_risk([0.5], [1.0], 9_999, rng)
