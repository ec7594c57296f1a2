"""Upper-bound tests; oracles are hand enumeration, exact rationals, and
mpmath quadrature."""

import math
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from obsvalue.densities import (HypercubeSpec, StepDensity, density_integral,
                                hypercube_density, sample_density)
from obsvalue.pbin import multinomial_enumerate, pbin_pmf
from obsvalue.upper import (CsCertificate, TwoLevelRatio,
                            certificate_upper_bound, chi2_radius, exact_mad,
                            hoeffding_certificate, inject_kernel, mad_floor,
                            mc_mad, uniform_ratio)

EXACT = 1e-12
UNIFORM = StepDensity([0.0, 1.0], [1.0])
# g = 1/f takes the levels 2, 1/2, 2, 1 on the quarters; under f the level
# masses are 1/4 (g = 2, two cells), 1/2 (g = 1/2) and 1/4 (g = 1).
THREE_LEVEL = StepDensity([0.0, 0.25, 0.5, 0.75, 1.0], [0.5, 2.0, 0.5, 1.0])
THREE_LEVEL_G = np.array([2.0, 0.5, 1.0])
THREE_LEVEL_P = [0.25, 0.5, 0.25]


def mp_direct_mad(tl: TwoLevelRatio, k: int):
    """E|(S a + (k - S) b)/k - 1| over S ~ Bin(k, q), term by term in
    200-bit arithmetic, for the ratio's own (double) a, b and q."""
    with mpmath.workprec(200):
        a, b, q = (mpmath.mpf(x) for x in (tl.a, tl.b, tl.q))
        term, total = (1 - q) ** k, mpmath.mpf(0)
        for s in range(k + 1):
            total += term * abs((s * a + (k - s) * b) / k - 1)
            term *= mpmath.mpf(k - s) / (s + 1) * q / (1 - q)
        return total


def ratio_for(r: float) -> TwoLevelRatio:
    f = hypercube_density(HypercubeSpec(r, 1, [0]))
    return uniform_ratio(f).two_level


class TestUniformRatio:
    def test_uniform_density_is_single_level(self):
        ratio = uniform_ratio(UNIFORM)
        assert ratio.two_level is None
        assert abs(ratio.mean - 1.0) < EXACT
        assert np.allclose(ratio.levels, 1.0, atol=EXACT)

    def test_r2_levels(self):
        tl = ratio_for(2.0)
        assert abs(tl.a - 2.0) < EXACT
        assert abs(tl.b - 2.0 / 3.0) < EXACT
        assert abs(tl.q - 0.25) < EXACT

    def test_r4_levels(self):
        tl = ratio_for(4.0)
        assert abs(tl.a - 4.0) < EXACT
        assert abs(tl.b - 4.0 / 7.0) < EXACT
        assert abs(tl.q - 0.125) < EXACT

    def test_unit_mean_for_random_densities(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            k = int(rng.integers(1, 9))
            bp = np.concatenate(([0.0], np.sort(rng.random(k)), [1.0]))
            f = StepDensity(bp, rng.uniform(0.05, 3.0, size=k + 1),
                            normalize=True)
            assert abs(uniform_ratio(f).mean - 1.0) < EXACT

    def test_rejects_zero_heights(self):
        f = StepDensity([0.0, 0.5, 1.0], [0.0, 2.0])
        with pytest.raises(ValueError):
            uniform_ratio(f)

    def test_degenerate_two_level_rejected(self):
        with pytest.raises(ValueError):
            TwoLevelRatio(a=1.0, b=1.0, q=0.5)


class TestCertificates:
    def test_hoeffding_values(self):
        cert = hoeffding_certificate(2.0)
        assert (cert.C, cert.s) == (2.0, 0.5)
        cert10 = hoeffding_certificate(10.0)
        assert (cert10.C, cert10.s) == (2.0, 0.02)

    def test_limit_toward_one(self):
        assert abs(hoeffding_certificate(1.0 + 1e-12).s - 2.0) < 1e-9

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            hoeffding_certificate(1.0)
        with pytest.raises(ValueError):
            CsCertificate(0.5, 1.0)
        with pytest.raises(ValueError):
            CsCertificate(2.0, 0.0)
        for r in (1.35e154, 1e200, 1.7e308):  # s = 2/r^2 rounds to 0
            with pytest.raises(ValueError):
                hoeffding_certificate(r)

    def test_largest_r_keeps_a_positive_s(self):
        cert = hoeffding_certificate(1.3e154)
        assert 0.0 < cert.s and math.isfinite(chi2_radius(cert))
        assert abs(cert.s * 1.3e154**2 / 2.0 - 1.0) < 1e-15

    def test_closed_form_bound(self):
        got = certificate_upper_bound(CsCertificate(2.0, 0.5), 1)
        assert abs(got - 2.0 * math.sqrt(math.pi / 2.0) / math.sqrt(2.0)) < EXACT

    def test_scaled_bound_is_constant_in_n(self):
        cert = hoeffding_certificate(2.0)
        scaled = {certificate_upper_bound(cert, n) * math.sqrt(n + 1.0)
                  for n in (0, 1, 7, 100, 1000)}
        ref = 2.0 * math.sqrt(math.pi / 2.0)
        assert all(abs(v - ref) < 1e-12 for v in scaled)
        assert ref < 1.3 * 2.0

    def test_vanishes_for_tight_concentration(self):
        assert certificate_upper_bound(CsCertificate(2.0, 1e18), 0) < 1e-8


class TestExactMad:
    def test_r2_k2_by_hand(self):
        # Bin(2, 1/4) outcomes: 9/16 * 1/3 + 6/16 * 1/3 + 1/16 * 1
        assert abs(exact_mad(ratio_for(2.0), 2) - 0.375) < EXACT

    def test_k1_two_point_expectation(self):
        tl = ratio_for(2.0)
        assert abs(exact_mad(tl, 1) - 0.5) < EXACT
        assert abs(exact_mad(tl, 1) - 2.0 * tl.q * (tl.a - 1.0)) < EXACT

    def test_near_degenerate_ratio_vanishes(self):
        tl = TwoLevelRatio(a=1.0 + 1e-10, b=1.0 - 1e-10, q=0.5)
        assert exact_mad(tl, 7) < 1e-9

    def test_matches_exact_rational_oracle(self):
        for r in (2, 4):
            # g = r on the low half (probability 1/(2r)), else r/(2r-1)
            a, b, q = Fraction(r), Fraction(r, 2 * r - 1), Fraction(1, 2 * r)
            tl = ratio_for(float(r))
            assert np.allclose([tl.a, tl.b, tl.q],
                               [float(a), float(b), float(q)],
                               rtol=0.0, atol=EXACT)
            for k in (*range(1, 13), 257, 1025):
                want = sum(
                    math.comb(k, j) * q**j * (1 - q)**(k - j)
                    * abs((j * a + (k - j) * b) / k - 1)
                    for j in range(k + 1)
                )
                # at k = 257 and 1025 the lgamma-form pmf was 1.5e-15 to
                # 5.6e-15 off
                tol = EXACT if k <= 12 else 1e-16
                assert abs(exact_mad(tl, k) - float(want)) < tol

    @pytest.mark.parametrize("r", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("k", [4097, 16385])
    def test_matches_high_precision_direct_sum(self, r, k):
        # the pairwise sum of every term was 8.6e-15 off at r = 1.5,
        # k = 4097
        tl = ratio_for(r)
        want = mp_direct_mad(tl, k)
        assert float(abs(exact_mad(tl, k) - want) / want) <= 1e-15

    @pytest.mark.parametrize("r", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("k", [2**20 + 1, 2**24 + 1])
    def test_matches_one_high_precision_term(self, r, k):
        tl = ratio_for(r)
        with mpmath.workprec(200):
            a, b, q = (mpmath.mpf(x) for x in (tl.a, tl.b, tl.q))
            j = int(mpmath.floor(k * q))
            want = (2 * (a - b) * q * (1 - q) * mpmath.binomial(k - 1, j)
                    * q**j * (1 - q)**(k - 1 - j))
            assert float(abs(exact_mad(tl, k) / want - 1)) <= 2e-15

    def test_memory_is_one_band(self, traced_peak):
        # two arrays of k floats, 16.3 MiB, before the term was read from
        # the band of about 2 sqrt(1417 k q (1-q)) entries
        tl = ratio_for(2.0)
        exact_mad(tl, 64)  # warm caches and imports
        _, peak = traced_peak(lambda: exact_mad(tl, 2**20 + 1))
        assert peak <= 1 << 20

    def test_dominated_by_closed_form(self):
        for r in (1.5, 2.0, 4.0):
            cert = hoeffding_certificate(r)
            tl = ratio_for(r)
            for k in (1, 2, 5, 17, 129, 1024, 10_000):
                assert exact_mad(tl, k) / 2.0 < certificate_upper_bound(cert, k - 1)

    def test_scaled_mad_bounded_both_ways(self):
        tl = ratio_for(2.0)
        scaled = [exact_mad(tl, k) * math.sqrt(k)
                  for k in (4, 16, 64, 256, 1024, 10_000)]
        assert min(scaled) > 0.25 and max(scaled) < 2.6


class TestMadFloor:
    def test_r2_k2(self):
        tl = ratio_for(2.0)
        assert abs(mad_floor(tl, 2) - 0.25) < EXACT
        assert mad_floor(tl, 2) <= exact_mad(tl, 2)

    def test_near_degenerate(self):
        tl = TwoLevelRatio(a=1.0 + 1e-10, b=1.0 - 1e-10, q=0.5)
        assert mad_floor(tl, 3) < 1e-9

    def test_large_k(self):
        tl = ratio_for(2.0)
        k = 10_000
        assert abs(mad_floor(tl, k) - 0.5 / math.sqrt(2.0 * k)) < EXACT
        assert exact_mad(tl, k) >= mad_floor(tl, k)

    def test_floor_below_mad_everywhere(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            q = float(rng.uniform(0.05, 0.95))
            a = float(rng.uniform(1.0 + 1e-6, 5.0))
            b = (1.0 - q * a) / (1.0 - q)
            if b < 0.0:
                continue
            tl = TwoLevelRatio(a=a, b=b, q=q)
            k = int(rng.integers(1, 200))
            assert exact_mad(tl, k) >= mad_floor(tl, k) - EXACT


def position_mad(f: StepDensity, k: int, draws: int, seed: int):
    """Reference estimator: all k positions of each row drawn from f and
    averaged through g = 1/f; returns the mean and 3-sigma half-width."""
    rng = np.random.default_rng(seed)
    x = sample_density(f, draws * k, rng).reshape(draws, k)
    dev = np.abs((1.0 / f(x)).mean(axis=1) - 1.0)
    return float(dev.mean()), 3.0 * float(dev.std()) / math.sqrt(draws)


def three_level_exact_mad(k: int) -> float:
    """E|(1/k) sum g(xi_i) - 1| for THREE_LEVEL over all level counts."""
    counts, probs = multinomial_enumerate(k, THREE_LEVEL_P)
    return float(probs @ np.abs(counts @ THREE_LEVEL_G / k - 1.0))


class TestMcMad:
    def test_agrees_with_exact(self):
        f = hypercube_density(HypercubeSpec(2.0, 1, [0]))
        est, hw = mc_mad(f, 2, 10**6, seed=8)
        assert abs(est - 0.375) <= hw

    def test_uniform_density_gives_zero(self):
        est, hw = mc_mad(UNIFORM, 3, 1000, seed=1)
        assert est == 0.0 and hw == 0.0

    def test_range_bound(self):
        f = hypercube_density(HypercubeSpec(4.0, 2, [0, 1]))
        tl = uniform_ratio(f).two_level
        est, _ = mc_mad(f, 5, 20_000, seed=2)
        assert 0.0 <= est <= max(tl.a - 1.0, 1.0 - tl.b)

    def test_rejects_tiny_budgets(self):
        with pytest.raises(ValueError):
            mc_mad(UNIFORM, 2, 99)

    def test_worker_count_does_not_change_result(self):
        for f in (hypercube_density(HypercubeSpec(2.0, 2, [1, 0])),
                  THREE_LEVEL):
            one = mc_mad(f, 3, 50_000, seed=5, workers=1)
            assert mc_mad(f, 3, 50_000, seed=5, workers=2) == one
            assert mc_mad(f, 3, 50_000, seed=5, workers=4) == one

    def test_draws_run_in_the_calling_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("mc_mad started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        f = hypercube_density(HypercubeSpec(2.0, 2, [1, 0]))
        assert (mc_mad(f, 3, 50_000, seed=5, workers=2)
                == mc_mad(f, 3, 50_000, seed=5))

    def test_seeded_values_are_pinned(self):
        # Recorded before the draws moved to streams.mc_mean; any change to
        # the chunking, the child streams or the moment merge shows here.
        two = hypercube_density(HypercubeSpec(2.0, 1, [0]))
        cells64 = hypercube_density(
            HypercubeSpec(2.0, 64, [j % 2 for j in range(64)]))
        assert mc_mad(two, 5, 20_000, seed=3) == (
            0.2115733333333334, 0.0031442210609306702)
        assert mc_mad(cells64, 257, 20_000, seed=4) == (
            0.028462516212710776, 0.00045663275778280016)
        assert mc_mad(THREE_LEVEL, 7, 20_000, seed=6) == (
            0.1846892857142857, 0.002950171937980558)

    @pytest.mark.parametrize("r", [1e6, 1e100])
    def test_unseen_level_widens_interval_to_cover_exact(self, r):
        # g = r has mass 1/(2r): 1000 rows of k <= 5 draws never see it,
        # every row averages the other level and the sample variance is 0.
        f = hypercube_density(HypercubeSpec(r, 1, [0]))
        for n in range(1, 5):
            est, hw = mc_mad(f, n + 1, 1000, seed=0)
            assert abs(est - 0.5) < 1e-6  # |1/2 - 1|, the draws' only value
            assert abs(est - exact_mad(ratio_for(r), n + 1)) <= hw

    def test_ci_coverage_over_seeded_runs(self):
        # Bin(20000, 1/16) law: a correct estimator misses its 3-sigma
        # interval at rate 0.286%, so more than 20 misses in 2000 runs has
        # probability 6.6e-7, and a 1% miss rate fails with probability 0.44.
        f = hypercube_density(HypercubeSpec(2.0, 1, [0]))
        exact = exact_mad(ratio_for(2.0), 2)
        misses = 0
        for s in range(2000):
            est, hw = mc_mad(f, 2, 20_000, seed=s)
            misses += abs(est - exact) > hw
        assert misses <= 20  # >= 99% coverage of the 3-sigma interval

    def test_three_level_oracle_by_hand(self):
        assert abs(three_level_exact_mad(1) - 0.5) < EXACT  # E|g - 1|
        # k = 2: |mean - 1| is 1, 1/4, 1/2, 1/2, 1/4, 0 for the level pairs
        # (2,2), (2,1/2), (2,1), (1/2,1/2), (1/2,1), (1,1)
        want = (1 / 16 * 1 + 2 / 8 * 0.25 + 2 / 16 * 0.5 + 1 / 4 * 0.5
                + 2 / 8 * 0.25)
        assert abs(three_level_exact_mad(2) - want) < EXACT

    def test_three_level_agrees_with_exact_oracle(self):
        for k in range(1, 7):
            est, hw = mc_mad(THREE_LEVEL, k, 200_000, seed=30 + k)
            assert abs(est - three_level_exact_mad(k)) <= 4.0 / 3.0 * hw

    def test_agrees_with_position_sampler(self):
        # 300 distinct levels, one per cell
        rng = np.random.default_rng(77)
        many = StepDensity(np.linspace(0.0, 1.0, 301),
                           rng.uniform(0.2, 3.0, size=300), normalize=True)
        cases = [(THREE_LEVEL, k, 100_000) for k in (1, 3, 8, 40)]
        for f, k, draws in cases + [(many, 3, 20_000)]:
            est, hw = mc_mad(f, k, draws, seed=k)
            ref, ref_hw = position_mad(f, k, draws, seed=50 + k)
            # 4 sigma of the difference of two independent estimates
            assert abs(est - ref) <= 4.0 / 3.0 * math.hypot(hw, ref_hw)


class TestInjectKernel:
    def test_empty_sample(self):
        out = inject_kernel(np.array([]), np.random.default_rng(0))
        assert out.shape == (1,) and 0.0 <= out[0] < 1.0

    def test_position_frequencies(self):
        rng = np.random.default_rng(12)
        reps = 10**6
        out = inject_kernel(np.tile([0.25, 0.75], (reps, 1)), rng)
        pos = np.where(out[:, 0] != 0.25, 0, np.where(out[:, 1] != 0.75, 1, 2))
        hits = np.bincount(pos, minlength=3)
        se = math.sqrt((1 / 3) * (2 / 3) / reps)
        assert np.abs(hits / reps - 1 / 3).max() <= 4.0 * se

    def test_batch_draws_positions_then_uniforms(self):
        x = np.random.default_rng(5).random((50, 4))
        out = inject_kernel(x, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        pos = rng.integers(0, 5, size=50)
        u = rng.random(50)
        for i in range(50):
            assert np.array_equal(out[i], np.insert(x[i], pos[i], u[i]))
        # a 1-D sample draws one position, then one uniform
        for n in (0, 1, 4):
            one = inject_kernel(x[0, :n], np.random.default_rng(n))
            rng = np.random.default_rng(n)
            pos = int(rng.integers(0, n + 1))
            assert np.array_equal(one, np.insert(x[0, :n], pos, rng.random()))
        assert inject_kernel(np.empty((3, 0)), rng).shape == (3, 1)
        with pytest.raises(ValueError):
            inject_kernel(np.zeros((2, 2, 2)), rng)

    def test_output_law_matches_mixture(self):
        # cell count of (n P_f draws + 1 uniform draw) follows the
        # Poisson-binomial law with one 1/2-probability entry appended
        f = hypercube_density(HypercubeSpec(2.0, 1, [0]))
        n, reps = 3, 200_000
        rng = np.random.default_rng(21)
        p_cell = density_integral(f, 0.0, 0.5)
        ref = pbin_pmf([p_cell] * n + [0.5])
        x = sample_density(f, reps * n, rng).reshape(reps, n)
        counts = np.count_nonzero(inject_kernel(x, rng) < 0.5, axis=1)
        for k, p in enumerate(ref):
            se = math.sqrt(max(p * (1 - p), 1e-12) / reps)
            assert abs(np.count_nonzero(counts == k) / reps - p) <= 4.0 * se


class TestChi2Radius:
    def integrand(self, s, C):
        return lambda x: x**2 * 2 * s * x * C * mpmath.exp(-s * x * x)

    def test_closed_form_vs_quadrature(self):
        for C, s in ((2.0, 0.5), (1.0, 1.0), (4.0, 0.05), (1.5, 3.0)):
            x0 = math.sqrt(math.log(C) / s)
            with mpmath.workprec(100):
                quad, err = mpmath.quad(self.integrand(s, C),
                                        [x0, mpmath.inf], error=True)
            assert err < 1e-9
            assert abs(chi2_radius(CsCertificate(C, s)) - quad) < 1e-8

    def test_spot_values(self):
        assert abs(chi2_radius(CsCertificate(2.0, 0.5))
                   - (1.0 + math.log(2.0)) / 0.5) < EXACT
        assert abs(chi2_radius(CsCertificate(1.0, 4.0)) - 0.25) < EXACT

    def test_vanishes_for_large_s(self):
        assert chi2_radius(CsCertificate(2.0, 1e15)) < 1e-14

    def test_contains_actual_divergence(self):
        # chi-square divergence of the uniform center is Var(g)
        for r in (1.5, 2.0, 4.0, 8.0):
            tl = ratio_for(r)
            var = tl.q * tl.a**2 + (1 - tl.q) * tl.b**2 - 1.0
            assert var <= chi2_radius(hoeffding_certificate(r))
