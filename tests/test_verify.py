"""Property-suite tests that need more than the exit code of `verify`."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsvalue import densities, lower, pbin, upper, verify
from obsvalue.streams import child_rng

# Reference-estimator values recorded before the draws moved to
# streams.mc_mean: (mean, 3-sigma half-width) of mc_cube_gaps(8, 2.0,
# 20000, 3) and of mc_mixed_pmf(16, uniform, bayes_risk_curve(2, 16),
# 20000, 4).
CUBE_GAPS = (
    [6.678328290581703e-05, 0.0007042466595768928, 0.0034218412488698957,
     0.010155511999875307, 0.02057450100108981, 0.030119113886356352,
     0.03288966397792101, 0.027261191799491644, 0.017280471988767386,
     0.00837136145979166, 0.003072003918886185, 0.0008380947165191173,
     0.00016445023491978646, 2.1898558735847475e-05, 1.7687216401100159e-06,
     6.529465317726135e-08],
    [1.2773232808256466e-06, 1.291211366381063e-05, 6.030516879183113e-05,
     0.0001727711665502454, 0.00033992840332809247, 0.0004870729962700161,
     0.0005255727286365729, 0.0004351123465610676, 0.00027860600063007545,
     0.0001378395981547181, 5.2170265158559806e-05, 1.4799229360846418e-05,
     3.037625834072363e-06, 4.2476046406664613e-07, 3.609621030921023e-08,
     1.40280675870216e-09],
)
MIXED_PMF = (
    [0.0012634509909181361, 0.010885324324399698, 0.043294770512051765,
     0.10548977212799945, 0.176184269531678, 0.2138121927650296,
     0.19498002263167, 0.13625677485662746, 0.0737259442940769,
     0.030982823978678787, 0.010076760974971694, 0.002509229777555447,
     0.00046888207594311096, 6.354862953303382e-05, 5.890297898440621e-06,
     3.3354017650708555e-07, 8.6907919467194e-09],
    [1.2809437595702855e-05, 8.696013522516881e-05, 0.00025844774780282376,
     0.0004281600211560892, 0.00039501073263480444, 0.00012365297033375793,
     0.0002542308550468807, 0.00039985979500031094, 0.000335232510677924,
     0.00018986327643860488, 7.734190189634288e-05, 2.3048157970118503e-05,
     4.994819927868727e-06, 7.669804891007916e-07, 7.907959013863968e-08,
     4.906728586349933e-09, 1.3834714280853768e-10],
)


def test_reference_estimators_are_pinned():
    mean, ci = verify.mc_cube_gaps(8, 2.0, 20000, 3)
    assert (mean.tolist(), ci.tolist()) == CUBE_GAPS
    table = lower.bayes_risk_curve(2.0, 16).values
    mean, ci = verify.mc_mixed_pmf(16, np.full(16, 1 / 16), table, 20000, 4)
    assert (mean.tolist(), ci.tolist()) == MIXED_PMF


def mp_binom_tails(trials: int, p: float, hits: int):
    """P(X <= hits) and P(X >= hits) for X ~ Bin(trials, p) in 200-bit
    arithmetic: P(0) = (1-p)^trials, then P(j+1) = P(j) (trials-j) p /
    ((j+1) (1-p)); relative error about trials * 2^-200.  Bin(trials, 1)
    is Bin(trials, 0) mirrored."""
    if p == 1.0:
        return mp_binom_tails(trials, 0.0, trials - hits)[::-1]
    with mpmath.workprec(200):
        p = mpmath.mpf(p)
        odds = p / (1 - p)
        pmf = [(1 - p) ** trials]
        for j in range(trials):
            pmf.append(pmf[-1] * odds * (trials - j) / (j + 1))
        return float(sum(pmf[:hits + 1])), float(sum(pmf[hits:]))


def test_binomial_tail_matches_pmf_sums():
    lo, band = pbin._binom_band(4_000, 0.5)
    hi = lo + band.size - 1
    assert 0 < lo and hi < 4_000
    cases = [(10_000, 0.3, 2_950), (50_000, 0.99999, 49_996),
             (20_000, 0.5, 10_000)]
    # off the band a tail is taken as 0; it is below (trials+1) 2^-1022
    cases += [(4_000, 0.5, hits) for hits in (lo - 1, lo, hi, hi + 1)]
    cases += [(trials, p, hits) for trials in (0, 1, 7, 1000)
              for p in (0.0, 0.25, 1.0) for hits in (0, trials)]
    for trials, p, hits in cases:
        want = min(1.0, 2.0 * min(mp_binom_tails(trials, p, hits)))
        assert math.isclose(verify.binom_two_sided(hits, trials, p), want,
                            rel_tol=1e-8, abs_tol=1e-300), (trials, p, hits)


def test_simulation_check_near_certain_survival():
    # At seed 608 one target survival is about 0.99999: 4 misses in 50 000
    # trials where 0.53 are expected is a z-score of 4.78 but an exact
    # two-sided tail of about 3e-3, well inside the 4-sigma level.
    rng = child_rng(608, "verify:multitest-and-mixture-simulations", 0)
    ok, msg = verify.check_simulations(verify.QUICK, rng)
    assert ok, msg


def test_simulation_check_flags_a_biased_simulator(monkeypatch):
    real = verify.simulate_multitest_risk

    def biased(risks, l, trials, rng):
        return min(trials, real(risks, l, trials, rng) + trials // 100)

    monkeypatch.setattr(verify, "simulate_multitest_risk", biased)
    ok, _ = verify.check_simulations(verify.QUICK, np.random.default_rng(1))
    assert not ok


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.floats(0.0, 1.0), max_size=12), min_size=1,
                max_size=8),
       st.integers(0, 4))
def test_zero_padded_rows_are_the_unpadded_pmfs(lists, extra):
    # a list of zeros pads the table to ``extra`` past the longest list
    pmfs = verify._pmf_table([*lists, [0.0] * (max(map(len, lists)) + extra)])
    for row, p in zip(pmfs, lists):
        assert np.array_equal(row[:len(p) + 1], pbin.pbin_pmf(p))
        assert not row[len(p) + 1:].any()


def test_pmf_table_and_survivals_match_the_wrappers():
    rng = np.random.default_rng(3)
    lists = [rng.random(m) for m in (0, 3, 12, 1, 9, 8)] + [np.array([0.5])]
    pmfs = verify._pmf_table(lists)
    # its rows are checked by test_zero_padded_rows_are_the_unpadded_pmfs;
    # here the batched properties' survivals: every l >= 1 of the table,
    # past a list's size too, where pbin_survival gives 0
    tails = np.cumsum(pmfs[:, ::-1], axis=1)[:, ::-1]
    for row, p in zip(tails, lists):
        assert row[1:].tolist() == [pbin.pbin_survival(p, l)
                                    for l in range(1, row.size)]


# The per-instance loops the batched PBin properties replaced, kept as
# their oracles: each draws and evaluates one instance at a time through
# the public wrappers.
def loop_pmf_enumeration(budget, rng):
    worst = 0.0
    for _ in range(budget.pmf_sets):
        p = rng.random(int(rng.integers(0, 11)))
        worst = max(worst, np.abs(pbin.pbin_pmf(p) - verify.enum_pmf(p)).max())
    return worst <= 1e-12, f"sets={budget.pmf_sets}, max_err={worst:.3e}"


def loop_pmf_permutation(budget, rng):
    worst = 0.0
    for _ in range(budget.pmf_sets):
        p = rng.random(int(rng.integers(1, 13)))
        ref = pbin.pbin_pmf(p)
        worst = max(worst, np.abs(pbin.pbin_pmf(rng.permutation(p)) - ref).max())
    return worst <= 1e-12, f"max_err={worst:.3e}"


def loop_survival_monotone(budget, rng):
    worst = 0.0
    for _ in range(budget.pmf_sets):
        p = rng.random(int(rng.integers(1, 11)))
        i = int(rng.integers(p.size))
        q = p.copy()
        q[i] = rng.uniform(0.0, p[i])
        for l in range(p.size + 1):
            worst = max(worst, pbin.pbin_survival(q, l) - pbin.pbin_survival(p, l))
    return worst <= 1e-12, f"max_increase={worst:.3e}"


def loop_shift_identity(budget, rng):
    worst = 0.0
    for _ in range(budget.shift_sets):
        rest = rng.random(int(rng.integers(0, 10)))
        hi, lo = np.sort(rng.random(2))[::-1]
        if hi == lo:
            continue
        l = int(rng.integers(1, rest.size + 2))
        lhs, rhs = pbin.pbin_shift_difference(rest, hi, lo, l)
        worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-12, f"sets={budget.shift_sets}, max_err={worst:.3e}"


BATCHED = [
    ("pbin-pmf-vs-enumeration", verify.check_pmf_enumeration,
     loop_pmf_enumeration),
    ("pbin-pmf-permutation-invariance", verify.check_pmf_permutation,
     loop_pmf_permutation),
    ("pbin-survival-stochastic-monotonicity", verify.check_survival_monotone,
     loop_survival_monotone),
    ("pbin-shift-identity", verify.check_shift_identity, loop_shift_identity),
]


@pytest.mark.parametrize("name, batched, loop", BATCHED,
                         ids=[b[0] for b in BATCHED])
def test_batched_properties_report_what_their_loops_report(name, batched,
                                                           loop):
    for budget, seeds in ((verify.QUICK, range(20)), (verify.FULL, range(3))):
        for seed in seeds:
            want = loop(budget, child_rng(seed, f"verify:{name}", 0))
            got = batched(budget, child_rng(seed, f"verify:{name}", 0))
            assert got == want, (seed, budget)


@pytest.mark.parametrize("check, module, name, bias", [
    # draws 3% too small
    (verify.check_sampler_frequencies, densities, "sample_density",
     lambda real: lambda f, n, rng: 0.97 * real(f, n, rng)),
    # the first and last weights swapped: probabilities of other cells
    (verify.check_multinomial_frequencies, pbin, "multinomial_enumerate",
     lambda real: lambda trials, w: real(trials, w[::-1])),
    # spliced into the first n - 1 values, so never at the last position
    (verify.check_inject_positions, upper, "inject_kernel",
     lambda real: lambda x, rng: np.column_stack((real(x[:, :-1], rng),
                                                   x[:, -1]))),
    # the fresh draw is uniform on [0, 0.95)
    (verify.check_inject_mixture, upper, "inject_kernel",
     lambda real: lambda x, rng: np.column_stack((x, 0.95 * rng.random(
         len(x))))),
])
def test_frequency_checks_flag_a_biased_input(monkeypatch, check, module,
                                              name, bias):
    monkeypatch.setattr(module, name, bias(getattr(module, name)))
    ok, msg = check(verify.QUICK, np.random.default_rng(1))
    assert not ok and "alarm<=" in msg, msg


# The forms the sampling properties used before inversion by comparison
# count, kept as their oracles: binary search (``searchsorted``),
# ``rng.choice`` and a row sum.
def searchsorted_count(edges, u):
    return edges.searchsorted(u, side="right")


def searchsorted_sample(f, n, rng):
    cdf = np.concatenate(([0.0], (f.values * f.widths).cumsum()))
    u = rng.random(n) * cdf[-1]
    idx = cdf[1:-1].searchsorted(u, side="right")
    return f.breakpoints[idx] + (u - cdf[idx]) / f.values[idx]


def rowsum_multitest_risk(risks, l, trials, rng):
    p = np.asarray(risks, dtype=float)
    hits = 0
    batch = max(1, (1 << 22) // p.size)
    for done in range(0, trials, batch):
        errors = rng.random((min(batch, trials - done), p.size)) < p
        hits += int(np.count_nonzero(errors.sum(axis=1) >= l))
    return hits


def choice_mixture_risk(component_risks, weights, trials, rng):
    p = np.asarray(component_risks, dtype=float)
    w = np.asarray(weights, dtype=float)
    component = rng.choice(p.size, size=trials, p=w / w.sum())
    return int(np.count_nonzero(rng.random(trials) < p[component]))


# Each property, its check, and the attributes that put the old forms in
# place of the new ones.
PRE_CHANGE = [
    ("multinomial-sample-frequencies", verify.check_multinomial_frequencies,
     [(densities, "_count_at_or_below", searchsorted_count)]),
    ("sampler-cell-frequencies", verify.check_sampler_frequencies,
     [(densities, "sample_density", searchsorted_sample)]),
    ("inject-mixture-law", verify.check_inject_mixture,
     [(densities, "sample_density", searchsorted_sample)]),
    ("multitest-and-mixture-simulations", verify.check_simulations,
     [(verify, "simulate_multitest_risk", rowsum_multitest_risk),
      (verify, "simulate_mixture_risk", choice_mixture_risk)]),
]


@pytest.mark.parametrize("name, check, forms", PRE_CHANGE,
                         ids=[p[0] for p in PRE_CHANGE])
def test_properties_report_what_their_pre_change_forms_report(
        monkeypatch, name, check, forms):
    runs = [(budget, seed) for budget, seeds in ((verify.QUICK, range(20)),
                                                 (verify.FULL, range(3)))
            for seed in seeds]

    def report():
        return [check(budget, child_rng(seed, f"verify:{name}", 0))
                for budget, seed in runs]

    got = report()
    with monkeypatch.context() as patch:
        for owner, attr, form in forms:
            patch.setattr(owner, attr, form)
        want = report()
    assert got == want


def test_mixture_components_are_rng_choice_draws():
    cases = [([0.1, 0.3], [0.5, 0.5]), ([0.37], [1.0]),
             ([0.2, 0.9, 0.5], [0.0, 0.7, 0.3]), ([0.5, 0.1], [3.0, 1e-300]),
             ([0.9, 0.2, 0.4, 0.6, 0.1], [0.3, 0.0, 0.0, 0.2, 0.5])]
    for seed, (risks, weights) in enumerate(cases):
        for trials in (10_000, 77_777):
            got = verify.simulate_mixture_risk(
                risks, weights, trials, np.random.default_rng(seed))
            want = choice_mixture_risk(risks, weights, trials,
                                       np.random.default_rng(seed))
            assert got == want, (risks, weights, trials)


class ChosenUniforms:
    """A stand-in generator: ``random(n)`` repeats the chosen uniforms to
    length n on its first call and returns 0.5s after."""

    def __init__(self, uniforms):
        self.uniforms, self.calls = uniforms, 0

    def random(self, n):
        self.calls += 1
        return np.resize(self.uniforms, n) if self.calls == 1 else \
            np.full(n, 0.5)


def test_mixture_components_are_rng_choice_components_on_cdf_edges():
    # Normalized cumulative weights that end below 1 (ten 0.1s) or above
    # it (0.7, 0.2, 0.1); rng.choice rescales them to end at exactly 1, so
    # a uniform on an edge of either cdf takes rng.choice's component only
    # after the rescale.  A component of risk 1 errs on the 0.5s and the
    # others never do, so the count is how many runs drew that component.
    trials = 10_000
    for weights in ([0.1] * 10, [0.7, 0.2, 0.1]):
        w = np.array(weights)
        raw = (w / w.sum()).cumsum()
        cdf = raw / raw[-1]
        u = np.concatenate((raw, cdf, [0.0, 1.0 - 2.0**-53]))
        u = u[u < 1.0]
        keys = np.resize(u, trials)
        want = cdf.searchsorted(keys, side="right")  # rng.choice's recipe
        assert not np.array_equal(want, raw.searchsorted(keys, side="right"))
        for k in range(w.size):
            risks = np.zeros(w.size)
            risks[k] = 1.0
            got = verify.simulate_mixture_risk(risks, w, trials,
                                               ChosenUniforms(u))
            assert got == np.count_nonzero(want == k), (weights, k)


def test_multitest_counts_are_row_sum_counts():
    # the check's 1 to 5 cells, and 300 cells, whose error counts pass 255;
    # 10^5 runs of 100 or more cells span several batches
    rng = np.random.default_rng(17)
    for m in (1, 2, 5, 100, 300):
        risks = rng.uniform(0.9, 1.0, m) if m == 300 else rng.random(m)
        for l in sorted({1, (m + 1) // 2, m, max(1, m - 20)}):
            got = verify.simulate_multitest_risk(
                risks, l, 100_000, np.random.default_rng(m))
            want = rowsum_multitest_risk(risks, l, 100_000,
                                         np.random.default_rng(m))
            assert got == want, (m, l)
