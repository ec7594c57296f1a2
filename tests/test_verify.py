"""Property-suite tests that need more than the exit code of `verify`."""

import math

import numpy as np

from obsvalue import pbin, verify
from obsvalue.streams import child_rng


def test_binomial_tail_matches_pmf_sums():
    for trials, p, hits in ((10_000, 0.3, 2_950), (50_000, 0.99999, 49_996),
                            (20_000, 0.5, 10_000)):
        pmf = pbin.binom_pmf(trials, p)
        want = min(1.0, 2.0 * min(pmf[:hits + 1].sum(), pmf[hits:].sum()))
        assert math.isclose(verify._binom_two_sided(hits, trials, p), want,
                            rel_tol=1e-8)


def test_simulation_check_near_certain_survival():
    # At seed 608 one target survival is about 0.99999: 4 misses in 50 000
    # trials where 0.53 are expected is a z-score of 4.78 but an exact
    # two-sided tail of about 3e-3, well inside the 4-sigma level.
    rng = child_rng(608, "verify:multitest-and-mixture-simulations", 0)
    ok, msg = verify.check_simulations(verify.QUICK, rng)
    assert ok, msg


def test_simulation_check_flags_a_biased_simulator(monkeypatch):
    real = verify.lower.simulate_multitest_risk

    def biased(risks, l, trials, rng):
        return min(1.0, real(risks, l, trials, rng) + 0.01)

    monkeypatch.setattr(verify.lower, "simulate_multitest_risk", biased)
    ok, _ = verify.check_simulations(verify.QUICK, np.random.default_rng(1))
    assert not ok
