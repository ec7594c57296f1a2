"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np

from obsvalue.cli import main as cli_main
from obsvalue.densities import HypercubeSpec, hypercube_density
from obsvalue.lower import (bayes_risk_curve, cube_lower, mixedpbin_mass,
                            richness_lower_bound)
from obsvalue.pbin import pbin_pmf, pbin_shift_difference, pbin_survival
from obsvalue.rates import rate_fit
from obsvalue.upper import exact_mad, mad_floor, uniform_ratio
from obsvalue.verify import (LEVEL, enum_pmf, min_two_sided,
                             simulate_mixture_risk, simulate_multitest_risk)


def criterion(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c1_pbin_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(500):
        probs = rng.random(int(rng.integers(0, 13)))
        worst = max(worst, np.abs(pbin_pmf(probs) - enum_pmf(probs)).max())
    elapsed = time.perf_counter() - start
    criterion(1, worst <= 1e-12 and elapsed < 10.0,
              f"500 sets vs 2^m enumeration, max_err={worst:.3e}, "
              f"{elapsed:.1f}s (< 10s)")


def test_c2_shift_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    done = 0
    while done < 1000:
        rest = rng.random(int(rng.integers(0, 10)))
        lo, hi = np.sort(rng.random(2))
        if hi <= lo:
            continue
        l = int(rng.integers(1, rest.size + 2))
        lhs, rhs = pbin_shift_difference(rest, hi, lo, l)
        worst = max(worst, abs(lhs - rhs))
        done += 1
    elapsed = time.perf_counter() - start
    criterion(2, worst <= 1e-12 and elapsed < 5.0,
              f"1000 instances, max_err={worst:.3e}, {elapsed:.1f}s (< 5s)")


def test_c3_upper_constant():
    start = time.perf_counter()
    r = 2.0
    ratio = uniform_ratio(hypercube_density(HypercubeSpec(r, 1, [0]))).two_level
    limit = math.sqrt(math.pi / 2.0) * r
    min_gap = math.inf
    floor_ok = True
    for n in range(1, 1025):
        mad = exact_mad(ratio, n + 1)
        min_gap = min(min_gap, limit / math.sqrt(n + 1.0) - mad / 2.0)
        floor_ok = floor_ok and mad >= mad_floor(ratio, n + 1)
    elapsed = time.perf_counter() - start
    criterion(3, min_gap > 0.0 and floor_ok and elapsed < 30.0,
              f"n=1..1024 strict upper margin {min_gap:.4f}, floor holds: "
              f"{floor_ok}, {elapsed:.1f}s (< 30s)")


def test_c4_lower_constant():
    start = time.perf_counter()
    r = 2.0
    margins = []
    spot = None
    for n in (1, 2, 4, 8, 16, 32):
        res = cube_lower(n, r)
        bound = richness_lower_bound(1.0 - 1.0 / r, 1.0, n)
        margins.append(res.delta - (bound - res.ci_at_star))
        if n == 1:
            spot = (res.delta, bound, res.method)
    elapsed = time.perf_counter() - start
    spot_ok = spot[2] == "exact" and abs(spot[0] - 0.09375) <= 1e-12
    criterion(4, min(margins) >= 0.0 and spot_ok and elapsed < 300.0,
              f"min margin {min(margins):.4f}; n=1 exact delta "
              f"{spot[0]:.5f} vs bound {spot[1]:.5f}, {elapsed:.1f}s (< 5min)")


def test_c5_rate_sandwich():
    start = time.perf_counter()
    r = 2.0
    ns = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
    ratio = uniform_ratio(hypercube_density(HypercubeSpec(r, 1, [0]))).two_level
    fit_upper = rate_fit([(n, exact_mad(ratio, n + 1) / 2.0) for n in ns])
    lower_pts = [
        (n, cube_lower(n, r).delta)
        for n in ns
    ]
    fit_lower = rate_fit(lower_pts)
    elapsed = time.perf_counter() - start
    ok = (abs(fit_upper.exponent + 0.5) <= 0.1
          and abs(fit_lower.exponent + 0.5) <= 0.15
          and elapsed < 600.0)
    criterion(5, ok,
              f"exponents upper={fit_upper.exponent:.3f} (+-0.1), "
              f"lower={fit_lower.exponent:.3f} (+-0.15), "
              f"{elapsed:.0f}s (< 10min)")


def test_c6_bayes_risk_curve():
    curve = bayes_risk_curve(2.0, 256)
    v = curve.values
    ok = (v[0] == 0.5
          and abs(v[1] - 0.25) <= 1e-12
          and abs(v[3] - 0.15625) <= 1e-12
          and bool(np.all(np.diff(v) <= 0.0)))
    criterion(6, ok,
              f"r(0)={v[0]}, r(1)={v[1]:.6f}, r(3)={v[3]:.6f}, "
              f"nonincreasing to n=256: {bool(np.all(np.diff(v) <= 0.0))}")


def test_c7_simulated_risk_laws():
    start = time.perf_counter()
    rng = np.random.default_rng(1007)
    trials, hits, targets = 10**6, [], []
    for _ in range(20):
        m = int(rng.integers(1, 8))
        risks = rng.random(m)
        l = int(rng.integers(1, m + 1))
        targets.append(pbin_survival(risks, l))
        hits.append(simulate_multitest_risk(risks, l, trials, rng))

        weights = rng.random(m)
        weights /= weights.sum()
        targets.append(float(risks @ weights))
        hits.append(simulate_mixture_risk(risks, weights, trials, rng))
    worst = min_two_sided(hits, trials, targets)
    elapsed = time.perf_counter() - start
    criterion(7, worst >= LEVEL,
              f"20 configs x 1e6 trials, min_two_sided_p={worst:.2e} "
              f"(>= {LEVEL:.2e}), {elapsed:.0f}s")


def test_c8_mixedpbin_mass():
    start = time.perf_counter()
    rows = []
    for m in (1, 2, 4, 9, 16):
        for r in (1.5, 2.0, 4.0):
            for n in sorted({max(1, round(m / 2)), m}):
                table = bayes_risk_curve(r, n).values
                res = mixedpbin_mass(n, m, np.full(m, 1.0 / m), table)
                rows.append((m, r, n, res.mass * math.sqrt(m), res.method))
    elapsed = time.perf_counter() - start
    scaled = [row[3] for row in rows]
    above_third = sum(v >= 1.0 / 3.0 for v in scaled)
    criterion(8, min(scaled) >= 1.0 / 6.0,
              f"grid of {len(rows)} cases: min mass*sqrt(m)={min(scaled):.4f}"
              f" >= 1/6; {above_third}/{len(rows)} cases also clear the "
              f"looser 1/3 threshold, {elapsed:.0f}s")


def test_c9_sweep_determinism(tmp_path, capsys):
    start = time.perf_counter()
    outputs = []
    for workers in ("1", "4"):
        path = tmp_path / f"sweep-w{workers}.csv"
        code = cli_main(["sweep", "--r", "2", "--n", "2:16:x2",
                         "--mc", "20000", "--seed", "777",
                         "--workers", workers, "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    criterion(9, outputs[0] == outputs[1],
              f"sweep --seed 777 byte-identical across --workers 1 vs 4 "
              f"({len(outputs[0])} bytes), {elapsed:.1f}s")
