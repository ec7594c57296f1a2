"""Self-contained property suite behind the ``verify`` CLI subcommand.

Every identity, oracle equivalence, and simulation contract the library
relies on is re-checked here from scratch (brute-force enumeration, Simpson
quadrature, empirical frequencies) and reported as one PASS/FAIL line per
property.

The independent oracles these checks compare against are public, so the
test suite uses the same ones: ``enum_pmf`` (2^m Bernoulli enumeration),
``dp_risk_curve`` (the risk curve by Bernoulli steps over the whole
Binomial pmf), the coupled Monte Carlo reference estimators
``mc_cube_gaps`` and ``mc_mixed_pmf`` of the exact engines in ``lower``,
and the simulators ``simulate_multitest_risk`` and
``simulate_mixture_risk`` of the multi-test and mixture risk laws.

The Poisson-binomial properties draw all their instances first and then
evaluate them in one ``pbin.pbin_pmf_rows`` call over the probability lists
zero-padded to the longest (``_pmf_table``).  A Bernoulli(0) step leaves a
pmf unchanged bit for bit, fl(p * 1) + fl(p * 0) = p, so each row equals
``pbin_pmf`` of its own list and is 0 past it.  Survivals are the table's
reversed cumsums, the order ``pbin_survival`` sums a tail in; adding the
padding's zeros first is exact, so each equals ``pbin_survival`` bit for
bit at every l >= 1.  The public wrappers stay covered by ``spot-values``
and by the first shift case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import densities, lower, pbin, rates, upper
from .constants import EXACT_TOL
from .streams import child_rng, mc_mean


@dataclass(frozen=True)
class Budget:
    pmf_sets: int = 300
    shift_sets: int = 1000
    sample_draws: int = 1_000_000
    mc_draws: int = 200_000
    sim_trials: int = 200_000
    inject_reps: int = 200_000
    curve_n: int = 256
    cube_ns: tuple[int, ...] = (1, 2, 4, 8)
    mc_samples: int = 30_000


QUICK = Budget(pmf_sets=60, shift_sets=200, sample_draws=200_000,
               mc_draws=50_000, sim_trials=50_000, inject_reps=50_000,
               curve_n=64, cube_ns=(1, 2, 4), mc_samples=10_000)
FULL = Budget()


def enum_pmf(probs: np.ndarray) -> np.ndarray:
    """Brute-force PBin pmf over all 2^m Bernoulli outcomes."""
    m = probs.size
    ids = np.arange(1 << m, dtype=np.uint32)
    bits = (ids[:, None] >> np.arange(m)) & 1
    terms = np.where(bits == 1, probs, 1.0 - probs).prod(axis=1)
    return np.bincount(bits.sum(axis=1), weights=terms, minlength=m + 1)


def dp_risk_curve(r: float, n_max: int) -> np.ndarray:
    """Oracle: ``lower.bayes_risk_curve(r, n_max).values`` by n_max in-place
    Bernoulli steps over the whole Bin(n, 1/(2r)) pmf, halving
    sum_k min(pmf[k], pmf[n-k]) at each n: O(n_max^2)."""
    a = 1.0 / (2.0 * r)
    values = np.empty(n_max + 1)
    values[0] = 0.5
    pmf = np.zeros(n_max + 1)
    pmf[0] = 1.0
    scratch = np.empty_like(pmf)
    for n in range(1, n_max + 1):
        pbin.bernoulli_step(pmf, n - 1, a, scratch)
        values[n] = 0.5 * float(np.minimum(pmf[:n + 1], pmf[n::-1]).sum())
    # The curve is nonincreasing with exactly-flat steps; clamp out
    # last-ulp rounding disagreements between neighbouring evaluations.
    return np.minimum.accumulate(values)


def mc_cube_gaps(n: int, r: float, samples: int, seed: int):
    """Coupled Monte Carlo estimate of ``lower.cube_lower(n, r).per_l``, as
    (per-l mean, 3-sigma half-width) over ``samples`` count vectors.

    Couples N' = N + one extra count in the last (tagged) cell; by the shift
    identity the gap at threshold l is then
    (r(c) - r(c+1)) * P(PBin(other cells' risks) = l - 1), c the tagged
    cell's count, which is evaluated exactly for every draw.
    """
    m = 2 * n
    risks = lower.bayes_risk_curve(r, n + 1).values

    def values(rng, rows):
        counts = rng.multinomial(n, np.full(m, 1.0 / m), size=rows)
        tagged = counts[:, -1]
        gaps = risks[tagged] - risks[tagged + 1]
        return gaps[:, None] * pbin.pbin_pmf_rows(risks[counts[:, :-1]])

    return mc_mean("cube_lower", seed, samples, values)


def mc_mixed_pmf(n: int, weights: np.ndarray, table: np.ndarray,
                 samples: int, seed: int):
    """Monte Carlo estimate of ``lower.mixedpbin_mass(n, m, weights,
    table).masses``: the PBin(table[N]) pmf averaged over ``samples`` draws
    of N ~ Mult(n, weights), with its 3-sigma half-width."""
    def values(rng, rows):
        counts = rng.multinomial(n, weights, size=rows)
        return pbin.pbin_pmf_rows(table[counts])

    return mc_mean("mixedpbin", seed, samples, values)


def _simpson(f: Callable, a: float, b: float, n: int = 40001) -> float:
    x = np.linspace(a, b, n)
    y = f(x)
    h = (b - a) / (n - 1)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


def _random_density(rng: np.random.Generator) -> densities.StepDensity:
    k = int(rng.integers(1, 8))
    cuts = np.sort(rng.random(k))
    bp = np.concatenate(([0.0], cuts, [1.0]))
    heights = rng.uniform(0.1, 2.0, size=k + 1)
    return densities.StepDensity(bp, heights, normalize=True)


def _random_hypercube(rng: np.random.Generator) -> densities.HypercubeSpec:
    r = float(rng.uniform(1.1, 8.0))
    m = int(rng.integers(1, 7))
    return densities.HypercubeSpec(r, m, rng.integers(0, 2, size=m))


def _worst_z(hits, trials: int, probs) -> float:
    """Largest |hits/trials - p| over cells, in standard errors of a
    Binomial frequency, sqrt(p (1 - p) / trials) with the variance floored
    at 1e-12 / trials."""
    p = np.asarray(probs, dtype=float)
    se = np.sqrt(np.maximum(p * (1.0 - p), 1e-12) / trials)
    return float((np.abs(np.asarray(hits) / trials - p) / se).max())


def _pmf_table(lists: Sequence[np.ndarray]) -> np.ndarray:
    """PBin pmfs of ``lists``, one row each, from one ``pbin_pmf_rows``
    call over the lists zero-padded to the longest: row i is ``pbin_pmf``
    of lists[i] bit for bit on its first len + 1 entries and 0 after."""
    table = np.zeros((len(lists), max(map(len, lists), default=0)))
    for row, p in zip(table, lists):
        row[:len(p)] = p
    return pbin.pbin_pmf_rows(table)


def check_spot_values(budget: Budget, rng) -> tuple[bool, str]:
    cube = lower.cube_lower(1, 2.0)
    checks = [
        abs(pbin.pbin_pmf([0.1, 0.2, 0.3])
            - [0.504, 0.398, 0.092, 0.006]).max(),
        abs(pbin.pbin_survival([0.25, 0.5], 1) - 0.625),
        abs(upper.exact_mad(upper.TwoLevelRatio(2.0, 2 / 3, 0.25), 2) - 0.375),
        abs(lower.bayes_risk_curve(2.0, 3).values
            - [0.5, 0.25, 0.25, 0.15625]).max(),
        abs(cube.delta - 0.09375),
        abs(cube.closed - 0.5 / 24.0),
        abs(upper.certificate_upper_bound(upper.hoeffding_certificate(2.0), 0)
            - 2.0 * math.sqrt(math.pi / 2.0)),
    ]
    worst = max(checks)
    return worst <= 1e-12, f"max_err={worst:.3e}"


def check_pmf_enumeration(budget: Budget, rng) -> tuple[bool, str]:
    lists = [rng.random(int(rng.integers(0, 11)))
             for _ in range(budget.pmf_sets)]
    pmfs = _pmf_table(lists)
    enum = np.zeros_like(pmfs)
    for row, p in zip(enum, lists):
        row[:p.size + 1] = enum_pmf(p)
    worst = np.abs(pmfs - enum).max()
    return worst <= 1e-12, f"sets={budget.pmf_sets}, max_err={worst:.3e}"


def check_pmf_permutation(budget: Budget, rng) -> tuple[bool, str]:
    lists, perms = [], []
    for _ in range(budget.pmf_sets):
        lists.append(rng.random(int(rng.integers(1, 13))))
        perms.append(rng.permutation(lists[-1]))
    pmfs = _pmf_table(lists + perms)
    worst = np.abs(pmfs[len(lists):] - pmfs[:len(lists)]).max()
    return worst <= 1e-12, f"max_err={worst:.3e}"


def check_survival_monotone(budget: Budget, rng) -> tuple[bool, str]:
    lists, lowered = [], []
    for _ in range(budget.pmf_sets):
        p = rng.random(int(rng.integers(1, 11)))
        i = int(rng.integers(p.size))
        q = p.copy()
        q[i] = rng.uniform(0.0, p[i])
        lists.append(p)
        lowered.append(q)
    # every l >= 1 of every set, p's rows first, then q's; past its size
    # a set's survivals are 0 on both.  At l = 0 both are exactly 1.
    surv = np.cumsum(_pmf_table(lists + lowered)[:, ::-1], axis=1)[:, ::-1]
    k = len(lists)
    worst = max(0.0, (surv[k:, 1:] - surv[:k, 1:]).max())
    return worst <= 1e-12, f"max_increase={worst:.3e}"


def check_shift_identity(budget: Budget, rng) -> tuple[bool, str]:
    cases = []
    for _ in range(budget.shift_sets):
        rest = rng.random(int(rng.integers(0, 10)))
        hi, lo = np.sort(rng.random(2))[::-1]
        if hi == lo:
            continue
        cases.append((rest, hi, lo, int(rng.integers(1, rest.size + 2))))
    rests, his, los, ls = zip(*cases)
    his, los, ls = np.array(his), np.array(los), np.array(ls)
    k = len(cases)
    # rows: rest + [hi] for every case, then rest + [lo], then rest
    pmfs = _pmf_table([*map(np.append, rests, his),
                       *map(np.append, rests, los), *rests])
    surv = np.cumsum(pmfs[:2 * k, ::-1], axis=1)[:, ::-1]
    lhs = surv[np.arange(k), ls] - surv[k + np.arange(k), ls]
    rhs = pmfs[2 * k + np.arange(k), ls - 1] * (his - los)
    if pbin.pbin_shift_difference(*cases[0]) != (lhs[0], rhs[0]):
        return False, "pbin_shift_difference differs from the batched sides"
    worst = np.abs(lhs - rhs).max()
    return worst <= 1e-12, f"sets={budget.shift_sets}, max_err={worst:.3e}"


def check_multinomial_enumeration(budget: Budget, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 5))
        w = rng.random(m)
        w /= w.sum()
        trials = int(rng.integers(0, 7))
        _, probs = pbin.multinomial_enumerate(trials, w)
        worst = max(worst, abs(probs.sum() - 1.0))
    return worst <= 1e-10, f"max_sum_err={worst:.3e}"


def check_multinomial_frequencies(budget: Budget, rng) -> tuple[bool, str]:
    """Cell frequencies of Mult(3, w) draws against the enumeration.  A
    draw is three categorical trials, each one uniform inverted through
    the cumulative weights; its cell's key is the sum of the trials'
    digits, counts @ (1, 10, 100).  The trials are drawn one at a time,
    so only one uniform array is alive at once."""
    w = np.array([0.2, 0.3, 0.5])
    trials, draws = 3, budget.sample_draws
    counts, probs = pbin.multinomial_enumerate(trials, w)
    digits = np.array([1, 10, 100])
    edges = w.cumsum()[:-1]
    keys = np.zeros(draws, dtype=digits.dtype)
    for _ in range(trials):
        keys += digits[edges.searchsorted(rng.random(draws), side="right")]
    cells = counts @ digits
    hits = np.bincount(keys, minlength=cells.max() + 1)[cells]
    worst = _worst_z(hits, draws, probs)
    return worst <= 4.0, f"draws={draws}, worst_z={worst:.2f}"


def check_density_construction(budget: Budget, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(100):
        spec = _random_hypercube(rng)
        f = densities.hypercube_density(spec)
        worst = max(worst, abs(densities.density_integral(f, 0.0, 1.0) - 1.0))
        if f.values.min() < 1.0 / spec.r - 1e-12:
            return False, "height below the 1/r floor"
    return worst <= 1e-12, f"max_integral_err={worst:.3e}"


def check_tv_triangle(budget: Budget, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(100):
        f, g, h = (_random_density(rng) for _ in range(3))
        worst = max(worst, densities.tv_distance(f, h)
                    - densities.tv_distance(f, g) - densities.tv_distance(g, h))
    return worst <= 1e-12, f"max_violation={worst:.3e}"


def check_tv_bit_flips(budget: Budget, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(50):
        spec = _random_hypercube(rng)
        flips = rng.integers(0, 2, size=spec.m)
        other = densities.HypercubeSpec(
            spec.r, spec.m, tuple(int(b ^ fl) for b, fl in zip(spec.bits, flips)))
        k = int(flips.sum())
        got = densities.tv_distance(densities.hypercube_density(spec),
                                    densities.hypercube_density(other))
        worst = max(worst, abs(got - k * (1.0 - 1.0 / spec.r) / spec.m))
    return worst <= 1e-12, f"max_err={worst:.3e}"


def check_sampler_frequencies(budget: Budget, rng) -> tuple[bool, str]:
    n = 100_000
    worst = 0.0
    for _ in range(5):
        f = _random_density(rng)
        x = densities.sample_density(f, n, rng)
        # cells [k/4, (k+1)/4); 4x is exact, so floor(4x) = k there
        hits = np.bincount((4.0 * x).astype(int), minlength=5)[:4]
        probs = [densities.density_integral(f, k / 4, (k + 1) / 4)
                 for k in range(4)]
        worst = max(worst, _worst_z(hits, n, probs))
    return worst <= 4.0, f"worst_z={worst:.2f}"


def check_witness(budget: Budget, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(20):
        spec = _random_hypercube(rng)
        wit = densities.richness_witness(spec.r, spec.m)
        if abs(wit.alpha - (1.0 - 1.0 / spec.r)) > 1e-12:
            return False, "alpha mismatch"
        for q0, q1 in wit.pairs:
            worst = max(worst, abs(densities.tv_distance(q0, q1) - wit.alpha))
        rebuilt = wit.assemble(spec.bits)
        direct = densities.hypercube_density(spec)
        grid = np.linspace(0.0, 1.0, 4 * spec.m + 1)[:-1]
        worst = max(worst, np.abs(rebuilt(grid) - direct(grid)).max())
    return worst <= 1e-12, f"max_err={worst:.3e}"


def check_ratio_mean(budget: Budget, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(100):
        ratio = upper.uniform_ratio(_random_density(rng))
        worst = max(worst, abs(ratio.mean - 1.0))
    return worst <= 1e-12, f"max_err={worst:.3e}"


def check_mad_mc_agreement(budget: Budget, rng) -> tuple[bool, str]:
    worst = 0.0
    for r, k, seed in ((2.0, 2, 11), (4.0, 5, 12), (1.5, 3, 13)):
        f = densities.hypercube_density(densities.HypercubeSpec(r, 2, (0, 1)))
        exact = upper.exact_mad(upper.uniform_ratio(f).two_level, k)
        est, hw = upper.mc_mad(f, k, budget.mc_draws, seed=seed)
        worst = max(worst, abs(est - exact) / max(hw, 1e-300))
    return worst <= 1.0, f"worst_dev_over_ci={worst:.2f}"


def check_mad_bounds(budget: Budget, rng) -> tuple[bool, str]:
    ks = [1, 2, 4, 16, 64, 256, 1024, 10_000]
    for r in (1.5, 2.0, 4.0):
        cert = upper.hoeffding_certificate(r)
        ratio = upper.uniform_ratio(
            densities.hypercube_density(densities.HypercubeSpec(r, 1, (0,)))
        ).two_level
        for k in ks:
            mad = upper.exact_mad(ratio, k)
            if mad / 2.0 >= upper.certificate_upper_bound(cert, k - 1):
                return False, f"closed form not dominating at r={r}, k={k}"
            if mad < upper.mad_floor(ratio, k):
                return False, f"floor violated at r={r}, k={k}"
    scaled = [upper.exact_mad(ratio, k) * math.sqrt(k) for k in ks]
    return True, f"r=4 mad*sqrt(k) in [{min(scaled):.3f}, {max(scaled):.3f}]"


def check_chi2_quadrature(budget: Budget, rng) -> tuple[bool, str]:
    worst = 0.0
    for C, s in ((2.0, 0.5), (1.0, 1.0), (3.0, 0.125), (1.5, 2.0)):
        x0 = math.sqrt(math.log(C) / s)
        quad = _simpson(
            lambda x: x**2 * 2.0 * s * x * C * np.exp(-s * x * x),
            x0, x0 + 40.0 / math.sqrt(s))
        closed = upper.chi2_radius(upper.CsCertificate(C, s))
        worst = max(worst, abs(quad - closed))
    return worst <= 1e-8, f"max_err={worst:.3e}"


def check_inject_positions(budget: Budget, rng) -> tuple[bool, str]:
    reps = budget.inject_reps
    out = upper.inject_kernel(np.tile([0.25, 0.75], (reps, 1)), rng)
    pos = np.where(out[:, 0] != 0.25, 0, np.where(out[:, 1] != 0.75, 1, 2))
    worst = _worst_z(np.bincount(pos, minlength=3), reps, np.full(3, 1 / 3))
    return worst <= 4.0, f"reps={reps}, worst_z={worst:.2f}"


def check_inject_mixture(budget: Budget, rng) -> tuple[bool, str]:
    f = densities.hypercube_density(densities.HypercubeSpec(2.0, 1, (0,)))
    n, reps = 3, budget.inject_reps
    p_cell = densities.density_integral(f, 0.0, 0.5)
    ref = pbin.pbin_pmf([p_cell] * n + [0.5])
    x = densities.sample_density(f, reps * n, rng).reshape(reps, n)
    counts = np.count_nonzero(upper.inject_kernel(x, rng) < 0.5, axis=1)
    worst = _worst_z(np.bincount(counts, minlength=ref.size), reps, ref)
    return worst <= 4.0, f"worst_z={worst:.2f}"


def check_risk_curve(budget: Budget, rng) -> tuple[bool, str]:
    worst = dp_excess = 0.0
    for r in (1.5, 2.0, 4.0):
        curve = lower.bayes_risk_curve(r, budget.curve_n)
        v = curve.values
        if v[0] != 0.5 or np.any(np.diff(v) > 0.0):
            return False, f"curve shape violated at r={r}"
        # r(2h) = r(2h-1) exactly, so the curve's even n repeat its odd n.
        if v[2::2].tobytes() != v[1:-1:2].tobytes():
            return False, f"even n differs from the odd n before it at r={r}"
        worst = max(worst, abs(v[1] - 1.0 / (2.0 * r)))
        # one-observation drop equals alpha/2 for this family
        worst = max(worst, abs((v[0] - v[1]) - (1.0 - 1.0 / r) / 2.0))
        dp = dp_risk_curve(r, budget.curve_n)
        dp_excess = max(dp_excess, float(
            (np.abs(v - dp) / (1e-13 * dp + 1e-17)).max()))
    return worst <= 1e-12 and dp_excess <= 1.0, (
        f"max_err={worst:.3e}, dp_dev_over_tol={dp_excess:.2f}")


def check_cube_exact_vs_mc(budget: Budget, rng) -> tuple[bool, str]:
    n, r = 2, 2.0
    exact = lower.cube_lower(n, r)
    per_l, ci = mc_cube_gaps(n, r, budget.mc_samples, 21)
    dev = np.abs(per_l - exact.per_l) / np.maximum(ci, 1e-300)
    gf_err = 0.0
    for r_gf in (1.5, 2.0, 4.0):
        risks = lower.bayes_risk_curve(r_gf, 5).values  # prefix-stable
        for enum in lower.cube_lowers(r_gf, range(1, 5)):
            gf = pbin._spread(enum.m, *lower._gf_survival_window(
                enum.n, enum.m, risks[:enum.n + 2]))
            gf_err = max(gf_err, np.abs(gf - enum.per_l).max())
    return (bool(dev.max() <= 1.0 and gf_err <= EXACT_TOL),
            f"worst_dev_over_ci={dev.max():.2f}, gf_vs_enum={gf_err:.1e}")


def check_cube_bounds(budget: Budget, rng) -> tuple[bool, str]:
    margin = math.inf
    for r in (1.5, 2.0, 4.0):
        for n in budget.cube_ns:
            res = lower.cube_lower(n, r)
            if res.per_l.min() < 0.0:
                return False, f"negative per-l delta at r={r}, n={n}"
            margin = min(margin, res.delta + res.ci_at_star - res.closed)
    return margin >= 0.0, f"min_margin={margin:.4f}"


def check_mixedpbin(budget: Budget, rng) -> tuple[bool, str]:
    lines = []
    ok = True
    curves = {r: lower.bayes_risk_curve(r, 9).values for r in (1.5, 2.0, 4.0)}
    for m in (1, 2, 4, 9):
        for r, curve in curves.items():
            for n in (max(1, round(m / 2)), m):
                table = curve[:n + 1]  # the curve is prefix-stable
                res = lower.mixedpbin_mass(n, m, np.full(m, 1.0 / m), table)
                scaled = res.mass * math.sqrt(m)
                ok = ok and scaled >= 1.0 / 6.0
                lines.append(scaled)
    return ok, (f"min_mass*sqrt(m)={min(lines):.4f}, "
                f"cases_above_1/3={sum(v >= 1/3 for v in lines)}/{len(lines)}")


# Two-sided level of a 4-sigma normal band, about 6.3e-5.
_SIM_LEVEL = math.erfc(4.0 / math.sqrt(2.0))


def _binom_two_sided(hits: int, trials: int, p: float) -> float:
    """Exact two-sided tail probability of ``hits`` under Bin(trials, p):
    twice the smaller of P(X <= hits) and P(X >= hits), capped at 1."""
    pmf = pbin.binom_pmf(trials, p)
    return float(min(1.0, 2.0 * min(pmf[:hits + 1].sum(), pmf[hits:].sum())))


def simulate_multitest_risk(
    risks: Sequence[float], l: int, trials: int, rng: np.random.Generator
) -> float:
    """Empirical probability that independent per-cell tests with error
    probabilities ``risks`` err in at least ``l`` cells; converges to
    P(PBin(risks) >= l)."""
    p = np.asarray(risks, dtype=float)
    if p.ndim != 1 or p.size < 1 or p.min() < 0.0 or p.max() > 1.0:
        raise ValueError("risks must be probabilities")
    if not 1 <= l <= p.size:
        raise ValueError("requires 1 <= l <= len(risks)")
    if trials < 10_000:
        raise ValueError("requires trials >= 10000")
    hits = 0
    batch = max(1, (1 << 22) // p.size)
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        errors = rng.random((b, p.size)) < p
        hits += int(np.count_nonzero(errors.sum(axis=1) >= l))
        done += b
    return hits / trials


def simulate_mixture_risk(
    component_risks: Sequence[float],
    weights: Sequence[float],
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Empirical risk of deciding in a randomly selected component
    experiment; converges to the weighted average of component risks."""
    p = np.asarray(component_risks, dtype=float)
    w = np.asarray(weights, dtype=float)
    if p.shape != w.shape or p.ndim != 1 or p.size < 1:
        raise ValueError("risks and weights must be equal-length sequences")
    if p.min() < 0.0 or p.max() > 1.0:
        raise ValueError("risks must be probabilities")
    if trials < 10_000:
        raise ValueError("requires trials >= 10000")
    component = rng.choice(p.size, size=trials, p=w / w.sum())
    errors = rng.random(trials) < p[component]
    return float(np.count_nonzero(errors)) / trials


def check_simulations(budget: Budget, rng) -> tuple[bool, str]:
    # Exact Binomial tails, not a normal z-score: the targets can lie near
    # 0 or 1, where a handful of misses already reads as 4+ sigma.
    worst = 1.0
    trials = max(budget.sim_trials, 10_000)
    for _ in range(5):
        m = int(rng.integers(1, 6))
        risks = rng.random(m)
        l = int(rng.integers(1, m + 1))
        target = pbin.pbin_survival(risks, l)
        est = simulate_multitest_risk(risks, l, trials, rng)
        worst = min(worst, _binom_two_sided(round(est * trials), trials,
                                            target))

        w = rng.random(m)
        w /= w.sum()
        target = float(risks @ w)
        est = simulate_mixture_risk(risks, w, trials, rng)
        worst = min(worst, _binom_two_sided(round(est * trials), trials,
                                            target))
    return bool(worst >= _SIM_LEVEL), f"min_two_sided_p={worst:.2e}"


def check_rate_fit(budget: Budget, rng) -> tuple[bool, str]:
    fit = rates.rate_fit([(n, 7.0 / math.sqrt(n + 1.0))
                          for n in (1, 3, 7, 15, 31)])
    err = max(abs(fit.exponent + 0.5), abs(fit.amplitude - 7.0))
    flat = rates.rate_fit([(n, 3.0) for n in (1, 2, 3, 4)])
    err = max(err, abs(flat.exponent))
    return err <= 1e-9, f"max_err={err:.3e}"


def check_report_orderings(budget: Budget, rng) -> tuple[bool, str]:
    reports = rates.bound_sweep(2.0, list(budget.cube_ns))
    # BoundReport validates the orderings on construction; re-check scaling.
    scaled = [rep.upper_closed * math.sqrt(rep.n + 1.0) for rep in reports]
    spread = max(scaled) - min(scaled)
    sandwich = all(rep.lower - rep.lower_ci <= rep.upper_exact
                   for rep in reports)
    return spread <= 1e-12 and sandwich, (
        f"upper_closed*sqrt(n+1) spread={spread:.2e}, sandwich={sandwich}")


def check_sweep_determinism(budget: Budget, rng) -> tuple[bool, str]:
    ns = [4, 8]
    csv1 = rates.reports_to_csv(rates.bound_sweep(2.0, ns))
    csv2 = rates.reports_to_csv(rates.bound_sweep(2.0, ns))
    f = densities.hypercube_density(densities.HypercubeSpec(2.0, 2, (0, 1)))
    mad1 = upper.mc_mad(f, 2, budget.mc_samples, seed=9, workers=1)
    mad3 = upper.mc_mad(f, 2, budget.mc_samples, seed=9, workers=3)
    same = csv1 == csv2 and mad1 == mad3
    return same, f"identical={same}"


CHECKS: tuple[tuple[str, Callable], ...] = (
    ("spot-values", check_spot_values),
    ("pbin-pmf-vs-enumeration", check_pmf_enumeration),
    ("pbin-pmf-permutation-invariance", check_pmf_permutation),
    ("pbin-survival-stochastic-monotonicity", check_survival_monotone),
    ("pbin-shift-identity", check_shift_identity),
    ("multinomial-enumeration-total-mass", check_multinomial_enumeration),
    ("multinomial-sample-frequencies", check_multinomial_frequencies),
    ("density-construction", check_density_construction),
    ("tv-triangle-inequality", check_tv_triangle),
    ("tv-bit-flip-identity", check_tv_bit_flips),
    ("sampler-cell-frequencies", check_sampler_frequencies),
    ("richness-witness", check_witness),
    ("ratio-unit-mean", check_ratio_mean),
    ("mad-exact-vs-mc", check_mad_mc_agreement),
    ("mad-closed-form-and-floor", check_mad_bounds),
    ("chi2-radius-quadrature", check_chi2_quadrature),
    ("inject-position-law", check_inject_positions),
    ("inject-mixture-law", check_inject_mixture),
    ("bayes-risk-curve", check_risk_curve),
    ("cube-exact-vs-mc", check_cube_exact_vs_mc),
    ("cube-dominates-closed-form", check_cube_bounds),
    ("mixedpbin-mass-floor", check_mixedpbin),
    ("multitest-and-mixture-simulations", check_simulations),
    ("rate-fit-power-law", check_rate_fit),
    ("report-orderings", check_report_orderings),
    ("sweep-worker-determinism", check_sweep_determinism),
)


def run_verify(quick: bool = False, seed: int = 0, out=print) -> int:
    """Run every property check; returns the number of failures."""
    budget = QUICK if quick else FULL
    failures = 0
    for name, fn in CHECKS:
        rng = child_rng(seed, f"verify:{name}", 0)
        try:
            ok, msg = fn(budget, rng)
        except Exception as exc:  # a crashed check is a failed check
            ok, msg = False, f"error={exc!r}"
        failures += not ok
        out(f"{'PASS' if ok else 'FAIL'} {name}: {msg}")
    out(f"done: {len(CHECKS)} properties, {failures} failures")
    return failures
