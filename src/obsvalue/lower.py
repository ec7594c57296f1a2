"""Lower bounds via per-cell testing risks and mixed Poisson-binomial laws.

Splitting the sample space into m cells turns n observations into a
multinomial allocation of per-cell sample sizes; the best joint test of the
per-cell two-point hypotheses errs in >= l cells with probability
P(PBin(r_1(N_1), ..., r_m(N_m)) >= l), where r_j(.) is the per-cell Bayes
risk curve.  The drop of that survival when one more observation arrives is a
valid deficiency lower bound for every threshold l; this module computes it,
together with the closed-form bound alpha * beta / (12 sqrt(2) sqrt(n+1)) it
certifies.

The risk curve costs O(n) for each r: each r(n) is a Binomial upper tail,
summed forward from its first term (``bayes_risk_curve``).  Method dispatch
of ``cube_lower`` and ``mixedpbin_mass``: composition enumeration while its
table stays under the guard (``method="exact"``), otherwise an exact
generating-function engine (``method="gf"``), whose DFT sizes in x and in z
are both of order sqrt(n) for the 2n-cell witness, as the x- and z-laws
concentrate there, so a call costs about n log n.  Neither draws random
numbers.  The coupled Monte Carlo reference estimators that cross-check
both, and the quadratic Bernoulli-step risk curve, live in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pbin import (_as_weights, _block_rows, _poisson_pmf, enumeration_fits,
                   multinomial_enumerate, pbin_pmf_rows)


@dataclass(frozen=True)
class RiskCurve:
    """Per-cell minimum Bayes testing risks n -> r(n), nonincreasing from
    r(0) = 1/2."""

    r: float
    values: np.ndarray

    def __post_init__(self):
        if not 1.0 < self.r < math.inf:
            raise ValueError("requires finite r > 1")
        v = self.values
        if v[0] != 0.5:
            raise ValueError("r(0) must equal 1/2 exactly")
        if v.min() < 0.0 or v.max() > 0.5:
            raise ValueError("risks must lie in [0, 1/2]")
        for lo in range(0, v.size - 1, _CURVE_BLOCK):
            block = v[lo:lo + _CURVE_BLOCK + 1]  # overlaps the next by one
            if np.any(block[1:] > block[:-1]):
                raise ValueError("risks must be nonincreasing")

    @property
    def n_max(self) -> int:
        return self.values.size - 1


# n values per block of ``bayes_risk_curve``; bounds its extra memory (a
# few arrays of this many entries) for any n_max.
_CURVE_BLOCK = 1 << 16


def bayes_risk_curve(r: float, n_max: int) -> RiskCurve:
    """Exact risks r(n) = (1/2) sum_k min(Bin(n, a)(k), Bin(n, 1-a)(k)) with
    a = 1/(2r): the left-half count within a cell is a sufficient statistic
    for the cell's two-level pair, whose left-half masses are a and 1 - a.

    Tail identity: r(n) = P(B > n/2) + P(B = n/2) / 2 for B ~ Bin(n, a).
    Proof: Bin(n, a)(k) / Bin(n, 1-a)(k) = (a/(1-a))^(2k-n), so the minimum
    is Bin(n, a)(k) for k > n/2 and Bin(n, 1-a)(k) = Bin(n, a)(n-k) for
    k < n/2, and the two halves are the same upper tail.

    The tail is summed forward from its first term t0 = Bin(n, a)(k0),
    k0 = ceil(n/2), h = floor(n/2): r(n) = t0 (w0 + sum_{j>=1} prod_{i<j}
    rho (h-i)/(k0+1+i)), with w0 = 1/2 for even n and 1 for odd n, and
    rho = a/(1-a).  At most h terms are nonzero, and the sum stops where
    what it drops is below 2^-60 of it: every ratio is at most rho, which
    gives a count L that depends on r alone, and the j-th term is at most
    exp(-j^2/(h+j)), which gives a count of order sqrt(h log h) for r near
    1, where L is large.  t0 is C(2h, h) 4^-h (4a(1-a))^h, times
    (n/(n+1))/r for odd n: the central binomial is a running product of
    (2h-1)/(2h), and the power is exp(h s) with s = log(4a(1-a)), taken
    by log1p(-((r-1)/r)^2) near r = 1.  Its error is then of order
    |h s| eps, at most 745 eps for any t0 that does not underflow, where
    a running product of the rounded 4a(1-a) would carry h times its
    rounding error.  Only sums and products of positive terms enter, so
    tiny tails keep their relative accuracy, and every operation on one n
    is the same whatever n_max is: the curve is prefix-stable bit for bit.

    Cost: O(n_max min(L, sqrt(n_max log n_max))) operations, linear in
    n_max for fixed r (L = 38 at r = 2) and never above the n_max^2/2 of
    the Bernoulli-step DP (``verify.dp_risk_curve``); the extra memory is a
    few arrays of ``_CURVE_BLOCK`` entries.
    """
    if not 1.0 < r < math.inf:
        raise ValueError("requires finite r > 1")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    a = 0.5 / r
    rho = a / (1.0 - a)
    d = (r - 1.0) / r  # 1 - 2a, without the cancellation near r = 1
    s = math.log1p(-d * d) if d < 0.7 else math.log(4.0 * a * (1.0 - a))
    # The terms after the L-th add up to at most rho^(L+1) / (1 - rho)
    # times t0, and the sum is at least t0 / 2.
    L = max(0, math.ceil(math.log(2.0 ** -61 * (1.0 - rho)) / math.log(rho))
            - 1)
    values = np.empty(n_max + 1)
    central = 1.0  # C(2h, h) 4^-h at the last h of the previous block
    for lo in range(0, n_max + 1, _CURVE_BLOCK):  # lo is even
        if s * (lo >> 1) < -746.0:  # exp(h s), so every t0 from here, is 0
            values[lo:] = 0.0
            break
        n = np.arange(lo, min(lo + _CURVE_BLOCK, n_max + 1))
        h = n >> 1
        hs = np.arange(h[0], h[-1] + 1)  # the block's distinct h
        q = np.maximum(hs - 0.5, 0.5) / np.maximum(hs, 0.5)  # (2h-1)/(2h)
        q[0] *= central
        np.cumprod(q, out=q)
        central = q[-1]
        q *= np.fromiter((math.exp(s * j) for j in hs.tolist()), float,
                         hs.size)
        t0 = q[h - hs[0]]
        t0[1::2] *= n[1::2] / (n[1::2] + 1.0) / r
        acc = np.ones(n.size)
        acc[::2] = 0.5
        term = np.ones(n.size)
        k1 = n - h + 1
        # Terms per row.  From the j-th term on, the ratios are at most
        # (h-j)/(h+j+1), so what is left is at most exp(-j^2/(h+j))
        # (h+j+1)/(2j+1) <= 2^-61 once j^2 >= (h+j) c with c >= log(2^61
        # (h+1)); c is taken at the block's last possible h, so each row's
        # count depends on its n alone and does not decrease along the block.
        c = (61 + ((lo + _CURVE_BLOCK) >> 1).bit_length()) * math.log(2.0)
        stop = np.minimum(np.minimum(h, L), np.ceil(c + np.sqrt(h * c)))
        # The i-th pass updates the rows from f on, those with stop > i.
        firsts = np.searchsorted(stop, np.arange(stop[-1]), side="right")
        for i, f in enumerate(firsts.tolist()):
            term[f:] *= (h[f:] - i) * rho / (k1[f:] + i)
            acc[f:] += term[f:]
        np.multiply(t0, acc, out=values[lo:lo + n.size])
    # The curve is nonincreasing with exactly-flat steps; clamp out
    # last-ulp rounding disagreements between neighbouring evaluations.
    np.minimum.accumulate(values, out=values)
    return RiskCurve(r=r, values=values)


def richness_lower_bound(alpha: float, beta: float, n: int) -> float:
    """Closed-form deficiency lower bound alpha*beta / (12 sqrt(2) sqrt(n+1))
    for a model that is (2n, alpha, beta)-rich."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("requires alpha in (0, 1]")
    if not 0.0 < beta <= 1.0:
        raise ValueError("requires beta in (0, 1]")
    if n < 1:
        raise ValueError("requires n >= 1")
    return alpha * beta / (12.0 * math.sqrt(2.0) * math.sqrt(n + 1.0))


@dataclass(frozen=True)
class CubeLowerResult:
    """Survival-gap lower bound over the 2n-cell witness for one n.

    ``per_l[l-1]`` is the gap at threshold l; ``delta`` its maximum (at
    ``l_star``) and ``delta_avg`` the best average of two adjacent
    thresholds.  ``method`` is "exact" or "gf"; both are exact, so ``ci``
    (3-sigma half-widths) is all zeros and ``samples`` is 0.  Both fields
    stay in the report format.
    """

    r: float
    n: int
    m: int
    l_star: int
    delta: float
    delta_avg: float
    per_l: np.ndarray
    ci: np.ndarray
    method: str
    samples: int = 0

    @property
    def ci_at_star(self) -> float:
        return float(self.ci[self.l_star - 1])


def _exact_survival_gap(
    n: int, m: int, risks: np.ndarray
) -> np.ndarray:
    """per-l gaps E[P(PBin(r(N)) >= l)] - E[P(PBin(r(N'))) >= l)], exactly.

    Each enumeration's table is walked in blocks of rows: a block's risks,
    their PBin pmfs (``pbin_pmf_rows``) and reversed cumsums, the
    survivals, are made and dropped in turn, so the extra memory is a few
    blocks besides the compact count table.  The expectation over rows is
    one sequential sum per threshold, in row order, carried from block to
    block: each block's product puts the carry in front of its rows as a
    row of weight 1, and reads the survivals through the same reversed
    view as a dense ``probs @ surv`` would, a negative stride that keeps
    numpy on its non-BLAS loop.  So every gap is bit-identical to the
    dense product.  That order is kept although its rounding, 1.3e-12 at
    n = 7, is more than a pairwise sum's: the benchmark reference records
    these values within 1e-12, until enumeration becomes an oracle
    (ROADMAP item 2).
    """
    weights = np.full(m, 1.0 / m)
    step = _block_rows(m + 1)
    acc = []
    for trials in (n, n + 1):
        counts, probs = multinomial_enumerate(trials, weights)
        rows = probs.size
        # Row 0 carries the sum so far; surv = buf[:, ::-1] as in the
        # dense formula.
        vec = np.empty(min(step, rows) + 1)
        vec[0] = 1.0
        buf = np.empty((vec.size, m + 1))
        pmfs = np.empty((vec.size - 1, m + 1))
        total = np.zeros(m + 1)
        for lo in range(0, rows, step):
            b = min(step, rows - lo)
            pbin_pmf_rows(risks[counts[lo:lo + b]], out=pmfs[:b])
            buf[0] = total[::-1]
            np.cumsum(pmfs[:b, ::-1], axis=1, out=buf[1:b + 1])
            vec[1:b + 1] = probs[lo:lo + b]
            total = vec[:b + 1] @ buf[:b + 1, ::-1]
        acc.append(total)
    return (acc[0] - acc[1])[1:]


# The generating-function engine's DFT size K in x satisfies
# K(K+1) / (2(t+K)) >= _GF_ALIAS, which keeps the coefficient mass it folds
# onto [x^t] below e^-45 (3e-20) of the total.
_GF_ALIAS = 45
# Complex entries per (z, x) block of the engine; bounds its memory
# (about 1 MiB an array) for any n.
_GF_BLOCK = 1 << 16


def _mul_power(acc: np.ndarray, base: np.ndarray, mult: int) -> None:
    """In place, acc *= base ** mult for an integer mult >= 0, by repeated
    squaring over the bits of mult from the lowest: floor(log2 mult)
    squarings of ``base`` (which is overwritten) and one multiply into
    ``acc`` per set bit.  The first rounding of a square is raised to the
    power mult/2, so the relative error is of order mult * eps, as for any
    double-precision method."""
    while mult:
        if mult & 1:
            acc *= base
        mult >>= 1
        if mult:
            base *= base


def _gf_z_size(t: int, size: int) -> int:
    """Number K_z of z-nodes of ``_gf_mixed_pbin`` for t observations and
    size - 1 Bernoulli cells: min(size, 2u + 3) for the least u with
    2 exp(-2u^2/(size - 1)) sqrt(2 pi t) e^(1/(12t)) <= e^-45."""
    level = (_GF_ALIAS + math.log(2.0) + 0.5 * math.log(2.0 * math.pi * t)
             + 1.0 / (12.0 * t))
    u = math.ceil(math.sqrt((size - 1) * level / 2.0))
    return min(size, 2 * u + 3)


def _gf_mixed_pbin(
    t: int,
    groups: Sequence[tuple[int, float]],
    table: np.ndarray,
    tagged: tuple[float, np.ndarray] | None = None,
) -> np.ndarray:
    """Exact E over N ~ Mult(t, w) of PBin(f(N_1), ..., f(N_m)) pmf by
    generating functions; returns the d+1 coefficients in z, d = sum of
    the multiplicities.

    ``groups`` lists (multiplicity, weight) of cells sharing a weight, and
    ``table`` is f on {0, ..., t}.  ``tagged`` = (weight, c) adds one more
    cell that contributes the factor c(N) instead of a Bernoulli.

    Poissonization: with independent N_j ~ Pois(t w_j) conditioned on their
    sum t, the target is [x^t] prod_j sum_k Pois(k; t w_j)
    (1 - f(k) + f(k) z) x^k, normalized by the same coefficient with every
    factor's bracket replaced by 1 (which is Pois(t; t)).  The x-coefficient
    is read off by a K-point DFT on the unit circle, where each group's
    factor is raised to its multiplicity pointwise; the product's
    coefficients are bounded by Pois(j; t), so what the DFT folds in from
    j = t +- K is below Pois(t; t) e^-K(K+1)/(2(t+K)) (see ``_GF_ALIAS``),
    for K of order sqrt(t) rather than the product's degree.  The
    z-coefficients come from the values at K_z roots of unity by an
    inverse real DFT, keeping the half of them that conjugate symmetry
    determines; the z-nodes are processed in blocks of at most
    ``_GF_BLOCK`` entries.

    Windowed z-DFT: with K_z < d + 1 nodes the inverse DFT returns the
    coefficients folded mod K_z, F_q = sum over l = q (mod K_z) of [z^l].
    They are unfolded on the window W of K_z consecutive thresholds
    centred at the Poissonized mean mu, and the thresholds outside W are
    reported as 0, so each coefficient is off by at most the mass outside
    W.  Proof that this mass is below e^-45: under the Poissonization the
    d Bernoulli cells are independent, so their error count L is a sum of
    d independent {0, 1} variables, and Hoeffding's inequality (1963)
    gives P(|L - mu| >= u) <= 2 exp(-2u^2/d).  Here mu = sum_j sum_k
    Pois(k; t w_j) f(k) with each law normalized on {0, ..., t}; this is
    the exact mean once f is extended by that cell's mean beyond t, where
    its values do not matter, as the total is t.  Conditioning on the
    total multiplies a probability by at most 1/Pois(t; t) <= sqrt(2 pi t)
    e^(1/(12t)) (Robbins' Stirling bound), and the tagged factor, in
    [0, 1] as the engine uses it, only lowers the mass.  ``_gf_z_size``
    picks the least u for which 2 exp(-2u^2/d) sqrt(2 pi t) e^(1/(12t))
    <= e^-45, the level of ``_GF_ALIAS``, and K_z = 2u + 3, so that W
    holds every l with |l - mu| < u + 1 and the rounding of mu is
    covered; K_z is capped at d + 1, where nothing is folded and the
    arithmetic is that of the full DFT.

    Each factor's Poisson law is needed only up to a constant, which
    cancels against the normalizer (the ``_GF_ALIAS`` bound is relative to
    it); ``pbin._poisson_pmf`` divides it by its sum, so no factor exceeds
    1 on the unit circle.  Anchored at 1 at its mode instead, the cube's
    factor at x = 1 would be e^(1/2), and its (2n-1)-th power would
    overflow a double near n = 710.

    Cost: K (K_z/2 + 1) complex entries, with K_z of order
    sqrt(d (45 + log t)) and at most d + 1, each taking about 2 log2(M)
    complex multiplies per group of multiplicity M (``_mul_power``), plus
    the DFTs.  The powers are not taken with ``**``: numpy squares only below
    exponent 100 and above that calls libm ``cpow``, exp(M log w), which is
    several times slower per entry and less accurate.
    """
    fft = np.fft  # loaded on first use, off the import path
    size = 1 + sum(mult for mult, _ in groups)
    K = math.ceil((2 * _GF_ALIAS - 1 + math.sqrt(
        (2 * _GF_ALIAS - 1) ** 2 + 8 * _GF_ALIAS * t)) / 2)
    wrap = np.arange(t + 1) % K

    def at_nodes(coef):  # sum_k coef[k] x^k at x = e^(-2 pi i s / K)
        return fft.fft(np.bincount(wrap, weights=coef, minlength=K))

    factors, plain, mean = [], np.ones(K, dtype=complex), 0.0
    for mult, weight in groups:
        pois = _poisson_pmf(t, t * weight)
        mean += mult * float(pois @ table)
        a, b = at_nodes(pois * (1.0 - table)), at_nodes(pois * table)
        factors.append((mult, a, b))
        _mul_power(plain, a + b, mult)
    if tagged is not None:
        weight, c = tagged
        pois = _poisson_pmf(t, t * weight)
        extra = at_nodes(pois * c)
        plain *= at_nodes(pois)
    else:
        extra = np.ones(K, dtype=complex)
    # x^-t at the nodes, divided by K: the DFT row that extracts [x^t].
    pick = np.exp(2j * math.pi * ((t * np.arange(K)) % K) / K) / K
    norm = (plain @ pick).real

    K_z = _gf_z_size(t, size)
    zs = np.exp(-2j * math.pi * np.arange(K_z // 2 + 1) / K_z)
    values = np.empty(zs.size, dtype=complex)
    step = max(1, _GF_BLOCK // K)
    acc_buf = np.empty((min(step, zs.size), K), dtype=complex)
    base_buf = np.empty_like(acc_buf)
    for lo in range(0, zs.size, step):
        z = zs[lo:lo + step, None]
        acc, base = acc_buf[:z.shape[0]], base_buf[:z.shape[0]]
        acc[:] = extra
        for mult, a, b in factors:
            np.multiply(z, b, out=base)
            base += a
            _mul_power(acc, base, mult)
        values[lo:lo + step] = acc @ pick
    folded = fft.irfft(values / norm, n=K_z)
    start = min(max(math.floor(mean) - (K_z - 1) // 2, 0), size - K_z)
    coef = np.zeros(size)
    coef[start:start + K_z] = np.roll(folded, -start)
    # Every coefficient is an expectation of nonnegative terms; what the
    # DFTs leave below zero (about 1e-17) is rounding, not mass.
    return np.maximum(coef, 0.0)


def _gf_survival_gap(n: int, m: int, risks: np.ndarray) -> np.ndarray:
    """per-l gaps of the 2n-cell witness by the coupled form.

    With the extra observation placed in a tagged cell, the gap at
    threshold l is E[(r(c) - r(c+1)) P(PBin(other cells' risks) = l - 1)],
    c the tagged cell's count (shift identity): one generating function
    over m - 1 Bernoulli cells and the tagged cell, with no difference of
    two survival functions.
    """
    return _gf_mixed_pbin(n, [(m - 1, 1.0 / m)], risks[:n + 1],
                          tagged=(1.0 / m, risks[:n + 1] - risks[1:n + 2]))


def cube_lower(n: int, r: float, *, _risks: np.ndarray | None = None
               ) -> CubeLowerResult:
    """Deficiency lower bound from the 2n-cell uniform-weight witness.

    Computes, for every threshold l, the drop in the best multi-test risk
    when the n-observation multinomial allocation gains one extra
    observation, and returns the best threshold.  Composition enumeration
    while both enumerations stay under the guard (``method="exact"``),
    otherwise the generating-function engine (``method="gf"``); both are
    exact up to rounding, so ``ci`` is all zeros.

    ``_risks``, for sweeps only, is ``bayes_risk_curve(r, N).values`` for
    some N > n; the curve is prefix-stable, so its first n + 2 values are
    those of ``bayes_risk_curve(r, n + 1)`` bit for bit.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    if not 1.0 < r < math.inf:
        raise ValueError("requires finite r > 1")
    m = 2 * n
    risks = (bayes_risk_curve(r, n + 1).values if _risks is None
             else _risks[:n + 2])
    if enumeration_fits(n + 1, m):  # the larger of the two enumerations
        per_l, method = _exact_survival_gap(n, m, risks), "exact"
    else:
        per_l, method = _gf_survival_gap(n, m, risks), "gf"
    l_star = int(np.argmax(per_l)) + 1
    pair_avg = 0.5 * (per_l[:-1] + per_l[1:])
    return CubeLowerResult(
        r=r, n=n, m=m, l_star=l_star, delta=float(per_l[l_star - 1]),
        delta_avg=float(pair_avg.max()), per_l=per_l, ci=np.zeros(m),
        method=method,
    )


@dataclass(frozen=True)
class MixedPbinResult:
    """Largest point mass of a multinomially mixed Poisson-binomial law.

    ``method`` is "exact" or "gf"; ``ci`` is all zeros and ``samples`` 0,
    as for :class:`CubeLowerResult`.
    """

    k_star: int
    mass: float
    masses: np.ndarray
    ci: np.ndarray
    method: str
    samples: int = 0

    @property
    def ci_at_star(self) -> float:
        return float(self.ci[self.k_star])


def mixedpbin_mass(
    n: int,
    m: int,
    weights: Sequence[float],
    f: Sequence[float],
) -> MixedPbinResult:
    """Best outcome mass max_k E[P(PBin(f(N_1), ..., f(N_m)) = k)] with
    N ~ Mult(n, weights) and ``f`` a monotone table on {0, ..., n}.

    Composition enumeration under the guard (``method="exact"``), otherwise
    the generating-function engine over groups of equal weights
    (``method="gf"``); both are exact up to rounding, so ``ci`` is all
    zeros.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    if m < 1:
        raise ValueError("requires m >= 1")
    table = np.asarray(f, dtype=float)
    if table.ndim != 1 or table.size != n + 1:
        raise ValueError("f must tabulate {0, ..., n}")
    if not np.all(np.isfinite(table)) or table.min() < 0.0 or table.max() > 1.0:
        raise ValueError("f values must lie in [0, 1]")
    d = np.diff(table)
    if table.size > 1 and not (np.all(d >= 0.0) or np.all(d <= 0.0)):
        raise ValueError("f must be monotone (nonincreasing or nondecreasing)")
    w = np.asarray(weights, dtype=float)
    if w.shape != (m,):
        raise ValueError("need exactly m weights")
    w = _as_weights(w)
    if enumeration_fits(n, m):
        # One pmf table, filled a block of rows at a time, and one (BLAS)
        # product, as before the blocking: the masses keep their bits.
        counts, probs = multinomial_enumerate(n, w)
        pmfs = np.empty((probs.size, m + 1))
        step = _block_rows(m + 1)
        for lo in range(0, probs.size, step):
            pbin_pmf_rows(table[counts[lo:lo + step]], out=pmfs[lo:lo + step])
        masses = probs @ pmfs
        method = "exact"
    else:
        values, mults = np.unique(w / w.sum(), return_counts=True)
        groups = [(int(k), float(v)) for k, v in zip(mults, values)]
        masses, method = _gf_mixed_pbin(n, groups, table), "gf"
    k_star = int(np.argmax(masses))
    return MixedPbinResult(
        k_star=k_star, mass=float(masses[k_star]), masses=masses,
        ci=np.zeros(m + 1), method=method,
    )


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
