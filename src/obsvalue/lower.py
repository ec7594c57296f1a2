"""Lower bounds via per-cell testing risks and mixed Poisson-binomial laws.

Splitting the sample space into m cells turns n observations into a
multinomial allocation of per-cell sample sizes; the best joint test of the
per-cell two-point hypotheses errs in >= l cells with probability
P(PBin(r_1(N_1), ..., r_m(N_m)) >= l), where r_j(.) is the per-cell Bayes
risk curve.  The drop of that survival when one more observation arrives is a
valid deficiency lower bound for every threshold l; this module computes it,
together with the closed-form bound alpha * beta / (12 sqrt(2) sqrt(n+1)) it
certifies, for one n (``cube_lower``) or for many from one risk curve
(``cube_lowers``).

The risk curve costs O(1) a value, and nothing past the n where it
underflows to 0 (5188 at r = 2) but its output: each even n repeats the
odd n before it, and each odd n adds one term to the next odd n, from an
anchor every 256 h summed as a Binomial tail (``bayes_risk_curve``).
Method dispatch of ``cube_lower`` and ``mixedpbin_mass``: composition
enumeration while its table stays under the guard (``method="exact"``),
otherwise an exact generating-function engine (``method="gf"``).  The
enumeration is walked a block of rows at a time (``_enumeration_blocks``)
and no table of its terms is kept: ``cube_lower`` carries one sequential
sum from block to block, ``mixedpbin_mass`` adds one product a block.
The engine's DFT sizes in x and in z are both of order sqrt(n) for the
2n-cell witness, and of that grid it powers only the entries a bound
shows can matter, about 1100 at every n (``_gf_grid``).  So
``cube_lower`` costs its outputs, 5n + 2 floats under ``OUTPUT_BUDGET``,
plus a part flat in n: 14 ms at n = 2^20, where the dense grid takes
3.7 s (2 cores, numpy 2.4.6).  Neither path draws random numbers.  The
coupled Monte Carlo reference estimators that cross-check both, and the
quadratic Bernoulli-step risk curve, live in ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .constants import check_budget
from .pbin import (_as_weights, _block_rows, _poisson_band, _spread,
                   enumeration_fits, multinomial_enumerate, pbin_pmf_rows)


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
        step = _block_rows(1)  # bounds the check's memory for any n_max
        for lo in range(0, v.size - 1, step):
            block = v[lo:lo + step + 1]  # overlaps the next by one
            # <= rather than not >: a NaN fails it.
            if not np.all(block[1:] <= block[:-1]):
                raise ValueError("risks must be nonincreasing")
        # With r(0) = 1/2 and no increase, this bounds them all to [0, 1/2].
        if not v[-1] >= 0.0:
            raise ValueError("risks must lie in [0, 1/2]")


# h values per block of ``bayes_risk_curve``, one Binomial tail sum each.
_CURVE_ANCHOR = 256


def _anchor_sum(h: int, stop: int, rho: float) -> float:
    """1/2 + sum_{j=1}^{stop} prod_{i<j} rho (h-i)/(h+1+i), which is
    r(2h) / Bin(2h, a)(h), the tail summed forward from its first term.
    Each ratio and term is the one a Python loop would make, and the terms
    are added one at a time in order (a cumsum: numpy's ``sum`` adds a
    contiguous array pairwise)."""
    i = np.arange(stop)
    terms = np.empty(stop + 1)
    terms[0] = 0.5
    ratio = terms[1:]
    np.multiply(h - i, rho, out=ratio)
    ratio /= h + 1 + i
    np.cumprod(ratio, out=ratio)
    return float(np.cumsum(terms)[-1])


def bayes_risk_curve(r: float, n_max: int) -> RiskCurve:
    """Exact risks r(n) = (1/2) sum_k min(Bin(n, a)(k), Bin(n, 1-a)(k)) with
    a = 1/(2r): the left-half count within a cell is a sufficient statistic
    for the cell's two-level pair, whose left-half masses are a and 1 - a.

    Tail identity: r(n) = P(B_n > n/2) + P(B_n = n/2) / 2 for B_n ~ Bin(n,
    a).  Proof: Bin(n, a)(k) / Bin(n, 1-a)(k) = (a/(1-a))^(2k-n), so the
    minimum is Bin(n, a)(k) for k > n/2 and Bin(n, 1-a)(k) = Bin(n, a)(n-k)
    for k < n/2, and the two halves are the same upper tail.

    Two exact identities follow, with x = a(1-a), p_k = Bin(2h-1, a)(k),
    and a p_(h-1) = (1-a) p_h = C(2h-1, h) x^h:
    - r(2h) = r(2h-1).  B_2h is B_(2h-1) plus one Bernoulli(a), so r(2h) -
      P(B_(2h-1) > h) = a p_h + (a p_(h-1) + (1-a) p_h)/2 = p_h, and
      r(2h-1) = P(B_(2h-1) >= h) is the same.
    - r(2h-1) - r(2h+1) = D_h = (1-2a) C(2h-1, h) x^h.  B_(2h+1) is
      B_(2h-1) plus two Bernoulli(a), so the drop is the mass that leaves
      {>= h}, p_h (1-a)^2, less the mass that enters {>= h+1}, p_(h-1) a^2.
    With q_h = Bin(2h, a)(h) = C(2h, h) 4^-h exp(h s), s = log(4x), this
    is D_h = ((1-2a)/2) q_h, and r(2h-1) = sum_{j>=h} D_j.

    So the curve starts (1/2, a, a, r3, r3), r3 = P(B_3 >= 2) = a^2 (3 -
    2a) in three roundings (exact at r = 2, where r(3) = 5/32 and the sum
    of the D_h ends an ulp above it).  From h = 3 on, the h are
    taken in blocks of ``_CURVE_ANCHOR`` at fixed places.  Each block's
    last h is its anchor, r(2h) = q_h (1/2 + sum_{j>=1} prod_{i<j} rho
    (h-i)/(h+1+i)) with rho = a/(1-a): the Binomial tail summed forward
    from its first term (``_anchor_sum``).  The rest of the block is one
    reversed cumsum, r(2h-1) = r(2h+1) + D_h down to the block's first h,
    and each odd n's value is copied onto the even n after it.  The
    anchor's sum stops where what it drops is below 2^-60 of it: every
    ratio is at most rho, which gives a count L that depends on r alone,
    and the j-th term is at most exp(-j^2/(h+j)) (the comment at
    ``stop``), which gives a count of order sqrt(h log h) for r near 1,
    where L is large.

    Errors.  q_h is a running product of (2h-1)/(2h) times exp(h s), with
    s taken by log1p(-((r-1)/r)^2) near r = 1, and 1 - 2a is taken as
    (r-1)/r.  The power's error is then of order |h s| eps, at most 745
    eps for any q_h that does not underflow, where a running product of
    the rounded 4x would carry h times its rounding error.  Each value is
    a sum of positive terms only, the anchor and at most
    ``_CURVE_ANCHOR`` - 1 of the D_h, so tiny tails keep their relative
    accuracy, and the additions bring at most 255 eps of their own.  Once
    h s < -746, exp(h s) and every later value are exactly 0, and are not
    computed.

    Prefix stability.  The blocks sit at the same places and are computed
    whole whatever n_max is, with the central binomial carried from block
    to block, so every operation on one value is the same for any n_max:
    the curve is prefix-stable bit for bit, and r(2h) = r(2h-1) bit for
    bit.

    Cost: O(1) for each of the n0 = min(n_max, 1492/|s|) values above the
    underflow (n0 = 5188 at r = 2), plus one anchor of at most min(L,
    sqrt(h log h)) terms per block of 256 h (L = 38 at r = 2, 468 at
    r = 1.05), plus the output.  The extra memory is a few arrays of
    ``_CURVE_ANCHOR`` entries, and the validation's of ``pbin._BLOCK``.
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
    # times q_h, and the sum is at least q_h / 2.
    L = max(0, math.ceil(math.log(2.0 ** -61 * (1.0 - rho)) / math.log(rho))
            - 1)
    # From h = 746/|s| + 1 on, h s < -746 and q_h, D_h and r(2h-1) are 0.
    h_end = min((n_max + 1) // 2, math.ceil(746.0 / -s))
    values = np.zeros(n_max + 1)
    r3 = a * a * (3.0 - 2.0 * a)
    values[:5] = (0.5, a, a, r3, r3)[:n_max + 1]
    central = 0.375  # C(2h, h) 4^-h at the last h of the previous block
    for lo in range(3, h_end + 1, _CURVE_ANCHOR):
        h = np.arange(lo, lo + _CURVE_ANCHOR)
        q = (h - 0.5) / h  # (2h-1)/(2h)
        q[0] *= central
        np.cumprod(q, out=q)
        central = q[-1]
        # libm's exp: numpy's has an AVX-512 kernel of its own, so its last
        # bits would depend on the CPU.
        q *= np.fromiter(map(math.exp, (s * h).tolist()), float, h.size)
        # From the j-th term on, the anchor's ratios are at most
        # (h-j)/(h+j+1), so what is left is at most exp(-j^2/(h+j))
        # (h+j+1)/(2j+1) <= 2^-61 once j^2 >= (h+j) c with c >= log(2^61
        # (h+1)); at most h terms are nonzero.
        top = lo + _CURVE_ANCHOR - 1
        c = math.log(2.0 ** 61 * (top + 1))
        stop = min(top, L, math.ceil(c + math.sqrt(top * c)))
        # r(2h-1) for h = top, top - 1, ..., lo.
        odd = q[::-1] * (0.5 * d)
        odd[0] = q[-1] * _anchor_sum(top, stop, rho)
        np.cumsum(odd, out=odd)
        out = values[2 * lo - 1:2 * top + 1]  # n = 2 lo - 1, ..., 2 top
        out[:] = np.repeat(odd[::-1], 2)[:out.size]
    # The curve is nonincreasing with exactly-flat steps; clamp out
    # last-ulp rounding disagreements between neighbouring blocks.
    n_stop = min(n_max + 1, 2 * h_end + 1)
    np.minimum.accumulate(values[:n_stop], out=values[:n_stop])
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
    thresholds.  ``closed`` is the closed form the witness certifies,
    ``richness_lower_bound(1 - 1/r, 1, n)``: the witness is (2n, 1 - 1/r,
    1)-rich.  ``method`` is "exact" or "gf"; both are exact, so ``ci``
    (3-sigma half-widths) is all zeros and ``samples`` is 0.  Both fields
    stay in the report format.
    """

    r: float
    n: int
    m: int
    l_star: int
    delta: float
    delta_avg: float
    closed: float
    per_l: np.ndarray
    ci: np.ndarray
    method: str
    samples: int = 0

    @property
    def ci_at_star(self) -> float:
        return float(self.ci[self.l_star - 1])


def _enumeration_blocks(trials: int, weights: np.ndarray,
                        table: np.ndarray):
    """Mult(trials, weights)'s enumeration (``multinomial_enumerate``) a
    block of rows at a time, in row order: yields each block's ``(probs,
    pmfs)``, its rows' probabilities and the PBin pmfs of ``table`` at
    their counts (``pbin_pmf_rows``), about ``pbin._BLOCK`` entries.
    Besides the compact count table, the memory is a few blocks, whatever
    the number of rows; the tables are dropped once the walk ends."""
    counts, probs = multinomial_enumerate(trials, weights)
    step = _block_rows(weights.size + 1)
    for lo in range(0, probs.size, step):
        yield probs[lo:lo + step], pbin_pmf_rows(table[counts[lo:lo + step]])


def _survival_sums(trials: int, m: int, risks: np.ndarray) -> np.ndarray:
    """E[P(PBin(r(N)) >= l)] for l = 0, ..., m and N ~ Mult(trials) over m
    equal cells, by composition enumeration.

    The expectation over rows is one sequential sum per threshold, in row
    order, carried from block to block: each block's product puts the
    carry in front of its rows as a row of weight 1, and reads the
    survivals, the pmfs' reversed cumsums, through the reversed view that
    a dense ``probs @ surv`` would, a negative stride that keeps numpy on
    its non-BLAS loop.  So every sum is bit-identical to that dense
    product.  That order is kept although its rounding, 1.3e-12 in the
    gaps at n = 7, is more than a pairwise sum's: the benchmark reference
    records the gaps within 1e-12, until enumeration becomes an oracle
    (ROADMAP item 2).
    """
    total = np.zeros(m + 1)
    for probs, pmfs in _enumeration_blocks(trials, np.full(m, 1.0 / m),
                                           risks):
        # Row 0 carries the sum so far; surv = buf[:, ::-1].
        buf = np.empty((probs.size + 1, m + 1))
        buf[0] = total[::-1]
        np.cumsum(pmfs[:, ::-1], axis=1, out=buf[1:])
        total = np.concatenate(([1.0], probs)) @ buf[:, ::-1]
    return total


# The generating-function engine's DFT size K in x satisfies
# K(K+1) / (2(t+K)) >= _GF_ALIAS, which keeps the coefficient mass it folds
# onto [x^t] below e^-45 (3e-20) of the total.  The z-window and the pruned
# grid hold what they drop to the same level.
_GF_ALIAS = 45
# Grids of more than _GF_PRUNE_MIN entries are pruned to those that can
# reach that level (``_gf_grid``); smaller ones are powered whole, because
# finding the part worth powering takes about 40 small numpy calls, which
# cost what powering some 5000 entries does.  At math.inf every grid is
# powered whole: the dense engine that tests take as the reference.
_GF_PRUNE_MIN = 1 << 12


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
    """Number K_z of z-nodes of ``_gf_window`` for t observations and
    size - 1 Bernoulli cells: min(size, 2u + 3) for the least u with
    2 exp(-2u^2/(size - 1)) sqrt(2 pi t) e^(1/(12t)) <= e^-45."""
    level = (_GF_ALIAS + math.log(2.0) + 0.5 * math.log(2.0 * math.pi * t)
             + 1.0 / (12.0 * t))
    u = math.ceil(math.sqrt((size - 1) * level / 2.0))
    return min(size, 2 * u + 3)


def _gf_grid(factors, extra: np.ndarray, cut: float, K_z: int):
    """The part of the engine's grid worth powering: ``(cols, rows)``, the
    x-nodes (a wrapped window around x = 1, or every node in order) and
    the number of z-nodes j = 0, ..., rows - 1, such that every entry
    extra(x) prod_g (a_g(x) + z b_g(x))^M_g outside has modulus below
    e^cut.  Nothing is powered to find them.

    x-window.  Over the unit circle |a + z b| is at most |a| + |b|, so no
    entry at x exceeds top(x) = |extra(x)| prod_g (|a_g| + |b_g|)^M_g; the
    window is the least one around x = 1 that holds every x with top(x)
    >= e^cut.

    z-window.  At a kept x, |a + z b|^2 = |a|^2 + |b|^2 + 2 |a| |b|
    cos(theta - phi) for z = e^(i theta), phi = arg(a conj(b)): a cosine in
    theta.  Bounding the other factors by their maxima, an entry reaches
    e^cut only if |a_g + z b_g|^2 >= (|a_g| + |b_g|)^2 e^(-2 delta/M_g),
    delta = log top(x) - cut >= 0, that is, only if theta is within
    alpha_g = 2 arcsin(sqrt(u_g / 2)) of phi_g, where u_g = (|a_g| +
    |b_g|)^2 (1 - e^(-2 delta/M_g)) / (2 |a_g| |b_g|) (the whole circle if
    u_g >= 2 or a_g b_g = 0).  Every such theta is within D(x) = min_g
    min(pi, |phi_g| + alpha_g) of 0, and the z-node j of the engine sits
    at distance 2 pi j / K_z from it; rows - 1 is the largest
    floor(D(x) K_z / (2 pi)) over the kept x.  The two windows make a
    rectangle, so the x-sum stays one dense product.
    """
    K = extra.size
    with np.errstate(divide="ignore"):
        top = np.log(np.abs(extra))
        for mult, a, b in factors:
            top += mult * np.log(np.abs(a) + np.abs(b))
    keep = np.flatnonzero(top >= cut)
    if keep.size == 0:
        return keep, 0
    reach = int(np.minimum(keep, K - keep).max())
    cols = (slice(None) if 2 * reach + 1 >= K
            else np.arange(-reach, reach + 1) % K)
    dist = np.full(keep.size, math.pi)
    for mult, a, b in factors:
        A, B = np.abs(a[keep]), np.abs(b[keep])
        with np.errstate(divide="ignore", invalid="ignore"):
            u = ((A + B) ** 2 * -np.expm1(2.0 * (cut - top[keep]) / mult)
                 / (2.0 * A * B))
        alpha = 2.0 * np.arcsin(np.sqrt(np.fmin(u / 2.0, 1.0)))
        phi = np.abs(np.angle(a[keep] * np.conj(b[keep])))
        np.minimum(dist, phi + alpha, out=dist)
    rows = min(math.floor(dist.max() * K_z / (2.0 * math.pi)), K_z // 2) + 1
    return cols, rows


def _gf_mixed_pbin(
    t: int,
    groups: Sequence[tuple[int, float]],
    table: np.ndarray,
    tagged: tuple[float, np.ndarray] | None = None,
) -> np.ndarray:
    """All d + 1 coefficients in z of ``_gf_window``, d = sum of the
    multiplicities, the zeros outside its window included."""
    return _spread(1 + sum(mult for mult, _ in groups),
                   *_gf_window(t, groups, table, tagged))


def _gf_window(
    t: int,
    groups: Sequence[tuple[int, float]],
    table: np.ndarray,
    tagged: tuple[float, np.ndarray] | None = None,
) -> tuple[int, np.ndarray]:
    """Exact E over N ~ Mult(t, w) of PBin(f(N_1), ..., f(N_m)) pmf by
    generating functions, as ``(start, w)``: the coefficients [z^l] for
    l = start, ..., start + len(w) - 1 of the d+1 in z, d = sum of the
    multiplicities; the others are 0 (the window W below).

    ``groups`` lists (multiplicity, weight) of cells sharing a weight, and
    ``table`` is f on {0, ..., t}.  ``tagged`` = (weight, g) adds one more
    cell that contributes the factor c(N) = g(N) - g(N+1) instead of a
    Bernoulli, for g on {0, ..., t + 1}.

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
    ``pbin._BLOCK`` complex entries (about 1 MiB an array, for any n).

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

    Pruned grid: of a K x (K_z/2 + 1) grid of more than
    ``_GF_PRUNE_MIN`` entries, only those that ``_gf_grid`` finds at or
    above e^-(45+1) norm are powered, where norm is the normalizer [x^t]
    above; the others are set to 0.  Proof that this moves each
    coefficient by less than e^-45: the coefficient [z^l] is
    (1/K_z) sum_j omega^(jl) (sum_x pick(x) entry(x, z_j)) / norm
    over all K_z z-nodes (the half not computed is the conjugate of the
    half that is), with |pick| = 1/K and |omega| = 1, so dropping entries
    each below e^-46 norm moves it by less than the average of K K_z
    terms each below e^-46, which is less than e^-46.  The nat between
    e^-46 and e^-45 covers the rounding of the bound itself: its logarithm
    is off by about M eps (below 4e-9 for a multiplicity M up to 2^25), so
    an entry that a rounded comparison drops is below e^-45 norm in exact
    arithmetic.  The bound is taken of the same a, b and extra the entries
    are powered from, so it holds for the engine's own arithmetic, whose
    rounding is a separate matter.  Where nothing is dropped (every x-node
    and every z-node kept), the arithmetic is that of the dense grid, bit
    for bit.

    Each factor's Poisson law is needed only up to a constant, which
    cancels against the normalizer (the ``_GF_ALIAS`` bound is relative to
    it); ``pbin._poisson_band`` divides it by its sum, so no factor exceeds
    1 on the unit circle.  Anchored at 1 at its mode instead, the cube's
    factor at x = 1 would be e^(1/2), and its (2n-1)-th power would
    overflow a double near n = 710.  The law and every table built from
    it are cut where it falls below 2^-1022 of its mode (150 entries at
    the cube's mean 1/2).

    Cost: for the 2n-cell witness the kept grid is 31 to 35 x-nodes by 34
    to 36 z-nodes at every n from 1024 on, as the joint law of a cell's
    count and error concentrates at the rates at which the node spacings
    2 pi/K and 2 pi/K_z shrink.  Each entry takes about 2 log2(M) complex
    multiplies
    per group of multiplicity M (``_mul_power``).  Besides these, a call
    makes O(K) work per group (a K-point DFT of the Poisson band, the
    normalizer and the window), an inverse DFT of K_z points and the
    output, with K, K_z of order sqrt(t) and sqrt(d (45 + log t)).  The
    powers are not taken with ``**``: numpy squares only below exponent
    100 and above that calls libm ``cpow``, exp(M log w), which is several
    times slower per entry and less accurate.
    """
    fft = np.fft  # loaded on first use, off the import path
    size = 1 + sum(mult for mult, _ in groups)
    K = math.ceil((2 * _GF_ALIAS - 1 + math.sqrt(
        (2 * _GF_ALIAS - 1) ** 2 + 8 * _GF_ALIAS * t)) / 2)

    laws = {}

    def law(weight):  # Pois(t weight) on its band, and k mod K there
        if weight not in laws:
            lo, pois = _poisson_band(t, t * weight)
            laws[weight] = lo, pois, np.arange(lo, lo + pois.size) % K
        return laws[weight]

    def at_nodes(wrap, coef):  # sum_k coef[k] x^k at x = e^(-2 pi i s/K)
        return fft.fft(np.bincount(wrap, weights=coef, minlength=K))

    factors, plain, mean = [], np.ones(K, dtype=complex), 0.0
    for mult, weight in groups:
        lo, pois, wrap = law(weight)
        f = table[lo:lo + pois.size]
        mean += mult * float(pois @ f)
        a, b = at_nodes(wrap, pois * (1.0 - f)), at_nodes(wrap, pois * f)
        factors.append((mult, a, b))
        _mul_power(plain, a + b, mult)
    if tagged is not None:
        weight, g = tagged
        lo, pois, wrap = law(weight)
        hi = lo + pois.size
        extra = at_nodes(wrap, pois * (g[lo:hi] - g[lo + 1:hi + 1]))
        plain *= at_nodes(wrap, pois)
    else:
        extra = np.ones(K, dtype=complex)
    # x^-t at the nodes, divided by K: the DFT row that extracts [x^t].
    pick = np.exp(2j * math.pi * ((t * np.arange(K)) % K) / K) / K
    norm = (plain @ pick).real

    K_z = _gf_z_size(t, size)
    if K * (K_z // 2 + 1) > _GF_PRUNE_MIN:
        cut = math.log(norm) - _GF_ALIAS - 1.0
        cols, rows = _gf_grid(factors, extra, cut, K_z)
    else:
        cols, rows = slice(None), K_z // 2 + 1
    extra, pick = extra[cols], pick[cols]
    factors = [(mult, a[cols], b[cols]) for mult, a, b in factors]
    zs = np.exp(-2j * math.pi * np.arange(rows) / K_z)
    values = np.zeros(K_z // 2 + 1, dtype=complex)
    step = _block_rows(max(pick.size, 1))
    acc_buf = np.empty((min(step, rows), pick.size), dtype=complex)
    base_buf = np.empty_like(acc_buf)
    for lo in range(0, rows, step):
        z = zs[lo:lo + step, None]
        acc, base = acc_buf[:z.shape[0]], base_buf[:z.shape[0]]
        acc[:] = extra
        for mult, a, b in factors:
            np.multiply(z, b, out=base)
            base += a
            _mul_power(acc, base, mult)
        values[lo:lo + z.shape[0]] = acc @ pick
    folded = fft.irfft(values / norm, n=K_z)
    start = min(max(math.floor(mean) - (K_z - 1) // 2, 0), size - K_z)
    # Every coefficient is an expectation of nonnegative terms; what the
    # DFTs leave below zero (about 1e-17) is rounding, not mass.
    return start, np.maximum(np.roll(folded, -start), 0.0)


def _gf_survival_window(n: int, m: int, risks: np.ndarray
                        ) -> tuple[int, np.ndarray]:
    """per-l gaps of the 2n-cell witness by the coupled form, as ``(start,
    w)``: gap l is w[l - 1 - start] within the window and 0 outside it.

    With the extra observation placed in a tagged cell, the gap at
    threshold l is E[(r(c) - r(c+1)) P(PBin(other cells' risks) = l - 1)],
    c the tagged cell's count (shift identity): one generating function
    over m - 1 Bernoulli cells and the tagged cell, with no difference of
    two survival functions.
    """
    return _gf_window(n, [(m - 1, 1.0 / m)], risks[:n + 1],
                      tagged=(1.0 / m, risks[:n + 2]))


def _gf_survival_gap(n: int, m: int, risks: np.ndarray) -> np.ndarray:
    """All m gaps of ``_gf_survival_window``."""
    return _spread(m, *_gf_survival_window(n, m, risks))


def check_cube_output(n: int) -> None:
    """Raise ValueError, before anything is allocated, when the outputs of
    ``cube_lower(n, r)``, its risk curve (n + 2 floats), its per-threshold
    gaps and their all-zero half-widths (2n floats each), exceed
    ``OUTPUT_BUDGET`` bytes."""
    check_budget(8 * (5 * n + 2), f"n = {n}: the risk curve and the 2n "
                                  "threshold gaps and half-widths")


def check_mixedpbin_output(n: int, m: int) -> None:
    """Raise ValueError, before anything is allocated, when what
    ``mixedpbin_mass(n, m, weights, f)`` holds at its peak, the m weights
    and the sorted copy the engine groups them by, the n + 1 risks, and
    the m + 1 masses and their half-widths, exceeds ``OUTPUT_BUDGET``
    bytes."""
    check_budget(8 * (4 * m + n + 3), f"m = {m}, n = {n}: the weights, "
                                      "risks and masses")


def cube_lower(n: int, r: float, *, _risks: np.ndarray | None = None
               ) -> CubeLowerResult:
    """Deficiency lower bound from the 2n-cell uniform-weight witness.

    Computes, for every threshold l, the drop in the best multi-test risk
    when the n-observation multinomial allocation gains one extra
    observation, and returns the best threshold.  Composition enumeration
    while both enumerations stay under the guard (``method="exact"``),
    otherwise the generating-function engine (``method="gf"``); both are
    exact up to rounding, so ``ci`` is all zeros.  Refuses, before it
    allocates, outputs over the byte budget (``check_cube_output``).

    ``_risks`` is internal to this module: ``cube_lowers`` passes
    ``bayes_risk_curve(r, N).values`` for some N > n, so that its n share
    one curve.  The curve is prefix-stable, so its first n + 2 values are
    those of ``bayes_risk_curve(r, n + 1)`` bit for bit.
    """
    if n < 1:
        raise ValueError("requires n >= 1")
    if not 1.0 < r < math.inf:
        raise ValueError("requires finite r > 1")
    check_cube_output(n)
    m = 2 * n
    risks = (bayes_risk_curve(r, n + 1).values if _risks is None
             else _risks[:n + 2])
    if enumeration_fits(n + 1, m):  # the larger of the two enumerations
        per_l = (_survival_sums(n, m, risks)
                 - _survival_sums(n + 1, m, risks))[1:]
        method = "exact"
        start, core = 0, per_l
    else:
        start, core = _gf_survival_window(n, m, risks)
        per_l, method = _spread(m, start, core), "gf"
    # The GF's gaps are nonnegative and 0 outside its window, so the best
    # gap and the best adjacent average are found within it.
    l_star = start + int(np.argmax(core)) + 1
    pair_avg = 0.5 * (core[:-1] + core[1:])
    return CubeLowerResult(
        r=r, n=n, m=m, l_star=l_star, delta=float(per_l[l_star - 1]),
        delta_avg=float(pair_avg.max()),
        closed=richness_lower_bound(1.0 - 1.0 / r, 1.0, n), per_l=per_l,
        ci=np.zeros(m), method=method,
    )


def cube_lowers(r: float, ns: Sequence[int]) -> Iterator[CubeLowerResult]:
    """``cube_lower(n, r)`` for each n of ``ns`` in turn, lazily, every n's
    risks read from one curve: the many-n loop of ``sweep`` and ``lower
    cube``.

    Before the curve is built, and before anything is iterated, it refuses
    a last n whose outputs exceed the budget (``check_cube_output``), then
    an ``ns`` that is empty, not increasing or below 1; so a ``range`` is
    never listed.  Each bound is a call of the module global
    ``cube_lower``, so a wrapper put there (the benchmark's spans) sees
    every n.
    """
    if ns:
        check_cube_output(ns[-1])
    if not ns or ns[0] < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_values must be nonempty and increasing, all >= 1")
    curve = bayes_risk_curve(r, ns[-1] + 1).values
    return (cube_lower(n, r, _risks=curve) for n in ns)


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
    if enumeration_fits(n, m):  # one product a block, added in row order
        masses = sum(probs @ pmfs
                     for probs, pmfs in _enumeration_blocks(n, w, table))
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

