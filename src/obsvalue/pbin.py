"""Exact Poisson-binomial, Binomial, Poisson and Multinomial computations.

The Poisson-binomial distribution PBin(p_1, ..., p_m) is the law of a sum of
independent Bernoulli variables with success probabilities p_1, ..., p_m.
Everything here is computed by exact convolution, exact enumeration or, for
the Binomial and Poisson laws, one builder from neighbour ratios; nothing
draws random numbers.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .constants import ENUM_GUARD, check_budget


class EnumerationGuardError(ValueError):
    """Raised when an exact enumeration's table would exceed the guard.

    Callers should use the generating-function engine of ``lower`` instead.
    """


def _as_probs(probs: Iterable[float]) -> np.ndarray:
    p = np.asarray(list(probs) if not isinstance(probs, np.ndarray) else probs,
                   dtype=float)
    if p.ndim != 1:
        raise ValueError("success probabilities must form a 1-D sequence")
    if p.size and (not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("success probabilities must lie in [0, 1]")
    return p


def bernoulli_step(pmf: np.ndarray, k: int, q, scratch: np.ndarray) -> None:
    """In place, turn the pmf of S in ``pmf[:k+1]`` into that of S + X in
    ``pmf[:k+2]``, for X ~ Bernoulli(q) independent of S; ``pmf[k+1]`` must
    be 0 on entry.  Support runs along axis 0 and ``q`` broadcasts against
    one row ``pmf[j]``; ``scratch`` holds at least ``pmf[:k+1]``.  Each
    entry becomes fl(fl(p[j](1-q)) + fl(p[j-1] q)), p[k+1] = fl(p[k] q)."""
    up = np.multiply(pmf[:k + 1], q, out=scratch[:k + 1])
    pmf[:k + 1] *= 1.0 - q
    pmf[1:k + 2] += up


# Entries per block of every blocked loop of the package: the rows of
# ``pbin_pmf_rows`` and of the enumeration, the z-nodes of the
# generating-function engine and the values of ``RiskCurve``'s check.  A
# block of floats (512 KiB) and its scratch stay in cache, and the extra
# memory of a loop is a few blocks, whatever its size.
_BLOCK = 1 << 16


def _block_rows(cols: int) -> int:
    """Rows of ``cols`` entries each in a block of about ``_BLOCK``
    entries."""
    return max(1, _BLOCK // cols)


def pbin_pmf_rows(probs: np.ndarray) -> np.ndarray:
    """Row-wise PBin pmf by convolution DP: (B, m) probabilities -> (B, m+1)
    pmfs, in a new C-ordered array.  Inputs are not validated; see
    :func:`pbin_pmf`.

    Rows are processed in blocks of about ``_BLOCK`` entries.  A block
    is held transposed, (m+1, rows), so each of the m Bernoulli steps runs
    over contiguous memory, in place, on buffers allocated once per call;
    each block is then copied into its rows of the output.  The extra
    memory is two blocks, whatever B is.  The arithmetic is the allocating
    recursion's, operation for operation: every entry is
    fl(fl(p[j](1-q)) + fl(p[j-1] q)) in the same step order, so the pmfs
    are bit-identical to it.
    """
    rows, m = probs.shape
    out = np.empty((rows, m + 1))
    width = _block_rows(m + 1)
    pmf = np.empty((m + 1, min(width, rows)))
    scratch = np.empty_like(pmf)
    for lo in range(0, rows, width):
        block = probs[lo:lo + width]
        b = block.shape[0]
        p = pmf[:, :b]
        p[0] = 1.0
        p[1:] = 0.0
        for k in range(m):
            bernoulli_step(p, k, block[:, k], scratch[:, :b])
        out[lo:lo + b] = p.T
    return out


def pbin_pmf(probs: Sequence[float]) -> np.ndarray:
    """Probability mass function of PBin(probs), length ``len(probs) + 1``.

    Iterative convolution (dynamic programming), exact up to floating-point
    rounding and invariant under permutation of ``probs``.  The empty
    parameter list yields the point mass at zero.
    """
    return pbin_pmf_rows(_as_probs(probs)[None])[0]


def pbin_survival(probs: Sequence[float], l: int) -> float:
    """P(PBin(probs) >= l).  Returns 1 for l <= 0 and 0 for l > len(probs).

    The upper tail is summed, whichever tail is shorter, from its last
    term, as the pmf's reversed cumsum: each mass is within a few ulps of
    its exact value, relative, and so is a sum of them, while 1 less the
    lower tail cancels at small survivals (8.3e-8 off, relative, for ten
    probabilities 1e-10 and l = 1)."""
    p = _as_probs(probs)
    if l <= 0:
        return 1.0
    if l > p.size:
        return 0.0
    return float(np.cumsum(pbin_pmf(p)[::-1])[::-1][l])


def pbin_shift_difference(
    params_rest: Sequence[float], p: float, p_prime: float, l: int
) -> tuple[float, float]:
    """Both sides of the one-parameter shift identity for PBin survivals.

    lhs = P(PBin(rest, p) >= l) - P(PBin(rest, p') >= l)
    rhs = P(PBin(rest) = l - 1) * (p - p')

    The two agree exactly; both are returned so the identity can be checked.
    Requires ``p > p_prime`` and ``1 <= l <= len(params_rest) + 1``.
    """
    rest = _as_probs(params_rest)
    for name, value in (("p", p), ("p_prime", p_prime)):
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1]")
    if p <= p_prime:
        raise ValueError("requires p > p_prime")
    if not 1 <= l <= rest.size + 1:
        raise ValueError("requires 1 <= l <= len(params_rest) + 1")
    lhs = pbin_survival(np.append(rest, p), l) - pbin_survival(
        np.append(rest, p_prime), l
    )
    rhs = float(pbin_pmf(rest)[l - 1] * (p - p_prime))
    return lhs, rhs


# The smallest normal double, where a band's running products stop.
_TINY = float(np.finfo(float).tiny)


def _reach(big_l: float, v: float) -> float:
    """Bernstein's reach: the T = L/3 + sqrt(L^2/9 + 2 L v) beyond which
    exp(-t^2 / (2 (v + t/3))), the bound on the tail P(|X - E X| >= t) of
    a law of variance at most v, falls below e^-L."""
    return big_l / 3 + math.sqrt(big_l**2 / 9 + 2 * big_l * v)


def _products(ratio, start: int, stop: int, step: int) -> np.ndarray:
    """Running products of ``ratio(j)`` for j = start, start + step, ...,
    short of ``stop``, by one ``cumprod``, cut after the last one that is
    a normal double; every ratio must be at most 1, as it is from a true
    mode on, so the products never rise and the subnormals are a suffix."""
    if (stop - start) * step <= 0:
        return np.empty(0)
    p = ratio(np.arange(start, stop, step, dtype=float))
    np.cumprod(p, out=p)
    if p[-1] < _TINY:
        p = p[:np.count_nonzero(p >= _TINY)]
    return p


def _neighbour_band(size: int, mode: int, mean: float, reach: float, up,
                    down) -> tuple[int, np.ndarray]:
    """Normalized pmf on {0, ..., size-1} from the running products
    (:func:`_products`) of ``up(j)`` = P(j) / P(j-1) above ``mode`` and of
    ``down(j)`` = P(j-1) / P(j) below it, with 1 at ``mode``, divided by
    their sum.  Returns ``(lo, band)``: the pmf is ``band`` on {lo, ...,
    lo + band.size - 1}, and elsewhere, where it is below 2^-1022 of its
    mode, it is taken as 0.  The products are taken over the j within
    ``reach`` of ``mean`` only, which the caller proves holds every kept
    j, so the cost is the reach, not ``size``.  At a true mode no ratio
    exceeds 1, so nothing overflows, and a point mass (ratios 0) needs no
    branch."""
    above = _products(up, mode + 1,
                      min(size - 1, math.ceil(mean + reach)) + 1, 1)
    below = _products(down, mode, max(0, math.floor(mean - reach)), -1)
    band = np.concatenate((below[::-1], [1.0], above))
    return mode - below.size, band / band.sum()


def _spread(size: int, start: int, window: np.ndarray) -> np.ndarray:
    """``window`` placed at ``start`` in ``size`` zeros."""
    out = np.zeros(size)
    out[start:start + window.size] = window
    return out


def _binom_band(n: int, p: float) -> tuple[int, np.ndarray]:
    """Bin(n, p) pmf as the ``(lo, band)`` of :func:`_neighbour_band`, from
    the mode floor((n+1)p) and the neighbour ratios (n-j+1) p / (j (1-p))
    over the j within Bernstein's reach T of np (below): about
    2 sqrt(1417 n p (1-p)) entries, whatever n is.  Refuses, before it
    builds anything, a band whose width bound below, at 32 bytes an entry,
    exceeds ``OUTPUT_BUDGET``: the build holds three floats an entry
    (23.6 bytes an entry of the bound, traced, for n from 10^6 to 10^10),
    so Bin(10^14, 1/4) is refused where it would have taken 7.3 GiB.

    Width bound.  The band keeps the j whose running product P(j) / P(mode)
    is at least 2^-1022, and the products' rounding is far below a factor
    e.  The mode is the largest of n + 1 masses that sum to 1, so P(mode)
    >= 1/(n+1), and every kept j has P(j) >= e^-L, L = 1022 log 2 +
    log(n+1) + 1.  Bernstein's inequality for a sum of n independent
    Bernoulli(p), with v = n p (1-p), bounds P(j) by P(X - np >= t) <=
    exp(-t^2 / (2 (v + t/3))) for t = j - np >= 0, and the lower tail
    alike.  So a kept j has t^2 - (2L/3) t - 2 L v <= 0 with t = |j - np|:
    t <= T = L/3 + sqrt(L^2/9 + 2 L v) (:func:`_reach`), and the band has
    at most 2T + 1 entries (measured: 96.8% to 98.5% of the bound for n
    from 10^7 to 10^10 and p from 0.01 to 1/2).  The products are taken
    over [floor(np - T), ceil(np + T)] only, and the band is the one that
    products over all of {0, ..., n} give: T grows by at least 2/3 per
    unit of L, so what the factor e leaves over the products' rounding is
    far more than the rounding of np and T, for n below 2^53."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    q = 1.0 - p
    big_l = 1022 * math.log(2) + math.log(n + 1) + 1
    t = _reach(big_l, n * p * q)
    width = min(n + 1, int(2 * t) + 1)
    check_budget(32 * width, f"the up to {width} entries of the Bin({n}, {p}) "
                             "band")
    return _neighbour_band(n + 1, min(int((n + 1) * p), n), n * p, t,
                           lambda j: (n - j + 1) * p / (j * q),
                           lambda j: j * q / ((n - j + 1) * p))


def binom_pmf(n: int, p: float) -> np.ndarray:
    """Bin(n, p) pmf of length n+1: the band of :func:`_binom_band` placed
    in n+1 zeros.  Measured against the exact ``math.comb(n, n//2) /
    2**n``, the mode of Bin(n, 1/2) is off by 6.9e-17 relative at n = 1000,
    2.6e-16 at 10 000, 5.2e-16 at 99 999 and 1.3e-15 at 10^6.
    """
    return _spread(n + 1, *_binom_band(n, p))


def _poisson_band(t: int, lam: float) -> tuple[int, np.ndarray]:
    """Pois(lam) pmf on {0, ..., t} from the mode min(floor(lam), t) and
    the neighbour ratios lam / j, as the ``(lo, band)`` of
    :func:`_neighbour_band`.  The band holds 150 entries at lam = 1/2,
    whatever t is, and for large lam about 2 sqrt(1417 lam), where
    (k - lam)^2 / (2 lam) reaches 1022 log 2: 75 279 at lam = 10^6.
    Against 200-bit arithmetic, P(k) / P(mode) for |k - lam| <= 6 sqrt(lam)
    at t = 2 lam is within 3.2e-15 relative for lam up to 32 768.

    Reach.  A kept k has P(k) / P(mode) >= 2^-1022, up to rounding far
    below a factor e, as in :func:`_binom_band`.  For lam <= t the mode is
    floor(lam), and three steps put every kept k within T = :func:`_reach`
    (L, lam) of lam, L = 1022 log 2 + log(4 (4 sqrt(lam) + 1) / 3) + 1.
    (1) Chebyshev puts mass at least 3/4 on (lam - 2 sqrt(lam), lam +
    2 sqrt(lam)), which holds at most 4 sqrt(lam) + 1 integers, so P(mode)
    >= 3 / (4 (4 sqrt(lam) + 1)) and a kept k has P(k) >= e^-L.
    (2) Bernstein's bound exp(-s^2 / (2 (lam + s/3))) on P(|X - lam| >= s)
    holds for Pois(lam) as the limit of Bin(N, lam/N), whose variances are
    at most lam; so |k - lam| <= T, as for the Binomial.  (3) lam = 0 is
    the point mass, where every ratio is 0 and only the mode is kept.  For
    lam > t the mode is t, and P(k) / P(t) = prod_{k<j<=t} j / lam is at
    most the same ratio of Pois(t): the kept k are among those of Pois(t),
    so the reach is taken at mu = min(lam, t)."""
    mu = min(lam, t)
    big_l = (1022 * math.log(2) + math.log(4 * (4 * math.sqrt(mu) + 1) / 3)
             + 1)
    return _neighbour_band(t + 1, min(int(lam), t), mu, _reach(big_l, mu),
                           lambda j: lam / j, lambda j: j / lam)


def _as_weights(weights: Iterable[float]) -> np.ndarray:
    w = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights,
                   dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must form a nonempty 1-D sequence")
    if not np.all(np.isfinite(w)) or w.min() < 0.0:
        raise ValueError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError("weights must sum to 1 within 1e-12")
    return w


def n_compositions(trials: int, m: int) -> int:
    """Number of ways to split ``trials`` into ``m`` ordered nonnegative parts."""
    return math.comb(trials + m - 1, m - 1)


def enumeration_fits(trials: int, m: int) -> bool:
    """Whether exact enumeration of Mult(trials) over m cells stays within
    ``ENUM_GUARD`` table entries: one row per composition, m + 1 columns
    (the count vector, or a PBin pmf of it).

    The row count C(trials + m - 1, k), k = min(m - 1, trials), is built
    as the running product C(a + i, i) = C(a + i - 1, i - 1) (a + i) / i,
    a = trials + m - 1 - k, for i = 1, ..., k.  It never decreases in i,
    so the answer is False as soon as it passes ENUM_GUARD // (m + 1).
    As a >= k, C(a + i, i) >= 2^i, so a call takes at most 24 steps,
    however large the binomial."""
    limit = ENUM_GUARD // (m + 1)
    k = min(m - 1, trials)
    a = trials + m - 1 - k
    rows, i = 1, 0
    while rows <= limit and i < k:
        i += 1
        rows = rows * (a + i) // i
    return rows <= limit


def _compositions(trials: int, m: int) -> np.ndarray:
    """All compositions of ``trials`` into ``m`` parts, one per row, in the
    narrowest unsigned type that holds ``trials + 1``.

    Rows are ordered by the last part, then by the part before it, and so on
    (the order of the NEXCOM successor algorithm): the compositions of t
    into j parts are the blocks [compositions of t - last into j - 1 parts,
    last] for last = 0, ..., t.  Built one column at a time, from the last:
    each choice of parts k..m-1 is repeated once per composition of what
    is left into the k parts before it.
    """
    dtype = np.min_scalar_type(trials + 1)
    out = np.empty((n_compositions(trials, m), m), dtype=dtype)
    # One entry per choice of parts k..m-1, in row order: part k's value
    # and the sum of parts k..m-1, both in the table's type.
    used = np.zeros(1, dtype=dtype)
    for k in range(m - 1, 0, -1):
        width = trials + 1 - used  # part k takes 0, ..., trials - used
        # The ramp 0, 1, ..., width - 1 of each choice, as a cumsum of
        # steps of 1 that drop back to 0 where a choice starts.  The sums
        # wrap around in the table's type, exactly, since each is below
        # trials + 1.
        part = np.ones(int(width.sum(dtype=np.int64)), dtype=dtype)
        part[0] = 0
        part[np.cumsum(width[:-1], dtype=np.int64)] = 1 - width[:-1]
        np.cumsum(part, dtype=dtype, out=part)
        used = np.repeat(used, width) + part
        # Rows per choice: the compositions of trials - used into k parts.
        below = np.array([n_compositions(s, k) for s in range(trials + 1)])
        out[:, k] = part if k == 1 else np.repeat(part, below[trials - used])
    out[:, 0] = trials - used
    return out


def multinomial_enumerate(
    trials: int, weights: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """All count vectors of Mult(trials, weights) with their probabilities.

    Returns ``(counts, probs)`` where ``counts`` has one composition per row
    (:func:`_compositions`; uint8 for up to 254 trials).  Probabilities sum
    to 1 within 1e-10; they are evaluated in blocks of rows, each row by
    :func:`multinomial_logpmf`'s arithmetic, so the float temporaries are
    a few blocks whatever the table's size.  Raises
    :class:`EnumerationGuardError`, before allocating, when the table
    exceeds the guard (:func:`enumeration_fits`).
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    w = _as_weights(weights)
    m = w.size
    if not enumeration_fits(trials, m):
        raise EnumerationGuardError(
            f"Mult({trials}) over {m} cells: its compositions x {m + 1} "
            f"columns exceed the {ENUM_GUARD}-entry guard; use the "
            "generating-function engine"
        )
    counts = _compositions(trials, m)
    probs = np.empty(counts.shape[0])
    step = _block_rows(m)
    for lo in range(0, probs.size, step):
        probs[lo:lo + step] = multinomial_logpmf(counts[lo:lo + step], w)
    np.exp(probs, out=probs)
    return counts, probs


def multinomial_logpmf(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Log Mult(n, weights) probabilities for each row of ``counts``.

    Cells with zero weight contribute 0 iff their count is zero, else -inf.
    """
    counts = np.atleast_2d(counts)
    n = int(counts[0].sum())
    logfact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    out = np.full(counts.shape[0], logfact[n])
    out -= logfact[counts].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = counts * np.log(weights)
    zero = weights == 0.0
    if zero.any():
        contrib[:, zero] = np.where(counts[:, zero] == 0, 0.0, -np.inf)
    out += contrib.sum(axis=1)
    return out
