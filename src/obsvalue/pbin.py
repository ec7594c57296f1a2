"""Exact Poisson-binomial, Binomial, Poisson and Multinomial computations.

The Poisson-binomial distribution PBin(p_1, ..., p_m) is the law of a sum of
independent Bernoulli variables with success probabilities p_1, ..., p_m.
Everything here is computed by exact convolution, exact enumeration or, for
the Binomial and Poisson laws, one builder from neighbour ratios; nothing
draws random numbers.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from .constants import check_budget


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


# Entries per block of every loop of the package that must stream: the
# rows of ``pbin_pmf_rows``, of ``_row_probs`` (the probabilities of
# ``multinomial_enumerate``, ``multinomial_classes`` and
# ``lower._survival_sums``) and of the class terms that
# ``lower._survival_sums`` adds in row order, and the values
# of ``RiskCurve``'s check.  A block of floats (512 KiB) and its scratch
# stay in cache, and the extra memory of a loop is a few blocks, whatever
# its size.  Each loop gives every entry the same operations whatever the
# block, so no output depends on this value.
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
    t, width = _binom_reach(n, p)
    check_budget(32 * width, f"the up to {width} entries of the Bin({n}, {p}) "
                             "band")
    q = 1.0 - p
    return _neighbour_band(n + 1, min(int((n + 1) * p), n), n * p, t,
                           lambda j: (n - j + 1) * p / (j * q),
                           lambda j: j * q / ((n - j + 1) * p))


def _binom_reach(n: int, p: float) -> tuple[float, int]:
    """The reach T of :func:`_binom_band` and its width bound, the most
    entries its band can hold, without building the band."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    big_l = 1022 * math.log(2) + math.log(n + 1) + 1
    t = _reach(big_l, n * p * (1.0 - p))
    return t, min(n + 1, int(2 * t) + 1)


def binom_pmf(n: int, p: float) -> np.ndarray:
    """Bin(n, p) pmf of length n+1: the band of :func:`_binom_band` placed
    in n+1 zeros.  Measured against the exact ``math.comb(n, n//2) /
    2**n``, the mode of Bin(n, 1/2) is off by 6.9e-17 relative at n = 1000,
    2.6e-16 at 10 000, 5.2e-16 at 99 999 and 1.3e-15 at 10^6.  Refuses,
    before it builds anything, n + 1 floats over ``OUTPUT_BUDGET``.
    """
    check_budget(8 * (n + 1), f"the {n + 1} masses of Bin({n}, {p})")
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


# Refuse exact enumeration whose table, compositions x (cells + 1), holds
# more entries than this; callers use the generating-function engine
# instead.  The guard bounds the compact count table, one byte a count up
# to 254 trials, so under 8 MiB there, and the rows a sum over it visits.
# The Poisson-binomial work is done once a class of rows (at most one a
# row), and no float table of every row is kept.  2^23 keeps the largest
# enumeration in use, Mult(8) over 16 cells (490 314 x 17), exact.
ENUM_GUARD = 1 << 23


def enumeration_fits(trials: int, m: int) -> bool:
    """Whether Mult(trials) over m cells is enumerated exactly: the rule of
    ``multinomial_enumerate``, ``multinomial_classes`` and the dispatch of
    ``lower``.  The trials must fit the uint8 compositions, at most 254:
    beyond that the lgamma form of :func:`multinomial_logpmf` drifts, and
    at Mult(10^4) over two cells the masses were 9.6e-12 off an exact
    Binomial oracle, where the generating-function engine is within
    2.2e-16.  And the table, one row per composition by m + 1 columns (the
    count vector, or a PBin pmf of it), must hold at most ``ENUM_GUARD``
    entries.  The cap is checked first, so the row count's binomial has at
    most 254 factors, however large m is."""
    return trials <= 254 and n_compositions(trials, m) * (m + 1) <= ENUM_GUARD


def _compositions(trials: int, m: int) -> np.ndarray:
    """All compositions of ``trials`` into ``m`` parts, one per row, as
    uint8 counts: ``trials`` must be at most 254, the cap of
    :func:`enumeration_fits`, which every caller has passed.

    Rows are ordered by the last part, then by the part before it, and so on
    (the order of the NEXCOM successor algorithm): the compositions of t
    into j parts are the blocks [compositions of t - last into j - 1 parts,
    last] for last = 0, ..., t.  Built one column at a time, from the last:
    each choice of parts k..m-1 is repeated once per composition of what is
    left into the k parts before it, and part 0 takes what is left.
    """
    out = np.empty((n_compositions(trials, m), m), dtype=np.uint8)
    used = np.zeros(1, dtype=np.uint8)
    for k in range(m - 1, 0, -1):
        width = trials + 1 - used  # part k takes 0, ..., trials - used
        # The ramp 0, 1, ..., width - 1 of each choice, as a cumsum of
        # steps of 1 that drop back to 0 where a choice starts.  The sums
        # wrap around in the table's type, exactly, since each is below
        # trials + 1.
        part = np.ones(int(width.sum(dtype=np.int64)), dtype=np.uint8)
        part[0] = 0
        part[np.cumsum(width[:-1], dtype=np.int64)] = 1 - width[:-1]
        np.cumsum(part, dtype=np.uint8, out=part)
        used = np.repeat(used, width) + part
        if k > 1:
            # Rows per choice: the compositions of trials - used into k
            # parts.
            below = np.array([n_compositions(s, k)
                              for s in range(trials + 1)])
            part = np.repeat(part, below[trials - used])
        out[:, k] = part
    out[:, 0] = trials - used
    return out


def _check_fits(trials: int, m: int) -> None:
    """Raise ValueError when Mult(trials) over m cells fails
    :func:`enumeration_fits`."""
    if not enumeration_fits(trials, m):
        raise ValueError(
            f"Mult({trials}) over {m} cells: past the trial cap, or its "
            f"compositions x {m + 1} columns exceed the {ENUM_GUARD}-entry "
            "guard; use the generating-function engine"
        )


def _row_probs(counts: np.ndarray, w: np.ndarray) -> np.ndarray:
    """exp of :func:`multinomial_logpmf` of each row of ``counts``, taken
    in blocks of rows, so the float temporaries are a few blocks."""
    probs = np.empty(counts.shape[0])
    step = _block_rows(w.size)
    for lo in range(0, probs.size, step):
        probs[lo:lo + step] = multinomial_logpmf(counts[lo:lo + step], w)
    return np.exp(probs, out=probs)


def multinomial_enumerate(
    trials: int, weights: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """All count vectors of Mult(trials, weights) with their probabilities.

    Returns ``(counts, probs)`` where ``counts`` has one composition per row
    (:func:`_compositions`; uint8, as the guard admits at most 254 trials).
    Probabilities sum to 1 within 1e-10; they are evaluated in blocks of
    rows, each row by :func:`multinomial_logpmf`'s arithmetic.  Raises
    ValueError, before allocating, when Mult(trials) fails
    :func:`enumeration_fits`.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    w = _as_weights(weights)
    _check_fits(trials, w.size)
    counts = _compositions(trials, w.size)
    return counts, _row_probs(counts, w)


def _partitions(total: int, parts: int) -> np.ndarray:
    """The partitions of ``total`` into at most ``parts`` parts, one a row
    of ``parts`` values in nonincreasing order (zeros last), as uint8:
    ``total`` must be at most 254, the cap of :func:`enumeration_fits`,
    which every caller has passed.

    Built a column at a time, as :func:`_compositions` is: with ``left``
    still to place in r places, this one included, the next value runs
    from min(left, the value before) down to ceil(left / r), the least
    that leaves the r - 1 places after it room for the rest.  A partition
    has at most ``total`` nonzero parts, so the columns past that are 0."""
    rows = np.zeros((1, parts), dtype=np.uint8)
    left = hi = np.array([total])
    for j in range(min(parts, total)):
        width = hi + 1 + left // (j - parts)  # hi - ceil(left / r) + 1
        pick = np.repeat(np.arange(width.size), width)
        value = (np.repeat(hi + np.cumsum(width) - width, width)
                 - np.arange(pick.size))
        rows = rows[pick]
        rows[:, j] = value
        left = left[pick] - value
        hi = np.minimum(left, value)
    return rows


def _arrangements(rows: np.ndarray) -> np.ndarray:
    """How many orderings each nonincreasing row of ``rows`` has: k! /
    prod_v mu_v! for k columns, mu_v of which hold v.  Taken as C(k, z)
    for the z nonzero values, times the multinomial of those, which grows
    a column at a time by j / (the run of equal values that ends at column
    j); every step is an exact integer, at most j + 1 times the result."""
    nonzero = np.count_nonzero(rows, axis=1)
    cols = int(nonzero.max())
    comb = [math.comb(rows.shape[1], z) for z in range(cols + 1)]
    mult = np.array(comb, dtype=np.int64)[nonzero]
    run = np.ones_like(mult)
    for j in range(1, cols):
        run = np.where(rows[:, j] == rows[:, j - 1], run + 1, 1)
        mult = np.where(rows[:, j] > 0, mult * (j + 1) // run, mult)
    return mult


def _composition_classes(trials: Sequence[int], m: int
                         ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The classes of Mult(t) over m equal cells, for each t of
    ``trials``, and the class of each composition: ``(reps, cls)``, with
    ``reps`` the representatives of :func:`multinomial_classes`
    (``_partitions(t, m)``) and ``cls`` an index into them a composition,
    in the row order of :func:`_compositions`.  No table of counts is
    built.

    By the block recursion of :func:`_compositions`, the class column of
    Mult(t) over j cells is the concatenation over v = 0, ..., t of
    add_v[the class column of Mult(t - v) over j - 1 cells], where add_v
    takes a partition to that partition with a part v added; a row of
    j - 1 < m cells has a zero part, which v takes.  The tables run over
    the partitions of 0, ..., max(trials), 67 of them for the witness's
    Mult(8).  Each level j < m holds the columns of every t up to
    max(trials), and the last one those of ``trials``, so one pass names
    them all, a table lookup an entry: 778 429 entries, a byte each, for
    Mult(7) and Mult(8) over 14 cells, 281 010 of them in the two columns
    returned.
    """
    top = max(trials)
    parts = [_partitions(s, m) for s in range(top + 1)]
    reps = [rows.tolist() for rows in parts]
    # The partitions of 0, ..., top in one numbering, those of s from
    # first[s] on.
    first = list(itertools.accumulate(map(len, reps), initial=0))
    ids = {tuple(r): g for g, r in enumerate(itertools.chain(*reps))}
    dtype = np.min_scalar_type(first[-1] - 1)
    # grow[t, g]: partition g, of s <= t, with a part t - s added (add_v
    # at v = t - s).  Entries no row reads, at s > t or at a partition
    # with no zero part, hold first[t].
    grow = np.repeat(np.array(first[:-1], dtype=dtype)[:, None], first[-1],
                     axis=1)
    for s, rows in enumerate(reps):
        for t in range(s, top + 1):
            grow[t, first[s]:first[s + 1]] = [
                ids.get(tuple(sorted(r[:-1] + [t - s], reverse=True)),
                        first[t]) for r in rows]
    # Level j holds the columns of Mult(t) over j cells for t = top, ...,
    # 0 in turn, so the blocks of Mult(t) over j + 1 cells, the columns of
    # t - v for v = 0, ..., t, are its last n_compositions(t, j + 1)
    # entries.  Level 0 is the one empty row of Mult(0).
    col = np.zeros(1, dtype=dtype)
    for j in range(1, m):
        out = np.empty(n_compositions(top, j + 1), dtype=dtype)
        hi = out.size
        for t in range(top + 1):
            size = n_compositions(t, j)
            np.take(grow[t], col[col.size - size:], out=out[hi - size:hi])
            hi -= size
        col = out
    return [(parts[t],
             (grow[t] - first[t])[col[col.size - n_compositions(t, m):]])
            for t in trials]


def multinomial_classes(
    trials: int, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mult(trials) over m equal cells by class: two count vectors are in
    one class when one permutes the other's counts, so a class is a
    partition of ``trials``.  All of a class have one probability, and one
    value of any function that is symmetric in the counts (a PBin law of a
    table at them, for one).  Unequal weights have no classes here: the
    generating-function engine of ``lower`` takes them.

    Returns ``(reps, mult, probs)``: a row of ``reps`` per class, its
    representative, the counts in nonincreasing order
    (:func:`_partitions`, in the type of :func:`_compositions`); ``mult``,
    the compositions in the class, m! / prod_v mu_v! where mu_v of the
    cells hold v (:func:`_arrangements`); and ``probs``, the probability
    of one of them, :func:`multinomial_logpmf` of the representative at
    weights 1/m.  So ``mult.sum()`` is ``n_compositions(trials, m)`` and
    ``mult @ probs`` is 1 up to rounding: 22 classes for the 203 490
    compositions of Mult(8) over 14 cells.  There are at most as many
    classes as compositions, so it raises ValueError as
    :func:`multinomial_enumerate` does."""
    if trials < 0 or m < 1:
        raise ValueError("requires trials >= 0 and m >= 1")
    _check_fits(trials, m)
    reps = _partitions(trials, m)
    return reps, _arrangements(reps), _row_probs(reps, np.full(m, 1.0 / m))


def multinomial_logpmf(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Log Mult(n, weights) probabilities for each row of ``counts``.

    Cells with zero weight contribute 0 iff their count is zero, else -inf.
    Each row's sums run over a C-ordered copy, so the bits are the same
    whatever the memory layout of ``counts``.
    """
    counts = np.ascontiguousarray(np.atleast_2d(counts))
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
