"""Exact Poisson-binomial, Binomial, and Multinomial computations.

The Poisson-binomial distribution PBin(p_1, ..., p_m) is the law of a sum of
independent Bernoulli variables with success probabilities p_1, ..., p_m.
Everything here is computed by exact convolution or exact enumeration;
nothing draws random numbers.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .constants import ENUM_GUARD


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


# Entries per block of ``pbin_pmf_rows``; the block and its scratch (about
# 512 KiB each) stay in cache for all m steps.
_PMF_BLOCK = 1 << 16


def pbin_pmf_rows(probs: np.ndarray) -> np.ndarray:
    """Row-wise PBin pmf by convolution DP: (B, m) probabilities -> (B, m+1)
    pmfs, C-ordered.  Inputs are not validated; see :func:`pbin_pmf`.

    Rows are processed in blocks of about ``_PMF_BLOCK`` entries.  A block
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
    width = max(1, _PMF_BLOCK // (m + 1))
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
    """P(PBin(probs) >= l).  Returns 1 for l <= 0 and 0 for l > len(probs)."""
    p = _as_probs(probs)
    m = p.size
    if l <= 0:
        return 1.0
    if l > m:
        return 0.0
    mass = pbin_pmf(p)
    # Sum the smaller tail to limit cancellation.
    if m + 1 - l <= l:
        return float(np.sum(mass[l:]))
    return float(1.0 - np.sum(mass[:l]))


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


def log_factorials(n: int) -> np.ndarray:
    """log(i!) for i = 0, ..., n, by ``math.lgamma``."""
    return np.array([math.lgamma(i + 1.0) for i in range(n + 1)])


def binom_pmf(n: int, p: float) -> np.ndarray:
    """Bin(n, p) pmf of length n+1, in O(n) array operations.

    Set to 1 at the mode floor((n+1)p), the terms on each side are the
    running products of the ratios of neighbouring terms,
    P(j) / P(j-1) = (n-j+1) p / (j (1-p)), so none exceeds about 1; the
    vector is then divided by its sum.  p = 0 and p = 1 need no branch:
    their ratios are 0.  Measured against the exact
    ``math.comb(n, n//2) / 2**n``, the mode of Bin(n, 1/2) is off by
    2.2e-16 relative at n = 1000 and 10 000, 3.3e-16 at 99 999 and 1.3e-15
    at 10^6.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    q = 1.0 - p
    mode = min(int((n + 1) * p), n)
    j = np.arange(n + 1, dtype=float)
    out = np.empty(n + 1)
    out[mode] = 1.0
    up = j[mode + 1:]
    np.cumprod((n - up + 1) * p / (up * q), out=out[mode + 1:])
    down = j[mode:0:-1]
    out[:mode] = np.cumprod(down * q / ((n - down + 1) * p))[::-1]
    return out / out.sum()


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
    (the count vector, or a PBin pmf of it)."""
    return n_compositions(trials, m) * (m + 1) <= ENUM_GUARD


def _compositions(trials: int, m: int) -> np.ndarray:
    """All compositions of ``trials`` into ``m`` parts, one per row.

    Rows are ordered by the last part, then by the part before it, and so on
    (the order of the NEXCOM successor algorithm): the compositions of t
    into j parts are the blocks [compositions of t - last into j - 1 parts,
    last] for last = 0, ..., t.  Built one column at a time, from the last:
    each choice of parts k..m-1 is repeated once per composition of what
    is left into the k parts before it.
    """
    out = np.empty((n_compositions(trials, m), m), dtype=np.int64)
    # One entry per choice of parts k..m-1, in row order: part k's value
    # and the sum of parts k..m-1.
    used = np.zeros(1, dtype=np.int64)
    for k in range(m - 1, 0, -1):
        width = trials - used + 1  # part k takes 0, ..., trials - used
        starts = np.cumsum(width) - width
        part = np.arange(width.sum()) - np.repeat(starts, width)
        used = np.repeat(used, width) + part
        below = np.array([n_compositions(s, k) for s in range(trials + 1)])
        out[:, k] = np.repeat(part, below[trials - used])
    out[:, 0] = trials - used
    return out


def multinomial_enumerate(
    trials: int, weights: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """All count vectors of Mult(trials, weights) with their probabilities.

    Returns ``(counts, probs)`` where ``counts`` has one composition per row.
    Probabilities sum to 1 within 1e-10.  Raises
    :class:`EnumerationGuardError`, before allocating, when the table
    exceeds the guard (:func:`enumeration_fits`).
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    w = _as_weights(weights)
    m = w.size
    if not enumeration_fits(trials, m):
        raise EnumerationGuardError(
            f"{n_compositions(trials, m)} compositions x {m + 1} columns "
            f"exceed the {ENUM_GUARD}-entry guard; use the "
            "generating-function engine"
        )
    counts = _compositions(trials, m)
    probs = multinomial_logpmf(counts, w)
    np.exp(probs, out=probs)
    return counts, probs


def multinomial_logpmf(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Log Mult(n, weights) probabilities for each row of ``counts``.

    Cells with zero weight contribute 0 iff their count is zero, else -inf.
    """
    counts = np.atleast_2d(counts)
    n = int(counts[0].sum())
    logfact = log_factorials(n)
    out = np.full(counts.shape[0], logfact[n])
    out -= logfact[counts].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        contrib = counts * np.log(weights)
    zero = weights == 0.0
    if zero.any():
        contrib[:, zero] = np.where(counts[:, zero] == 0, 0.0, -np.inf)
    out += contrib.sum(axis=1)
    return out
