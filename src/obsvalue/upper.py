"""Upper bounds via the injection kernel and likelihood-ratio concentration.

The surrogate chain: splicing one synthetic uniform draw into an n-sample at
a random position yields a kernel K with

    2 * TV(K P^n, P^(n+1)) = E | (1/(n+1)) sum g(xi_i) - 1 |,    g = 1/f,

the mean absolute deviation (MAD) of the averaged likelihood ratio.  A
(C, s) concentration certificate for g turns that into the closed form
C * sqrt(pi / (4 s)) / sqrt(n+1).  For two-level densities the MAD is exact
via the Binomial sufficient statistic; otherwise it is estimated by Monte
Carlo over the same kind of statistic: g is a step function, so the average
depends only on how many of the n+1 draws land in each level set of g, and
``mc_mad`` draws those counts from Mult(n+1, level masses) instead of the
draws' positions, through the one Monte Carlo loop :func:`streams.mc_mean`,
in the calling thread.  Both read g's law, its levels and their masses,
from ``uniform_ratio``.  A universal floor shows the 1/sqrt(n) decay is
unimprovable here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EXACT_TOL
from .densities import StepDensity
from .pbin import binom_pmf
from .streams import mc_mean


@dataclass(frozen=True)
class CsCertificate:
    """Witness (C, s) of a sub-Gaussian concentration bound
    P(|sum g(xi_i) - n| > nt) <= C exp(-s n t^2) for the likelihood ratio g."""

    C: float
    s: float

    def __post_init__(self):
        if self.C < 1.0:
            raise ValueError("requires C >= 1")
        if self.s <= 0.0:
            raise ValueError("requires s > 0")


@dataclass(frozen=True)
class TwoLevelRatio:
    """Likelihood ratio taking value ``a`` with probability ``q`` and ``b``
    otherwise (under the sampling density); has unit mean."""

    a: float
    b: float
    q: float

    def __post_init__(self):
        if not (self.a > self.b >= 0.0):
            raise ValueError("requires a > b >= 0")
        if not (0.0 <= self.q <= 1.0):
            raise ValueError("requires q in [0, 1]")
        if abs(self.q * self.a + (1.0 - self.q) * self.b - 1.0) > EXACT_TOL:
            raise ValueError("ratio must have unit mean within 1e-12")

    @property
    def mean_abs_dev(self) -> float:
        """E|g - 1| in closed form (two-point expectation)."""
        return self.q * abs(self.a - 1.0) + (1.0 - self.q) * abs(1.0 - self.b)


@dataclass(frozen=True)
class LikelihoodRatio:
    """Law of g = (uniform density) / f under f: the distinct values of g,
    increasing, in ``levels`` and their masses under f, normalized to sum
    to 1, in ``probs``.  ``mean`` is E_f[g], which is 1; ``two_level`` is
    the same law as a :class:`TwoLevelRatio` when g takes exactly two
    values, else None."""

    levels: np.ndarray
    probs: np.ndarray
    mean: float
    two_level: TwoLevelRatio | None


def uniform_ratio(f: StepDensity) -> LikelihoodRatio:
    """Law of g = 1/f, the ratio of the uniform measure against a strictly
    positive step density, under f: intervals where f has the same height
    form one level of g, with their total mass."""
    if f.values.min() <= 0.0:
        raise ValueError("requires a strictly positive density")
    g = 1.0 / f.values
    levels, level_of = np.unique(g, return_inverse=True)
    masses = np.bincount(level_of, weights=f.values * f.widths)
    probs = masses / masses.sum()
    mean = float(np.sum(g * f.values * f.widths))
    if abs(mean - 1.0) > EXACT_TOL:
        raise AssertionError(f"ratio mean {mean!r} deviates from 1")
    two_level = None
    if levels.size == 2:
        two_level = TwoLevelRatio(a=float(levels[1]), b=float(levels[0]),
                                  q=float(probs[1]))
    return LikelihoodRatio(levels=levels, probs=probs, mean=mean,
                           two_level=two_level)


def hoeffding_certificate(r: float) -> CsCertificate:
    """Certificate (C=2, s=2/r^2), valid for every density bounded below by
    1/r on [0, 1] since the ratio then satisfies 0 < g <= r (Hoeffding)."""
    if not 1.0 < r < math.inf:
        raise ValueError("requires finite r > 1")
    s = 2.0 / (r * r)  # r * r is inf past 1.3e154, where r**2 would raise
    if s == 0.0:
        raise ValueError(f"r = {r!r} is too large: s = 2/r^2 rounds to 0")
    return CsCertificate(C=2.0, s=s)


def certificate_upper_bound(cert: CsCertificate, n: int) -> float:
    """Closed-form deficiency upper bound C * sqrt(pi/(4s)) / sqrt(n+1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return cert.C * math.sqrt(math.pi / (4.0 * cert.s)) / math.sqrt(n + 1.0)


def exact_mad(ratio: TwoLevelRatio, k: int) -> float:
    """E | (1/k) sum g(xi_i) - 1 | for a two-level ratio, exactly via the
    Binomial count of high-value draws.

    Equals twice the total variation distance between the kernel-augmented
    (k-1)-sample law and the genuine k-sample law.  For the two-level family
    the ratio law does not depend on which vertex density generated the
    sample; this is the subfamily value, with no supremum claim over all
    densities bounded below by 1/r.
    """
    if k < 1:
        raise ValueError("requires k >= 1")
    j = np.arange(k + 1, dtype=float)
    means = (j * ratio.a + (k - j) * ratio.b) / k
    return float(np.sum(binom_pmf(k, ratio.q) * np.abs(means - 1.0)))


def mad_floor(ratio: TwoLevelRatio, k: int) -> float:
    """Universal lower bound E|g - 1| / sqrt(2k) on the k-draw MAD: the mean
    absolute deviation of an average cannot decay faster than 1/sqrt(k)."""
    if k < 1:
        raise ValueError("requires k >= 1")
    return ratio.mean_abs_dev / math.sqrt(2.0 * k)


def chi2_radius(cert: CsCertificate) -> float:
    """Radius (1 + log C) / s of the chi-square ball that contains every
    measure admitting the certificate.

    Closed form of the tail-moment integral
    int_{sqrt(log(C)/s)}^inf x^2 * 2sxC e^(-s x^2) dx; the equivalence is
    confirmed against numerical quadrature in the test suite.
    """
    return (1.0 + math.log(cert.C)) / cert.s


def inject_kernel(
    sample: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Splice one uniform draw into ``sample`` at a uniformly random position.

    The synthetic center measure is fixed to the uniform law on [0, 1].  A
    (B, n) array is B independent samples: B positions, then B uniforms,
    are drawn at once and a (B, n+1) array is returned.
    """
    x = np.asarray(sample, dtype=float)
    if x.ndim == 1:
        return inject_kernel(x[None], rng)[0]
    if x.ndim != 2:
        raise ValueError("sample must be a 1-D or 2-D array")
    rows, n = x.shape
    pos = rng.integers(0, n + 1, size=rows)
    at = np.arange(n + 1) == pos[:, None]
    out = np.empty((rows, n + 1))
    out[at] = rng.random(rows)
    out[~at] = x.ravel()  # row-major: each row's n values, pos skipped
    return out


def _unseen_bound(levels: np.ndarray, probs: np.ndarray, seen: np.ndarray,
                  k: int) -> float:
    """Bound B on |E[Y] - E[Y | A]| for Y = |(1/k) sum g(xi_i) - 1|, where
    A is the event that none of the k draws lands in an unseen level U:

        B = sum_{L in U} p_L L + k pi (2 + M),
        pi = sum_{L in U} p_L,   M = max over seen levels l of |l - 1|.

    Proof.  On A the average is a mean of seen levels, so Y <= M there and
    E[Y | A] <= M; by the union bound P(not A) <= k pi.  Split the average
    into g_U + g_S, the sums of g(xi_i)/k over draws in U and outside it.
    As g > 0, Y <= g_U + g_S + 1, where g_S <= max l <= 1 + M; so
    E[Y; not A] <= E[g_U] + (2 + M) P(not A) <= B, since g_U = 0 on A and
    E[g_U] is the first term of B.  Finally
    E[Y] - E[Y | A] = E[Y; not A] - E[Y | A] P(not A) is the difference of
    two numbers in [0, B] (the second is at most M k pi), so its modulus is
    at most B.  Rows that drew no unseen level are draws of Y given A, so
    their normal interval widened by B covers E[Y].
    """
    unseen = ~seen
    pi = float(probs[unseen].sum())
    spread = float(np.abs(levels[seen] - 1.0).max())
    return float(probs[unseen] @ levels[unseen]) + k * pi * (2.0 + spread)


def mc_mad(
    f: StepDensity, k: int, draws: int, seed: int = 0, workers: int = 1
) -> tuple[float, float]:
    """Monte Carlo estimate of E | (1/k) sum g(xi_i) - 1 | for g = 1/f.

    Each draw is a vector of level counts ~ Mult(k, probs) over g's law
    (``levels``, ``probs``) from :func:`uniform_ratio`; it determines the
    average of g over k draws from f, so a draw costs O(levels) rather
    than O(k).  Returns ``(estimate, half_width)`` where the half-width is
    the 3-sigma normal interval.  The draws run in the calling thread
    through :func:`streams.mc_mean` (tag ``"mc_mad"``), so the result
    depends only on ``f``, ``k``, ``draws`` and ``seed``; ``workers`` is
    accepted for compatibility and has no effect.

    Every level of g has positive mass (f > 0).  If some level is never
    drawn, the draws carry no sample variance from it (a level of mass
    1e-100 gives a half-width of 0), so the half-width is widened by the
    deterministic bound of :func:`_unseen_bound` on what the unseen levels
    can contribute; the rows then estimate E[Y | no draw in them].
    """
    if k < 1:
        raise ValueError("requires k >= 1")
    if draws < 100:
        raise ValueError("requires draws >= 100")
    law = uniform_ratio(f)
    levels, probs = law.levels, law.probs
    seen = np.zeros(levels.size, dtype=bool)

    def draw(rng, rows):
        nonlocal seen
        counts = rng.multinomial(k, probs, size=rows)
        seen |= counts.any(axis=0)
        return np.abs(counts @ levels / k - 1.0)

    estimate, half_width = mc_mean("mc_mad", seed, draws, draw)
    if not seen.all():
        half_width += _unseen_bound(levels, probs, seen, k)
    return float(estimate), float(half_width)
