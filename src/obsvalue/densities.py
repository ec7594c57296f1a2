"""Step densities on [0, 1]: the bounded-below experiment and its witnesses.

A :class:`StepDensity` is piecewise constant, with intervals half-open on the
right and the final interval closed.  The model of interest is the class of
densities bounded below by 1/r for some r > 1; its two-level vertex densities
(one flipped/unflipped pair per mesh cell) are built by
:func:`hypercube_density`, and :func:`richness_witness` packages the per-cell
pairs together with their exact total variation separation.

``obsvalue verify`` makes thousands of these calls on densities of a few
pieces, so each function is a few ufunc and array-method calls rather than
numpy's Python-level helpers (``np.diff``, ``np.clip``, ``np.union1d``).
For the same reason :func:`sample_density` inverts a CDF of at most
``_COMPARE_EDGES`` interior edges, when it draws enough keys to pay a pass
an edge, by sequential search (Devroye 1986, *Non-Uniform Random Variate
Generation*, section III.2): a key's piece is its count of edges at or
below it, summed over one ``u >= e`` pass an edge
(:func:`_count_at_or_below`).  That count is ``searchsorted``'s index bit
for bit, so every draw is the one a binary search gives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import EXACT_TOL


@dataclass(frozen=True)
class StepDensity:
    """Piecewise-constant probability density on [0, 1].

    ``breakpoints`` is strictly increasing from 0 to 1, so finite;
    ``values`` holds one finite nonnegative height per interval.
    Construction rejects inputs whose integral differs from 1 by more than
    1e-12 unless ``normalize=True`` is passed explicitly (silent
    normalization would mask construction bugs).
    Instances are immutable.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __init__(self, breakpoints, values, *, normalize: bool = False):
        bp = np.asarray(breakpoints, dtype=float)
        val = np.asarray(values, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        widths = bp[1:] - bp[:-1]
        # NaN compares False, and an infinite breakpoint between 0 and 1
        # leaves some width -inf or NaN: only finite breakpoints pass.
        if not (widths > 0.0).all():
            raise ValueError("breakpoints must be strictly increasing")
        if val.ndim != 1 or val.size != bp.size - 1:
            raise ValueError("need exactly one value per interval")
        if not (val.min() >= 0.0 and val.max() < math.inf):
            raise ValueError("heights must be finite and nonnegative")
        total = float((val * widths).sum())
        if abs(total - 1.0) > EXACT_TOL:
            if not normalize:
                raise ValueError(
                    f"density integrates to {total!r}, not 1; "
                    "pass normalize=True to rescale"
                )
            if not total > 0.0:
                raise ValueError(f"density integrates to {total!r}; "
                                 "a zero density cannot be normalized")
            val = val / total
        bp.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", val)

    @property
    def widths(self) -> np.ndarray:
        return self.breakpoints[1:] - self.breakpoints[:-1]

    def __call__(self, x) -> np.ndarray:
        """Height at ``x`` (vectorized); right-half-open intervals, f(1) is
        the last height.

        The index is the count of interior breakpoints at or below x, which
        is already in [0, values.size - 1]: 0 for x < 0, the last piece for
        x >= 1, and (searchsorted sorts NaN last) the last piece for NaN."""
        return self.values[self.breakpoints[1:-1].searchsorted(
            np.asarray(x, dtype=float), side="right")]

    def to_json(self) -> str:
        return json.dumps(
            {"breakpoints": self.breakpoints.tolist(),
             "values": self.values.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "StepDensity":
        return cls(*_json_fields(text, breakpoints=list, values=list))


@dataclass(frozen=True)
class HypercubeSpec:
    """Selects one vertex density of the two-level family: scale r > 1,
    mesh size m, and one flip bit per cell."""

    r: float
    m: int
    bits: tuple[int, ...]

    def __init__(self, r: float, m: int, bits: Sequence[int]):
        bits = tuple(bits)
        if not 1.0 < r < math.inf:
            raise ValueError("requires finite r > 1")
        if m < 1:
            raise ValueError("requires m >= 1")
        if len(bits) != m:
            raise ValueError("need exactly m bits")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "r", float(r))
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "bits", tuple(int(b) for b in bits))

    def to_json(self) -> str:
        return json.dumps({"r": self.r, "m": self.m, "bits": list(self.bits)})

    @classmethod
    def from_json(cls, text: str) -> "HypercubeSpec":
        return cls(*_json_fields(text, r=float, m=float, bits=list))


def _json_fields(text: str, **kinds: type) -> list:
    """The fields of the JSON object ``text`` that ``kinds`` names, in its
    order: a list of numbers for kind ``list``, else a number.  A missing
    or mistyped field, or text that is no JSON object, raises ValueError
    naming the (first) field."""
    data = json.loads(text)
    for name, kind in kinds.items():
        value = data.get(name) if isinstance(data, dict) else None
        items = value if kind is list else [value]
        if type(items) is not list or {*map(type, items)} - {int, float}:
            what = "a list of numbers" if kind is list else "a number"
            raise ValueError(f"field {name!r} is missing or not {what}")
    return [data[name] for name in kinds]


def hypercube_density(spec: HypercubeSpec) -> StepDensity:
    """Vertex density for ``spec``: 2m equal-width pieces where cell j carries
    heights (1/r, 2-1/r) for bit 0 and (2-1/r, 1/r) for bit 1, that is the
    high height on piece i exactly when i's parity differs from its cell's
    bit."""
    r, m = spec.r, spec.m
    lo, hi = 1.0 / r, 2.0 - 1.0 / r
    breakpoints = np.arange(2 * m + 1, dtype=float) / (2 * m)
    breakpoints[-1] = 1.0
    high = np.array(spec.bits).repeat(2) != np.arange(2 * m) % 2
    return StepDensity(breakpoints, np.where(high, hi, lo))


def density_integral(f: StepDensity, a: float, b: float) -> float:
    """Exact mass of [a, b] under f (sum of height times overlap)."""
    if not (0.0 <= a <= b <= 1.0):
        raise ValueError("requires 0 <= a <= b <= 1")
    left = np.maximum(f.breakpoints[:-1], a)
    right = np.minimum(f.breakpoints[1:], b)
    overlap = np.maximum(right - left, 0.0)
    return float(np.sum(f.values * overlap))


# Inversion by comparison count takes one u >= e pass an edge, summed in
# uint8 (so at most 255 edges), where searchsorted binary-searches each
# unsorted key.  Measured (2 cores, numpy 2.4.6), searchsorted -> count,
# on 100 000 keys: 2 edges 1.19 -> 0.07 ms, 8 edges 1.94 -> 0.17 ms, 32
# edges 3.95 -> 0.55 ms, 64 edges 4.92 -> 1.03 ms, 128 edges 5.76 -> 1.98
# ms; on 10^6 keys, 64 edges 50 -> 32 ms and 128 edges 59 -> 57 ms.  A
# pass also costs about 1.2 us whatever the key count, so on few keys
# binary search is the faster one: the count first won at 681 keys on 1
# edge, 1712 on 8, 1996 on 16, 3165 on 32 and 3690 on 64.  The rule
# below takes the count from 1024 + 48 * edges keys, 0.8 to 1.6 times
# those crossings.
_COMPARE_EDGES = 64


def _count_at_or_below(edges: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``edges.searchsorted(u, side="right")`` bit for bit, dtype included,
    for nondecreasing ``edges`` and keys ``u`` in any order, no edge or key
    NaN: the number of edges at or below each key.  Up to
    ``_COMPARE_EDGES`` edges and from 1024 + 48 * ``edges.size`` keys it
    is a sum of comparisons; otherwise ``searchsorted`` itself."""
    if edges.size > _COMPARE_EDGES or u.size < 1024 + 48 * edges.size:
        return edges.searchsorted(u, side="right")
    count = np.zeros(u.shape, dtype=np.uint8)
    for e in edges.tolist():
        count += (u >= e).view(np.uint8)
    return count.astype(np.intp)


def sample_density(
    f: StepDensity, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n i.i.d. draws from f by inverting the exact piecewise-linear CDF.

    A draw u = U * cdf[-1] with U in [0, 1) lies in [0, cdf[-1]), so the
    count of interior cdf entries at or below it is the piece i with
    cdf[i] <= u < cdf[i + 1].  A zero-height piece has cdf[i] == cdf[i + 1]
    (adding 0 rounds to nothing), so no draw lands on one: the count skips
    it, and ``(u - cdf[i]) / height`` never divides by zero.  The count is
    :func:`_count_at_or_below`, a sum of ``u >= e`` passes on up to
    ``_COMPARE_EDGES`` interior edges and enough draws,
    ``searchsorted(side="right")`` otherwise, equal bit for bit; the
    arithmetic after it runs in place, in the order
    ``breakpoints[i] + (u - cdf[i]) / height``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    cdf = np.concatenate(([0.0], (f.values * f.widths).cumsum()))
    x = rng.random(n)
    x *= cdf[-1]
    idx = _count_at_or_below(cdf[1:-1], x)
    x -= cdf[idx]
    x /= f.values[idx]
    x += f.breakpoints[idx]
    return x


def tv_distance(f: StepDensity, g: StepDensity) -> float:
    """Total variation distance between two step densities, computed exactly
    on the merged breakpoint grid."""
    grid = np.unique(np.concatenate((f.breakpoints, g.breakpoints)))
    mids = 0.5 * (grid[:-1] + grid[1:])
    return float(0.5 * (abs(f(mids) - g(mids)) * (grid[1:] - grid[:-1])).sum())


@dataclass(frozen=True)
class RichnessWitness:
    """Regular-mesh certificate that the model is (m, alpha, beta)-rich:
    cell weights >= beta/m summing to 1, and per-cell density pairs at total
    variation distance >= alpha, every mixture of which stays in the model."""

    m: int
    alpha: float
    beta: float
    weights: np.ndarray
    pairs: tuple[tuple[StepDensity, StepDensity], ...]

    def assemble(self, bits: Sequence[int]) -> StepDensity:
        """Mixture density sum_j weights[j] * pair[j][bits[j]]."""
        if len(bits) != self.m:
            raise ValueError("need exactly m bits")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        grid = np.unique(np.concatenate(
            [q.breakpoints for pair in self.pairs for q in pair]))
        mids = 0.5 * (grid[:-1] + grid[1:])
        heights = np.zeros(mids.size)
        for w, (q0, q1), bit in zip(self.weights, self.pairs, bits):
            heights += w * (q1 if bit else q0)(mids)
        return StepDensity(grid, heights)


def _cell_pair(r: float, m: int, j: int) -> tuple[StepDensity, StepDensity]:
    """Normalized two-level pair supported on cell j of the regular m-mesh."""
    lo, hi = m / r, m * (2.0 - 1.0 / r)
    left, mid, right = j / m, (2 * j + 1) / (2 * m), (j + 1) / m
    bp = [0.0, left, mid, right, 1.0]
    v0 = [0.0, lo, hi, 0.0]
    v1 = [0.0, hi, lo, 0.0]
    if j == 0:
        bp, v0, v1 = bp[1:], v0[1:], v1[1:]
    if j == m - 1:
        bp, v0, v1 = bp[:-1], v0[:-1], v1[:-1]
    return StepDensity(bp, v0), StepDensity(bp, v1)


def richness_witness(r: float, m: int) -> RichnessWitness:
    """The uniform-weight witness on the regular m-mesh, with alpha = 1 - 1/r
    and beta = 1; its invariants are verified by exact computation."""
    if not 1.0 < r < math.inf:
        raise ValueError("requires finite r > 1")
    if m < 1:
        raise ValueError("requires m >= 1")
    alpha = 1.0 - 1.0 / r
    weights = np.full(m, 1.0 / m)
    pairs = tuple(_cell_pair(r, m, j) for j in range(m))
    for q0, q1 in pairs:
        if tv_distance(q0, q1) < alpha - EXACT_TOL:
            raise AssertionError("cell pair separation below alpha")
    return RichnessWitness(
        m=m, alpha=alpha, beta=1.0, weights=weights, pairs=pairs,
    )
