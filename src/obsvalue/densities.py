"""Step densities on [0, 1]: the bounded-below experiment and its witnesses.

A :class:`StepDensity` is piecewise constant, with intervals half-open on the
right and the final interval closed.  The model of interest is the class of
densities bounded below by 1/r for some r > 1; its two-level vertex densities
(one flipped/unflipped pair per mesh cell) are built by
:func:`hypercube_density`, and :func:`richness_witness` packages the per-cell
pairs together with their exact total variation separation.
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

    ``breakpoints`` is strictly increasing from 0 to 1; ``values`` holds one
    nonnegative height per interval.  Construction rejects inputs whose
    integral differs from 1 by more than 1e-12 unless ``normalize=True`` is
    passed explicitly (silent normalization would mask construction bugs).
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
        if np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if val.ndim != 1 or val.size != bp.size - 1:
            raise ValueError("need exactly one value per interval")
        if not np.all(np.isfinite(val)) or val.min(initial=0.0) < 0.0:
            raise ValueError("heights must be finite and nonnegative")
        total = float(np.sum(val * np.diff(bp)))
        if abs(total - 1.0) > EXACT_TOL:
            if not normalize:
                raise ValueError(
                    f"density integrates to {total!r}, not 1; "
                    "pass normalize=True to rescale"
                )
            val = val / total
        bp.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", val)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def __call__(self, x) -> np.ndarray:
        """Height at ``x`` (vectorized); right-half-open intervals, f(1) is
        the last height."""
        idx = np.searchsorted(self.breakpoints, np.asarray(x, dtype=float),
                              side="right") - 1
        idx = np.clip(idx, 0, self.values.size - 1)
        return self.values[idx]

    def to_json(self) -> str:
        return json.dumps(
            {"breakpoints": self.breakpoints.tolist(),
             "values": self.values.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "StepDensity":
        data = json.loads(text)
        return cls(data["breakpoints"], data["values"])


@dataclass(frozen=True)
class HypercubeSpec:
    """Selects one vertex density of the two-level family: scale r > 1,
    mesh size m, and one flip bit per cell."""

    r: float
    m: int
    bits: tuple[int, ...]

    def __init__(self, r: float, m: int, bits: Sequence[int]):
        bits = tuple(int(b) for b in bits)
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
        object.__setattr__(self, "bits", bits)

    def to_json(self) -> str:
        return json.dumps({"r": self.r, "m": self.m, "bits": list(self.bits)})

    @classmethod
    def from_json(cls, text: str) -> "HypercubeSpec":
        data = json.loads(text)
        return cls(data["r"], data["m"], data["bits"])


def hypercube_density(spec: HypercubeSpec) -> StepDensity:
    """Vertex density for ``spec``: 2m equal-width pieces where cell j carries
    heights (1/r, 2-1/r) for bit 0 and (2-1/r, 1/r) for bit 1."""
    r, m = spec.r, spec.m
    lo, hi = 1.0 / r, 2.0 - 1.0 / r
    breakpoints = np.arange(2 * m + 1, dtype=float) / (2 * m)
    breakpoints[-1] = 1.0
    values = np.empty(2 * m)
    for j, bit in enumerate(spec.bits):
        values[2 * j], values[2 * j + 1] = (hi, lo) if bit else (lo, hi)
    return StepDensity(breakpoints, values)


def density_integral(f: StepDensity, a: float, b: float) -> float:
    """Exact mass of [a, b] under f (sum of height times overlap)."""
    if not (0.0 <= a <= b <= 1.0):
        raise ValueError("requires 0 <= a <= b <= 1")
    left = np.maximum(f.breakpoints[:-1], a)
    right = np.minimum(f.breakpoints[1:], b)
    overlap = np.maximum(right - left, 0.0)
    return float(np.sum(f.values * overlap))


def sample_density(
    f: StepDensity, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n i.i.d. draws from f by inverting the exact piecewise-linear CDF."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    cdf = np.concatenate(([0.0], np.cumsum(f.values * f.widths)))
    u = rng.random(n) * cdf[-1]
    # side="right" skips zero-height (flat-CDF) pieces entirely.
    idx = np.clip(np.searchsorted(cdf, u, side="right") - 1,
                  0, f.values.size - 1)
    h = f.values[idx]
    offset = np.zeros(n)
    pos = h > 0.0
    offset[pos] = (u[pos] - cdf[idx[pos]]) / h[pos]
    return f.breakpoints[idx] + offset


def tv_distance(f: StepDensity, g: StepDensity) -> float:
    """Total variation distance between two step densities, computed exactly
    on the merged breakpoint grid."""
    grid = np.union1d(f.breakpoints, g.breakpoints)
    mids = 0.5 * (grid[:-1] + grid[1:])
    return float(0.5 * np.sum(np.abs(f(mids) - g(mids)) * np.diff(grid)))


@dataclass(frozen=True)
class RichnessWitness:
    """Regular-mesh certificate that the model is (m, alpha, beta)-rich:
    cell weights >= beta/m summing to 1, and per-cell density pairs at total
    variation distance >= alpha, every mixture of which stays in the model."""

    m: int
    alpha: float
    beta: float
    boundaries: np.ndarray
    weights: np.ndarray
    pairs: tuple[tuple[StepDensity, StepDensity], ...]

    def assemble(self, bits: Sequence[int]) -> StepDensity:
        """Mixture density sum_j weights[j] * pair[j][bits[j]]."""
        if len(bits) != self.m:
            raise ValueError("need exactly m bits")
        grid = self.pairs[0][0].breakpoints
        for q0, q1 in self.pairs:
            grid = np.union1d(grid, np.union1d(q0.breakpoints, q1.breakpoints))
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
    boundaries = np.arange(m + 1, dtype=float) / m
    boundaries[-1] = 1.0
    weights = np.full(m, 1.0 / m)
    pairs = tuple(_cell_pair(r, m, j) for j in range(m))
    for q0, q1 in pairs:
        if tv_distance(q0, q1) < alpha - EXACT_TOL:
            raise AssertionError("cell pair separation below alpha")
    return RichnessWitness(
        m=m, alpha=alpha, beta=1.0, boundaries=boundaries,
        weights=weights, pairs=pairs,
    )
