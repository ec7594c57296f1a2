"""Sweeps over n, consolidated bound reports, and decay-rate fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .constants import EXACT_TOL
from .densities import HypercubeSpec, hypercube_density
from .lower import cube_lowers
from .upper import (certificate_upper_bound, exact_mad, hoeffding_certificate,
                    mad_floor, uniform_ratio)


@dataclass(frozen=True)
class BoundReport:
    """All bound surrogates for one (r, n) pair.

    ``lower`` is the survival-gap bound (with CI half-width ``lower_ci``),
    ``upper_exact`` the kernel-specific TV surrogate exact_mad/2,
    ``upper_closed``/``lower_closed`` the closed forms they certify.  The
    fields are the CSV's columns, in order, and the JSON records' keys.
    """

    r: float
    n: int
    m: int
    lower: float
    lower_ci: float
    l_star: int
    delta_avg: float
    lower_closed: float
    upper_exact: float
    upper_closed: float
    floor_half: float
    lower_method: str

    def __post_init__(self):
        if self.lower_closed > self.lower + self.lower_ci + EXACT_TOL:
            raise AssertionError(
                "closed-form lower bound exceeds the survival gap")
        if self.upper_exact > self.upper_closed + EXACT_TOL:
            raise AssertionError(
                "exact upper surrogate exceeds its closed form")


def bound_sweep(r: float, n_values: Sequence[int]) -> list[BoundReport]:
    """One :class:`BoundReport` per n.  Every entry is computed exactly (no
    random draws), so reports are reproducible byte for byte.  The lower
    side is ``cube_lowers``, which checks the grid and the output budget
    before anything is built: a ``range`` is never listed."""
    cubes = cube_lowers(r, n_values)
    ratio = uniform_ratio(hypercube_density(HypercubeSpec(r, 1, [0]))).two_level
    cert = hoeffding_certificate(r)
    return [BoundReport(
        r=r, n=cube.n, m=cube.m,
        lower=cube.delta, lower_ci=cube.ci_at_star, l_star=cube.l_star,
        delta_avg=cube.delta_avg, lower_closed=cube.closed,
        upper_exact=exact_mad(ratio, cube.n + 1) / 2.0,
        upper_closed=certificate_upper_bound(cert, cube.n),
        floor_half=mad_floor(ratio, cube.n + 1) / 2.0,
        lower_method=cube.method,
    ) for cube in cubes]


@dataclass(frozen=True)
class RateFit:
    """Power law value ~= amplitude * (n+1)^exponent fitted on log-log scale;
    ``residual`` is the largest absolute log-scale misfit on the range."""

    exponent: float
    amplitude: float
    residual: float
    n_range: tuple[int, int]


def rate_fit(points: Sequence[tuple[int, float]]) -> RateFit:
    """Least-squares line through (log(n+1), log value).

    Regressing against n+1 rather than n matches the closed forms and
    removes small-n curvature.  Requires >= 3 points, each with n >= 0 and
    a finite positive value, at two distinct n at least: at one n the slope
    is not determined.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    ns = np.array([p[0] for p in pts], dtype=float)
    vals = np.array([p[1] for p in pts], dtype=float)
    # Written so that a NaN fails: it compares false both ways.
    if not np.all((vals > 0.0) & (vals < math.inf)):
        raise ValueError("values must be finite and positive")
    if not np.all((ns >= 0.0) & (ns < math.inf)):
        raise ValueError("requires every n >= 0")
    if ns.min() == ns.max():
        raise ValueError("requires two distinct n")
    x = np.log(ns + 1.0)
    y = np.log(vals)
    design = np.column_stack([x, np.ones_like(x)])
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.max(np.abs(design @ [slope, intercept] - y)))
    return RateFit(
        exponent=float(slope), amplitude=float(math.exp(intercept)),
        residual=residual, n_range=(int(ns.min()), int(ns.max())),
    )


def format_number(x) -> str:
    """17-significant-digit decimal rendering (round-trips doubles)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def to_csv(columns: Sequence[str], rows) -> str:
    """CSV text with a header line; strings verbatim, numbers by
    :func:`format_number`."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(
            v if isinstance(v, str) else format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def to_record(columns: Sequence[str], row) -> dict:
    """JSON-ready record: strings and ints kept, other numbers as float."""
    return {c: (v if isinstance(v, (str, int)) else float(v))
            for c, v in zip(columns, row)}


def reports_to_csv(reports: Sequence[BoundReport]) -> str:
    return to_csv([f.name for f in fields(BoundReport)],
                  (vars(rep).values() for rep in reports))


def sweep_summary(reports: Sequence[BoundReport]) -> dict:
    """Rate fits of the exact upper and lower surrogates, as the JSON-ready
    summary emitted next to the consolidated CSV."""
    fit_upper = rate_fit([(rep.n, rep.upper_exact) for rep in reports])
    fit_lower = rate_fit([(rep.n, rep.lower) for rep in reports])
    return {
        "r": reports[0].r,
        "exponent_upper": fit_upper.exponent,
        "exponent_lower": fit_lower.exponent,
        "amplitudes": {"upper": fit_upper.amplitude,
                       "lower": fit_lower.amplitude},
        "residuals": {"upper": fit_upper.residual,
                      "lower": fit_lower.residual},
        "n_range": list(fit_upper.n_range),
    }
