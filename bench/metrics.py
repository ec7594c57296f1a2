"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

WORKLOADS = ("lower-mc", "exact-enum", "upper-mc", "verify-quick")

# (name, unit, better).  Reported by every untraced run.  ``wall_ref_s`` is
# in reference seconds (see calibration.py); the unscaled pass time is the
# per-layer ``wall_s``.
END_TO_END = (
    ("wall_ref_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Properties of ``obsvalue verify``, in the order it runs them.
VERIFY_PROPERTIES = (
    "spot-values", "pbin-pmf-vs-enumeration",
    "pbin-pmf-permutation-invariance",
    "pbin-survival-stochastic-monotonicity", "pbin-shift-identity",
    "multinomial-enumeration-total-mass", "multinomial-sample-frequencies",
    "density-construction", "tv-triangle-inequality", "tv-bit-flip-identity",
    "sampler-cell-frequencies", "richness-witness", "ratio-unit-mean",
    "mad-exact-vs-mc", "mad-closed-form-and-floor", "chi2-radius-quadrature",
    "inject-position-law", "inject-mixture-law", "bayes-risk-curve",
    "cube-exact-vs-mc", "cube-dominates-closed-form", "mixedpbin-mass-floor",
    "multitest-and-mixture-simulations", "rate-fit-power-law",
    "report-orderings", "sweep-worker-determinism",
)

_UNITS = {"calls": "count", "s": "s", "self_s": "s", "mc_samples": "count",
          "exact_calls": "count", "rows": "count", "bytes_computed": "B",
          "draws": "count"}

# Span name -> the aggregate fields reported for it (see tracing.aggregate).
LAYER_FIELDS = (
    ("lower.cube_lower", ("calls", "s", "self_s", "mc_samples",
                          "exact_calls")),
    ("lower.mixedpbin_mass", ("calls", "s", "self_s", "mc_samples")),
    ("lower.bayes_risk_curve", ("calls", "s")),
    ("pbin.multinomial_enumerate", ("calls", "s", "rows", "bytes_computed")),
    ("pbin.binom_pmf", ("calls", "s")),
    ("pbin.pbin_pmf", ("calls", "s")),
    ("pbin.pbin_survival", ("calls", "s")),
    ("upper.mc_mad", ("calls", "s", "self_s", "draws")),
    ("densities.sample_density", ("calls", "s", "draws")),
    ("upper.exact_mad", ("calls", "s")),
    ("upper.inject_kernel", ("calls", "s")),
    ("verify.run_verify", ("s",)),
    *((f"verify.{p}", ("s",)) for p in VERIFY_PROPERTIES),
    ("rates.bound_sweep", ("s", "self_s")),
    ("rates.sweep_summary", ("s",)),
    ("rates.reports_to_csv", ("s",)),
    ("cli.main", ("s",)),
    ("streams.child_rng", ("calls",)),
)

# Metric name -> (span name, field) for the traced run.
LAYER_SOURCES = {
    f"{span}.{field}": (span, field)
    for span, fields in LAYER_FIELDS for field in fields
}
LAYER_SOURCES["cli.self_s"] = ("cli.main", "self_s")

# Counts that must repeat exactly between two traced passes of one seed: a
# difference means the reproducibility contract or the budget changed.
REPEATING_COUNTS = ("mc_samples", "exact_calls", "rows", "bytes_computed",
                    "draws")


def _better(field: str) -> str:
    return "higher" if field == "exact_calls" else "lower"


PER_LAYER = tuple(
    (name, _UNITS[field], _better(field))
    for name, (_, field) in LAYER_SOURCES.items()
) + (("wall_s", "s", "lower"), ("trace.overhead_s", "s", "lower"))
