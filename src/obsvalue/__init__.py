"""obsvalue: how much is one more i.i.d. observation worth?

Computes, at desk scale, upper and lower bounds on the deficiency between
observing n and n+1 i.i.d. draws from an unknown density on [0, 1] bounded
below by 1/r, and numerically certifies that both sides decay like
1/sqrt(n).
"""

__version__ = "0.1.0"

from .densities import (HypercubeSpec, RichnessWitness, StepDensity,
                        density_integral, hypercube_density, richness_witness,
                        sample_density, tv_distance)
from .lower import (CubeLowerResult, MixedPbinResult, RiskCurve,
                    bayes_risk_curve, cube_lower, cube_lowers,
                    mixedpbin_mass, richness_lower_bound)
from .pbin import (binom_pmf, multinomial_enumerate, n_compositions,
                   pbin_pmf, pbin_shift_difference, pbin_survival)
from .rates import (BoundReport, RateFit, bound_sweep, rate_fit,
                    reports_to_csv, sweep_summary)
from .upper import (CsCertificate, LikelihoodRatio, TwoLevelRatio,
                    certificate_upper_bound, chi2_radius, exact_mad,
                    hoeffding_certificate, inject_kernel, mad_floor, mc_mad,
                    uniform_ratio)

__all__ = [
    "__version__",
    # distributions
    "binom_pmf", "multinomial_enumerate", "n_compositions", "pbin_pmf",
    "pbin_shift_difference", "pbin_survival",
    # experiment model
    "HypercubeSpec", "RichnessWitness", "StepDensity", "density_integral",
    "hypercube_density", "richness_witness", "sample_density", "tv_distance",
    # upper bounds
    "CsCertificate", "LikelihoodRatio", "TwoLevelRatio",
    "certificate_upper_bound", "chi2_radius", "exact_mad",
    "hoeffding_certificate", "inject_kernel", "mad_floor", "mc_mad",
    "uniform_ratio",
    # lower bounds
    "CubeLowerResult", "MixedPbinResult", "RiskCurve", "bayes_risk_curve",
    "cube_lower", "cube_lowers", "mixedpbin_mass", "richness_lower_bound",
    # rate analysis
    "BoundReport", "RateFit", "bound_sweep", "rate_fit",
    "reports_to_csv", "sweep_summary",
]
