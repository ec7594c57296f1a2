"""The numerical constants that more than one module reads, and the one
output-budget check."""

# Absolute tolerance for exact identities (convolution vs enumeration,
# shift identity, unit-mean ratios, density integrals).
EXACT_TOL = 1e-12

# Refuse, through ``check_budget``, whatever would take more bytes than
# this: the outputs of a ``cube_lower`` (and so of ``lower cube`` and
# ``sweep``), the risk curve (n + 2 floats), the per-threshold gaps and
# their all-zero half-widths (2n floats each); any risk curve
# (``lower.bayes_risk_curve``); a Binomial band (``pbin._binom_band``)
# and the n + 1 floats it is placed in (``pbin.binom_pmf``); the powered
# grid of the generating-function engine (``lower._gf_window``); a CLI
# table.  2^30 (1 GiB) admits ``cube_lower`` up to n = 26 843 545;
# n = 2^24 takes 640 MiB, of which the zero half-widths' 256 MiB are
# pages that are never written.
OUTPUT_BUDGET = 1 << 30


def check_budget(need: int, what: str) -> None:
    """Raise ValueError when ``what`` takes ``need`` bytes, more than
    ``OUTPUT_BUDGET``; callers check before they allocate."""
    if need > OUTPUT_BUDGET:
        raise ValueError(f"{what} take {need} bytes, over the "
                         f"{OUTPUT_BUDGET}-byte output budget")


# Draws per Monte Carlo chunk.  Each chunk gets its own child random
# stream, so this value is part of the reproducibility contract: changing
# it changes the draws (but never the estimand).
MC_CHUNK = 8192
