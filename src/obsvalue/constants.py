"""Central numerical constants, and the one output-budget check, shared by
every module."""

# Absolute tolerance for exact identities (convolution vs enumeration,
# shift identity, unit-mean ratios, density integrals).
EXACT_TOL = 1e-12

# Refuse exact enumeration whose table, compositions x (cells + 1), holds
# more entries than this; callers use the generating-function engine
# instead.  The guard bounds the compact count table, one byte a count up
# to 254 trials, so under 8 MiB there, and the rows a sum over it visits.
# The Poisson-binomial work is done once a class of rows (at most one a
# row), and no float table of every row is kept.  2^23 keeps the largest
# enumeration in use, Mult(8) over 16 cells (490 314 x 17), exact.
ENUM_GUARD = 1 << 23

# Refuse, through ``check_budget``, whatever would take more bytes than
# this: the outputs of a ``cube_lower`` (and so of ``lower cube`` and
# ``sweep``), the risk curve (n + 2 floats), the per-threshold gaps and
# their all-zero half-widths (2n floats each); a Binomial band
# (``pbin._binom_band``); the powered grid of the generating-function
# engine (``lower._gf_window``); a CLI table.  2^30 (1 GiB) admits
# ``cube_lower`` up to n = 26 843 545; n = 2^24 takes 640 MiB, of which
# the zero half-widths' 256 MiB are pages that are never written.
OUTPUT_BUDGET = 1 << 30


def check_budget(need: int, what: str) -> None:
    """Raise ValueError when ``what`` takes ``need`` bytes, more than
    ``OUTPUT_BUDGET``; callers check before they allocate."""
    if need > OUTPUT_BUDGET:
        raise ValueError(f"{what} take {need} bytes, over the "
                         f"{OUTPUT_BUDGET}-byte output budget")


# All confidence intervals are 3-sigma normal intervals.
CI_SIGMA = 3.0

# Draws per Monte Carlo chunk.  Each chunk gets its own child random
# stream, so this value is part of the reproducibility contract: changing
# it changes the draws (but never the estimand).
MC_CHUNK = 8192
