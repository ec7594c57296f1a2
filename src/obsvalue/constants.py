"""Central numerical constants shared by every module."""

# Absolute tolerance for exact identities (convolution vs enumeration,
# shift identity, unit-mean ratios, density integrals).
EXACT_TOL = 1e-12

# Absolute tolerance for sums over full enumerations.
SUM_TOL = 1e-10

# Refuse exact enumeration above this many multinomial compositions;
# callers use the generating-function engine instead.
ENUM_GUARD = 10**6

# All confidence intervals are 3-sigma normal intervals.
CI_SIGMA = 3.0

# Draws per Monte Carlo chunk.  Each chunk gets its own child random
# stream, so this value is part of the reproducibility contract: changing
# it changes the draws (but never the estimand).
MC_CHUNK = 8192
