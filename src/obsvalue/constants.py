"""Central numerical constants shared by every module."""

# Absolute tolerance for exact identities (convolution vs enumeration,
# shift identity, unit-mean ratios, density integrals).
EXACT_TOL = 1e-12

# Refuse exact enumeration whose table, compositions x (cells + 1), holds
# more entries than this; callers use the generating-function engine
# instead.  The guard bounds the enumeration's time and the bytes of its
# compact count table: one byte a count up to 254 trials, so under 8 MiB
# there.  The float work runs in blocks of rows, and no float table of
# every row is kept.  2^23 keeps the largest enumeration in use, Mult(8)
# over 16 cells (490 314 x 17), exact.
ENUM_GUARD = 1 << 23

# Refuse a ``cube_lower`` (and so ``lower cube`` and ``sweep``) whose
# outputs, the risk curve (n + 2 floats), the per-threshold gaps and their
# all-zero half-widths (2n floats each), would take more bytes than this.
# Its engine's own memory does not grow with n, so the outputs are what
# bounds a call.  2^30 (1 GiB) admits n up to 26 843 545; n = 2^24 takes
# 640 MiB, of which the zero half-widths' 256 MiB are pages that are
# never written.
OUTPUT_BUDGET = 1 << 30

# All confidence intervals are 3-sigma normal intervals.
CI_SIGMA = 3.0

# Draws per Monte Carlo chunk.  Each chunk gets its own child random
# stream, so this value is part of the reproducibility contract: changing
# it changes the draws (but never the estimand).
MC_CHUNK = 8192
