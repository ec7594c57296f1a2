"""In-process timings of the benchmark's layers: ``python3 tools/layers.py``.

Times, with this checkout's ``src`` on the path, each call that the
benchmark's ``exact-enum`` workload makes: ``cube_lower(n, r)`` for n =
1, ..., 7 and r in (1.5, 2, 4), and ``mixedpbin_mass`` on uniform weights
and the r = 2 risk curve at (m, n) = (9, 9), (8, 12), (10, 10).  Then two
layers on their own: the naming of the row classes of both enumerations
of ``cube_lower(n, r)``'s exact path, Mult(n) and Mult(n + 1) over 2n
cells, for n = 1, ..., 7; and ``mc_mad`` at 100 000 draws on the
``upper-mc`` workload's 64-cell alternating vertex density, k = 257, on
the r = 2 one-cell vertex density of ``upper mad`` at each k = n + 1 of
its rows for n = 4:256:x2, and there at k = 2^17 + 1, whose Binomial band
is wider than a Monte Carlo chunk.  Each call
runs ``REPEATS`` times after one warm-up call; prints the minimum of each,
the sum of each group's minima, and the machine's nproc, Python and
numpy."""
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from obsvalue import densities, lower, pbin, upper  # noqa: E402

REPEATS = 5
EXACT_ENUM = [(f"cube_lower({n}, {r})", lambda n=n, r=r: lower.cube_lower(n, r))
              for r in (1.5, 2.0, 4.0) for n in range(1, 8)]
for m, n in ((9, 9), (8, 12), (10, 10)):
    table = lower.bayes_risk_curve(2.0, n).values
    EXACT_ENUM.append((f"mixedpbin_mass({n}, {m})",
                       lambda n=n, m=m, t=table:
                       lower.mixedpbin_mass(n, m, np.full(m, 1.0 / m), t)))
NAMING = [(f"row classes of Mult({n}, {n + 1}) over {2 * n}",
           lambda n=n: pbin._composition_classes((n, n + 1), 2 * n))
          for n in range(1, 8)]
CELLS64 = densities.hypercube_density(
    densities.HypercubeSpec(2.0, 64, [j % 2 for j in range(64)]))
ONE_CELL = densities.hypercube_density(densities.HypercubeSpec(2.0, 1, [0]))
MC_MAD = [("mc_mad(64 cells, 257, 100000)",
           lambda: upper.mc_mad(CELLS64, 257, 100_000, seed=0))]
MC_MAD += [(f"mc_mad(1 cell, {k}, 100000)",
            lambda k=k: upper.mc_mad(ONE_CELL, k, 100_000, seed=0))
           for k in (5, 9, 17, 33, 65, 129, 257, 2**17 + 1)]

for group, calls in (("exact-enum", EXACT_ENUM), ("naming", NAMING),
                     ("mc_mad", MC_MAD)):
    total = 0.0
    for name, call in calls:
        call()
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        total += best
        print(f"{name:36s} {best * 1e3:9.3f} ms")
    print(f"{'sum of minima, ' + group:36s} {total * 1e3:9.3f} ms")
nproc = len(os.sched_getaffinity(0))
print(f"nproc {nproc}  Python {sys.version.split()[0]}  numpy {np.__version__}")
