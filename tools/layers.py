"""In-process timings of the exact-path calls: ``python3 tools/layers.py``.

Times, with this checkout's ``src`` on the path, each call that the
benchmark's ``exact-enum`` workload makes: ``cube_lower(n, r)`` for n =
1, ..., 7 and r in (1.5, 2, 4), and ``mixedpbin_mass`` on uniform weights
and the r = 2 risk curve at (m, n) = (9, 9), (8, 12), (10, 10).  Each call
runs ``REPEATS`` times after one warm-up call; prints the minimum of each,
their sum, and the machine's nproc, Python and numpy."""
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from obsvalue import lower  # noqa: E402

REPEATS = 5
CALLS = [(f"cube_lower({n}, {r})", lambda n=n, r=r: lower.cube_lower(n, r))
         for r in (1.5, 2.0, 4.0) for n in range(1, 8)]
for m, n in ((9, 9), (8, 12), (10, 10)):
    table = lower.bayes_risk_curve(2.0, n).values
    CALLS.append((f"mixedpbin_mass({n}, {m})",
                  lambda n=n, m=m, t=table:
                  lower.mixedpbin_mass(n, m, np.full(m, 1.0 / m), t)))

total = 0.0
for name, call in CALLS:
    call()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    total += best
    print(f"{name:28s} {best * 1e3:9.3f} ms")
print(f"{'sum of minima':28s} {total * 1e3:9.3f} ms")
nproc = len(os.sched_getaffinity(0))
print(f"nproc {nproc}  Python {sys.version.split()[0]}  numpy {np.__version__}")
