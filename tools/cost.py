"""Wall time and peak RSS of one CLI call: ``python3 tools/cost.py ARG...``.

Runs ``python3 -m obsvalue ARG...`` in 5 fresh processes, one after the
other, with this checkout's ``src`` on PYTHONPATH and stdout discarded.
Prints each run's wall time, peak RSS (``os.wait4``'s rusage) and exit
status, their medians with the first and third quartiles beside them
(``statistics.quantiles(n=4)``), and the machine's nproc, Python and
numpy; exits 1 if any run exited nonzero, so an error path is not timed
unnoticed."""
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

RUNS = 5
src = Path(__file__).resolve().parent.parent / "src"
env = {**os.environ, "PYTHONPATH": str(src)}
walls, rss, codes = [], [], []
for i in range(RUNS):
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "obsvalue", *sys.argv[1:]],
                            env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    walls.append(time.perf_counter() - start)
    rss.append(usage.ru_maxrss / 1024)  # KiB on Linux
    proc.returncode = os.waitstatus_to_exitcode(status)
    codes.append(proc.returncode)
    print(f"run {i + 1}: {walls[-1]:.3f} s  {rss[-1]:.1f} MiB  "
          f"exit {proc.returncode}")
for name, values, fmt in (("wall", walls, "{:.3f} s"),
                          ("peak RSS", rss, "{:.1f} MiB")):
    q1, med, q3 = statistics.quantiles(values, n=4)
    print(f"{name}: median {fmt.format(med)}  "
          f"(Q1 {fmt.format(q1)}, Q3 {fmt.format(q3)})")
nproc = len(os.sched_getaffinity(0))
print(f"nproc {nproc}  Python {sys.version.split()[0]}  numpy {np.__version__}")
sys.exit(1 if any(codes) else 0)
