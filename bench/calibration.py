"""A fixed kernel that measures how fast the machine runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pass can take 1.5x longer in one minute than in the next, with no
change in the work done (user CPU time drifts with it, so the cause is the
host, not the benchmark).  Timing this kernel just before every timed pass
lets the benchmark report pass time in *reference seconds*: a pass timed
after a kernel run of ``k`` seconds is scaled by ``REF_S / k``, i.e.
expressed for a machine on which the kernel takes ``REF_S``.  On a 2-vCPU
cloud VM it takes 0.1-0.2 s.

The kernel never runs obsvalue code, so a change to the program cannot
move it, and a program that gets slower reads slower by the same factor.
Its mix follows the workloads': a Python loop over small numpy operations
(the Monte Carlo row loops, verify's tiny calls) and whole-array passes
(enumeration, the batched DP).  Every array stays below glibc's initial
mmap threshold (128 KiB): freeing a larger one raises that threshold and
so changes how the program's own arrays are allocated and its peak memory.

Set-up time is not scaled: its cold-start work drifts apart from this warm
loop, and from timed standard-library imports, which were tried too.
"""

from __future__ import annotations

import gc
import time

import numpy as np

REF_S = 0.15  # kernel seconds on the reference machine


def _kernel() -> float:
    rng = np.random.default_rng(12345)
    acc = 0.0
    x = rng.random(64)
    for _ in range(8000):
        y = np.convolve(x, x[:16])
        acc += float(y.sum()) + sum(j * j for j in range(20))
        x = np.sort(x * 0.5 + 0.25)
    for _ in range(200):
        big = rng.random(8192)  # 64 KiB
        acc += float((np.cumsum(np.sort(big)) % 1.0)[-1])
    return acc


def measure() -> float:
    """Seconds one run of the kernel takes now, from a collected heap."""
    gc.collect()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` timed just after a kernel run of ``kernel_s``, in
    reference seconds."""
    return seconds * REF_S / kernel_s
