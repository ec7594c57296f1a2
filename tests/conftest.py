"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(fn):
    """Call ``fn()`` under tracemalloc; return its result and the peak of
    the memory traced during the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture
def traced_peak():
    return _traced_peak
