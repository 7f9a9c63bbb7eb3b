"""Test-only helpers that several test modules share.

``bits`` is the float-to-bits view that bitwise comparisons use, and
``traced_peak`` the tracemalloc peak of one call, which the memory bounds
are stated in.
"""

import tracemalloc

import numpy as np


def bits(x) -> np.ndarray:
    """The IEEE 754 bit patterns of ``x``, elementwise, as unsigned integers."""
    return np.asarray(x, dtype=float).view(np.uint64)


def traced_peak(call):
    """``call()``'s value and the peak traced allocation, in bytes, while it
    runs."""
    tracemalloc.start()
    try:
        value = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak
