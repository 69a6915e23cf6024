"""Fixtures shared by the test modules."""

import math
import tracemalloc

import pytest


@pytest.fixture
def peak_arrays():
    """Traced peak of ``call()``, in float64 field arrays of shape ``dims``.

    The call runs once untraced first, so that the shift plans it memoises
    do not count; the second call is traced.
    """
    def measure(call, dims):
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * math.prod(dims))
    return measure
