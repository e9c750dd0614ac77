"""Tier-1 runs density scans whose parts are forked from the test process,
which must then hold a single thread.  numpy's OpenBLAS would start one idle
thread per CPU as numpy loads, and the package makes no BLAS call, so the
pool is pinned to one thread here, before any test module imports numpy.  A
setting already in the environment wins."""

import math
import os

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


@pytest.fixture
def nothing_kept(monkeypatch):
    """The sieve's kept base primes and wheel tile, and the kept breakpoints
    of L, start empty for the test, as in a new process; what it keeps is
    dropped after it."""
    import numpy as np

    from shortint import density, primes

    empty = np.empty(0, dtype=np.int64)
    monkeypatch.setattr(primes, "_base", (primes.WHEEL_PRIMES[-1], empty))
    monkeypatch.setattr(primes, "_tile", np.empty(0, dtype=bool))
    monkeypatch.setattr(density, "_edges", (math.nan, 0, empty))
