"""Tier-1 runs density scans whose parts are forked from the test process,
which must then hold a single thread.  numpy's OpenBLAS would start one idle
thread per CPU as numpy loads, and the package makes no BLAS call, so the
pool is pinned to one thread here, before any test module imports numpy.  A
setting already in the environment wins."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
