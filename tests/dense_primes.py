"""Prime oracles for the tests.

A one-shot sieve over every integer (no odd packing, no wheel, no segments),
a Miller-Rabin test for single n far beyond it, and a filter test written
from the definitions, which reads a filter's tag and nothing else of it.
None shares code with shortint.primes.
"""

import math
import re

import numpy as np


def dense_flags(limit: int) -> np.ndarray:
    """Flags over 0..limit, true exactly at the primes."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def dense_sieve(limit: int) -> np.ndarray:
    """The primes <= limit, in increasing order."""
    return np.flatnonzero(dense_flags(limit))


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases, which is deterministic
    for every n < 3.3e24 (Sorenson and Webster, Math. Comp. 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _kept(tag: str):
    """Membership in the filter named tag, read back from the tag alone:
    "all", "mod{q}r{a}" keeps p = a (mod q), and "disc{d}s{sign}" keeps the
    p whose Legendre symbol (d/p), by Euler's criterion (by d mod 8 at
    p = 2), equals sign."""
    if tag == "all":
        return lambda p: True
    if residue := re.fullmatch(r"mod(\d+)r(\d+)", tag):
        q, a = map(int, residue.groups())
        return lambda p: p % q == a
    d, sign = map(int, re.fullmatch(r"disc(-?\d+)s([+-]1)", tag).groups())

    def kept(p: int) -> bool:
        if d % p == 0:
            return False
        if p == 2:
            symbol = 1 if d % 8 in (1, 7) else -1
        else:
            symbol = 1 if pow(d % p, (p - 1) // 2, p) == 1 else -1
        return symbol == sign

    return kept


def dense_primes(limit: int, filt) -> np.ndarray:
    """The primes <= limit that pass filt, in increasing order."""
    primes = dense_sieve(limit)
    kept = _kept(filt.tag)
    return primes[np.array([kept(p) for p in primes.tolist()], dtype=bool)]


def count_between(primes: np.ndarray, lo, hi):
    """How many of the sorted primes lie in [lo, hi], for integers or
    integer arrays lo and hi."""
    return np.searchsorted(primes, hi, side="right") - np.searchsorted(
        primes, lo, side="left"
    )
