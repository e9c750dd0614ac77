"""Segmented prime sieve with residue- and quadratic-class filtered views.

The table keeps one flag per odd integer (bit i <-> 3 + 2i); the prime 2 is
handled logically.  Construction walks segments of SEGMENT_SIZE odd entries so
the working set stays cache-resident, and the finished table is immutable and
safe to share between threads.  This is the package's only sieve: primes_upto
runs it too, and build_table takes its sieving primes from primes_upto.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import MemoryBudgetError, OutOfRangeError

SEGMENT_SIZE = 2**18  # odd entries per segment, sized for L2 cache
DEFAULT_MEMORY_BUDGET = 2**31  # bytes


def kronecker_symbol(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for positive n, with the usual 2-adic rules."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n == 1:
        return 1
    if math.gcd(d, n) != 1:
        return 0
    result = 1
    # (d/2) factors: depends on d mod 8
    twos = (n & -n).bit_length() - 1
    n >>= twos
    if twos % 2 == 1 and d % 8 in (3, 5):
        result = -result
    # Jacobi symbol (d/n) for odd n via quadratic reciprocity
    a = d % n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result


def _squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1 if p == 2 else 2
    return True


def is_fundamental_discriminant(d: int) -> bool:
    """True for 1 and for discriminants of quadratic fields."""
    if d == 0:
        return False
    if d % 4 == 1:
        return _squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


@dataclass(frozen=True)
class PrimeFilter:
    """Predicate selecting primes: all of them, a residue class, or a
    quadratic splitting class decided by the Kronecker symbol.

    kind is one of "all", "residue", "kronecker".  Residue filters keep
    primes p = residue (mod modulus); Kronecker filters keep primes with
    (discriminant/p) equal to sign, which excludes primes dividing the
    discriminant.
    """

    kind: str = "all"
    residue: int = 0
    modulus: int = 1
    discriminant: int = 1
    sign: int = 1
    _chi: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind == "all":
            return
        if self.kind == "residue":
            a, q = self.residue, self.modulus
            if q < 1:
                raise ValueError(f"modulus must be >= 1, got {q}")
            if not 0 <= a < q:
                raise ValueError(f"residue must satisfy 0 <= a < {q}, got {a}")
            if math.gcd(a, q) != 1:
                raise ValueError(f"residue {a} and modulus {q} must be coprime")
            return
        if self.kind == "kronecker":
            d, s = self.discriminant, self.sign
            if s not in (-1, 1):
                raise ValueError(f"sign must be +1 or -1, got {s}")
            if not is_fundamental_discriminant(d):
                raise ValueError(f"{d} is not a fundamental discriminant")
            # (d/.) is periodic mod |d| for fundamental d; cache one period
            period = abs(d)
            chi = tuple(
                kronecker_symbol(d, r) if r else (1 if period == 1 else 0)
                for r in range(period)
            )
            object.__setattr__(self, "_chi", chi)
            return
        raise ValueError(f"unknown filter kind {self.kind!r}")

    @classmethod
    def all(cls) -> "PrimeFilter":
        return cls()

    @classmethod
    def residue_class(cls, a: int, q: int) -> "PrimeFilter":
        return cls(kind="residue", residue=a, modulus=q)

    @classmethod
    def kronecker(cls, d: int, sign: int) -> "PrimeFilter":
        return cls(kind="kronecker", discriminant=d, sign=sign)

    def passes(self, p: int) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "residue":
            return p % self.modulus == self.residue
        return self._chi[p % abs(self.discriminant)] == self.sign

    def mask(self, primes: np.ndarray) -> np.ndarray:
        """Boolean mask over an array of primes."""
        if self.kind == "all":
            return np.ones(len(primes), dtype=bool)
        if self.kind == "residue":
            return primes % self.modulus == self.residue
        chi = np.asarray(self._chi, dtype=np.int8)
        return chi[primes % abs(self.discriminant)] == self.sign

    @property
    def tag(self) -> str:
        if self.kind == "all":
            return "all"
        if self.kind == "residue":
            return f"mod{self.modulus}r{self.residue}"
        return f"disc{self.discriminant}s{self.sign:+d}"


ALL = PrimeFilter()


class PrimeTable:
    """Immutable set of the primes up to `limit`, backed by an odd-only bitmap."""

    def __init__(self, limit: int, odd_bits: np.ndarray):
        self.limit = int(limit)
        self._bits = odd_bits
        self.count = (1 if self.limit >= 2 else 0) + int(np.count_nonzero(odd_bits))
        self._prime_cache: np.ndarray | None = None
        self._prime_lock = threading.Lock()

    def membership(self, n: int) -> bool:
        if n > self.limit:
            raise OutOfRangeError(f"{n} exceeds the sieved limit {self.limit}")
        if n == 2:
            return True
        if n < 3 or n % 2 == 0:
            return False
        return bool(self._bits[(n - 3) // 2])

    __contains__ = membership

    def primes(self) -> np.ndarray:
        """All primes <= limit as a sorted int64 array (cached, read-only).

        The first call builds the index under a lock, so threads that race to
        it build it once; later calls take no lock.
        """
        cache = self._prime_cache
        if cache is None:
            with self._prime_lock:
                if self._prime_cache is None:
                    built = _primes_of(self._bits)
                    built.setflags(write=False)
                    self._prime_cache = built
                cache = self._prime_cache
        return cache

    def __repr__(self) -> str:
        return f"PrimeTable(limit={self.limit}, count={self.count})"


def _primes_of(odd_bits: np.ndarray) -> np.ndarray:
    odds = np.flatnonzero(odd_bits).astype(np.int64) * 2 + 3
    return np.concatenate((np.array([2], dtype=np.int64), odds))


def primes_upto(n: int) -> list[int]:
    """All primes <= n, from the segmented sieve; meant for small n such as
    the sieving primes of a table."""
    return _primes_of(_sieve(n)).tolist() if n >= 2 else []


def _mark_segment(bits: np.ndarray, base: list[int], i0: int, i1: int) -> None:
    lo_val = 3 + 2 * i0
    hi_val = 3 + 2 * (i1 - 1)
    for p in base:
        p2 = p * p
        if p2 > hi_val:
            break
        q = -(-lo_val // p) | 1  # first odd cofactor with q*p >= lo_val
        start = max(p2, q * p)
        idx = (start - 3) // 2
        if idx < i1:
            bits[idx:i1:p] = False


def _sieve(limit: int) -> np.ndarray:
    """Odd-only flags for 3, 5, ..., <= limit, marked segment by segment."""
    n_odds = (limit - 1) // 2
    bits = np.ones(n_odds, dtype=bool)
    if n_odds:
        base = primes_upto(math.isqrt(limit))[1:]  # the bitmap holds odd n only
        for i0 in range(0, n_odds, SEGMENT_SIZE):
            _mark_segment(bits, base, i0, min(i0 + SEGMENT_SIZE, n_odds))
    return bits


def build_table(limit: int, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> PrimeTable:
    """Sieve the primes up to `limit`, refusing tables whose bitmap and prime
    index would exceed memory_budget bytes."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    n_odds = (limit - 1) // 2  # odd integers 3, 5, ..., <= limit
    estimate = n_odds + 8 * (limit // max(int(math.log(limit)), 1))
    if estimate > memory_budget:
        raise MemoryBudgetError(
            f"limit={limit} needs about {estimate:,} bytes for the bitmap and "
            f"prime index; budget is {memory_budget:,}"
        )
    bits = _sieve(limit)
    bits.setflags(write=False)
    return PrimeTable(limit, bits)


def _int_bounds(lo: float, hi: float) -> tuple[int, int]:
    return math.ceil(lo), math.floor(hi)


def count_in(table: PrimeTable, lo: float, hi: float, filt: PrimeFilter = ALL) -> int:
    """Number of primes p with lo <= p <= hi passing the filter.

    Both endpoints are closed; real endpoints are compared exactly against
    integer primes, so p <= hi is decided by p <= floor(hi).
    """
    if not 0 <= lo <= hi:
        raise ValueError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
    if hi > table.limit:
        raise OutOfRangeError(
            f"hi={hi} exceeds the sieved limit {table.limit}; "
            f"rebuild with limit >= {math.ceil(hi)}"
        )
    ilo, ihi = _int_bounds(lo, hi)
    if ihi < 2 or ilo > ihi:
        return 0
    primes = table.primes()
    left = np.searchsorted(primes, ilo, side="left")
    right = np.searchsorted(primes, ihi, side="right")
    if filt.kind == "all":
        return int(right - left)
    return int(np.count_nonzero(filt.mask(primes[left:right])))


def primes_between(
    table: PrimeTable, lo: float, hi: float, filt: PrimeFilter = ALL
) -> np.ndarray:
    """Sorted array of the filtered primes in the closed interval [lo, hi]."""
    if not 0 <= lo <= hi:
        raise ValueError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
    if hi > table.limit:
        raise OutOfRangeError(
            f"hi={hi} exceeds the sieved limit {table.limit}"
        )
    ilo, ihi = _int_bounds(lo, hi)
    primes = table.primes()
    left = np.searchsorted(primes, ilo, side="left")
    right = np.searchsorted(primes, ihi, side="right")
    chunk = primes[left:right]
    if filt.kind == "all":
        return chunk.copy()
    return chunk[filt.mask(chunk)]
