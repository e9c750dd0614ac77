"""Segmented prime sieve with residue- and quadratic-class filtered views.

The sieve walks segments of SEGMENT_SIZE odd integers, one flag per odd n, in a
single reused buffer so the working set stays cache-resident; the prime 2 is
handled logically.  Each segment is pre-sieved by a wheel: the flags of the
odd n free of 3, 5, ..., 17 repeat with period WHEEL = 255255 in the odd-only
index, so one tile of that pattern is copied in, and only the base primes
above 17 are marked, from start offsets computed for all of them at once.
It is the package's only sieve.  prime_segments turns each segment into its
sorted, filtered primes; build_table writes them into the table's sorted
int64 array, primes_upto takes the same path, the density scan consumes them
directly, and prime_count counts the segments without keeping them.  A table
is that array alone, immutable and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import MemoryBudgetError, OutOfRangeError

SEGMENT_SIZE = 2**20  # odd entries per segment
# Pre-sieved by tiling: the odd n free of these primes repeat with period
# WHEEL in the odd-only index.
WHEEL_PRIMES = (3, 5, 7, 11, 13, 17)
WHEEL = math.prod(WHEEL_PRIMES)
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
    def residue_class(cls, a: int, q: int) -> "PrimeFilter":
        return cls(kind="residue", residue=a, modulus=q)

    @classmethod
    def kronecker(cls, d: int, sign: int) -> "PrimeFilter":
        return cls(kind="kronecker", discriminant=d, sign=sign)

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
    """Immutable set of the primes up to `limit`, held as one sorted array."""

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = int(limit)
        primes.setflags(write=False)
        # the name _prime_cache and primes() as a method stay because
        # perfbench's tracer reads the attribute and patches the method
        self._prime_cache = primes
        self.count = len(primes)

    def primes(self) -> np.ndarray:
        """All primes <= limit as a sorted, read-only int64 array."""
        return self._prime_cache

    def __repr__(self) -> str:
        return f"PrimeTable(limit={self.limit}, count={self.count})"


def _wheel(length: int) -> np.ndarray:
    """Flags over 3 + 2i for i < length, false where a WHEEL_PRIMES prime
    divides; the pattern repeats every WHEEL entries."""
    flags = np.ones(length, dtype=bool)
    for p in WHEEL_PRIMES:
        flags[(p - 3) // 2 :: p] = False
    return flags


def _mark_segment(flags: np.ndarray, base: np.ndarray, i0: int) -> None:
    """Clear the odd multiples of the base primes in flags, which covers
    3 + 2i for i >= i0; each prime starts at its first odd multiple that is
    at least both its square and the segment's first value."""
    lo_val = 3 + 2 * i0
    hi_val = lo_val + 2 * (len(flags) - 1)
    live = base[: np.searchsorted(base, math.isqrt(hi_val), side="right")]
    first = (-(-lo_val // live)) | 1  # first odd cofactor q with q*p >= lo_val
    starts = (np.maximum(live * live, first * live) - lo_val) // 2
    for p, start in zip(live.tolist(), starts.tolist()):
        flags[start::p] = False


def _segments(limit: int) -> Iterator[tuple[int, np.ndarray]]:
    """The odd-only sieve of 3, 5, ..., <= limit, one marked segment at a time.

    Yields (i0, flags) with flags[i] true iff 3 + 2*(i0 + i) is prime.  Every
    segment is marked in one reused buffer of SEGMENT_SIZE entries, so flags is
    valid only until the next item is requested.
    """
    size = SEGMENT_SIZE
    n_odds = (limit - 1) // 2
    # segment i0 copies wheel[i0 % WHEEL:], so the tile spans one period
    # past the longest segment, or the whole range when that is shorter
    wheel = _wheel(min(n_odds, WHEEL + size))
    base = np.array(primes_upto(math.isqrt(limit)), dtype=np.int64)
    base = base[base > WHEEL_PRIMES[-1]]
    buf = np.empty(min(size, n_odds), dtype=bool)
    for i0 in range(0, n_odds, size):
        flags = buf[: min(size, n_odds - i0)]
        start = i0 % WHEEL
        flags[:] = wheel[start : start + len(flags)]
        if i0 == 0:  # the wheel primes themselves are prime
            flags[[(p - 3) // 2 for p in WHEEL_PRIMES if p <= limit]] = True
        _mark_segment(flags, base, i0)
        yield i0, flags


def prime_segments(
    limit: int, filt: PrimeFilter = ALL
) -> Iterator[tuple[int, np.ndarray]]:
    """The primes <= limit that pass filt, in increasing order, one sieve
    segment at a time.

    Yields (top, primes): primes is a fresh sorted int64 array of the
    filtered primes in (previous top, top], and the last top is limit.  The
    prime 2 comes first, alone, with top 2.
    """
    two = np.array([2], dtype=np.int64)
    yield 2, two[filt.mask(two)]
    for i0, flags in _segments(limit):
        primes = np.flatnonzero(flags)
        primes *= 2
        primes += 3 + 2 * i0
        # the even number after the segment's last odd value is composite
        top = min(2 * (i0 + len(flags)) + 2, limit)
        yield top, primes if filt.kind == "all" else primes[filt.mask(primes)]


def _prime_bound(limit: int) -> int:
    """pi(x) < 1.26 x / ln x for x > 1 (Rosser and Schoenfeld, 1962)."""
    return int(1.26 * limit / math.log(limit)) + 1


def _prime_array(limit: int) -> np.ndarray:
    """All primes <= limit (>= 2), written segment by segment into one array
    of _prime_bound(limit) entries and trimmed to a copy of the filled part."""
    out = np.empty(_prime_bound(limit), dtype=np.int64)
    k = 0
    for _, primes in prime_segments(limit):
        out[k : k + len(primes)] = primes
        k += len(primes)
    return out[:k].copy()


def _check_limit(limit: int) -> None:
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")


def primes_upto(n: int) -> list[int]:
    """All primes <= n, from the segmented sieve; meant for small n such as
    the sieving primes of a table."""
    return _prime_array(n).tolist() if n >= 2 else []


def prime_count(limit: int) -> int:
    """pi(limit), counted segment by segment without keeping the primes, so
    memory stays O(SEGMENT_SIZE) at any limit."""
    _check_limit(limit)
    odd = sum(int(np.count_nonzero(flags)) for _, flags in _segments(limit))
    return 1 + odd  # the prime 2 is not in the odd-only segments


def build_table(limit: int) -> PrimeTable:
    """Sieve the primes up to `limit` into a table, refusing limits whose build
    would exceed DEFAULT_MEMORY_BUDGET bytes."""
    _check_limit(limit)
    # 8 B an entry: the bound-sized array, then its trimmed copy (~x/ln x)
    estimate = 8 * (_prime_bound(limit) + int(limit / math.log(limit)))
    if estimate > DEFAULT_MEMORY_BUDGET:
        raise MemoryBudgetError(
            f"limit={limit} needs about {estimate:,} bytes for the prime array "
            f"and its trimmed copy; budget is {DEFAULT_MEMORY_BUDGET:,}"
        )
    return PrimeTable(limit, _prime_array(limit))


def primes_between(
    table: PrimeTable, lo: float, hi: float, filt: PrimeFilter = ALL
) -> np.ndarray:
    """Sorted array of the filtered primes in the closed interval [lo, hi].

    Real endpoints are compared exactly against integer primes: lo <= p is
    decided by ceil(lo) <= p and p <= hi by p <= floor(hi).
    """
    if not 0 <= lo <= hi:
        raise ValueError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
    if hi > table.limit:
        raise OutOfRangeError(
            f"hi={hi} exceeds the sieved limit {table.limit}"
        )
    primes = table.primes()
    left = np.searchsorted(primes, math.ceil(lo), side="left")
    right = np.searchsorted(primes, math.floor(hi), side="right")
    chunk = primes[left:right]
    if filt.kind == "all":
        return chunk.copy()
    return chunk[filt.mask(chunk)]
