"""Segmented prime sieve with residue- and quadratic-class filtered views.

The sieve walks segments of SEGMENT_SIZE odd integers, one flag per odd n, in a
single reused buffer so the working set stays cache-resident; the prime 2 is
handled logically.  Each segment is pre-sieved by a wheel: the flags of the
odd n free of 3, 5, ..., 17 repeat with period WHEEL = 255255 in the odd-only
index, so one tile of that pattern is copied in, and only the base primes
above 17 are marked, from start offsets computed for all of them at once.
It is the package's only sieve.  prime_segments turns each segment of a
range [lo, limit] into its sorted, filtered primes; every window scan reads
them through a forward PrimeReader, build_table writes them into the table's
sorted int64 array, primes_upto takes the same path, and prime_count counts
the segments without keeping them.  A table is that array alone, immutable
and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import MemoryBudgetError, ParameterRangeError

SEGMENT_SIZE = 2**20  # odd entries per segment
# Pre-sieved by tiling: the odd n free of these primes repeat with period
# WHEEL in the odd-only index.
WHEEL_PRIMES = (3, 5, 7, 11, 13, 17)
WHEEL = math.prod(WHEEL_PRIMES)
_WHEEL_INDEX = [(p - 3) // 2 for p in WHEEL_PRIMES]  # their odd-only indices
DEFAULT_MEMORY_BUDGET = 2**31  # bytes
# the largest sieve limit whose marking products, below limit + 2*isqrt(limit),
# fit int64
MAX_LIMIT = 2**63 - 6_074_000_997


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
    # far up the line most base primes have no multiple in a short segment
    hits = starts < len(flags)
    for p, start in zip(live[hits].tolist(), starts[hits].tolist()):
        flags[start::p] = False


def _segments(limit: int, lo: int = 1) -> Iterator[tuple[int, np.ndarray]]:
    """The odd-only sieve of the odd n in [lo, limit] from 3 on, one marked
    segment at a time.

    Yields (i0, flags) with flags[i] true iff 3 + 2*(i0 + i) is prime.  The
    first segment starts at the first odd n >= max(lo, 3), so a range costs
    only its own segments and the base primes up to isqrt(limit).  Every
    segment is marked in one reused buffer of SEGMENT_SIZE entries, so flags is
    valid only until the next item is requested.  A limit beyond MAX_LIMIT
    raises ParameterRangeError, and one whose base primes would exceed the
    memory budget MemoryBudgetError, before anything is sieved.
    """
    if limit > MAX_LIMIT:
        raise ParameterRangeError(
            f"sieve limit {limit:,} is beyond int64 arithmetic; "
            f"the largest supported is {MAX_LIMIT:,}"
        )
    root = math.isqrt(limit)
    base = np.empty(0, dtype=np.int64)
    if root >= 2:
        check_budget(_array_bytes(root), f"limit={limit}", "its base primes")
        base = _prime_array(root)
    base = base[base > WHEEL_PRIMES[-1]]
    size = SEGMENT_SIZE
    n_odds = (limit - 1) // 2
    first = max((lo - 2) // 2, 0)  # odd-only index of the first odd n >= lo
    buf = np.empty(max(min(size, n_odds - first), 0), dtype=bool)
    # segment i0 copies wheel[i0 % WHEEL:], so the tile spans one period
    # past the longest segment, or the whole range when that is shorter
    wheel = _wheel(min(n_odds, WHEEL + len(buf)))
    for i0 in range(first, n_odds, size):
        flags = buf[: min(size, n_odds - i0)]
        start = i0 % WHEEL
        flags[:] = wheel[start : start + len(flags)]
        # the wheel primes themselves are prime, in whichever segment they fall
        flags[[i - i0 for i in _WHEEL_INDEX if i0 <= i < i0 + len(flags)]] = True
        _mark_segment(flags, base, i0)
        yield i0, flags


def prime_segments(
    limit: int, filt: PrimeFilter = ALL, lo: int = 1
) -> Iterator[tuple[int, np.ndarray]]:
    """The primes in [lo, limit] that pass filt, in increasing order, one
    sieve segment at a time.

    Yields (top, primes): primes is a fresh sorted int64 array of the
    filtered primes in (previous top, top], or in [lo, top] for the first
    item, and the last top is limit.  The prime 2, when lo <= 2, comes first,
    alone, with top 2.  A range that holds neither 2 nor an odd n > 2 yields
    nothing.
    """
    if lo <= 2:
        two = np.array([2], dtype=np.int64)
        yield 2, two[filt.mask(two)]
    for i0, flags in _segments(limit, lo):
        primes = np.flatnonzero(flags)
        primes *= 2
        primes += 3 + 2 * i0
        # the even number after the segment's last odd value is composite
        top = min(2 * (i0 + len(flags)) + 2, limit)
        yield top, primes if filt.kind == "all" else primes[filt.mask(primes)]


def _prime_bound(limit: int) -> int:
    """pi(x) < 1.26 x / ln x for x > 1 (Rosser and Schoenfeld, 1962)."""
    return int(1.26 * limit / math.log(limit)) + 1


def _array_bytes(limit: int) -> int:
    """The peak bytes of _prime_array(limit), 8 an entry: the bound-sized
    array, then its trimmed copy (~x/ln x)."""
    return 8 * (_prime_bound(limit) + int(limit / math.log(limit)))


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
    check_budget(
        _array_bytes(limit), f"limit={limit}", "the prime array and its trimmed copy"
    )
    return PrimeTable(limit, _prime_array(limit))


def check_budget(need: int, who: str, what: str) -> None:
    """MemoryBudgetError when who needs more than DEFAULT_MEMORY_BUDGET bytes."""
    if need > DEFAULT_MEMORY_BUDGET:
        raise MemoryBudgetError(
            f"{who} needs about {need:,} bytes for {what}; "
            f"budget is {DEFAULT_MEMORY_BUDGET:,}"
        )


class PrimeReader:
    """Forward-only reader of the primes a prime_segments iterator yields.

    between(lo, hi) returns the sorted primes in [lo, hi].  It sieves only
    the segments that hi newly reaches and drops the primes below lo, so lo
    must never move back, and hi must stay within the iterator's limit.  The
    array returned is a view that later calls leave unchanged.
    """

    def __init__(self, segments: Iterator[tuple[int, np.ndarray]]):
        self._segments = segments
        self._primes = np.empty(0, dtype=np.int64)
        self._top = -1  # every prime <= _top has been read

    def between(self, lo: int, hi: int) -> np.ndarray:
        parts = [self._primes]
        while self._top < hi:
            self._top, primes = next(self._segments, (hi, parts[0][:0]))
            parts.append(primes)
        primes = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self._primes = primes[np.searchsorted(primes, lo) :]
        return self._primes[: np.searchsorted(self._primes, hi, side="right")]
