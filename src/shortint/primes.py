"""Segmented prime sieve with filtered views.

A filter is (modulus Q, kept classes mod Q, tag): it keeps the primes whose
class mod Q is kept, and the tag names it in outputs.  The residue filter
keeps one class a mod q, the Kronecker filter the classes r mod |d| with
(d/r) equal to its sign, and ALL the one class 0 mod 1.

The sieve walks segments of SEGMENT_SIZE odd integers, one flag per odd n, in a
single reused buffer so the working set stays cache-resident; the prime 2 is
handled logically.  Each segment is pre-sieved by a wheel: the flags of the
odd n free of 3, 5, ..., 17 repeat with period WHEEL = 255255 in the odd-only
index, so one tile of that pattern is copied in, and only the base primes
above 17 are marked, their start offsets computed MARK_CHUNK at a time.
It is the package's only sieve.  Its fixed part, the base primes and the
wheel tile, is kept here and replaced only when a segment needs more: the
base primes are sieved again up to the root of twice the value that first
needs more, or of its range's limit if less, so a run that climbs sieves
them a few times, never far past its own values.
prime_segments turns each segment of a range [lo, limit] into its sorted,
filtered primes; every window scan reads them through a forward PrimeReader,
build_table writes them into the table's sorted int64 array, primes_upto
takes the same path, and prime_count counts the segments without keeping
them.  A table is that array alone, immutable
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
# base primes whose start offsets in a segment are computed at once: a few
# int64 temporaries of this length, and one chunk for every segment below 6.7e11
MARK_CHUNK = 2**16
# the largest sieve limit whose marking products, below limit + 2*isqrt(limit),
# fit int64
MAX_LIMIT = 2**63 - 6_074_000_997
# the largest |d| of a Kronecker filter: its about |d|/2 kept classes, found in
# a few tenths of a second there, are a tuple of Python ints (some 20 MB) and a
# table of one bool per class mod |d| (at most 1 MB), made once with the filter
MAX_DISCRIMINANT = 10**6


# (D/r) for r mod 8, for the three prime discriminants D = -4, 8, -8 of 2
_TWO_CHARACTERS = {
    -4: (0, 1, 0, -1, 0, 1, 0, -1),
    8: (0, 1, 0, -1, 0, -1, 0, 1),
    -8: (0, 1, 0, 1, 0, -1, 0, -1),
}


def _legendre_table(p: int) -> np.ndarray:
    """(r/p) as -1, 0 or 1 for r = 0, ..., p - 1 and an odd prime p <=
    MAX_DISCRIMINANT, whose squares stay in int64: 1 on the nonzero squares
    mod p, 0 at 0 and -1 elsewhere."""
    table = np.full(p, -1, dtype=np.int8)
    table[np.arange(1, p, dtype=np.int64) ** 2 % p] = 1
    table[0] = 0
    return table


def _kronecker_table(d: int) -> np.ndarray:
    """(d/r) for r = 0, ..., |d| - 1, as int8, for a fundamental d, with
    (d/0) = (d/|d|).

    (d/.) is the product of the characters of the prime discriminants that
    d is made of: the Legendre symbol (r/p) for each odd prime p | d, and,
    when 4 | d, the character of the 2-part -4, 8 or -8.  Each factor is 0
    on the r its prime divides, so the product is 0 where gcd(r, |d|) > 1.
    """
    q = abs(d)
    r = np.arange(q, dtype=np.int64)
    table = np.ones(q, dtype=np.int8)
    odd, rest, p = 1, q // (q & -q), 3  # rest: the odd part of |d|, squarefree
    while rest > 1:
        if p * p > rest:
            p = rest  # what is left is prime
        if rest % p == 0:
            rest //= p
            odd *= p if p % 4 == 1 else -p  # the prime discriminant of p
            table *= _legendre_table(p)[r % p]
        p += 2
    if q % 4 == 0:
        table *= np.array(_TWO_CHARACTERS[d // odd], dtype=np.int8)[r % 8]
    return table


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
    """The primes whose class mod modulus is in classes; tag names it in
    outputs.  Several classes mod at most MAX_DISCRIMINANT are marked once, in
    a table of at most 1 MB that mask gathers from; others are compared."""

    modulus: int = 1
    classes: tuple[int, ...] = (0,)
    tag: str = "all"
    _kept: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q = self.modulus
        if q < 1:
            raise ValueError(f"modulus must be >= 1, got {q}")
        for a in self.classes:
            if not 0 <= a < q:
                raise ValueError(f"residue must satisfy 0 <= a < {q}, got {a}")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError(f"classes must be distinct, got {self.classes}")
        if len(self.classes) > 1 and q <= MAX_DISCRIMINANT:
            kept = np.zeros(q, dtype=bool)
            kept[np.array(self.classes)] = True
            kept.setflags(write=False)
            object.__setattr__(self, "_kept", kept)

    @classmethod
    def residue_class(cls, a: int, q: int) -> "PrimeFilter":
        filt = cls(q, (a,), f"mod{q}r{a}")  # its checks of q and a come first
        if math.gcd(a, q) != 1:
            raise ValueError(f"residue {a} and modulus {q} must be coprime")
        return filt

    @classmethod
    def kronecker(cls, d: int, sign: int) -> "PrimeFilter":
        if sign not in (-1, 1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        if abs(d) > MAX_DISCRIMINANT:  # before the trial division below
            raise ParameterRangeError(
                f"discriminant {d} is beyond the supported range; "
                f"|d| must be at most {MAX_DISCRIMINANT:,}"
            )
        if not is_fundamental_discriminant(d):
            raise ValueError(f"{d} is not a fundamental discriminant")
        classes = tuple(np.flatnonzero(_kronecker_table(d) == sign).tolist())
        return cls(abs(d), classes, f"disc{d}s{sign:+d}")

    def mask(self, primes: np.ndarray) -> np.ndarray:
        """Boolean mask over an array of primes."""
        r = primes % self.modulus
        if self._kept is not None:
            return self._kept[r]
        keep = np.zeros(len(r), dtype=bool)
        for a in self.classes:
            keep |= r == a
        return keep


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


# The fixed part of every sieve, kept from the last one that needed more:
# (root, base), the base primes above the wheel primes up to root, and a
# wheel tile.  Each is replaced whole, never changed in place, so threads and
# forked workers only ever see complete arrays.
_base: tuple[int, np.ndarray] = (WHEEL_PRIMES[-1], np.empty(0, dtype=np.int64))
_tile = np.empty(0, dtype=bool)


def _mark_segment(flags: np.ndarray, i0: int, limit: int) -> None:
    """Clear the odd multiples of the base primes in flags, which covers
    3 + 2i for i >= i0 in a range to limit; each prime starts at its first
    odd multiple that is at least both its square and the segment's first
    value.  Kept base primes that stop short of the root of the segment's
    last value are sieved again up to the root of twice that value or of
    limit, whichever is less, or only to its own root where that would
    exceed the memory budget."""
    global _base
    lo_val = 3 + 2 * i0
    hi_val = lo_val + 2 * (len(flags) - 1)
    root, base = _base
    if root < math.isqrt(hi_val):
        root = math.isqrt(min(2 * hi_val, limit))
        if _array_bytes(root) > DEFAULT_MEMORY_BUDGET:
            root = math.isqrt(hi_val)
        base = _prime_array(root)[len(WHEEL_PRIMES) + 1 :]  # past 2, ..., 17
        _base = root, base
    stop = int(np.searchsorted(base, math.isqrt(hi_val), side="right"))
    for at in range(0, stop, MARK_CHUNK):  # a few temporaries of MARK_CHUNK entries
        live = base[at : min(at + MARK_CHUNK, stop)]
        first = (-(-lo_val // live)) | 1  # first odd cofactor q with q*p >= lo_val
        starts = (np.maximum(live * live, first * live) - lo_val) // 2
        # far up the line most base primes have no multiple in a short segment
        hits = starts < len(flags)
        for p, start in zip(live[hits].tolist(), starts[hits].tolist()):
            flags[start::p] = False


def check_sieve(limit: int) -> None:
    """The checks of every sieve up to limit, before it allocates anything:
    ParameterRangeError beyond MAX_LIMIT, and MemoryBudgetError when its
    base primes would exceed the memory budget."""
    if limit > MAX_LIMIT:
        raise ParameterRangeError(
            f"sieve limit {limit:,} is beyond int64 arithmetic; "
            f"the largest supported is {MAX_LIMIT:,}"
        )
    root = math.isqrt(limit)
    if root >= 2:
        check_budget(_array_bytes(root), f"limit={limit}", "its base primes")


def _segments(limit: int, lo: int = 1) -> Iterator[tuple[int, np.ndarray]]:
    """The odd-only sieve of the odd n in [lo, limit] from 3 on, one marked
    segment at a time.

    Yields (i0, flags) with flags[i] true iff 3 + 2*(i0 + i) is prime.  The
    first segment starts at the first odd n >= max(lo, 3), so a range costs
    only its own segments, and each segment the base primes up to the root
    of its own last value.  check_sieve(limit) decides the refusals, whatever
    is kept.  Every segment is marked in one reused buffer of at most
    SEGMENT_SIZE entries, so flags is valid only until the next item is
    requested.
    """
    global _tile
    check_sieve(limit)
    size, n_odds = SEGMENT_SIZE, (limit - 1) // 2
    first = max((lo - 2) // 2, 0)  # the odd-only index of the first odd n >= max(lo, 3)
    buf = np.empty(max(min(size, n_odds - first), 0), dtype=bool)
    # tile[i] is false where a wheel prime divides 3 + 2i.  A segment starting
    # at i0 copies tile[i0 % WHEEL:], so the tile spans one period past the
    # longest segment, or the whole range when shorter
    if len(tile := _tile) < (need := min(n_odds, WHEEL + len(buf))):
        tile = np.ones(need, dtype=bool)
        for p in WHEEL_PRIMES:
            tile[(p - 3) // 2 :: p] = False
        _tile = tile
    for i0 in range(first, n_odds, size):
        flags = buf[: min(size, n_odds - i0)]
        start = i0 % WHEEL
        flags[:] = tile[start : start + len(flags)]
        # the wheel primes themselves are prime, in whichever segment they fall
        flags[[i - i0 for i in _WHEEL_INDEX if i0 <= i < i0 + len(flags)]] = True
        _mark_segment(flags, i0, limit)
        yield i0, flags


def prime_segments(
    limit: int, filt: PrimeFilter = ALL, lo: int = 1
) -> Iterator[tuple[int, np.ndarray]]:
    """The primes in [lo, limit] that pass filt, in increasing order, one
    sieve segment at a time.

    Yields (top, primes): primes is a fresh sorted int64 array of the
    filtered primes in (previous top, top], or in [lo, top] for the first
    item, and the last top is limit.  The prime 2, when lo <= 2 <= limit,
    comes first, alone, with top 2.  A range that holds neither 2 nor an odd
    n > 2 yields nothing.
    """
    if lo <= 2 <= limit:
        two = np.array([2], dtype=np.int64)
        yield 2, two[filt.mask(two)]
    for i0, flags in _segments(limit, lo):
        primes = np.flatnonzero(flags)
        primes *= 2
        primes += 3 + 2 * i0
        # the even number after the segment's last odd value is composite
        top = min(2 * (i0 + len(flags)) + 2, limit)
        yield top, primes if filt == ALL else primes[filt.mask(primes)]


def _prime_bound(limit: int) -> int:
    """pi(x) < 1.26 x / ln x for x > 1 (Rosser and Schoenfeld, 1962)."""
    return int(1.26 * limit / math.log(limit)) + 1


def _array_bytes(limit: int) -> int:
    """The peak bytes of _prime_array(limit), 8 an entry: the bound-sized
    array, then its trimmed copy (~x/ln x)."""
    return 8 * (_prime_bound(limit) + int(limit / math.log(limit)))


def _prime_array(limit: int) -> np.ndarray:
    """All primes <= limit (>= 2), written segment by segment into one array
    of _prime_bound(limit) entries and trimmed to a copy of the filled part;
    MemoryBudgetError refuses a limit whose arrays would exceed the budget."""
    check_budget(
        _array_bytes(limit), f"limit={limit}", "the prime array and its trimmed copy"
    )
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
    """All primes <= n, from the segmented sieve, refused as build_table
    refuses; meant for small n such as the sieving primes of a table."""
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
