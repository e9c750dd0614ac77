"""Admissible tuples: greedy sieving, well-spaced selection, selection counts,
and the singular-series diagnostic."""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InadmissibleTupleError, ParameterRangeError
from .primes import build_table, check_budget, primes_upto

INT64_MAX = int(np.iinfo(np.int64).max)


def _is_integer(h) -> bool:
    try:
        return h == int(h)
    except (ValueError, OverflowError):  # nan, inf
        return False


def _validate_offsets(offsets: Sequence[int]) -> None:
    if len(offsets) == 0:
        raise ValueError("offsets must be non-empty")
    for h in offsets:
        if not _is_integer(h):
            raise ValueError(f"offsets must be integers, got {h!r}")
        if h < 0:
            raise ValueError(f"offsets must be non-negative, got {h}")
    for a, b in zip(offsets, offsets[1:]):
        if b <= a:
            raise ValueError(f"offsets must be strictly increasing ({a} before {b})")


def first_covered_prime(offsets: Sequence[int]) -> int | None:
    """Smallest prime whose residue classes are all hit by the offsets, or
    None when the offsets are admissible.  Primes above len(offsets) cannot
    be covered by that few residues."""
    _validate_offsets(offsets)
    for p in primes_upto(len(offsets)):
        if len({h % p for h in offsets}) == p:
            return p
    return None


def is_admissible(offsets: Sequence[int]) -> bool:
    """True iff, for every prime p, the offsets miss some class mod p."""
    return first_covered_prime(offsets) is None


@dataclass(frozen=True)
class AdmissibleTuple:
    """Strictly increasing non-negative offsets drawn from a window [0, span].

    Construction validates admissibility and computes min_gap, the smallest
    distance between adjacent offsets (None for a single offset).
    """

    offsets: tuple[int, ...]
    span: float
    min_gap: int | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        offs = tuple(int(h) for h in self.offsets)
        object.__setattr__(self, "offsets", offs)
        _validate_offsets(offs)
        if offs[-1] > math.floor(self.span):
            raise ValueError(
                f"largest offset {offs[-1]} lies outside the window [0, {self.span}]"
            )
        p = first_covered_prime(offs)
        if p is not None:
            raise InadmissibleTupleError(f"offsets cover every residue class mod {p}")
        gaps = [b - a for a, b in zip(offs, offs[1:])]
        object.__setattr__(self, "min_gap", min(gaps) if gaps else None)

    def __len__(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True)
class SievedSet:
    """Survivors of the greedy residue sieve on {0, ..., floor(window)}.

    removed records, per prime processed, which residue class was deleted.
    elements is a read-only int64 array: one handed in read-only is kept,
    any other is copied.
    """

    elements: np.ndarray
    window: float
    removed: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        arr = np.asarray(self.elements, dtype=np.int64)
        if arr.ndim != 1 or (len(arr) > 1 and not np.all(arr[1:] > arr[:-1])):
            raise ValueError("elements must be a strictly increasing 1-d sequence")
        if arr.flags.writeable:  # a read-only array is kept as it is
            arr = arr.copy()
            arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)

    def __len__(self) -> int:
        return len(self.elements)


def greedy_sieve(window: float, k: int) -> SievedSet:
    """Sieve {0, ..., floor(window)} by the primes p <= k in increasing order,
    removing at each step the residue class mod p with the fewest survivors
    (ties broken towards the smallest residue).

    The sieve keeps one bool per integer of the window.  Each prime below its
    length counts its classes in that mask and clears the chosen class with
    one strided store; the primes from the length on pick their class in
    O(1) each, without counting.  The survivors are read out once, at the
    end, as the int64 elements.  Raises MemoryBudgetError before allocating
    when the mask, the elements and SievedSet's one bool per element for its
    order check would exceed DEFAULT_MEMORY_BUDGET, with the elements counted
    at their most: the whole window for k < 2, and half of it (rounded up)
    after the prime 2.
    """
    if not 1 <= window < math.inf:
        raise ValueError(f"window must be finite and >= 1, got {window}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    size = math.floor(window) + 1
    most = size if k < 2 else (size + 1) // 2  # mod 2 the smaller class goes
    check_budget(size + 9 * most, f"window={window}", "the sieve")
    keep = np.ones(size, dtype=bool)
    removed: list[tuple[int, int]] = []
    sieving = primes_upto(k)
    inside = bisect.bisect_left(sieving, size)
    for p in sieving[:inside]:
        r = int(np.argmin(_class_counts(keep, p)))  # the first, i.e. smallest, class
        keep[r::p] = False
        removed.append((p, r))
    if inside < len(sieving):
        # from p = size on, class r mod p holds at most the integer r, so
        # the first class without survivors is the first integer cleared.
        # With none cleared it is size, a class only for p > size; for
        # p = size every class holds one survivor and 0 goes.  Either way
        # every later prime finds the same class.
        first = int(np.argmin(keep))
        r = first if not keep[first] else size % sieving[inside]
        keep[r : r + 1] = False
        removed.extend((p, r) for p in sieving[inside:])
    elements = np.flatnonzero(keep)
    del keep
    elements.setflags(write=False)  # SievedSet keeps it without a copy
    return SievedSet(elements, float(window), tuple(removed))


# primes up to this count their classes one strided view at a time; above it
# one pass over a (rows, p) view of the mask costs less than p calls
STRIDED_CLASSES = 100


def _class_counts(keep: np.ndarray, p: int) -> list[int] | np.ndarray:
    """The number of True entries of keep in each class mod p."""
    if p <= STRIDED_CLASSES:
        return [np.count_nonzero(keep[r::p]) for r in range(p)]
    full = len(keep) - len(keep) % p
    dtype = np.int32 if len(keep) < 2**31 else np.int64  # int32 sums faster
    counts = np.add.reduce(keep[:full].reshape(-1, p), axis=0, dtype=dtype)
    counts[: len(keep) - full] += keep[full:]
    return counts


def _elements_of(source: SievedSet | Iterable[int]) -> np.ndarray:
    """The source's elements as a sorted int64 array, validated before any
    cast so that non-integers and values beyond int64 raise ValueError."""
    if isinstance(source, SievedSet):
        return source.elements
    els = list(source)
    _validate_offsets(els)
    if els[-1] > INT64_MAX:
        raise ValueError(f"offsets must be at most {INT64_MAX} (int64), got {els[-1]}")
    return np.array([int(e) for e in els], dtype=np.int64)


def select_spaced(
    sieved: SievedSet | Iterable[int],
    k: int,
    spacing: int,
    strategy: str = "first-fit",
    seed: int | None = None,
) -> AdmissibleTuple | None:
    """Pick k elements with all pairwise gaps > spacing, or None if impossible.

    Selection is iterative: each chosen element excludes the closed ball of
    radius `spacing` around it.  first-fit always takes the smallest remaining
    candidate; random(seed) draws uniformly from the remainder.  The source
    should be sieved for every prime <= k, so that the result is admissible.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if spacing < 0:
        raise ValueError(f"spacing must be >= 0, got {spacing}")
    if strategy not in ("first-fit", "random"):
        raise ValueError(f"strategy must be 'first-fit' or 'random', got {strategy!r}")
    window = sieved.window if isinstance(sieved, SievedSet) else None
    candidates = _elements_of(sieved)
    rng = random.Random(seed) if strategy == "random" else None
    chosen: list[int] = []
    for _ in range(k):
        if len(candidates) == 0:
            return None
        h = int(candidates[0] if rng is None else candidates[rng.randrange(len(candidates))])
        chosen.append(h)
        candidates = candidates[np.abs(candidates - h) > spacing]
    chosen.sort()
    span = float(window) if window is not None else float(chosen[-1])
    return AdmissibleTuple(tuple(chosen), span)


def count_spaced_selections(
    sieved: SievedSet | Iterable[int], k: int, spacing: int
) -> tuple[int, float]:
    """Exact number of k-subsets with all pairwise gaps > spacing, paired with
    the product lower bound (1/k!) * prod_i max(0, n - 2*(i-1)*spacing).

    Since elements are sorted, the pairwise condition is equivalent to
    consecutive chosen gaps exceeding `spacing`.  The exact count is a DP of
    k-1 array passes: ways[i] counts the selections ending at element i, and
    one pass sums the ways of every element at least `spacing + 1` below it.

    The counts are multi-limb integers on uint64: row l of ways holds bits
    B*l to B*(l+1) - 1 of every count, with B = 64 - b and b = n.bit_length().
    A pass works up the rows one at a time, through one prefix row and one
    carry row: it takes the row's prefix sums, adds the bits the row below
    carried up, carries its own bits from B up, masks them off unless it is
    the top row, and gathers the prefix sums at the cuts back into the row.
    No limb overflows while b <= 32: a masked limb is below 2**B, so a
    row's prefix sum is below n * 2**B, and after the carry from the row
    below (at most n) it is below n * (2**B + 1) <= (2**b - 1) * (2**B + 1)
    < 2**64.  The pass that forms (j+1)-selections sums j-selections, so its
    values are at most C(n, j), which sets how many rows it touches; ways,
    allocated once, holds the most any pass needs, C(n, j) at
    j = min(k - 1, n // 2).  The count is the Python int
    sum_l ways[l].sum() << (B*l), exact at any size.

    The bound assumes each pick knocks out at most 2*spacing other
    candidates; the exact count dominates it on sieved sets (gaps >= 2) with
    spacing >= 1, but dense sets can fall below it: range(30) with k=30 and
    spacing 0 has exactly one selection against a bound of about 7.8e11.

    Raises ParameterRangeError for n >= 2**32 and MemoryBudgetError before
    allocating when ways, the two rows and the cuts (with the shifted
    elements they are searched for) exceed DEFAULT_MEMORY_BUDGET.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if spacing < 0:
        raise ValueError(f"spacing must be >= 0, got {spacing}")
    els = _elements_of(sieved)
    n = len(els)
    exact = 0 if k > n else _count_on_limbs(els, k, spacing)
    return exact, _product_bound(n, k, spacing)


def _count_on_limbs(els: np.ndarray, k: int, spacing: int) -> int:
    """The exact count of count_spaced_selections for 1 <= k <= n."""
    n = len(els)
    b = n.bit_length()
    if b > 32:
        raise ParameterRangeError(
            f"counting selections supports at most {2**32 - 1:,} elements, got {n:,}"
        )
    width = 64 - b
    # limbs[j - 1]: the rows pass j touches, from C(n, j) >= its values
    limbs, comb = [], 1
    for j in range(1, k):
        comb = comb * (n - j + 1) // j
        limbs.append(max(-(-comb.bit_length() // width), 1))
    rows = max(limbs, default=1)
    # every array of 8-byte entries the count allocates: ways, the prefix and
    # carry rows, the cuts and the shifted elements they are searched for
    check_budget(
        8 * (rows * n + 2 * (n + 1) + 2 * n),
        f"{n:,} elements at k={k}",
        "the selection count's limbs",
    )
    shift, mask = np.uint64(width), np.uint64((1 << width) - 1)
    # cut[i]: number of elements below els[i] - spacing, i.e. those that
    # may precede els[i] in a selection
    cut = np.searchsorted(els, els - min(spacing, INT64_MAX), side="left")
    ways = np.zeros((rows, n), dtype=np.uint64)
    ways[0] = 1  # selections of size 1 ending at each element
    prefix = np.zeros(n + 1, dtype=np.uint64)  # prefix[0] stays 0
    carry = np.empty(n + 1, dtype=np.uint64)
    used = 1
    for used in limbs:
        for l in range(used):
            np.cumsum(ways[l], out=prefix[1:])
            if l:
                prefix += carry  # the bits row l - 1 carried up
            if l < used - 1:
                np.right_shift(prefix, shift, out=carry)
                prefix &= mask
            np.take(prefix, cut, out=ways[l], mode="clip")
    return sum(int(row.sum()) << (width * l) for l, row in enumerate(ways[:used]))


def _product_bound(n: int, k: int, spacing: int) -> float:
    """(1/k!) * prod_i max(0, n - 2*i*spacing) for i < k, as a float.

    The factors fall with i, so the bound is 0 once the last one is.  While
    the product and k! stay in the float range (170! is the last factorial
    that does) the bound is that quotient; beyond it the bound is summed in
    log form and is inf only where the bound itself exceeds the float range.
    A positive last factor leaves k <= n / (2*spacing) + 1, so with spacing
    0 the k equal factors are summed at once and the work is O(min(k, n)).
    """
    if n - 2 * (k - 1) * spacing <= 0:
        return 0.0
    if k <= 170:
        prod = 1.0
        for i in range(k):
            prod *= n - 2 * i * spacing
        if prod < math.inf:
            return prod / math.factorial(k)
    if spacing == 0:
        log_prod = k * math.log(n)
    else:
        log_prod = math.fsum(math.log(n - 2 * i * spacing) for i in range(k))
    try:
        return math.exp(log_prod - math.lgamma(k + 1))
    except OverflowError:
        return math.inf


def singular_series(
    tpl: AdmissibleTuple | Sequence[int], cutoff: int
) -> float:
    """Product over primes p <= cutoff of (1 - nu_p/p) * (1 - 1/p)^(-k), where
    nu_p counts distinct offset residues mod p.  Strictly positive exactly for
    admissible tuples; factors beyond the cutoff are dropped."""
    offsets = tpl.offsets if isinstance(tpl, AdmissibleTuple) else tuple(tpl)
    witness = first_covered_prime(offsets)
    if witness is not None:
        raise InadmissibleTupleError(
            f"singular series vanishes: offsets cover every class mod {witness}"
        )
    k = len(offsets)
    hmax = offsets[-1]
    if cutoff < hmax:
        raise ValueError(f"cutoff {cutoff} must be >= the largest offset {hmax}")
    if cutoff < 2:
        return 1.0
    primes = build_table(int(cutoff)).primes()
    split = int(np.searchsorted(primes, hmax, side="right"))
    head, tail = primes[:split].tolist(), primes[split:].astype(np.float64)
    del primes  # the table is not needed past here
    log_total = 0.0
    for p in head:
        nu = len({h % p for h in offsets})
        log_total += math.log1p(-nu / p) - k * math.log1p(-1.0 / p)
    if len(tail):
        # log1p(-k/p) - k*log1p(-1/p) for every p in the tail, in two buffers
        terms = np.divide(-k, tail)
        np.log1p(terms, out=terms)
        np.divide(-1.0, tail, out=tail)
        np.log1p(tail, out=tail)
        np.multiply(k, tail, out=tail)
        terms -= tail
        log_total += float(np.sum(terms))
    return math.exp(log_total)


def parse_offsets(line: str) -> tuple[int, ...]:
    """Parse the exchange format "h1,h2,...,hk"; offsets must strictly increase."""
    try:
        offsets = tuple(int(part.strip()) for part in line.strip().split(","))
    except ValueError as exc:
        raise ValueError(f"offsets line is not comma-separated integers: {line!r}") from exc
    _validate_offsets(offsets)
    return offsets


def format_offsets(offsets: Sequence[int]) -> str:
    return ",".join(str(int(h)) for h in offsets)
