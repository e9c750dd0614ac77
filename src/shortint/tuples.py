"""Admissible tuples: greedy sieving, well-spaced selection, selection counts,
and the singular-series diagnostic."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InadmissibleTupleError, MemoryBudgetError
from .primes import DEFAULT_MEMORY_BUDGET, build_table, primes_upto

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
    """

    elements: np.ndarray
    window: float
    removed: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        arr = np.asarray(self.elements, dtype=np.int64)
        if arr.ndim != 1 or (len(arr) > 1 and not np.all(np.diff(arr) > 0)):
            raise ValueError("elements must be a strictly increasing 1-d sequence")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "elements", arr)

    def __len__(self) -> int:
        return len(self.elements)


def greedy_sieve(window: float, k: int) -> SievedSet:
    """Sieve {0, ..., floor(window)} by the primes p <= k in increasing order,
    removing at each step the residue class mod p with the fewest survivors
    (ties broken towards the smallest residue).

    Raises MemoryBudgetError before allocating when the int64 elements, the
    int64 residues and the keep-mask of one step exceed DEFAULT_MEMORY_BUDGET.
    """
    if not 1 <= window < math.inf:
        raise ValueError(f"window must be finite and >= 1, got {window}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    size = math.floor(window) + 1
    estimate = 17 * size  # 8 B element + 8 B residue + 1 B mask
    if estimate > DEFAULT_MEMORY_BUDGET:
        raise MemoryBudgetError(
            f"window={window} needs about {estimate:,} bytes for the sieve; "
            f"budget is {DEFAULT_MEMORY_BUDGET:,}"
        )
    elements = np.arange(size, dtype=np.int64)
    removed: list[tuple[int, int]] = []
    for p in primes_upto(k):
        counts = np.bincount(elements % p, minlength=p)
        r = int(np.argmin(counts))  # argmin takes the first, i.e. smallest, class
        elements = elements[elements % p != r]
        removed.append((p, r))
    return SievedSet(elements, float(window), tuple(removed))


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
    Entries are Python ints (object arrays), so the count is exact at any
    size.  The bound assumes each pick knocks out at most 2*spacing other
    candidates; the exact count dominates it on sieved sets (gaps >= 2) with
    spacing >= 1, but dense sets can fall below it: range(30) with k=30 and
    spacing 0 has exactly one selection against a bound of about 7.8e11.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if spacing < 0:
        raise ValueError(f"spacing must be >= 0, got {spacing}")
    els = _elements_of(sieved)
    n = len(els)

    if k > n:
        exact = 0
    else:
        # cut[i]: number of elements below els[i] - spacing, i.e. those that
        # may precede els[i] in a selection
        cut = np.searchsorted(els, els - min(spacing, INT64_MAX), side="left")
        ways = np.ones(n, dtype=object)  # selections of size 1 ending at each element
        prefix = np.zeros(n + 1, dtype=object)
        for _ in range(k - 1):
            np.cumsum(ways, out=prefix[1:])
            ways = prefix[cut]
        exact = int(ways.sum())

    prod = 1.0
    for i in range(k):
        prod *= max(0.0, n - 2 * i * spacing)
        if prod == 0.0:
            break
    bound = prod / math.factorial(k)
    return exact, bound


def singular_series(
    tpl: AdmissibleTuple | Sequence[int], cutoff: int
) -> float:
    """Product over primes p <= cutoff of (1 - nu_p/p) * (1 - 1/p)^(-k), where
    nu_p counts distinct offset residues mod p.  Strictly positive exactly for
    admissible tuples; factors beyond the cutoff are dropped."""
    offsets = tpl.offsets if isinstance(tpl, AdmissibleTuple) else tuple(tpl)
    _validate_offsets(offsets)
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
    log_total = 0.0
    for p in primes[:split].tolist():
        nu = len({h % p for h in offsets})
        log_total += math.log1p(-nu / p) - k * math.log1p(-1.0 / p)
    tail = primes[split:].astype(np.float64)
    if len(tail):
        log_total += float(np.sum(np.log1p(-k / tail) - k * np.log1p(-1.0 / tail)))
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
