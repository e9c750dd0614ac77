"""Densities of starting points n <= x whose short interval [n, n + lam*log n]
contains exactly m filtered primes, with Poisson reference values.

Window edges are exact for the float64 value of lam.  For integer n the last
integer of the window is n + L(n) with L(n) = floor(lam*log n), a step
function whose breakpoints edge_steps settles in decimal arithmetic.  They
are the one source of L: _read_runs cuts its ranges at them, so that L is
constant on each piece, slide takes each trace's L(N0) from them, and
right_edge, which no scan calls, gives n + L(n).  Every window count
comes from one kernel, window_runs: where L is constant, c(n) changes only
where a prime leaves or enters the window, so it returns c as run values and
run lengths in O(pi(x)) work.  The density and growth histograms weight the
run values by their lengths, window_counts repeats them to give c(n) one n
at a time, slide reads each trace's c(n) out of the runs of one pass over
its batch, and the cluster scan runs the kernel at its fixed window lengths.
No scan keeps a prime table: _read_runs takes the sorted primes of its
range as an array, and a scan of a long range reads them span by span
through one forward PrimeReader over its own range, which holds only the
primes that windows still to be scanned can reach, so memory is O(segment)
at any x.  The density and growth scans cut [1, x] into one
contiguous part per CPU in the process's affinity mask (WORKERS), scan the
parts at the same time in forked workers and sum their exact histograms.
With one CPU nothing is forked.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ParameterRangeError, check_lambda
from .primes import ALL, PrimeFilter, PrimeReader, prime_segments

SCAN_CHUNK = 2**18  # starting points per kernel call; bounds the per-call arrays
# the most breakpoints edge_steps settles, about a second of its loop; lambda
# 10 needs 368 up to 1e16
MAX_EDGE_STEPS = 10**5
# density and growth scan parts, one per CPU this process may run on
WORKERS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)


def edge_steps(lam: float, limit: int) -> np.ndarray:
    """The breakpoints of L(n) = floor(lam*log n) up to limit, as a sorted
    read-only int64 array.

    Entry k - 1 is n_k, the least n >= 1 with lam*log n >= k, for k = 1, 2,
    ... while n_k <= limit; breakpoints that coincide repeat, so L(n) is the
    number of entries <= n.  lam is taken as the exact value of its float64,
    Decimal(lam).  Each n_k is seeded from exp(k/lam) and settled exactly:
    lam*log n is never an integer for n > 1, so raising the decimal precision
    until the sign of lam*log n - k is certain always ends.  Only an n whose
    float64 lam*log n lies within a relative 1e-9 of k goes to Decimal.
    Nothing is cached.  More than MAX_EDGE_STEPS breakpoints raise
    ParameterRangeError before any is settled.
    """
    count = math.floor(lam * math.log(limit))
    if count > MAX_EDGE_STEPS:
        raise ParameterRangeError(
            f"lambda={lam} needs {count:,} window-edge breakpoints up to "
            f"{limit:,}; at most {MAX_EDGE_STEPS:,} are supported"
        )

    def reaches(n: int, k: int) -> bool:
        """lam*log n >= k, decided exactly."""
        # float64 lam*log n is off by a few ulps, far below 1e-9 of it: its
        # side of k is certain unless it lies that close to k
        approx = lam * math.log(n)
        if abs(approx - k) > 1e-9 * approx:
            return approx > k
        from decimal import Decimal, localcontext  # only near a breakpoint

        lam_d = Decimal(lam)
        prec = 30
        while True:
            with localcontext() as ctx:
                ctx.prec = prec
                value = lam_d * Decimal(n).ln()
                gap = value - k
                # two roundings leave value within 10**(1 - prec) * |value|
                # of lam*log n
                if abs(gap) > abs(value).scaleb(2 - prec):
                    return gap > 0
            prec *= 2

    steps = []
    top = math.log(limit) + 1  # beyond it k/lam puts n_k past limit; exp stays finite
    k = 1
    while k <= lam * top:
        n = max(math.ceil(math.exp(k / lam)), 2)
        while not reaches(n, k):
            n += 1
        while reaches(n - 1, k):
            n -= 1
        if n > limit:
            break
        steps.append(n)
        k += 1
    out = np.array(steps, dtype=np.int64)
    out.setflags(write=False)
    return out


def right_edge(n: np.ndarray, lam: float) -> np.ndarray:
    """n + L(n) for an int64 array of n >= 1: the last integer inside each
    window [n, n + lam*log n], exact for the float64 value of lam."""
    steps = edge_steps(lam, int(n.max(initial=1)))
    return n + np.searchsorted(steps, n, side="right")


def spans(a: int, b: int, ramp: bool = False) -> Iterator[tuple[int, int]]:
    """[a, b] cut into consecutive closed runs of at most SCAN_CHUNK integers.

    With ramp, the first run holds SCAN_CHUNK // 64 integers (at least 1) and
    each later one as many as all before it, up to SCAN_CHUNK: a consumer
    that stops inside a run has had at most the first run, or twice what it
    consumed, counted for it.
    """
    size = max(SCAN_CHUNK // 64, 1) if ramp else SCAN_CHUNK
    lo = a
    while lo <= b:
        hi = min(lo + size - 1, b)
        yield lo, hi
        lo = hi + 1
        size = min(max(size, lo - a), SCAN_CHUNK)


def _read_runs(
    primes: np.ndarray, steps: np.ndarray, a: int, b: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """window_runs over n = a..b, from primes, the sorted filtered primes of
    at least [a, b + L(b)]: the spans of [a, b] are cut again at the
    breakpoints steps (known at least up to b), so that L is constant on each
    piece, and each piece reads its primes out of the array."""
    for lo, hi in spans(a, b):
        i, j = np.searchsorted(steps, (lo, hi), side="right").tolist()
        cuts = [lo, *steps[i:j].tolist(), hi + 1]
        for length, (start, stop) in enumerate(zip(cuts, cuts[1:]), start=i):
            if start < stop:  # coinciding breakpoints leave empty pieces
                first = np.searchsorted(primes, start)
                last = np.searchsorted(primes, stop - 1 + length, side="right")
                piece = primes[first:last]
                yield window_runs(piece, piece, start, stop - 1, length)


def window_runs(
    starts: np.ndarray, ends: np.ndarray, lo: int, hi: int, length: int
) -> tuple[np.ndarray, np.ndarray]:
    """c(n), the number of items i with n <= starts[i] and ends[i] <= n +
    length, for n = lo..hi, as int32 run values and run lengths:
    np.repeat(values, lengths) is c(lo), ..., c(hi).

    A prime p is the item (p, p); a pair of consecutive primes (p, q) is the
    item (p, q).  starts and ends are sorted, every start is >= lo, every end
    is <= hi + length and every item satisfies end - start <= length + 1.
    c(lo) takes one binary search; after it c(n) - c(n - 1) is -1 for each
    item with start n - 1 (it leaves the window) and +1 for each with end
    n + length (it enters).  So c is constant between those events.  Where
    an item leaves and another enters at one n, the leave comes first and
    the run between them has length 0.
    """
    first_in = int(np.searchsorted(ends, lo + length, side="right"))
    n_leave = int(np.searchsorted(starts, hi, side="left"))
    # key 2*(n - lo) for a leave at n, 2*(n - lo) + 1 for an enter, so at one
    # n the leave sorts first; a span holds at most SCAN_CHUNK n, so the keys
    # fit int32.  The first key opens the first run, the last closes the last.
    keys = np.empty(2 + n_leave + len(ends) - first_in, dtype=np.int32)
    keys[0] = 0
    keys[-1] = 2 * (hi + 1 - lo)
    events = keys[1:-1]
    leaves, enters = events[:n_leave], events[n_leave:]
    np.subtract(starts[:n_leave], lo - 1, out=leaves, casting="unsafe")
    leaves *= 2
    np.subtract(ends[first_in:], lo + length, out=enters, casting="unsafe")
    enters *= 2
    enters += 1
    # both lists are sorted, so the stable sort is a merge
    events.sort(kind="stable")
    c = keys[:-1] & 1
    c *= 2
    c -= 1  # -1 for a leave, +1 for an enter
    c[0] = first_in
    np.cumsum(c, out=c, dtype=np.int32)
    keys >>= 1
    return c, keys[1:] - keys[:-1]


def window_counts(
    lam: float, a: int, b: int, filt: PrimeFilter = ALL
) -> np.ndarray:
    """c(n), the number of filtered primes in [n, n + lam*log n], for n = a..b,
    from one pass of the sieve over [a, required_limit(lam, b)]."""
    check_lambda(lam)
    if not 1 <= a <= b:
        raise ValueError(f"need 1 <= a <= b, got {a}, {b}")
    limit = required_limit(lam, b)
    primes = PrimeReader(prime_segments(limit, filt, a)).between(a, limit)
    values, runs = zip(*_read_runs(primes, edge_steps(lam, limit), a, b))
    return np.repeat(np.concatenate(values), np.concatenate(runs))


def poisson_reference(lam: float, m: int) -> float:
    """lam^m * exp(-lam) / m!, switching to exponent-log form when the direct
    product would overflow."""
    check_lambda(lam)
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if m <= 170:
        try:
            return lam**m * math.exp(-lam) / math.factorial(m)
        except OverflowError:
            pass
    return math.exp(m * math.log(lam) - lam - math.lgamma(m + 1))


@dataclass(frozen=True)
class DensityReport:
    """Exact window-count histogram for n <= x plus derived densities.

    counts[m] is the number of n <= x whose window holds exactly m filtered
    primes, for 0 <= m <= m_max; overflow collects every n with more.  The
    densities are exact rationals counts[m]/x and always sum to 1 with the
    overflow share included.
    """

    lam: float
    x: int
    filt: PrimeFilter
    m_max: int
    counts: dict[int, int]
    overflow: int
    densities: dict[int, Fraction] = field(init=False)
    overflow_density: Fraction = field(init=False)
    poisson: dict[int, float] = field(init=False)

    def __post_init__(self) -> None:
        from fractions import Fraction  # a slide makes no report, so never loads it

        total = sum(self.counts.values()) + self.overflow
        if total != self.x:
            raise AssertionError(
                f"counts partition broken: sum {total} != x {self.x}"
            )
        dens = {m: Fraction(c, self.x) for m, c in self.counts.items()}
        over = Fraction(self.overflow, self.x)
        if sum(dens.values(), over) != 1:
            raise AssertionError("densities do not sum to 1")
        object.__setattr__(self, "densities", dens)
        object.__setattr__(self, "overflow_density", over)
        object.__setattr__(
            self,
            "poisson",
            {m: poisson_reference(self.lam, m) for m in self.counts},
        )

    @property
    def poisson_overflow(self) -> float:
        return max(0.0, 1.0 - sum(self.poisson.values()))


def required_limit(lam: float, x: int) -> int:
    """A sieve limit that covers every window of a scan up to x: x + 1 +
    ceil(lam*log x), summed in integers so that it stays above x + L(x)
    where float64 can no longer hold x exactly."""
    return x + table_limit(lam * math.log(x), lam, x) + 1


def table_limit(top: float, lam: float, x: int) -> int:
    """ceil(top) for a float top that a scan to x at lam needs; a top beyond
    the float range raises ParameterRangeError."""
    if not math.isfinite(top):
        raise ParameterRangeError(
            f"the table limit for x={x} at lambda={lam} overflows the float range"
        )
    return math.ceil(top)


def _histograms(
    lam: float, ends: tuple[int, ...], m_max: int, filt: PrimeFilter
) -> np.ndarray:
    """One bincount of c(n) per range [1, ends[0]], [ends[0] + 1, ends[1]],
    ..., every c(n) > m_max in the last bin.

    [1, ends[-1]] is cut into min(WORKERS, ends[-1]) contiguous parts, and
    each part sieves only its own range.  Several parts run at the same time,
    each in a forked child (workers.run_parts), and their rows, exact
    integers, are summed.
    """
    steps = edge_steps(lam, required_limit(lam, ends[-1]))
    k = min(WORKERS, ends[-1])
    cuts = [1 + ends[-1] * i // k for i in range(k + 1)]
    parts = [(lam, ends, m_max, filt, steps, a, b - 1) for a, b in zip(cuts, cuts[1:])]
    if k == 1:
        return _scan_part(*parts[0])
    from .workers import run_parts  # only a scan of several parts needs it

    return sum(run_parts(_scan_part, parts))


def _scan_part(
    lam: float,
    ends: tuple[int, ...],
    m_max: int,
    filt: PrimeFilter,
    steps: np.ndarray,
    first: int,
    last: int,
) -> np.ndarray:
    """The rows of _histograms counted over the n in [first, last] only, from
    one reader over [first, required_limit(lam, last)], read span by span:
    each run of window_runs is counted with its length, in the row of its
    ends range.  steps holds the breakpoints of L at least up to that limit.
    """
    reader = PrimeReader(prime_segments(required_limit(lam, last), filt, first))
    hist = np.zeros((len(ends), m_max + 2), dtype=np.int64)
    a = first
    for row, end in zip(hist, ends):
        for lo, hi in spans(a, min(end, last)):
            top = hi + int(np.searchsorted(steps, hi, side="right"))  # hi + L(hi)
            for c, runs in _read_runs(reader.between(lo, top), steps, lo, hi):
                np.minimum(c, m_max + 1, out=c)
                weighted = np.bincount(c, weights=runs, minlength=m_max + 2)
                row += weighted.astype(np.int64)
        a = max(a, end + 1)
    return hist


def _validate_scan(lam: float, x: int, m_max: int) -> None:
    check_lambda(lam)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")


def measure_density(
    lam: float, x: int, m_max: int, filt: PrimeFilter = ALL
) -> DensityReport:
    """Count, for every n <= x, the filtered primes in [n, n + lam*log n].

    n runs from 1; the window of n = 1 is the single point {1} and lands in
    m = 0.  The primes are sieved as the scan goes and none are kept, so
    memory stays O(SEGMENT_SIZE) per worker at any x.
    """
    _validate_scan(lam, x, m_max)
    [hist] = _histograms(lam, (x,), m_max, filt)
    counts = {m: int(hist[m]) for m in range(m_max + 1)}
    return DensityReport(
        lam=float(lam),
        x=int(x),
        filt=filt,
        m_max=int(m_max),
        counts=counts,
        overflow=int(hist[m_max + 1]),
    )


@dataclass(frozen=True)
class GrowthResult:
    """Comparison of exact-m window counts at scan lengths x and 2x.

    ratio is None when the count at x is zero (no growth signal exists);
    a positive-proportion phenomenon shows ratio near 2.
    """

    m: int
    x: int
    count_at_x: int
    count_at_2x: int
    ratio: float | None


def growth_check(
    lam: float, m_max: int, x: int, filt: PrimeFilter = ALL
) -> list[GrowthResult]:
    """Ratio of exact-m counts between scans to 2x and to x, for m = 0..m_max,
    from one pass over [1, 2x] split at x."""
    _validate_scan(lam, x, m_max)
    at_x, beyond_x = _histograms(lam, (x, 2 * x), m_max, filt)
    at_2x = at_x + beyond_x
    results = []
    for m in range(m_max + 1):
        cx, c2x = int(at_x[m]), int(at_2x[m])
        ratio = c2x / cx if cx > 0 else None
        results.append(
            GrowthResult(m=m, x=x, count_at_x=cx, count_at_2x=c2x, ratio=ratio)
        )
    return results


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def density_csv(report: DensityReport, compare_poisson: bool = True) -> str:
    """Rows m,count,density,poisson,ratio; one trailing row for the overflow
    bucket.  Poisson columns stay empty unless compare_poisson is set."""
    lines = ["m,count,density,poisson,ratio"]
    rows = [(str(m), report.counts[m], report.densities[m]) for m in sorted(report.counts)]
    rows.append(("overflow", report.overflow, report.overflow_density))
    for label, count, dens in rows:
        if compare_poisson:
            ref = (
                report.poisson[int(label)]
                if label != "overflow"
                else report.poisson_overflow
            )
            ratio = _fmt(float(dens) / ref) if ref > 0 else ""
            lines.append(f"{label},{count},{_fmt(float(dens))},{_fmt(ref)},{ratio}")
        else:
            lines.append(f"{label},{count},{_fmt(float(dens))},,")
    return "\n".join(lines) + "\n"


def density_json(report: DensityReport, compare_poisson: bool = True) -> dict:
    """JSON-ready mirror of the report fields (exact densities as [num, den])."""
    out = {
        "lambda": report.lam,
        "x": report.x,
        "filter": report.filt.tag,
        "m_max": report.m_max,
        "counts": {str(m): report.counts[m] for m in sorted(report.counts)},
        "overflow": report.overflow,
        "densities": {str(m): float(report.densities[m]) for m in sorted(report.counts)},
        "densities_exact": {
            str(m): [report.densities[m].numerator, report.densities[m].denominator]
            for m in sorted(report.counts)
        },
        "overflow_density": float(report.overflow_density),
    }
    if compare_poisson:
        out["poisson"] = {str(m): report.poisson[m] for m in sorted(report.counts)}
        out["poisson_overflow"] = report.poisson_overflow
    return out


def growth_csv(results: list[GrowthResult]) -> str:
    lines = ["m,count_x,count_2x,ratio"]
    for r in results:
        ratio = _fmt(r.ratio) if r.ratio is not None else ""
        lines.append(f"{r.m},{r.count_at_x},{r.count_at_2x},{ratio}")
    return "\n".join(lines) + "\n"
