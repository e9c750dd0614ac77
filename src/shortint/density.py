"""Densities of starting points n <= x whose short interval [n, n + lam*log n]
contains exactly m filtered primes, with Poisson reference values.

Window edges are exact for the float64 value of lam.  For integer n the last
integer of the window is n + L(n) with L(n) = floor(lam*log n), a step
function whose breakpoints edge_steps settles in decimal arithmetic and
keeps for the last lam, so that the batches of a slide run settle each one
once.  They are the one source of L: _pieces cuts its ranges at them, so
that L is constant on each piece, slide takes each trace's L(N0) from them,
and right_edge gives n + L(n), where every range a scan sieves ends.  One
kernel, window_runs, gives every per-n window count: where L is constant,
c(n) changes only where a prime leaves or enters the window, so it returns c
as run values and run lengths in O(pi(x)) work.  window_counts repeats them
to give c(n) one n at a time, slide reads each trace's c(n) out of the runs
of one pass over its batch, and the cluster scan runs it at fixed lengths.
The density and growth histograms need no c(n): _add_piece counts each
piece level by level, the n that see at least m primes for each m, from the
gaps between the primes, in O(levels * pi(x)) work, or, where the piece may
need more than LEVEL_CUTOVER levels, each run value of window_runs with its
length.  Both kernels stay: each is several times faster where it is used.
No scan keeps a prime table: _pieces takes the sorted primes of its
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
from .primes import (
    ALL, MAX_LIMIT, PrimeFilter, PrimeReader, check_budget, check_sieve, prime_segments
)

SCAN_CHUNK = 2**18  # starting points per kernel call; bounds the per-call arrays
# the most levels _add_piece counts a piece in; past it, runs.  Per 2^18 n
# from 1e8 to 1e14 a level cost 1/40 to 1/20 of the runs, and at lambda 10,
# where every level holds some n, 16 levels took at most 3/4 of their time
LEVEL_CUTOVER = 16
# the most breakpoints edge_steps settles, about a second of its loop; lambda
# 10 needs 368 up to 1e16
MAX_EDGE_STEPS = 10**5
# density and growth scan parts, one per CPU this process may run on
WORKERS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)


# what edge_steps settled last, (lam, known, steps): steps holds every n_k <=
# known for that lam; replaced whole, never changed in place
_edges = (math.nan, 0, np.empty(0, dtype=np.int64))


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
    Those of the last lam are kept, so each n_k is settled once: a call
    returns a prefix of them, settling only the k they do not reach, and the
    first past limit is kept too where it fits int64.  A limit past the
    sieve's MAX_LIMIT, more than MAX_EDGE_STEPS breakpoints up to limit, or a
    count past the float range raise ParameterRangeError before any is
    settled.
    """
    global _edges
    if limit > MAX_LIMIT:  # no window reaching past it can be sieved
        raise ParameterRangeError(
            f"window edges up to {limit:,} are beyond int64 arithmetic; "
            f"the largest supported limit is {MAX_LIMIT:,}"
        )
    count = lam * math.log(limit)  # L(limit) unfloored; inf or nan past the floats
    if not count < MAX_EDGE_STEPS + 1:
        needs = f"{math.floor(count):,}" if math.isfinite(count) else count
        raise ParameterRangeError(
            f"lambda={lam} needs {needs} window-edge breakpoints up to "
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

    kept_lam, known, steps = _edges
    if kept_lam != lam:
        known, steps = 0, steps[:0]
    if limit > known:
        new, k, known = [], len(steps) + 1, limit
        top = math.log(limit) + 1  # beyond it k/lam puts n_k past limit; exp stays finite
        while k <= lam * top:
            n = max(math.ceil(math.exp(k / lam)), 2)
            while not reaches(n, k):
                n += 1
            while reaches(n - 1, k):
                n -= 1
            if n <= np.iinfo(np.int64).max:
                new.append(n)
            if n > limit:  # every n_k < n is known
                known = n - 1
                break
            k += 1
        steps = np.concatenate((steps, np.array(new, dtype=np.int64)))
        steps.setflags(write=False)
        _edges = lam, known, steps
    return steps[: np.searchsorted(steps, limit, side="right")]


def right_edge(n: int | np.ndarray, lam: float) -> int | np.ndarray:
    """n + L(n), the last integer of the window [n, n + lam*log n], for an int
    n >= 1 or each entry of an int64 array; exact for the float64 lam."""
    if isinstance(n, np.ndarray):
        steps = edge_steps(lam, int(n.max(initial=1)))
        return n + np.searchsorted(steps, n, side="right")
    return n + len(edge_steps(lam, n))


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


def _pieces(
    primes: np.ndarray, steps: np.ndarray, a: int, b: int
) -> Iterator[tuple[np.ndarray, int, int, int]]:
    """The spans of [a, b] cut again at the breakpoints steps (known at least
    up to b), so that L is constant on each piece, as (piece, lo, hi, L):
    piece is read out of primes, the sorted filtered primes of at least
    [a, b + L(b)], and holds those of [lo, hi + L]."""
    for lo, hi in spans(a, b):
        i, j = np.searchsorted(steps, (lo, hi), side="right").tolist()
        cuts = [lo, *steps[i:j].tolist(), hi + 1]
        for length, (start, stop) in enumerate(zip(cuts, cuts[1:]), start=i):
            if start < stop:  # coinciding breakpoints leave empty pieces
                first = np.searchsorted(primes, start)
                last = np.searchsorted(primes, stop - 1 + length, side="right")
                yield primes[first:last], start, stop - 1, length


def _read_runs(
    primes: np.ndarray, steps: np.ndarray, a: int, b: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """window_runs over n = a..b, one piece of _pieces at a time."""
    for piece, lo, hi, length in _pieces(primes, steps, a, b):
        yield window_runs(piece, piece, lo, hi, length)


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
    from one pass of the sieve over [a, b + L(b)]."""
    check_lambda(lam)
    if not 1 <= a <= b:
        raise ValueError(f"need 1 <= a <= b, got {a}, {b}")
    limit = right_edge(b, lam)
    primes = PrimeReader(prime_segments(limit, filt, a)).between(a, limit)
    values, runs = zip(*_read_runs(primes, edge_steps(lam, b), a, b))
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


def _histograms(
    lam: float, ends: tuple[int, ...], m_max: int, filt: PrimeFilter
) -> np.ndarray:
    """The histogram of c(n) over each range [1, ends[0]], [ends[0] + 1,
    ends[1]], ..., every c(n) > m_max in the last bin.

    [1, ends[-1]] is cut into min(WORKERS, ends[-1]) contiguous parts, and
    each part sieves only its own range.  Several parts run at the same time,
    each in a forked child (workers.run_parts), and their rows, exact
    integers, are summed.
    """
    steps = edge_steps(lam, ends[-1])
    check_sieve(right_edge(ends[-1], lam))  # here, before any part is forked
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
    one reader over [first, last + L(last)], read span by span: _add_piece
    counts each piece of each span into the row of its ends range.  steps
    holds the breakpoints of L at least up to last.
    """
    reader = PrimeReader(prime_segments(right_edge(last, lam), filt, first))
    hist = np.zeros((len(ends), m_max + 2), dtype=np.int64)
    a = first
    for row, end in zip(hist, ends):
        for lo, hi in spans(a, min(end, last)):
            primes = reader.between(lo, right_edge(hi, lam))
            for piece in _pieces(primes, steps, lo, hi):
                _add_piece(*piece, row)
        a = max(a, end + 1)
    return hist


def _add_piece(
    primes: np.ndarray, lo: int, hi: int, length: int, row: np.ndarray
) -> None:
    """Add to row[m] the number of n in [lo, hi] whose window [n, n + length]
    holds m of primes, the sorted primes of [lo, hi + length], and to row[-1]
    those with more than len(row) - 2.

    With primes q_0 < ... < q_{r-1} and q_{-1} = lo - 1, group j holds the n
    in (q_{j-1}, min(q_j, hi)], whose first prime is q_j: such an n sees at
    least m primes exactly when q_{j+m-1} <= n + length.  So N_m, the number
    of n in [lo, hi] that see at least m, is the sum over j of the clipped
    min(w_j, min(q_j, hi) + 1 + length - q_{j+m-1}), w_j the width of group j,
    and row[m] gains N_m - N_{m+1}, each level in O(len(primes)) work.  The
    levels stop at the first empty one, and length + 1 integers hold at most
    length // 2 + 2 primes, so at most min(len(row) - 1, length // 2 + 3) are
    counted; past LEVEL_CUTOVER, each run of window_runs is counted with its
    length instead.  Every value is an offset from lo of at most hi - lo +
    length + 1 < SCAN_CHUNK + MAX_EDGE_STEPS + 1, so it is held in int32.
    """
    if min(len(row) - 1, length // 2 + 3) > LEVEL_CUTOVER:
        c, runs = window_runs(primes, primes, lo, hi, length)
        np.minimum(c, len(row) - 1, out=c)
        row += np.bincount(c, weights=runs, minlength=len(row)).astype(np.int64)
        return
    r = len(primes)
    q = np.subtract(primes, lo, out=np.empty(r, dtype=np.int32), casting="unsafe")
    # only the groups up to the first prime at or past hi hold any n
    g = min(int(np.searchsorted(q, hi - lo)) + 1, r)
    top = q[:g].copy()  # min(q_j, hi) - lo
    top[g - 1 :] = np.minimum(top[g - 1 :], hi - lo)
    width = np.empty(g, dtype=np.int32)
    width[:1] = top[:1] + 1
    np.subtract(top[1:], q[: g - 1], out=width[1:])
    top += 1 + length
    atleast = [hi - lo + 1]
    buf, zeros = np.empty(g, dtype=np.int32), np.zeros(g, dtype=np.int32)
    for m in range(1, min(len(row), r + 1)):
        k = min(g, r - m + 1)
        seen = buf[:k]
        np.subtract(top[:k], q[m - 1 : m - 1 + k], out=seen)
        np.minimum(seen, width[:k], out=seen)
        # a scalar 0 here, or a sum in int64, takes about three times as long
        np.maximum(seen, zeros[:k], out=seen)
        atleast.append(int(seen.sum(dtype=np.int32)))
        if not atleast[-1]:
            break
    atleast.append(0)
    for m, (n, more) in enumerate(zip(atleast, atleast[1:])):
        row[m] += n - more


def _validate_scan(lam: float, x: int, m_max: int) -> None:
    check_lambda(lam)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    # a few int64 histogram rows, and the report's count, density and Poisson
    # value of each m: under 300 bytes per m, measured with tracemalloc
    check_budget(384 * (m_max + 2), f"m_max={m_max}", "its histogram and report")


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
