"""Densities of starting points n <= x whose short interval [n, n + lam*log n]
contains exactly m filtered primes, with Poisson reference values.

Every window count in the package goes through one kernel: right_edge gives
the integer right end of a window, count_windows counts sorted primes in many
windows at once, and window_counts yields c(n), the number of filtered primes
in [n, n + lam*log n], for a run of n.  The density scan, the growth check,
the cluster scan and the slide are thin consumers of it.  The density and
growth scans count their chunks on WORKERS threads, one per CPU the process
may run on (restrict them with taskset); the output never depends on it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import OutOfRangeError
from .primes import ALL, PrimeFilter, PrimeTable, primes_between

SCAN_CHUNK = 2**16  # starting points per kernel call; bounds the prefix arrays
# Below this many windows, two binary searches per window beat building a
# prefix count over the whole span (a slide's covering run over sparse
# clusters is ~20 windows, scan chunks are SCAN_CHUNK windows).
SEARCH_SPAN = 256
WORKERS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)


def right_edge(n: np.ndarray, lam: float) -> np.ndarray:
    """floor(n + lam*log n) for an int64 array of n >= 1: the last integer
    inside each window."""
    return np.floor(n + lam * np.log(n.astype(np.float64))).astype(np.int64)


def count_windows(
    primes: np.ndarray, lo: int, lefts: np.ndarray, rights: np.ndarray
) -> np.ndarray:
    """For each i, the number of primes p with lefts[i] <= p <= rights[i].

    primes is sorted with every entry >= lo; lefts >= lo, rights >= lefts - 1
    (an empty window), and rights is non-decreasing.
    """
    if len(lefts) < SEARCH_SPAN:
        return np.searchsorted(primes, rights, side="right") - np.searchsorted(
            primes, lefts, side="left"
        )
    hi = int(rights[-1])
    inside = primes[: np.searchsorted(primes, hi, side="right")]
    ind = np.zeros(hi - lo + 2, dtype=np.int32)
    ind[inside - lo + 1] = 1
    cum = np.cumsum(ind, out=ind)  # cum[t] = #primes in [lo, lo + t - 1]
    return cum[rights - lo + 1] - cum[lefts - lo]


def spans(a: int, b: int) -> Iterator[tuple[int, int]]:
    """[a, b] cut into consecutive closed runs of at most SCAN_CHUNK integers."""
    for lo in range(a, b + 1, SCAN_CHUNK):
        yield lo, min(lo + SCAN_CHUNK - 1, b)


def window_counts(
    table: PrimeTable, lam: float, a: int, b: int, filt: PrimeFilter = ALL
) -> np.ndarray:
    """c(n), the number of filtered primes in [n, n + lam*log n], for n = a..b.

    Raises OutOfRangeError when a window reaches beyond the table.
    """
    if lam < 0 or not 1 <= a <= b:
        raise ValueError(f"need lam >= 0 and 1 <= a <= b, got {lam}, {a}, {b}")
    parts = []
    for lo, hi in spans(a, b):
        n = np.arange(lo, hi + 1, dtype=np.int64)
        rights = right_edge(n, lam)
        primes = primes_between(table, lo, int(rights[-1]), filt)
        parts.append(count_windows(primes, lo, n, rights))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def poisson_reference(lam: float, m: int) -> float:
    """lam^m * exp(-lam) / m!, switching to exponent-log form when the direct
    product would overflow."""
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if m <= 170:
        try:
            return lam**m * math.exp(-lam) / math.factorial(m)
        except OverflowError:
            pass
    return math.exp(m * math.log(lam) - lam - math.lgamma(m + 1))


def uniform_poisson_reference(lam: float, m: int) -> float:
    """lam^m / m!: the reference for windows whose lambda shrinks with x."""
    if not 0 < lam <= 1:
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if m <= 170:
        return lam**m / math.factorial(m)
    return math.exp(m * math.log(lam) - math.lgamma(m + 1))


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
    """Smallest table limit that covers every window of a scan up to x."""
    return math.ceil(x + lam * math.log(x) + 1)


def _histogram(
    table: PrimeTable,
    lam: float,
    a: int,
    b: int,
    m_max: int,
    filt: PrimeFilter,
) -> np.ndarray:
    """bincount of c(n) over n in [a, b], every c(n) > m_max in the last bin;
    the chunks of [a, b] are counted on WORKERS threads."""

    def part(span: tuple[int, int]) -> np.ndarray:
        c = window_counts(table, lam, *span, filt)
        return np.bincount(np.minimum(c, m_max + 1), minlength=m_max + 2)

    table.primes()  # build the shared index here, not once per worker
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        return sum(pool.map(part, spans(a, b)), np.zeros(m_max + 2, dtype=np.int64))


def _validate_scan(lam: float, x: int, m_max: int) -> None:
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")


def measure_density(
    table: PrimeTable,
    lam: float,
    x: int,
    m_max: int,
    filt: PrimeFilter = ALL,
) -> DensityReport:
    """Count, for every n <= x, the filtered primes in [n, n + lam*log n].

    n runs from 1; the window of n = 1 is the single point {1} and lands in
    m = 0.  Chunks of starting points are counted independently on WORKERS
    threads and merged by addition.
    """
    _validate_scan(lam, x, m_max)
    need = required_limit(lam, x)
    if need > table.limit:
        raise OutOfRangeError(
            f"scan to x={x} at lambda={lam} requires a table with "
            f"limit >= {need}, have {table.limit}"
        )
    hist = _histogram(table, lam, 1, x, m_max, filt)
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
    table: PrimeTable,
    lam: float,
    m_max: int,
    x: int,
    filt: PrimeFilter = ALL,
) -> list[GrowthResult]:
    """Ratio of exact-m counts between scans to 2x and to x, for m = 0..m_max,
    from one pass over [1, 2x] split at x."""
    _validate_scan(lam, x, m_max)
    need = required_limit(lam, 2 * x)
    if need > table.limit:
        raise OutOfRangeError(
            f"growth check at x={x} needs limit >= {need}, have {table.limit}"
        )
    at_x = _histogram(table, lam, 1, x, m_max, filt)
    at_2x = at_x + _histogram(table, lam, x + 1, 2 * x, m_max, filt)
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
