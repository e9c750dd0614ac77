"""Prime-cluster scanning and the interval-sliding process.

find_clusters scans integer base points N0 and yields, as (base, spacing_ok)
records, those whose window [N0, N0 + 5*lam*log(x_hi)] holds at least m+1
filtered primes; spacing_ok tells whether the primes are confined to the
first fifth with pairwise gaps above the well-spacing threshold.  slide()
then walks the windows I_j = [N0 + j, N0 + j + lam*log(N0 + j)] from a batch
of bases in one pass and locates, on each trace, the last index whose count
still exceeds m; immediately after it the count drops to exactly m.
Claims the sliding process relies on are checked on every trace, and any
violation is recorded as a falsification rather than assumed impossible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .bounds import BoundParams, DEFAULT_PARAMS, spacing_divisor, tuple_size
from .density import (
    check_lambda,
    right_edge,
    spans,
    table_limit,
    window_counts,
    window_runs,
)
from .errors import OutOfRangeError, ParameterRangeError
from .primes import ALL, PrimeFilter, PrimeTable, primes_between

# clusters per slide() call in the CLI; its memory is O(block), not
# O(--max-clusters)
SLIDE_BLOCK = 4096


def required_limit(lam: float, x_hi: int) -> int:
    """Smallest table limit that covers a cluster scan to x_hi and the slides
    across its clusters."""
    return table_limit(x_hi + 6 * lam * math.log(x_hi) + 1, lam, x_hi)


def _scan_scales(
    lam: float, x_hi: int, m: int, params: BoundParams
) -> tuple[float, float]:
    """The first portion lam*log(x_hi) of a scan to x_hi and its spacing
    threshold, portion / spacing_divisor(k(m)); the threshold degrades to 0
    when the tuple size grows beyond the float range."""
    portion = lam * math.log(x_hi)
    try:
        return portion, portion / spacing_divisor(tuple_size(m, params))
    except ParameterRangeError:
        return portion, 0.0


class Cluster(NamedTuple):
    """A base point whose window [base, base + 5*lam*log(x_hi)] holds at
    least m+1 filtered primes.

    spacing_ok records whether every one of them sits in the first fifth of
    the window and consecutive ones are more than the spacing threshold
    apart.
    """

    base: int
    spacing_ok: bool


@dataclass(frozen=True)
class Falsification:
    """An observed violation of a property the sliding process relies on."""

    kind: str
    base: int
    j: int
    expected: object
    observed: object

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "base": self.base,
                "j": self.j,
                "expected": self.expected,
                "observed": self.observed,
            }
        )


@dataclass(frozen=True)
class SlideTrace:
    """Window counts along one slide: the per-trace view of Slides.

    counts[j] is the number of filtered primes in I_j for j = 0..floor(lam *
    log base).  j_drop is the last j with counts[j] >= m+1 (None if none);
    m_run lists every j with counts[j] == m.
    """

    base: int
    lam: float
    m: int
    counts: tuple[int, ...]
    j_drop: int | None
    m_run: tuple[int, ...]
    falsifications: tuple[Falsification, ...]


@dataclass(frozen=True, eq=False)
class Slides:
    """Window counts along a batch of slides, stored column-wise.

    Trace i starts at bases[i] and its counts are
    counts[starts[i] : starts[i + 1]]; j_drop[i] is its drop index, -1 if it
    has none.  falsifications holds every record, trace by trace, and those
    of trace i are falsifications[falsification_starts[i] :
    falsification_starts[i + 1]].  Indexing and iteration give SlideTrace
    views.
    """

    lam: float
    m: int
    bases: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    j_drop: np.ndarray
    falsifications: tuple[Falsification, ...]
    falsification_starts: np.ndarray

    def __len__(self) -> int:
        return len(self.bases)

    def __getitem__(self, i: int) -> SlideTrace:
        i = range(len(self))[i]
        counts = self.counts[self.starts[i] : self.starts[i + 1]]
        j_drop = int(self.j_drop[i])
        fals = self.falsification_starts
        return SlideTrace(
            base=int(self.bases[i]),
            lam=self.lam,
            m=self.m,
            counts=tuple(counts.tolist()),
            j_drop=j_drop if j_drop >= 0 else None,
            m_run=tuple(np.flatnonzero(counts == self.m).tolist()),
            falsifications=self.falsifications[fals[i] : fals[i + 1]],
        )

    def __iter__(self) -> Iterator[SlideTrace]:
        return (self[i] for i in range(len(self)))


def find_clusters(
    table: PrimeTable,
    lam: float,
    x_lo: int,
    x_hi: int,
    m: int,
    filt: PrimeFilter = ALL,
    require_spacing: bool = False,
    params: BoundParams = DEFAULT_PARAMS,
) -> Iterator[Cluster]:
    """Yield clusters with >= m+1 filtered primes, scanning every integer base
    point in [x_lo, x_hi] in increasing order.

    The window length 5*lam*log(x_hi) and the spacing threshold
    lam*log(x_hi) / spacing_divisor(k(m)) are one float each per scan, with
    x_hi as the scale representative: they size the clusters and are not the
    edges of any slid window, which slide() takes from density.right_edge.
    Every count comes from density.window_runs at those fixed lengths: the
    primes in the window, those in its first portion, and the pairs of
    consecutive primes at most the threshold apart that lie inside it.  The
    bases are counted in spans that grow with what has been scanned
    (density.spans with ramp), so a consumer that stops early has at most
    about twice the bases it consumed counted.  With require_spacing, only
    spacing_ok clusters are yielded.
    """
    check_lambda(lam)
    if not 1 <= x_lo <= x_hi:
        raise ValueError(f"need 1 <= x_lo <= x_hi, got {x_lo}, {x_hi}")
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    need = required_limit(lam, x_hi)
    if need > table.limit:
        raise OutOfRangeError(
            f"scan to x_hi={x_hi} at lambda={lam} needs limit >= {need}, "
            f"have {table.limit}"
        )
    portion, threshold = _scan_scales(lam, x_hi, m, params)
    window = 5.0 * portion
    win_i = math.floor(window)  # p <= N0 + window  <=>  p - N0 <= win_i
    portion_i = math.ceil(portion) - 1  # p - N0 < portion  <=>  p - N0 <= portion_i

    for a, b in spans(x_lo, x_hi, ramp=True):
        primes = primes_between(table, a, b + win_i, filt)
        early = primes[: np.searchsorted(primes, b + portion_i, side="right")]
        # a bad pair: consecutive primes at most the threshold apart; one
        # wider than the window never lies inside it
        bad = np.flatnonzero(np.diff(primes) <= min(threshold, win_i))
        in_window, in_portion, n_bad = (
            np.repeat(*window_runs(starts, ends, a, b, length))
            for starts, ends, length in (
                (primes, primes, win_i),
                (early, early, portion_i),
                (primes[bad], primes[bad + 1], win_i),
            )
        )
        rich = np.flatnonzero(in_window >= m + 1)
        spaced = (in_window[rich] == in_portion[rich]) & (n_bad[rich] == 0)
        n = rich + a
        if require_spacing:
            n, spaced = n[spaced], spaced[spaced]
        yield from map(Cluster, n.tolist(), spaced.tolist())


def slide(
    table: PrimeTable,
    lam: float,
    bases: Sequence[int] | np.ndarray,
    m: int,
    filt: PrimeFilter = ALL,
) -> Slides:
    """Count filtered primes in each I_j = [N0+j, N0+j+lam*log(N0+j)] for
    j = 0..floor(lam*log N0) from every base N0, and locate the drop indices.

    The bases may come in any order, overlapping or repeated; the traces keep
    their order.  The trace intervals are merged into maximal covering runs
    and each run is counted by one window_counts call, so the work is linear
    in the number of windows.  Two claims are verified on every trace and
    recorded as falsifications when violated: counts never increase by more
    than 1 between consecutive j, and whenever the count is observed to drop
    below m+1 right after j_drop, the integer N0 + j_drop is itself a
    filtered prime.
    """
    check_lambda(lam)
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    bases = np.array(bases, dtype=np.int64)
    n = len(bases)
    lengths = right_edge(bases, lam) - bases + 1  # j = 0..L(base)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])

    # covering runs: traces sorted by base, merged where they overlap or touch
    order = np.argsort(bases, kind="stable")
    sorted_bases = bases[order]
    reach = np.maximum.accumulate(sorted_bases + lengths[order] - 1)
    opens = np.ones(n, dtype=bool)
    opens[1:] = sorted_bases[1:] > reach[:-1] + 1
    run_lo = sorted_bases[opens]
    run_hi = np.append(reach[:-1][opens[1:]], reach[-1:])  # reach before each open
    run_off = np.zeros(len(run_lo) + 1, dtype=np.int64)
    np.cumsum(run_hi - run_lo + 1, out=run_off[1:])
    cover = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [
            window_counts(table, lam, a, b, filt)
            for a, b in zip(run_lo.tolist(), run_hi.tolist())
        ]
    )
    run_of = np.empty(n, dtype=np.int64)
    run_of[order] = np.cumsum(opens) - 1
    first = run_off[run_of] + bases - run_lo[run_of]  # trace start inside cover
    counts = cover[np.repeat(first - starts[:-1], lengths) + np.arange(starts[-1])]

    rich = np.where(counts >= m + 1, np.arange(len(counts)), -1)
    last = np.maximum.reduceat(rich, starts[:-1])  # every trace has a window
    j_drop = np.where(last >= 0, last - starts[:-1], -1)

    # count jumps, found once in cover: pair (k, k+1) belongs to every trace
    # holding both k and k+1 (a pair that straddles two runs belongs to none)
    jumps = np.flatnonzero(cover[1:] > cover[:-1] + 1)
    jumps_lo = np.searchsorted(jumps, first)
    jumps_hi = np.searchsorted(jumps, first + lengths - 1)

    # drop points: N0 + j_drop must be a filtered prime when the trace goes on
    dropped = np.flatnonzero((j_drop >= 0) & (j_drop < lengths - 1))
    n_drop = bases[dropped] + j_drop[dropped]
    primes = table.primes()
    at = np.minimum(np.searchsorted(primes, n_drop), len(primes) - 1)
    bad_drop = np.zeros(n, dtype=bool)
    bad_drop[dropped[(primes[at] != n_drop) | ~filt.mask(n_drop)]] = True

    falsifications: list[Falsification] = []
    falsification_starts = np.zeros(n + 1, dtype=np.int64)
    for t in np.flatnonzero((jumps_hi > jumps_lo) | bad_drop).tolist():
        base = int(bases[t])
        for k in jumps[jumps_lo[t] : jumps_hi[t]].tolist():
            falsifications.append(
                Falsification(
                    kind="count-jump",
                    base=base,
                    j=k - int(first[t]),
                    expected=int(cover[k]) + 1,
                    observed=int(cover[k + 1]),
                )
            )
        if bad_drop[t]:
            n_t = base + int(j_drop[t])
            falsifications.append(
                Falsification(
                    kind="drop-point-not-prime",
                    base=base,
                    j=int(j_drop[t]),
                    expected=f"{n_t} is a filtered prime",
                    observed=f"{n_t} is not",
                )
            )
        falsification_starts[t + 1] = len(falsifications)
    # traces without records keep the offset of the trace before them
    return Slides(
        lam=lam,
        m=m,
        bases=bases,
        starts=starts,
        counts=counts,
        j_drop=j_drop,
        falsifications=tuple(falsifications),
        falsification_starts=np.maximum.accumulate(falsification_starts),
    )


def extract_m_runs(traces: Slides | SlideTrace, m: int) -> list[tuple[int, int]]:
    """Maximal runs of consecutive counts[j] == m inside each trace, as
    (start_j, length), trace by trace."""
    if isinstance(traces, SlideTrace):
        counts = np.array(traces.counts, dtype=np.int64)
        starts = np.array([0, len(counts)])
    else:
        counts, starts = traces.counts, traces.starts
    if not len(counts):
        return []
    hit = counts == m
    opens = np.zeros(len(counts), dtype=bool)
    opens[starts[:-1]] = True  # a trace begins here
    opens[1:] |= ~hit[:-1]
    closes = np.zeros(len(counts), dtype=bool)
    closes[starts[1:] - 1] = True  # a trace ends here
    closes[:-1] |= ~hit[1:]
    run_starts = np.flatnonzero(hit & opens)
    run_ends = np.flatnonzero(hit & closes) + 1
    trace = np.searchsorted(starts, run_starts, side="right") - 1
    return list(
        zip((run_starts - starts[trace]).tolist(), (run_ends - run_starts).tolist())
    )


def guaranteed_run_floor(
    lam: float, x_hi: int, m: int, params: BoundParams = DEFAULT_PARAMS
) -> int:
    """Run length promised after the drop index on a spacing_ok cluster of a
    scan to x_hi, when the drop index leaves that much room before the trace
    ends: the floor of the scan's spacing threshold."""
    return math.floor(_scan_scales(lam, x_hi, m, params)[1])


TRACE_HEADER = "j,N_j,count\n"


def _decimal_columns(columns: list[np.ndarray]) -> str:
    """Rows of non-negative integer columns as comma-separated decimals, one
    line per row, built digit by digit in a byte matrix."""
    rows = len(columns[0])
    fields = []
    for col in columns:
        top = int(col.max()) if rows else 0
        width = len(str(top))
        digits = np.empty((width, rows), dtype=np.uint8)
        v = col.astype(np.uint32 if top < 2**32 else np.uint64)
        for k in range(width - 1, -1, -1):
            q = v // 10
            digits[k] = v - q * 10
            v = q
        digits += ord("0")
        # leading zeros become 0 bytes, dropped below; the last digit stays
        digits[:-1][np.logical_and.accumulate(digits[:-1] == ord("0"), axis=0)] = 0
        fields += [digits, np.full((1, rows), ord(","), dtype=np.uint8)]
    fields[-1] = np.full((1, rows), ord("\n"), dtype=np.uint8)
    text = np.vstack(fields).T.ravel()
    return text[text != 0].tobytes().decode("ascii")


def trace_csv(slides: Slides) -> str:
    """TRACE_HEADER, then the rows j,N_j,count of every trace (j restarts at
    0 per trace)."""
    lengths = np.diff(slides.starts)
    j = np.arange(len(slides.counts)) - np.repeat(slides.starts[:-1], lengths)
    n_j = np.repeat(slides.bases, lengths) + j
    return TRACE_HEADER + _decimal_columns([j, n_j, slides.counts])


def falsifications_jsonl(slides: Slides) -> str:
    """All falsification records of the traces, one JSON object per line."""
    lines = [f.to_json() for f in slides.falsifications]
    return "\n".join(lines) + ("\n" if lines else "")
