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
Neither keeps a prime table, so memory does not grow with x: the scan reads
its primes through one forward PrimeReader over its range, sieved in pieces
that double from its start, and each batch of slides sieves only
[lo, hi + L(hi)] around its own traces.  The batches of one run share their
fixed work, the breakpoints of L and the sieve's base primes and wheel,
through one slide_setup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .bounds import BoundParams, DEFAULT_PARAMS, spacing_divisor, tuple_size
from .density import (
    SCAN_CHUNK,
    _read_runs,
    edge_steps,
    required_limit,
    spans,
    table_limit,
    window_runs,
)
from .errors import ParameterRangeError, check_lambda
from .primes import (
    ALL,
    PrimeFilter,
    PrimeReader,
    Sieve,
    check_budget,
    check_sieve,
    prime_segments,
)

# clusters per slide() call in the CLI, their bases inside one aligned range
# of SLIDE_SPAN integers: a slide's memory grows with its windows and with the
# primes its bases span, so it is O(block), not O(--max-clusters)
SLIDE_BLOCK = 4096
SLIDE_SPAN = 2**22


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
        import json  # only a slide that finds a falsification writes one

        return json.dumps(
            {
                "kind": self.kind,
                "base": self.base,
                "j": self.j,
                "expected": self.expected,
                "observed": self.observed,
            }
        )


@dataclass(frozen=True, eq=False)
class Slides:
    """Window counts along a batch of slides, stored column-wise.

    Trace i starts at bases[i] and its counts are
    counts[starts[i] : starts[i + 1]]; j_drop[i] is its drop index, -1 if it
    has none.  falsifications holds every record, trace by trace.
    """

    bases: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    j_drop: np.ndarray
    falsifications: tuple[Falsification, ...]

    def __len__(self) -> int:
        return len(self.bases)


class SlideSetup(NamedTuple):
    """The fixed work of every slide at lam whose bases lie in [lo, top]: the
    breakpoints of L up to the end of the last window, and the sieve of that
    range set up once (its base primes and wheel tile)."""

    lam: float
    lo: int
    top: int
    steps: np.ndarray
    sieve: Sieve


def slide_setup(lam: float, lo: int, top: int) -> SlideSetup:
    """The SlideSetup for bases in [lo, top], 1 <= lo <= top; every trace
    ends by required_limit(lam, top), and its windows by the limit of that."""
    check_lambda(lam)
    if not 1 <= lo <= top:
        raise ValueError(f"need 1 <= lo <= top, got {lo}, {top}")
    limit = required_limit(lam, required_limit(lam, top))
    return SlideSetup(lam, lo, top, edge_steps(lam, limit), Sieve(limit, lo))


def find_clusters(
    lam: float,
    m: int,
    x_lo: int,
    x_hi: int,
    filt: PrimeFilter = ALL,
    require_spacing: bool = False,
    params: BoundParams = DEFAULT_PARAMS,
) -> Iterator[Cluster]:
    """Yield clusters with >= m+1 filtered primes, scanning every integer base
    point in [x_lo, x_hi] in increasing order.

    The window length 5*lam*log(x_hi) and the spacing threshold
    lam*log(x_hi) / spacing_divisor(k(m)) are one float each per scan, with
    x_hi as the scale representative: they size the clusters and are not the
    edges of any slid window, which slide() takes from density.edge_steps.
    Every count comes from density.window_runs at those fixed lengths: the
    primes in the window, those in its first portion, and the pairs of
    consecutive primes at most the threshold apart that lie inside it.  The
    bases are counted in spans that grow with what has been scanned
    (density.spans with ramp), so a consumer that stops early has at most
    about twice the bases it consumed counted.  The primes come from one
    reader over [x_lo, x_hi + window], read span by span, which sieves that
    range in pieces that double from x_lo, so that one stopped early sets up
    no sieve far past what it read.  With require_spacing, only spacing_ok
    clusters are yielded.  Every check runs when find_clusters is called,
    before any cluster is asked for, including those of the sieve of the
    whole range.
    """
    check_lambda(lam)
    if not 1 <= x_lo <= x_hi:
        raise ValueError(f"need 1 <= x_lo <= x_hi, got {x_lo}, {x_hi}")
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    portion, threshold = _scan_scales(lam, x_hi, m, params)
    window = 5.0 * portion
    table_limit(x_hi + window, lam, x_hi)  # a window beyond the float range
    win_i = math.floor(window)  # p <= N0 + window  <=>  p - N0 <= win_i
    portion_i = math.ceil(portion) - 1  # p - N0 < portion  <=>  p - N0 <= portion_i
    # a span and its window, y integers, hold under 2y/log y primes (Montgomery
    # and Vaughan, 1973), read and then concatenated: 8 bytes each, twice
    y = SCAN_CHUNK + win_i
    who = f"a cluster window of {win_i} integers at lambda={lam}"
    check_budget(int(32 * y / math.log(y)), who, "its primes")
    end = x_hi + win_i
    check_sieve(end)

    def segments() -> Iterator[tuple[int, np.ndarray]]:
        # each range sets up its own sieve, base primes up to the root of top
        lo = x_lo
        while lo <= end:
            top = min(2 * lo, end)
            yield from prime_segments(top, filt, lo)
            lo = top + 1

    def scan() -> Iterator[Iterator[Cluster]]:
        reader = PrimeReader(segments())
        for a, b in spans(x_lo, x_hi, ramp=True):
            primes = reader.between(a, b + win_i)
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
            # the records of a span, built in C as Cluster(base, spacing_ok)
            # would be
            yield map(tuple.__new__, repeat(Cluster), zip(n.tolist(), spaced.tolist()))

    return chain.from_iterable(scan())


def slide(
    lam: float,
    bases: Sequence[int] | np.ndarray,
    m: int,
    filt: PrimeFilter = ALL,
    setup: SlideSetup | None = None,
) -> Slides:
    """Count filtered primes in each I_j = [N0+j, N0+j+lam*log(N0+j)] for
    j = 0..floor(lam*log N0) from every base N0, and locate the drop indices.

    The bases, each >= 1, may come in any order, overlapping or repeated;
    the traces keep their order.  One pass of density._read_runs counts every
    n in [lo, hi], the least base to the last N0 + j of any trace, as runs of
    equal c(n), from the filtered primes of [lo, hi + L(hi)], sieved for this
    batch alone; each trace reads its windows out of the runs, so work and
    memory are linear in the windows plus the primes in [lo, hi].
    MemoryBudgetError refuses a batch whose primes and runs there would
    exceed the budget.  setup, from slide_setup for a range holding every
    base, saves the batch its own breakpoints of L and sieve set-up; batches
    of one run share it.  Two claims are verified on every trace and
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
    lo = int(bases.min()) if n else 1  # n = 1 alone for no bases
    if lo < 1:
        raise ValueError(f"bases must be >= 1, got least base {lo}")
    top = int(bases.max(initial=lo))
    if setup is None or not n:  # no bases need no shared set-up
        setup = slide_setup(lam, lo, top)
    elif setup.lam != lam or not setup.lo <= lo <= top <= setup.top:
        raise ValueError(
            f"a slide setup for bases in [{setup.lo}, {setup.top}] at "
            f"lambda={setup.lam} cannot slide [{lo}, {top}] at lambda={lam}"
        )
    steps = setup.steps
    lengths = np.searchsorted(steps, bases, side="right") + 1  # j = 0..L(base)
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    hi = int((bases + lengths - 1).max(initial=lo))
    # about 80 bytes for each of the under 2y/log y primes of the y integers
    # in [lo, hi] (Montgomery and Vaughan, 1973): two copies and two runs each
    y = max(hi - lo + 1, 2)
    who = f"a slide over [{lo:,}, {hi:,}]"
    check_budget(int(160 * y / math.log(y)), who, "the primes and runs there")
    # one kernel pass gives c(n) for n in [lo, hi] as runs, from the filtered
    # primes up to hi + L(hi); a -1 before them keeps every search for a drop
    # point in range
    end = hi + int(np.searchsorted(steps, hi, side="right"))
    reader = PrimeReader(prime_segments(end, filt, lo, setup.sieve))
    inside = np.concatenate(([-1], reader.between(lo, end)))
    pieces = zip(*_read_runs(inside[1:], steps, lo, hi))
    values, runs = (np.concatenate([[0], *col], dtype=np.int32) for col in pieces)
    # run k > 0 holds c(n) for n - lo in [ends[k - 1], ends[k]); trace t reads
    # its n - lo in [head, tail) from n_runs runs on from first, each cut to it
    ends = np.cumsum(runs, dtype=np.int64)
    head, tail = bases - lo, bases + lengths - lo
    first = np.searchsorted(ends, head, side="right")
    n_runs = np.searchsorted(ends, tail - 1, side="right") + 1 - first
    run_of = np.repeat(first + n_runs - np.cumsum(n_runs), n_runs)
    run_of += np.arange(len(run_of))
    head, tail = np.repeat(head, n_runs), np.repeat(tail, n_runs)
    cut = np.clip(ends[run_of], head, tail) - np.clip(ends[run_of - 1], head, tail)
    counts = np.repeat(values[run_of], cut)

    rich = np.where(counts >= m + 1, np.arange(len(counts)), -1)
    last = np.maximum.reduceat(rich, starts[:-1])  # every trace has a window
    j_drop = np.where(last >= 0, last - starts[:-1], -1)

    # count jumps: pair (k, k+1) belongs to trace t when
    # starts[t] <= k < starts[t + 1] - 1
    jumps = np.flatnonzero(counts[1:] > counts[:-1] + 1)
    jumps_lo = np.searchsorted(jumps, starts[:-1])
    jumps_hi = np.searchsorted(jumps, starts[1:] - 1)

    # drop points: N0 + j_drop must be a filtered prime when the trace goes on
    n_drop = bases + j_drop
    at = np.searchsorted(inside, n_drop, side="right") - 1
    bad_drop = (j_drop >= 0) & (j_drop < lengths - 1) & (inside[at] != n_drop)

    falsifications: list[Falsification] = []
    for t in np.flatnonzero((jumps_hi > jumps_lo) | bad_drop).tolist():
        base = int(bases[t])
        for k in jumps[jumps_lo[t] : jumps_hi[t]].tolist():
            falsifications.append(
                Falsification(
                    kind="count-jump",
                    base=base,
                    j=k - int(starts[t]),
                    expected=int(counts[k]) + 1,
                    observed=int(counts[k + 1]),
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
    return Slides(bases, starts, counts, j_drop, tuple(falsifications))


def m_runs(slides: Slides, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of consecutive counts[j] == m inside each trace, trace by
    trace, as two arrays: the index into counts where each run begins, and
    its length."""
    hit = slides.counts == m
    # a boundary before index k, where hit changes or a trace begins, and one
    # after the last index; between two boundaries hit is constant
    edge = np.ones(len(hit) + 1, dtype=bool)
    np.not_equal(hit[1:], hit[:-1], out=edge[1:-1])
    edge[slides.starts] = True
    bounds = np.flatnonzero(edge)
    keep = hit[bounds[:-1]]
    begins = bounds[:-1][keep]
    return begins, bounds[1:][keep] - begins


def extract_m_runs(slides: Slides, m: int) -> list[tuple[int, int]]:
    """The runs of m_runs as (start_j, length), j counted from each trace's
    first window."""
    begins, lengths = m_runs(slides, m)
    trace = np.searchsorted(slides.starts, begins, side="right") - 1
    return list(zip((begins - slides.starts[trace]).tolist(), lengths.tolist()))


def guaranteed_run_floor(
    lam: float, x_hi: int, m: int, params: BoundParams = DEFAULT_PARAMS
) -> int:
    """Run length promised after the drop index on a spacing_ok cluster of a
    scan to x_hi, when the drop index leaves that much room before the trace
    ends: the floor of the scan's spacing threshold."""
    return math.floor(_scan_scales(lam, x_hi, m, params)[1])


TRACE_HEADER = "j,N_j,count\n"
CSV_ROWS = 2**14  # trace rows formatted at a time; bounds the byte matrix


def _decimal_columns(columns: list[np.ndarray]) -> str:
    """Rows of non-negative integer columns as comma-separated decimals, one
    line per row, built digit by digit in a (rows, line width) byte matrix."""
    tops = [int(col.max()) for col in columns]
    widths = [len(str(top)) for top in tops]
    text = np.empty((len(columns[0]), sum(widths) + len(widths)), dtype=np.uint8)
    at = 0
    for col, top, width in zip(columns, tops, widths):
        v = col.astype(np.uint32 if top < 2**32 else np.uint64)
        for k in range(at + width - 1, at - 1, -1):
            q = v // 10
            text[:, k] = v - q * 10 + ord("0")
            v = q
        # leading zeros become 0 bytes, dropped below; the last digit stays
        for k in range(width - 1):
            text[:, at + k][col < 10 ** (width - 1 - k)] = 0
        text[:, at + width] = ord(",")
        at += width + 1
    text[:, -1] = ord("\n")
    flat = text.ravel()
    return str(flat[flat != 0].data, "ascii")


def trace_rows(slides: Slides) -> Iterator[str]:
    """The rows j,N_j,count of every trace (j restarts at 0 per trace),
    formatted CSV_ROWS rows at a time."""
    lengths = np.diff(slides.starts)
    j = np.arange(len(slides.counts)) - np.repeat(slides.starts[:-1], lengths)
    n_j = np.repeat(slides.bases, lengths) + j
    columns = [j, n_j, slides.counts]
    for i in range(0, len(j), CSV_ROWS):
        yield _decimal_columns([col[i : i + CSV_ROWS] for col in columns])


def trace_csv(slides: Slides) -> str:
    """TRACE_HEADER, then the trace_rows of every trace."""
    return "".join([TRACE_HEADER, *trace_rows(slides)])


def falsifications_jsonl(slides: Slides) -> str:
    """All falsification records of the traces, one JSON object per line."""
    lines = [f.to_json() for f in slides.falsifications]
    return "\n".join(lines) + ("\n" if lines else "")
