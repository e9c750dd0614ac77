"""Prime-cluster scanning and the interval-sliding process.

find_clusters scans integer base points N0 and yields windows
[N0, N0 + 5*lam*log(x_hi)] holding at least m+1 filtered primes, tagging
whether the primes are confined to the first fifth with pairwise gaps above
the well-spacing threshold.  slide() then walks the windows
I_j = [N0 + j, N0 + j + lam*log(N0 + j)] and locates the last index whose
count still exceeds m; immediately after it the count drops to exactly m.
Claims the sliding process relies on are checked on every trace, and any
violation is recorded as a falsification rather than assumed impossible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .bounds import BoundParams, DEFAULT_PARAMS, spacing_divisor, tuple_size
from .density import count_windows, spans, window_counts
from .errors import OutOfRangeError, ParameterRangeError
from .primes import ALL, PrimeFilter, PrimeTable, primes_between


def required_limit(lam: float, x_hi: int) -> int:
    """Smallest table limit that covers a cluster scan to x_hi and the slides
    across its clusters."""
    return math.ceil(x_hi + 6 * lam * math.log(x_hi) + 1)


def _spacing_divisor_for(m: int, params: BoundParams) -> float:
    """spacing_divisor(k(m)), degrading to +inf (threshold 0) when the tuple
    size grows beyond the float range."""
    try:
        return spacing_divisor(tuple_size(m, params))
    except ParameterRangeError:
        return math.inf


@dataclass(frozen=True)
class Cluster:
    """A window [base, base + window] and the filtered primes inside it.

    prime_positions are offsets p - base.  spacing_ok records whether every
    prime sits in the first fifth of the window (position < first_portion)
    and consecutive primes are more than spacing_threshold apart.
    """

    base: int
    window: float
    lam: float
    prime_positions: tuple[int, ...]
    spacing_ok: bool
    first_portion: float
    spacing_threshold: float


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
    """Window counts along one slide.

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
    point in [x_lo, x_hi].

    The window length 5*lam*log(x_hi) and the spacing threshold
    lam*log(x_hi) / spacing_divisor(k(m)) use x_hi as the scale
    representative.  With require_spacing, only spacing_ok clusters are
    yielded.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
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
    portion = lam * math.log(x_hi)
    window = 5.0 * portion
    threshold = portion / _spacing_divisor_for(m, params)
    win_i = math.floor(window)  # p <= N0 + window  <=>  p - N0 <= win_i
    portion_i = math.ceil(portion) - 1  # p - N0 < portion  <=>  p - N0 <= portion_i

    for a, b in spans(x_lo, x_hi):
        primes = primes_between(table, a, b + win_i, filt)
        n = np.arange(a, b + 1, dtype=np.int64)
        in_window = count_windows(primes, a, n, n + win_i)
        rich = np.flatnonzero(in_window >= m + 1)
        n, in_window = n[rich], in_window[rich]
        first = np.searchsorted(primes, n, side="left")  # first prime >= N0
        last_prime = primes[first + in_window - 1]
        in_portion = count_windows(primes, a, n, n + portion_i)
        # a gap at or below the threshold between consecutive window primes
        # starts at a prime in [N0, last_prime - 1]
        bad_starts = primes[:-1][np.diff(primes) <= threshold]
        n_bad = count_windows(bad_starts, a, n, last_prime - 1)
        spaced = (in_window == in_portion) & (n_bad == 0)
        for i in np.flatnonzero(spaced) if require_spacing else range(len(n)):
            base, i0 = int(n[i]), int(first[i])
            positions = tuple((primes[i0 : i0 + int(in_window[i])] - base).tolist())
            yield Cluster(
                base=base,
                window=window,
                lam=lam,
                prime_positions=positions,
                spacing_ok=bool(spaced[i]),
                first_portion=portion,
                spacing_threshold=threshold,
            )


def slide(
    table: PrimeTable,
    cluster: Cluster,
    m: int,
    filt: PrimeFilter = ALL,
) -> SlideTrace:
    """Count filtered primes in each I_j = [N0+j, N0+j+lam*log(N0+j)] for
    j = 0..floor(lam*log N0) and locate the drop index.

    Two claims are verified on the trace and recorded as falsifications when
    violated: counts never increase by more than 1 between consecutive j, and
    whenever the count is observed to drop below m+1 right after j_drop, the
    integer N0 + j_drop is itself a filtered prime.
    """
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    base, lam = cluster.base, cluster.lam
    j_max = math.floor(lam * math.log(base))
    counts_arr = window_counts(table, lam, base, base + j_max, filt)
    counts = tuple(counts_arr.tolist())

    rich = np.flatnonzero(counts_arr >= m + 1)
    j_drop = int(rich[-1]) if len(rich) else None
    m_run = tuple(np.flatnonzero(counts_arr == m).tolist())

    falsifications: list[Falsification] = []
    jumps = np.flatnonzero(counts_arr[1:] > counts_arr[:-1] + 1)
    for j in jumps:
        falsifications.append(
            Falsification(
                kind="count-jump",
                base=base,
                j=int(j),
                expected=counts[int(j)] + 1,
                observed=counts[int(j) + 1],
            )
        )
    if j_drop is not None and j_drop < j_max:
        n_drop = base + j_drop
        if not (table.membership(n_drop) and filt.passes(n_drop)):
            falsifications.append(
                Falsification(
                    kind="drop-point-not-prime",
                    base=base,
                    j=j_drop,
                    expected=f"{n_drop} is a filtered prime",
                    observed=f"{n_drop} is not",
                )
            )
    return SlideTrace(
        base=base,
        lam=lam,
        m=m,
        counts=counts,
        j_drop=j_drop,
        m_run=m_run,
        falsifications=tuple(falsifications),
    )


def extract_m_runs(trace: SlideTrace, m: int) -> list[tuple[int, int]]:
    """Maximal consecutive runs of counts[j] == m, as (start_j, length)."""
    runs: list[tuple[int, int]] = []
    start = None
    for j, c in enumerate(trace.counts):
        if c == m:
            if start is None:
                start = j
        elif start is not None:
            runs.append((start, j - start))
            start = None
    if start is not None:
        runs.append((start, len(trace.counts) - start))
    return runs


def guaranteed_run_floor(cluster: Cluster) -> int:
    """Run length promised after the drop index on a spacing_ok cluster whose
    drop index leaves that much room before the trace ends."""
    return math.floor(cluster.spacing_threshold)


def trace_csv(traces: Iterable[SlideTrace]) -> str:
    """Concatenated per-trace rows j,N_j,count (j restarts at 0 per trace)."""
    lines = ["j,N_j,count"]
    for trace in traces:
        for j, c in enumerate(trace.counts):
            lines.append(f"{j},{trace.base + j},{c}")
    return "\n".join(lines) + "\n"


def falsifications_jsonl(traces: Iterable[SlideTrace]) -> str:
    """All falsification records of the traces, one JSON object per line."""
    lines = [f.to_json() for trace in traces for f in trace.falsifications]
    return "\n".join(lines) + ("\n" if lines else "")
