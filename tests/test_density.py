import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from shortint import density, primes
from shortint.density import (
    DensityReport,
    density_csv,
    density_json,
    edge_steps,
    growth_check,
    growth_csv,
    measure_density,
    poisson_reference,
    required_limit,
    right_edge,
    window_counts,
    window_runs,
)
from shortint.errors import ParameterRangeError
from shortint.primes import ALL, PrimeFilter, PrimeReader, prime_segments

from dense_primes import count_between, dense_primes, is_prime
from exact_edges import exact_edge, exact_edges, exact_length


def naive_histogram(lam, x, m_max, filt=ALL):
    """Independent per-n recount from the dense-sieve oracle, with exact
    edges."""
    n = np.arange(1, x + 1)
    edges = exact_edges(lam, n)
    c = count_between(dense_primes(int(edges[-1]), filt), n, edges)
    hist = np.bincount(np.minimum(c, m_max + 1), minlength=m_max + 2).tolist()
    return dict(enumerate(hist[:-1])), hist[-1]


def test_density_example_x10():
    rep = measure_density(1.0, 10, 3)
    assert float(rep.densities[0]) == 0.2  # n = 1 and n = 8 see no prime
    assert float(rep.densities[1]) == 0.8
    assert rep.overflow == 0


def test_degenerate_window_counts_primes():
    # lam*log(x) < 1: the window holds no integer beyond n itself
    rep = measure_density(0.05, 100, 2)
    assert rep.counts[1] == 25
    assert rep.counts[0] == 75


def test_densities_partition_and_sum_to_one():
    for lam, x, filt in (
        (0.25, 4000, ALL),
        (1.0, 4000, PrimeFilter.residue_class(3, 4)),
        (5.0, 2500, PrimeFilter.kronecker(5, -1)),
    ):
        rep = measure_density(lam, x, 4, filt)
        assert sum(rep.counts.values()) + rep.overflow == x
        assert sum(rep.densities.values(), rep.overflow_density) == Fraction(1)


def test_report_rejects_broken_partition():
    with pytest.raises(AssertionError):
        DensityReport(lam=1.0, x=10, filt=ALL, m_max=1, counts={0: 5, 1: 4}, overflow=0)


def test_sliding_scan_equals_naive_recount():
    for lam in (0.25, 1.0, 5.0):
        rep = measure_density(lam, 3000, 8)
        counts, overflow = naive_histogram(lam, 3000, 8)
        assert rep.counts == counts and rep.overflow == overflow


def test_sliding_scan_equals_naive_recount_filtered():
    for filt in (PrimeFilter.residue_class(1, 4), PrimeFilter.kronecker(-4, 1)):
        rep = measure_density(5.0, 1500, 5, filt)
        counts, overflow = naive_histogram(5.0, 1500, 5, filt)
        assert rep.counts == counts and rep.overflow == overflow


def test_chunking_does_not_change_counts(monkeypatch):
    base = measure_density(1.0, 30000, 6)
    monkeypatch.setattr(density, "SCAN_CHUNK", 1024)
    chunked = measure_density(1.0, 30000, 6)
    monkeypatch.setattr(density, "SCAN_CHUNK", 4096)
    other = measure_density(1.0, 30000, 6)
    assert base.counts == chunked.counts == other.counts
    assert base.overflow == chunked.overflow == other.overflow


# (lam, x): x at a breakpoint of L(n) = floor(lam*log n), one below it, or tiny
EVENT_CASES = (
    (1.0, 404), (1.0, 403), (5.0, 1097), (5.0, 1096), (0.3, 786), (0.3, 785),
    (10.0, 2), (1.0, 1), (1.0, 2),
)
BREAKPOINTS = {(1.0, 404), (5.0, 1097), (0.3, 786), (10.0, 2)}


@pytest.mark.parametrize("chunk", (7, 1024))
def test_event_scan_matches_naive_recount(monkeypatch, chunk):
    monkeypatch.setattr(density, "SCAN_CHUNK", chunk)
    filters = (ALL, PrimeFilter.residue_class(1, 4), PrimeFilter.kronecker(-4, 1))
    for lam, x in EVENT_CASES:
        at_break = exact_length(lam, x) > exact_length(lam, x - 1) if x > 1 else False
        assert at_break == ((lam, x) in BREAKPOINTS)
        for filt in filters:
            counts, overflow = naive_histogram(lam, x, 3, filt)
            rep = measure_density(lam, x, 3, filt)
            assert (rep.counts, rep.overflow) == (counts, overflow), (lam, x, filt.tag)
            counts_2x, _ = naive_histogram(lam, 2 * x, 3, filt)
            results = growth_check(lam, 3, x, filt)
            assert [(r.count_at_x, r.count_at_2x) for r in results] == [
                (counts[m], counts_2x[m]) for m in range(4)
            ], (lam, x, filt.tag)


def test_right_edge_where_the_float_sum_misfloors():
    # floor(n + log n) in float64 rounds up to the next integer here; at
    # 178482300 that integer is the prime 178482319
    n = np.array([65659969, 178482300])
    assert right_edge(n, 1.0).tolist() == [65659986, 178482318]
    assert right_edge(n, 1.0).tolist() == [exact_edge(1.0, v) for v in n.tolist()]


@pytest.mark.parametrize("k", (18, 19, 20, 21, 22))
def test_right_edge_just_below_breakpoints(k):
    top = math.ceil(math.exp(k))
    n = np.arange(top - 400, top + 3)
    assert right_edge(n, 1.0).tolist() == exact_edges(1.0, n).tolist()


@pytest.mark.parametrize("lam", (0.3, 1.0, 5.0, 10.0))
def test_edge_steps_are_the_first_crossings(lam):
    # every jump of the exact L over 1..limit, repeated by its size
    limit = 10**5
    n = np.arange(1, limit + 1)
    lengths = exact_edges(lam, n) - n
    assert edge_steps(lam, limit).tolist() == np.repeat(n[1:], np.diff(lengths)).tolist()
    # far out: entry k - 1 is the least n with floor(lam*ln n) >= k
    steps = edge_steps(lam, 10**10).tolist()
    assert len(steps) == exact_length(lam, 10**10)
    for k, step in enumerate(steps, start=1):
        assert exact_length(lam, step) >= k > exact_length(lam, step - 1)


def test_edge_steps_refuse_too_many_breakpoints():
    # lambda 10 up to 1e16 needs 368 breakpoints and is accepted
    assert len(edge_steps(10.0, 10**16)) == math.floor(10 * math.log(10**16))
    with pytest.raises(ParameterRangeError) as info:
        edge_steps(1e6, 100)
    assert str(info.value) == (
        "lambda=1000000.0 needs 4,605,170 window-edge breakpoints up to 100; "
        f"at most {density.MAX_EDGE_STEPS:,} are supported"
    )


@pytest.mark.parametrize("shift", (-7.0, 7.0))
def test_edge_steps_settle_from_a_wrong_seed(monkeypatch, shift):
    # the exp(k/lam) seed only starts the search: seeds 7 too high or too low
    # settle on the same breakpoints
    want = edge_steps(1.0, 10**6).tolist()
    exp = math.exp
    monkeypatch.setattr(math, "exp", lambda t: exp(t) + shift)
    assert edge_steps(1.0, 10**6).tolist() == want


@pytest.mark.parametrize("n, step", ((123456789, 123456790), (1000, 1000)))
def test_edge_steps_where_the_float_product_lies(n, step):
    # float64 lam*log n is exactly 7.0 at lam = 7/log n, while the exact value
    # lies below 7 at 123456789 (the breakpoint is the next integer) and above
    # it at 1000 (the breakpoint is 1000 itself)
    lam = 7 / math.log(n)
    assert lam * math.log(n) == 7.0
    assert exact_length(lam, step - 1) == 6 and exact_length(lam, step) == 7
    steps = edge_steps(lam, n + 10).tolist()
    assert len(steps) == 7 and steps[-1] == step
    for k, at in enumerate(steps, start=1):
        assert exact_length(lam, at) >= k > exact_length(lam, at - 1)


def test_edge_steps_edge_cases():
    assert len(edge_steps(1e-3, 10**10)) == 0  # no breakpoint below e**1000
    assert right_edge(np.array([1, 10**10]), 1e-3).tolist() == [1, 10**10]
    # 10*ln 2 = 6.93 and 10*ln 3 = 10.99: six breakpoints at 2, four at 3
    assert edge_steps(10.0, 3).tolist() == [2] * 6 + [3] * 4
    assert right_edge(np.array([1, 2, 3]), 10.0).tolist() == [1, 8, 13]


def test_non_finite_lambda_is_rejected():
    for lam in (math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterRangeError, match="lambda must be finite"):
            measure_density(lam, 100, 2)
        with pytest.raises(ParameterRangeError, match="lambda must be finite"):
            growth_check(lam, 2, 100)
        with pytest.raises(ParameterRangeError, match="lambda must be finite"):
            window_counts(lam, 1, 100)


@pytest.mark.parametrize("lam", (0.3, 1.0, 5.0))
def test_required_limit_covers_the_last_window_beyond_2_53(lam):
    # from 2**53 on float64 skips integers, and a float sum x + lam*log x + 1
    # can round below the last integer x + L(x) of the window of x
    rng = np.random.default_rng(53)
    xs = [2**53, 2**53 + 1, 2**53 + 3, 2**57 - 1, 2**60 - 1, 2**60]
    xs += rng.integers(2**53, 2**60, 20).tolist()
    for x in xs:
        edge = exact_edge(lam, x)
        assert edge <= required_limit(lam, x) <= edge + 2, x


def test_short_range_far_up_the_line_matches_miller_rabin():
    # the segment holds a few dozen odd n, and nearly all of the 5.4M base
    # primes up to 2**26.5 have no multiple in it; they are skipped, not marked
    a, b = 2**53 + 5, 2**53 + 40
    points = [n for n in range(a, exact_edge(1.0, b) + 1) if is_prime(n)]
    want = [count_between(np.array(points), n, exact_edge(1.0, n)) for n in range(a, b + 1)]
    got = window_counts(1.0, a, b).tolist()
    assert got == want and got[0] == 2


def test_overflowing_table_limit_is_rejected():
    # lam*log x, and so x + lam*log x, lies beyond the float range
    with pytest.raises(ParameterRangeError, match="table limit .* overflows"):
        required_limit(1e308, 10)
    with pytest.raises(ParameterRangeError, match="table limit .* overflows"):
        measure_density(1e308, 10, 1)
    with pytest.raises(ParameterRangeError, match="table limit .* overflows"):
        growth_check(1e308, 1, 10)
    with pytest.raises(ParameterRangeError, match="table limit .* overflows"):
        window_counts(1e308, 5, 10)


@pytest.mark.parametrize("lam", (0.25, 1.0, 5.0, 30.0))
def test_window_counts_match_naive_recount(monkeypatch, lam):
    # the cases a run kernel can get wrong: a run starting on a breakpoint of
    # L(n), an n where one prime leaves the window as another enters (a run
    # of length 0), single-n runs and a run across several scan chunks
    monkeypatch.setattr(density, "SCAN_CHUNK", 300)
    n = np.arange(2, 20000)
    lengths = exact_edges(lam, n) - n
    step = int(n[1:][(np.diff(lengths) > 0) & (n[1:] >= 1000)][0])
    filters = (ALL, PrimeFilter.residue_class(2, 3), PrimeFilter.kronecker(5, 1))
    for filt in filters:
        primes = dense_primes(10**5, filt)
        kept = np.zeros(10**5 + 1, dtype=bool)
        kept[primes] = True
        # n - 1 leaves and n + L enters, with L(n - 1) = L(n)
        swaps = n[1:][
            kept[n[1:] - 1] & kept[n[1:] + lengths[1:]] & (np.diff(lengths) == 0)
        ]
        runs = [(step, 40), (step - 1, 1), (step, 1), (1, 1), (7919, 1), (700, 1000)]
        if lam == 0.25 and filt.tag == "mod3r2":
            # L <= 2 here, and no two primes 2 or 3 apart are both 2 mod 3
            assert not swaps.size
        else:
            swap = int(swaps[0])
            runs += [(swap - 2, 5), (swap, 1)]
            length = exact_length(lam, swap)
            window = primes[(primes >= swap - 1) & (primes <= swap + length)]
            values, run_lengths = window_runs(window, window, swap - 1, swap, length)
            assert 0 in run_lengths.tolist(), (swap, filt.tag)
            ns = np.array([swap - 1, swap])
            want = count_between(primes, ns, ns + length)
            assert np.repeat(values, run_lengths).tolist() == want.tolist()
        for a, count in runs:
            got = window_counts(lam, a, a + count - 1, filt)
            ns = np.arange(a, a + count)
            want = count_between(primes, ns, exact_edges(lam, ns))
            assert got.tolist() == want.tolist(), (a, count, filt.tag)


def test_growing_lambda_never_loses_tail_mass():
    small = measure_density(0.5, 20000, 6)
    large = measure_density(1.0, 20000, 6)

    def tail(rep, m):
        return sum(rep.counts[j] for j in rep.counts if j >= m) + rep.overflow

    for m in range(7):
        assert tail(large, m) >= tail(small, m)


def test_residue_counts_per_window_reconcile():
    # per n: counts over the coprime residues + primes dividing q = unfiltered
    # count, each read by one reader walking the windows forward
    q = 4
    readers = [
        PrimeReader(prime_segments(1000, filt, 2))
        for filt in (ALL, PrimeFilter.residue_class(1, q), PrimeFilter.residue_class(3, q))
    ]
    for n in range(2, 800):
        hi = math.floor(n + 5.0 * math.log(n))
        total, *split = (len(reader.between(n, hi)) for reader in readers)
        ramified = sum(1 for p in (2,) if n <= p <= hi)
        assert sum(split) + ramified == total


def test_poisson_reference_examples():
    assert poisson_reference(1.0, 0) == pytest.approx(math.exp(-1), rel=1e-15)
    assert poisson_reference(2.0, 2) == pytest.approx(2 * math.exp(-2), rel=1e-15)
    total = sum(poisson_reference(3.0, m) for m in range(80))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_poisson_reference_large_m_uses_log_form():
    v = poisson_reference(2.0, 400)
    expected = math.exp(400 * math.log(2) - 2 - math.lgamma(401))
    assert v == pytest.approx(expected, rel=1e-12)
    assert poisson_reference(500.0, 3) > 0.0 or poisson_reference(500.0, 3) == 0.0


def test_growth_check_frozen_example():
    # own brute-force baseline: prime-free windows of length 5*log(n)
    [g] = growth_check(5.0, 0, 10**5)
    assert (g.m, g.count_at_x, g.count_at_2x) == (0, 55, 150)
    assert g.ratio == pytest.approx(150 / 55)


def test_growth_check_matches_scans_to_x_and_2x(monkeypatch):
    monkeypatch.setattr(density, "SCAN_CHUNK", 1000)
    for filt in (ALL, PrimeFilter.residue_class(1, 4)):
        results = growth_check(1.0, 4, 2500, filt)
        at_x = measure_density(1.0, 2500, 4, filt)
        at_2x = measure_density(1.0, 5000, 4, filt)
        assert [r.m for r in results] == list(range(5))
        for r in results:
            assert r.count_at_x == at_x.counts[r.m]
            assert r.count_at_2x == at_2x.counts[r.m]


def test_growth_check_empty_signal():
    g = growth_check(0.1, 7, 1000)[7]  # no window that small holds 7 primes
    assert g.count_at_x == 0 and g.count_at_2x == 0 and g.ratio is None
    # huge lambda: every window beyond n=1 holds far more than 1 prime
    g = growth_check(40.0, 1, 500)[1]
    assert g.count_at_x == 0 and g.count_at_2x == 0 and g.ratio is None


@pytest.mark.parametrize("segment_size", (64, 97))
@pytest.mark.parametrize("lam", (0.3, 1.0, 5.0, 30.0))
def test_stream_across_segment_ends_matches_naive_recount(monkeypatch, segment_size, lam):
    # a segment of S odd entries covers 2S integers; at lam = 30 and S = 64 a
    # window spans several segments, so the carried primes do too
    monkeypatch.setattr(primes, "SEGMENT_SIZE", segment_size)
    breakpoint_ = next(
        n for n in range(400, 4000) if exact_length(lam, n) > exact_length(lam, n - 1)
    )
    k = 600 // (2 * segment_size)
    segment_end = 3 + 2 * (k * segment_size - 1)  # last odd value of segment k
    inside = segment_end + segment_size  # the middle of segment k + 1
    filters = (ALL, PrimeFilter.residue_class(2, 3), PrimeFilter.kronecker(-3, -1))
    m_max = 40
    for filt in filters:
        for x in (breakpoint_, breakpoint_ - 1, segment_end):
            counts, overflow = naive_histogram(lam, x, m_max, filt)
            rep = measure_density(lam, x, m_max, filt)
            assert (rep.counts, rep.overflow) == (counts, overflow), (x, filt.tag)
        counts, _ = naive_histogram(lam, inside, m_max, filt)
        counts_2x, _ = naive_histogram(lam, 2 * inside, m_max, filt)
        results = growth_check(lam, m_max, inside, filt)
        assert [(r.count_at_x, r.count_at_2x) for r in results] == [
            (counts[m], counts_2x[m]) for m in range(m_max + 1)
        ], filt.tag


def assert_no_child_process():
    """This process has no child at all, running or a zombie, whoever made it."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# (lam, x, filt): x below, at and just above the part counts; a breakpoint
# of L(n); and both filters
PART_CASES = (
    *((1.0, x, ALL) for x in (1, 2, 3, 4, 5, 6)),
    (5.0, 1097, ALL),
    (0.3, 3000, ALL),
    (5.0, 1500, PrimeFilter.residue_class(1, 4)),
    (1.0, 1500, PrimeFilter.kronecker(-4, 1)),
)


@pytest.mark.parametrize("chunk", (97, 2**18))
@pytest.mark.parametrize("workers", (1, 2, 3, 5))
def test_parts_match_naive_recount(monkeypatch, workers, chunk):
    # SEGMENT_SIZE 64 puts several segments into each part and part cuts
    # inside segments
    monkeypatch.setattr(density, "WORKERS", workers)
    monkeypatch.setattr(density, "SCAN_CHUNK", chunk)
    monkeypatch.setattr(primes, "SEGMENT_SIZE", 64)
    for lam, x, filt in PART_CASES:
        counts, overflow = naive_histogram(lam, x, 4, filt)
        rep = measure_density(lam, x, 4, filt)
        assert (rep.counts, rep.overflow) == (counts, overflow), (lam, x, filt.tag)
        counts_2x, _ = naive_histogram(lam, 2 * x, 4, filt)
        results = growth_check(lam, 4, x, filt)
        assert [(r.count_at_x, r.count_at_2x) for r in results] == [
            (counts[m], counts_2x[m]) for m in range(5)
        ], (lam, x, filt.tag)
    assert_no_child_process()


def _patch_parts(monkeypatch, first=None, rest=None):
    """Three parts; before its sieve starts, the part from n = 1 calls first()
    and each other part calls rest()."""
    original = density.prime_segments

    def segments(limit, filt, lo):
        hook = rest if lo > 1 else first
        if hook is not None:
            hook()
        return original(limit, filt, lo=lo)

    monkeypatch.setattr(density, "prime_segments", segments)
    monkeypatch.setattr(density, "WORKERS", 3)


def _raise():
    raise OverflowError("part failed")


@pytest.mark.parametrize("side", ("first", "rest"))
def test_failing_part_raises_and_leaves_no_process(monkeypatch, side):
    _patch_parts(monkeypatch, **{side: _raise})
    with pytest.raises(OverflowError, match="part failed"):
        measure_density(1.0, 30000, 4)
    assert_no_child_process()


def test_failing_part_terminates_the_others(monkeypatch):
    _patch_parts(monkeypatch, first=_raise, rest=lambda: time.sleep(60))
    start = time.monotonic()
    with pytest.raises(OverflowError, match="part failed"):
        measure_density(1.0, 30000, 4)
    assert time.monotonic() - start < 30
    assert_no_child_process()


def test_failing_later_part_is_raised_at_once(monkeypatch):
    # part 2 (from n = 10001) fails while part 1 sleeps; part 3 runs normally
    original = density.prime_segments

    def segments(limit, filt, lo):
        if lo == 1:
            time.sleep(60)
        elif lo == 10001:
            _raise()
        return original(limit, filt, lo=lo)

    monkeypatch.setattr(density, "prime_segments", segments)
    monkeypatch.setattr(density, "WORKERS", 3)
    start = time.monotonic()
    with pytest.raises(OverflowError, match="part failed"):
        measure_density(1.0, 30000, 4)
    assert time.monotonic() - start < 30
    assert_no_child_process()


def test_dead_worker_raises_and_leaves_no_process(monkeypatch):
    _patch_parts(monkeypatch, rest=lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3"):
        growth_check(1.0, 4, 30000)
    assert_no_child_process()


KILLED_PARENT = """
import os, time
from shortint import density
original = density.prime_segments
def segments(limit, filt, lo):
    if lo > 1:
        os.write(1, f"{os.getpid()}\\n".encode())  # one write: lines never interleave
        time.sleep(60)
    return original(limit, filt, lo=lo)
density.prime_segments = segments
density.WORKERS = 3
density.measure_density(1.0, 30000, 4)
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_workers_end_when_the_parent_is_killed():
    # SIGKILL leaves the parent no chance to terminate its workers
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    parent = subprocess.Popen(
        [sys.executable, "-c", KILLED_PARENT], env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        workers = [int(parent.stdout.readline()) for _ in range(2)]
    finally:
        parent.kill()
        parent.wait(timeout=30)
        parent.stdout.close()
    deadline = time.monotonic() + 30
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, workers))


def test_csv_layout():
    rep = measure_density(1.0, 10, 2)
    text = density_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "m,count,density,poisson,ratio"
    assert lines[1].startswith("0,2,0.2,0.367879441171,")
    assert lines[-1].startswith("overflow,0,0,")
    bare = density_csv(rep, compare_poisson=False)
    assert bare.strip().splitlines()[1] == "0,2,0.2,,"


def test_json_mirror():
    rep = measure_density(1.0, 10, 2)
    payload = density_json(rep)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["counts"]["0"] == 2
    assert payload["densities_exact"]["1"] == [4, 5]
    assert payload["poisson"]["0"] == pytest.approx(math.exp(-1))


def test_growth_csv_layout():
    from shortint.density import GrowthResult

    text = growth_csv(
        [GrowthResult(0, 10, 4, 8, 2.0), GrowthResult(1, 10, 0, 0, None)]
    )
    assert text.splitlines() == ["m,count_x,count_2x,ratio", "0,4,8,2", "1,0,0,"]
