import functools
import itertools
import json
import math
import random

import numpy as np
import pytest

from shortint import cli
from shortint import clusters as clusters_mod
from shortint import density
from shortint.bounds import BoundParams, spacing_divisor, tuple_size
from shortint.clusters import (
    Cluster,
    Slides,
    extract_m_runs,
    falsifications_jsonl,
    find_clusters,
    guaranteed_run_floor,
    slide,
    trace_csv,
)
from shortint.density import window_counts
from shortint.errors import MemoryBudgetError, ParameterRangeError
from shortint.primes import ALL, PrimeFilter

from dense_primes import count_between, dense_primes, dense_sieve, is_prime
from exact_edges import exact_edge, exact_length

SMALL_K = BoundParams(scale=2.0)  # k(0) = 2, spacing divisor 16


@functools.lru_cache
def oracle(filt=ALL):
    """The filtered primes from the dense sieve, past the end of every window
    of these tests: up to 1e7 + 200, or 1e6 + 200 through a filter."""
    return dense_sieve(10**7 + 200) if filt == ALL else dense_primes(10**6 + 200, filt)


def positions(lam, x_hi, base, filt=ALL, primes=None):
    """Offsets p - base of the filtered primes (or of the sorted points
    primes) in the cluster window [base, base + 5*lam*log(x_hi)] of a scan to
    x_hi."""
    primes = oracle(filt) if primes is None else primes
    window = 5 * lam * math.log(x_hi)
    lo = np.searchsorted(primes, base)
    hi = np.searchsorted(primes, math.floor(base + window), side="right")
    return (primes[lo:hi] - base).tolist()


def spacing_ok(offsets, lam, x_hi, threshold):
    """Every offset inside the first portion lam*log(x_hi), and consecutive
    ones more than threshold apart."""
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    return max(offsets) < lam * math.log(x_hi) and all(g > threshold for g in gaps)


def test_find_clusters_near_twin_primes():
    clusters = list(find_clusters(2.0, 1, 90, 120))
    assert clusters
    found = [positions(2.0, 120, c.base) for c in clusters]
    twin = [
        offsets
        for c, offsets in zip(clusters, found)
        if 101 - c.base in offsets and 103 - c.base in offsets
    ]
    assert twin
    assert all(len(offsets) >= 2 for offsets in found)


def test_find_clusters_matches_per_base_brute_force(monkeypatch):
    # every base point, via explicit positions, unfiltered and through a
    # residue and a Kronecker filter; tiny chunks so several chunk boundaries
    # fall inside the scanned range
    monkeypatch.setattr(density, "SCAN_CHUNK", 97)
    lam, x_lo, x_hi = 1.3, 5000, 6000
    params = SMALL_K
    cases = (
        (ALL, 2),
        (PrimeFilter.residue_class(1, 4), 1),
        (PrimeFilter.kronecker(5, -1), 1),
    )
    for filt, m in cases:
        got = {
            c.base: c.spacing_ok
            for c in find_clusters(lam, m, x_lo, x_hi, filt, params=params)
        }
        threshold = lam * math.log(x_hi) / spacing_divisor(tuple_size(m, params))
        flags = {}
        for base in range(x_lo, x_hi + 1):
            offsets = positions(lam, x_hi, base, filt)
            if len(offsets) >= m + 1:
                flags[base] = spacing_ok(offsets, lam, x_hi, threshold)
        assert got == flags, filt.tag
        assert flags and not all(flags.values())
        assert list(got) == sorted(got)
        spaced = [
            c.base
            for c in find_clusters(
                lam, m, x_lo, x_hi, filt, require_spacing=True, params=params
            )
        ]
        assert spaced == [b for b, ok in got.items() if ok]
        # the filters thin the primes enough for some spacing_ok clusters
        assert filt is ALL or spaced


def test_spacing_rejects_close_pairs_inside_the_window(monkeypatch):
    # a sieve of chosen points, so that pairs at most the threshold apart sit
    # in the first portion of otherwise empty windows, which the primes below
    # 1e7 never offer; the portion is 32 and the threshold exactly 2
    monkeypatch.setattr(density, "SCAN_CHUNK", 97)
    x_hi = 6000
    lam = 32 / math.log(x_hi)
    assert lam * math.log(x_hi) / spacing_divisor(tuple_size(0, SMALL_K)) == 2.0
    groups = (
        (0,), (0, 1), (0, 2), (0, 3), (0, 5, 7), (0, 2, 10), (0, 2, 40), (0, 30),
        (0, 8, 16, 24),
    )
    points = np.array(
        [300 * i + h for i, group in enumerate(groups, start=1) for h in group]
    )

    def segments(limit, filt, lo):
        yield limit, points[(points >= lo) & (points <= limit)]

    monkeypatch.setattr(clusters_mod, "prime_segments", segments)
    got = {
        c.base: c.spacing_ok
        for c in find_clusters(lam, 0, 1, x_hi, params=SMALL_K)
    }
    want = {}
    for base in range(1, x_hi + 1):
        offsets = positions(lam, x_hi, base, primes=points)
        if offsets:
            want[base] = spacing_ok(offsets, lam, x_hi, 2.0)
    assert got == want
    confined = [b for b in want if max(positions(lam, x_hi, b, primes=points)) < 32]
    assert any(want[b] for b in confined) and not all(want[b] for b in confined)


@pytest.mark.parametrize("chunk", (1000, 2**18))
def test_islice_counts_what_it_consumes(monkeypatch, chunk):
    # a consumer that stops early has at most the first span, or twice the
    # bases up to its last cluster, counted; and it sees the full scan's prefix
    monkeypatch.setattr(density, "SCAN_CHUNK", chunk)
    first_span = max(chunk // 64, 1)
    x_lo, x_hi = 5000, 6 * 10**5
    full = list(find_clusters(0.5, 4, x_lo, x_hi))
    counted = set()
    original = clusters_mod.window_runs

    def recording(starts, ends, lo, hi, length):
        counted.add((lo, hi))
        return original(starts, ends, lo, hi, length)

    monkeypatch.setattr(clusters_mod, "window_runs", recording)
    # the last takes end far past the spans' growth to SCAN_CHUNK
    for take in (1, 2, 7, 40, 300, 3000, 20000, 50000):
        counted.clear()
        got = list(itertools.islice(find_clusters(0.5, 4, x_lo, x_hi), take))
        assert got == full[:take]
        consumed = got[-1].base - x_lo + 1
        bases = sum(hi - lo + 1 for lo, hi in counted)
        assert bases <= max(first_span, 2 * consumed), (take, consumed, bases)


def test_scan_and_slide_far_up_the_line_match_miller_rabin():
    # nothing caps the range: at 1e12 the scan and the slides sieve only
    # their own ranges; every cluster, count and c(n) against Miller-Rabin.
    # The last cluster window holds 3 primes, and the last one is its last
    # integer, the last one sieved.
    x_lo = 10**12
    points = np.array([n for n in range(x_lo, x_lo + 5000) if is_prime(n)])
    x_hi = next(
        x for x in range(x_lo + 2000, x_lo + 4000)
        if (edge := x + math.floor(5 * math.log(x))) in points
        and count_between(points, x, edge) == 3
    )
    got = {c.base: c.spacing_ok for c in find_clusters(1.0, 2, x_lo, x_hi)}
    threshold = math.log(x_hi) / spacing_divisor(tuple_size(2, BoundParams()))
    want = {}
    for base in range(x_lo, x_hi + 1):
        offsets = positions(1.0, x_hi, base, primes=points)
        if len(offsets) >= 3:
            want[base] = spacing_ok(offsets, 1.0, x_hi, threshold)
    assert got == want and len(want) > 100
    bases = list(want)[::7]
    slides = slide(1.0, bases, 2)
    traces = np.split(slides.counts, slides.starts[1:-1])
    for base, counts in zip(bases, traces, strict=True):
        edges = [exact_edge(1.0, base + j) for j in range(exact_length(1.0, base) + 1)]
        assert counts.tolist() == [
            int(count_between(points, base + j, edge)) for j, edge in enumerate(edges)
        ]
    assert not slides.falsifications
    ns = np.arange(x_lo, x_lo + 1000)
    want_c = count_between(points, ns, [exact_edge(1.0, n) for n in ns.tolist()])
    assert window_counts(1.0, x_lo, x_lo + 999).tolist() == want_c.tolist()


def test_find_clusters_empty_when_m_unreachable():
    assert list(find_clusters(1.0, 50, 100, 200)) == []


def test_spacing_requirement_excludes_pairs_in_tiny_portions():
    # first portion shorter than any prime gap: no spacing_ok cluster can
    # hold two primes, so m >= 1 scans come back empty
    x_hi = 23000  # lam*log(x_hi) just above 1
    assert list(
        find_clusters(0.1, 1, 1000, x_hi, require_spacing=True)
    ) == []


def test_cluster_fields_are_consistent():
    # at m = 1 the tuple size of SMALL_K is about 3.8e21: a threshold of
    # log(2e4)/1.35e24, so spacing_ok only asks for the first portion
    threshold = 1.5 * math.log(20000) / spacing_divisor(tuple_size(1, SMALL_K))
    assert 0 < threshold < 1e-20
    assert Cluster._fields == ("base", "spacing_ok")
    for c in itertools.islice(
        find_clusters(1.5, 1, 5000, 20000, params=SMALL_K), 200
    ):
        offsets = positions(1.5, 20000, c.base)
        assert len(offsets) >= 2
        assert c.spacing_ok == spacing_ok(offsets, 1.5, 20000, threshold)


def test_scan_past_last_filtered_prime():
    # the filter passes only 3 and 5003 below 1e4; bases beyond 5003 have no
    # filtered prime ahead of them and must simply yield nothing
    filt = PrimeFilter.residue_class(3, 5000)
    assert list(find_clusters(1.0, 0, 6000, 7000, filt=filt)) == []
    tail = list(find_clusters(1.0, 0, 4950, 5003, filt=filt))
    assert tail and all(
        positions(1.0, 5003, c.base, filt) == [5003 - c.base] for c in tail
    )


def test_filtered_cluster_scan():
    filt = PrimeFilter.residue_class(1, 4)
    clusters = list(
        itertools.islice(find_clusters(2.0, 1, 10**4, 10**5, filt=filt), 50)
    )
    assert len(clusters) == 50
    for c in clusters:
        offsets = positions(2.0, 10**5, c.base, filt)
        assert len(offsets) >= 2
        assert all((c.base + h) % 4 == 1 for h in offsets)


def test_slide_counts_match_independent_recount():
    # c(n) over the whole range in one call; the slide counts only the range
    # of its own batch, and each trace must equal its slice
    c_all = window_counts(1.0, 10**4, 10**5 + 20)
    bases = _bases(find_clusters(1.0, 1, 10**4, 10**5), 100)
    primes = oracle()
    slides = slide(1.0, bases, 1)
    traces = np.split(slides.counts, slides.starts[1:-1])
    for base, counts in zip(bases, traces, strict=True):
        assert len(counts) == exact_length(1.0, base) + 1
        for j, count in enumerate(counts.tolist()):
            n_j = base + j
            assert count == count_between(primes, n_j, exact_edge(1.0, n_j))
        start = base - 10**4
        assert counts.tolist() == c_all[start : start + len(counts)].tolist()


def test_slide_drop_index_properties():
    seen_drop = 0
    bases = _bases(find_clusters(1.0, 1, 10**4, 10**5), 300)
    slides = slide(1.0, bases, 1)
    assert not slides.falsifications
    traces = np.split(slides.counts, slides.starts[1:-1])
    for base, counts, j_drop in zip(bases, traces, slides.j_drop.tolist(), strict=True):
        if j_drop < 0:
            assert np.all(counts < 2)
            continue
        seen_drop += 1
        assert counts[j_drop] >= 2
        assert np.all(counts[j_drop + 1 :] <= 1)
        if j_drop < len(counts) - 1:
            assert base + j_drop in oracle()
    assert seen_drop > 0


def test_slide_first_window_covers_confined_cluster():
    # every cluster prime confined to the first portion and reachable from j=0:
    # the j=0 window already sees them all
    checked = 0
    bases = _bases(
        find_clusters(1.0, 1, 10**4, 10**5, require_spacing=True), 50
    )
    slides = slide(1.0, bases, 1)
    first = slides.counts[slides.starts[:-1]]  # the count at j = 0 of each trace
    for base, count in zip(bases, first.tolist(), strict=True):
        offsets = positions(1.0, 10**5, base)
        if max(offsets) <= math.log(base):
            assert count == len(offsets)
            checked += 1
    assert checked > 0


def test_slide_last_window_sees_no_confined_prime():
    # once the slide leaves the first portion, confined cluster primes are behind it
    checked = 0
    portion = math.log(10**5)
    for c in itertools.islice(
        find_clusters(1.0, 0, 10**4, 10**5, require_spacing=True), 200
    ):
        j_max = exact_length(1.0, c.base)
        offsets = positions(1.0, 10**5, c.base)
        if max(offsets) < j_max:
            confined = [p for p in offsets if p < portion]
            in_last = [p for p in confined if p >= j_max]
            assert not in_last
            checked += 1
    assert checked > 0


def test_extract_m_runs_examples():
    # the traces (2, 2, 1, 1, 1, 0) and (2, 2, 2), in both orders: a run of
    # 2s never crosses from one trace into the next
    for first, second, twos in (
        ([2, 2, 1, 1, 1, 0], [2, 2, 2], [(0, 2), (0, 3)]),
        ([2, 2, 2], [2, 2, 1, 1, 1, 0], [(0, 3), (0, 2)]),
    ):
        slides = Slides(
            bases=np.zeros(2, dtype=np.int64),
            starts=np.array([0, len(first), len(first) + len(second)]),
            counts=np.array(first + second),
            j_drop=np.full(2, -1),  # extract_m_runs reads counts and starts only
            falsifications=(),
        )
        assert extract_m_runs(slides, 1) == [(2, 3)]
        assert extract_m_runs(slides, 0) == [(5, 1)]
        assert extract_m_runs(slides, 2) == twos
        assert extract_m_runs(slides, 5) == []


def test_post_drop_run_meets_guarantee_on_spacing_ok_clusters():
    bases = _bases(
        find_clusters(1.0, 0, 9 * 10**6, 10**7, require_spacing=True, params=SMALL_K),
        2000,
    )
    floor_len = guaranteed_run_floor(1.0, 10**7, 0, SMALL_K)
    assert floor_len == math.floor(math.log(10**7) / 16) == 1  # non-trivial here
    slides = slide(1.0, bases, 0)
    assert not slides.falsifications
    # counts[j_drop] > m, so the run of m after the drop starts at j_drop + 1;
    # on traces with floor_len windows after the drop, they must all hold m
    drop = slides.starts[:-1] + slides.j_drop  # flat index of each drop
    room = (slides.j_drop >= 0) & (drop + floor_len < slides.starts[1:])
    for k in range(1, floor_len + 1):
        assert np.all(slides.counts[drop[room] + k] == 0)
    verified = int(room.sum())
    assert verified > 500


def test_windows_stay_inside_cluster_for_small_lambda():
    # lam < 1/5: every slid window [N_j, N_j + lam*log N_j] sits inside
    # [N0, N0 + 5*lam*log(x_hi)]
    x_hi = 10**5
    lam = 0.19
    window = 5 * lam * math.log(x_hi)
    for c in itertools.islice(find_clusters(lam, 0, 10**4, x_hi), 300):
        j_max = math.floor(lam * math.log(c.base))
        for j in (0, j_max // 2, j_max):
            n_j = c.base + j
            assert n_j >= c.base
            assert n_j + lam * math.log(n_j) <= c.base + window


def test_slide_with_unreachable_m_has_no_drop():
    c = next(iter(find_clusters(1.0, 0, 10**4, 10**4 + 100)))
    top = int(slide(1.0, [c.base], 0).counts.max())
    slides = slide(1.0, [c.base], top + 5)
    assert slides.j_drop.tolist() == [-1]
    assert extract_m_runs(slides, top + 5) == []
    assert not slides.falsifications


def test_grid_spaced_clusters_are_disjoint():
    # lam < 1/5 keeps the window below log(x_hi); bases a grid g > log(x_hi)
    # apart give pairwise disjoint windows
    x_hi = 10**5
    lam = 0.19
    window = 5 * lam * math.log(x_hi)
    g = math.floor(math.log(x_hi)) + 1
    picked = []
    last_base = None
    for c in find_clusters(lam, 0, 10**4, x_hi):
        if last_base is None or c.base >= last_base + g:
            picked.append(c)
            last_base = c.base
        if len(picked) == 50:
            break
    assert window < math.log(x_hi) <= g
    for a, b in zip(picked, picked[1:]):
        assert a.base + window < b.base


def test_pathological_scan_produces_count_jump_records():
    # window growth 1 + lam/N exceeds 2 at tiny N with huge lam: two primes can
    # enter one step, and the detector must say so rather than hide it
    cluster = next(iter(find_clusters(30.0, 0, 3, 3)))
    slides = slide(30.0, [cluster.base], 0)
    kinds = {f.kind for f in slides.falsifications}
    assert kinds == {"count-jump"}
    lines = falsifications_jsonl(slides).splitlines()
    assert len(lines) == len(slides.falsifications)
    record = json.loads(lines[0])
    assert set(record) == {"kind", "base", "j", "expected", "observed"}
    assert record["observed"] > record["expected"]


def test_trace_csv_layout():
    c = next(iter(find_clusters(1.0, 0, 10**4, 10**4 + 50)))
    lines = trace_csv(slide(1.0, [c.base], 0)).strip().splitlines()
    assert lines[0] == "j,N_j,count"
    first = lines[1].split(",")
    assert first[0] == "0" and int(first[1]) == c.base


def test_find_clusters_range_validation():
    with pytest.raises(ValueError):
        list(find_clusters(-1.0, 0, 10, 100))
    with pytest.raises(ValueError):
        list(find_clusters(1.0, 0, 100, 10))
    for lam in (math.inf, math.nan):
        with pytest.raises(ParameterRangeError, match="lambda must be finite"):
            list(find_clusters(lam, 0, 10, 100))
    with pytest.raises(ParameterRangeError, match="table limit .* overflows"):
        list(find_clusters(1e308, 0, 10, 100))


@pytest.mark.parametrize(
    "lam, error",
    ((0.0, ValueError), (-1.0, ValueError), (math.nan, ParameterRangeError)),
)
def test_slide_rejects_bad_lambda(lam, error):
    # the same errors as find_clusters, for an empty batch too, and from
    # window_counts
    with pytest.raises(error, match="lambda must be"):
        list(find_clusters(lam, 0, 10, 100))
    for bases in ([100], []):
        with pytest.raises(error, match="lambda must be"):
            slide(lam, bases, 0)
    with pytest.raises(error, match="lambda must be"):
        window_counts(lam, 1, 100)


def test_tuple_size_overflow_degrades_to_zero_threshold():
    # m far beyond the float range for k(m): threshold collapses to 0 and the
    # scan still runs (and finds nothing at such m)
    assert list(find_clusters(1.0, 40, 100, 2000)) == []


# -- the batched slide against per-window recounts ------------------------------


def _bases(clusters, count):
    """The bases of the first count clusters."""
    return [c.base for c in itertools.islice(clusters, count)]


def _check_slides(lam, bases, m, filt=ALL):
    """slide() on the batch against the dense-sieve oracle per window, the
    definition of j_drop, a per-row CSV and a per-trace run scan.  Returns
    the slides and the summary line the CLI prints for them."""
    slides = slide(lam, bases, m, filt)
    primes = oracle(filt)
    rows, runs, counts, j_drops = ["j,N_j,count\n"], [], [], []
    for base in map(int, bases):
        expected = [
            int(count_between(primes, base + j, exact_edge(lam, base + j)))
            for j in range(exact_length(lam, base) + 1)
        ]
        counts.append(expected)
        rich = [j for j, count in enumerate(expected) if count >= m + 1]
        j_drops.append(rich[-1] if rich else -1)
        rows += [f"{j},{base + j},{count}\n" for j, count in enumerate(expected)]
        j = 0
        for hit, group in itertools.groupby(expected, key=lambda count: count == m):
            size = len(list(group))
            if hit:
                runs.append((j, size))
            j += size
    assert len(slides) == len(bases)
    assert slides.bases.tolist() == list(map(int, bases))
    assert slides.starts.tolist() == [0, *itertools.accumulate(map(len, counts))]
    assert slides.counts.tolist() == list(itertools.chain.from_iterable(counts))
    assert slides.j_drop.tolist() == j_drops
    assert not slides.falsifications
    assert trace_csv(slides) == "".join(rows)
    assert extract_m_runs(slides, m) == runs
    assert falsifications_jsonl(slides) == ""
    summary = (
        f"traces={len(counts)} with_drop={sum(j >= 0 for j in j_drops)} "
        f"m_runs={len(runs)} longest_run={max([0, *(n for _, n in runs)])} "
        "falsifications=0\n"
    )
    return slides, summary


def test_cli_slide_summary_matches_the_oracle(tmp_path, capsys, monkeypatch):
    # the summary line sums every block's traces, drops and m-runs: 500
    # clusters in blocks of 64
    bases = _bases(find_clusters(1.0, 1, 10**5, 11 * 10**4), 500)
    _, summary = _check_slides(1.0, bases, 1)
    assert "with_drop=0" not in summary and "m_runs=0" not in summary
    monkeypatch.setattr(clusters_mod, "SLIDE_BLOCK", 64)
    argv = ["slide", "--lambda", "1", "--x-lo", "100000", "--x-hi", "110000",
            "--m", "1", "--max-clusters", "500", "--out", str(tmp_path / "t.csv")]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == summary


def test_slides_dense_overlapping_clusters():
    # lam=1 near 1e6: consecutive bases, every trace overlaps the next
    bases = _bases(find_clusters(1.0, 1, 998_000, 999_000), 300)
    assert all(b <= a + 13 for a, b in zip(bases, bases[1:]))
    _check_slides(1.0, bases, 1)


def test_slides_sparse_spaced_clusters_form_several_runs():
    bases = _bases(
        find_clusters(1.0, 0, 10**5, 4 * 10**5, require_spacing=True),
        200,
    )
    gaps = sum(b > a + math.floor(math.log(a)) + 1 for a, b in zip(bases, bases[1:]))
    assert gaps >= 10  # disjoint traces, with integers between them
    # an int64 array is as good as a list
    _check_slides(1.0, np.array(bases, dtype=np.int64), 0)


def test_slides_keep_input_order_and_repeats():
    bases = _bases(find_clusters(1.0, 1, 10**4, 10**5), 150)
    shuffled = bases[:]
    random.Random(0).shuffle(shuffled)
    shuffled.append(shuffled[7])
    slides, _ = _check_slides(1.0, shuffled, 1)
    assert slides.bases.tolist() == shuffled
    traces = np.split(slides.counts, slides.starts[1:-1])
    assert traces[-1].tolist() == traces[7].tolist()
    assert slides.j_drop[-1] == slides.j_drop[7]


@pytest.mark.parametrize(
    "filt", (PrimeFilter.residue_class(1, 4), PrimeFilter.kronecker(5, -1))
)
def test_slides_with_filters(filt):
    bases = _bases(find_clusters(2.0, 1, 10**4, 10**5, filt=filt), 150)
    assert bases
    _check_slides(2.0, bases, 1, filt)


@pytest.mark.parametrize(
    "lam, filt, near",
    (
        (1.0, ALL, (300_000, 1_100_000, 1_250_000, 4_000_000)),
        (2.0, PrimeFilter.residue_class(1, 4), (20_000, 400_000, 500_000, 990_000)),
    ),
)
def test_slides_of_scattered_unsorted_repeated_bases(lam, filt, near):
    # a few clusters near each point, the groups several SCAN_CHUNK spans
    # apart, a breakpoint of L in a gap between two traces; shuffled, with
    # repeats
    bases = [
        base for x in near for base in _bases(find_clusters(lam, 1, x, x + 2000, filt=filt), 5)
    ]
    assert len(bases) == 5 * len(near)
    assert max(bases) - min(bases) > 3 * density.SCAN_CHUNK
    ends = sorted((base, base + exact_length(lam, base)) for base in bases)
    gaps = [(end, base) for (_, end), (base, _) in zip(ends, ends[1:]) if base > end + 1]
    assert any(exact_length(lam, end + 1) < exact_length(lam, base - 1) for end, base in gaps)
    shuffled = bases + bases[::3]
    random.Random(1).shuffle(shuffled)
    _check_slides(lam, shuffled, 1, filt)


def test_slide_refuses_bases_spanning_beyond_the_memory_budget():
    # its memory grows with the primes between the least and the largest base
    with pytest.raises(MemoryBudgetError, match=r"a slide over \[1,000,000, 1,000,000,000,027\]"):
        slide(1.0, [10**12, 10**6], 1)


def test_slides_of_no_clusters():
    slides, summary = _check_slides(1.0, [], 1)
    assert len(slides) == 0 and slides.starts.tolist() == [0]
    assert summary == "traces=0 with_drop=0 m_runs=0 longest_run=0 falsifications=0\n"
    assert trace_csv(slides) == "j,N_j,count\n"


def test_slide_lengths_step_at_a_breakpoint():
    # e**16 = 8886110.52: the trace of 8886110 has j = 0..15, that of 8886111
    # j = 0..16
    slides, _ = _check_slides(1.0, [8886110, 8886111], 0)
    assert np.diff(slides.starts).tolist() == [16, 17]


# the records the per-cluster slide wrote for lam=30 over bases 3..40: every
# trace's own count jumps, jumps shared by overlapping traces repeated
LAM30_RECORDS = [
    ("count-jump", 3, 0, 11, 12),
    ("count-jump", 3, 1, 13, 14),
    ("count-jump", 3, 5, 16, 17),
    ("count-jump", 4, 0, 13, 14),
    ("count-jump", 4, 4, 16, 17),
    ("count-jump", 5, 3, 16, 17),
    ("count-jump", 6, 2, 16, 17),
    ("count-jump", 7, 1, 16, 17),
    ("count-jump", 8, 0, 16, 17),
]


def test_falsification_records_come_trace_by_trace():
    bases = [c.base for c in find_clusters(30.0, 0, 3, 40)]
    assert bases == list(range(3, 41))
    slides = slide(30.0, bases, 0)
    records = [json.loads(line) for line in falsifications_jsonl(slides).splitlines()]
    assert [tuple(r.values()) for r in records] == LAM30_RECORDS
    # in reverse input order the traces, and so the records, come reversed
    backwards = slide(30.0, bases[::-1], 0)
    assert [f.base for f in backwards.falsifications] == [8, 7, 6, 5, 4, 4, 3, 3, 3]
    assert [f.j for f in backwards.falsifications][-3:] == [0, 1, 5]


def _fake_kernel(counts):
    """A run stream in place of density._read_runs: c(n) = counts.get(n, 0)
    for n = a..b, yielded as one piece of unit-length runs."""
    def runs(reader, steps, a, b):
        values = [counts.get(n, 0) for n in range(a, b + 1)]
        yield np.array(values, dtype=np.int32), np.ones(len(values), dtype=np.int32)

    return runs


def test_drop_point_record_follows_the_count_jumps(monkeypatch):
    # traces over N = 1002..1008 and 1000..1006 under a kernel with jumps at
    # N = 1000, 1001 and 1006, and drops right after the composites 1003 =
    # 17*59 and 1007 = 19*53: each trace lists its own jumps, then its drop
    monkeypatch.setattr(
        clusters_mod,
        "_read_runs",
        _fake_kernel({1000: 0, 1001: 3, 1002: 5, 1003: 3, 1007: 2}),
    )
    slides = slide(1.0, [1002, 1000], 1)
    traces = np.split(slides.counts, slides.starts[1:-1])
    assert [t.tolist() for t in traces] == [[5, 3, 0, 0, 0, 2, 0], [0, 3, 5, 3, 0, 0, 0]]
    assert slides.j_drop.tolist() == [5, 3]
    got = [(f.base, f.kind, f.j, f.expected, f.observed) for f in slides.falsifications]
    assert got == [
        (1002, "count-jump", 4, 1, 2),
        (1002, "drop-point-not-prime", 5, "1007 is a filtered prime", "1007 is not"),
        (1000, "count-jump", 0, 1, 3),
        (1000, "count-jump", 1, 4, 5),
        (1000, "drop-point-not-prime", 3, "1003 is a filtered prime", "1003 is not"),
    ]


def test_drop_point_must_pass_the_filter(monkeypatch):
    # the count drops right after the prime 1009 = 1 (mod 4)
    monkeypatch.setattr(clusters_mod, "_read_runs", _fake_kernel({1009: 2}))
    assert not slide(1.0, [1009], 1, PrimeFilter.residue_class(1, 4)).falsifications
    (record,) = slide(1.0, [1009], 1, PrimeFilter.residue_class(3, 4)).falsifications
    assert (record.kind, record.j) == ("drop-point-not-prime", 0)
