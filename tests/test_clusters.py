import itertools
import json
import math
import random

import numpy as np
import pytest

from shortint import clusters as clusters_mod
from shortint import density
from shortint.bounds import BoundParams, spacing_divisor, tuple_size
from shortint.clusters import (
    Cluster,
    SlideTrace,
    extract_m_runs,
    falsifications_jsonl,
    find_clusters,
    guaranteed_run_floor,
    slide,
    trace_csv,
)
from shortint.density import window_counts
from shortint.errors import OutOfRangeError, ParameterRangeError
from shortint.primes import ALL, PrimeFilter, PrimeTable, primes_between

from dense_primes import count_between, dense_flags, dense_primes
from exact_edges import exact_edge, exact_length

SMALL_K = BoundParams(scale=2.0)  # k(0) = 2, spacing divisor 16


def positions(table, lam, x_hi, base, filt=ALL):
    """Offsets p - base of the filtered primes in the cluster window
    [base, base + 5*lam*log(x_hi)] of a scan to x_hi."""
    window = 5 * lam * math.log(x_hi)
    return (primes_between(table, base, base + window, filt) - base).tolist()


def spacing_ok(offsets, lam, x_hi, threshold):
    """Every offset inside the first portion lam*log(x_hi), and consecutive
    ones more than threshold apart."""
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    return max(offsets) < lam * math.log(x_hi) and all(g > threshold for g in gaps)


def test_find_clusters_near_twin_primes(table_1e6):
    clusters = list(find_clusters(table_1e6, 2.0, 90, 120, 1))
    assert clusters
    found = [positions(table_1e6, 2.0, 120, c.base) for c in clusters]
    twin = [
        offsets
        for c, offsets in zip(clusters, found)
        if 101 - c.base in offsets and 103 - c.base in offsets
    ]
    assert twin
    assert all(len(offsets) >= 2 for offsets in found)


def test_find_clusters_matches_per_base_brute_force(table_1e6, monkeypatch):
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
            for c in find_clusters(table_1e6, lam, x_lo, x_hi, m, filt, params=params)
        }
        threshold = lam * math.log(x_hi) / spacing_divisor(tuple_size(m, params))
        flags = {}
        for base in range(x_lo, x_hi + 1):
            offsets = positions(table_1e6, lam, x_hi, base, filt)
            if len(offsets) >= m + 1:
                flags[base] = spacing_ok(offsets, lam, x_hi, threshold)
        assert got == flags, filt.tag
        assert flags and not all(flags.values())
        assert list(got) == sorted(got)
        spaced = [
            c.base
            for c in find_clusters(
                table_1e6, lam, x_lo, x_hi, m, filt,
                require_spacing=True, params=params,
            )
        ]
        assert spaced == [b for b, ok in got.items() if ok]
        # the filters thin the primes enough for some spacing_ok clusters
        assert filt is ALL or spaced


def test_spacing_rejects_close_pairs_inside_the_window(monkeypatch):
    # a table of chosen points, so that pairs at most the threshold apart sit
    # in the first portion of otherwise empty windows, which no prime table
    # below 1e7 offers; the portion is 32 and the threshold exactly 2
    monkeypatch.setattr(density, "SCAN_CHUNK", 97)
    x_hi = 6000
    lam = 32 / math.log(x_hi)
    assert lam * math.log(x_hi) / spacing_divisor(tuple_size(0, SMALL_K)) == 2.0
    groups = (
        (0,), (0, 1), (0, 2), (0, 3), (0, 5, 7), (0, 2, 10), (0, 2, 40), (0, 30),
        (0, 8, 16, 24),
    )
    points = [300 * i + h for i, group in enumerate(groups, start=1) for h in group]
    table = PrimeTable(6300, np.array(points, dtype=np.int64))
    got = {
        c.base: c.spacing_ok
        for c in find_clusters(table, lam, 1, x_hi, 0, params=SMALL_K)
    }
    want = {}
    for base in range(1, x_hi + 1):
        offsets = positions(table, lam, x_hi, base)
        if offsets:
            want[base] = spacing_ok(offsets, lam, x_hi, 2.0)
    assert got == want
    confined = [b for b in want if max(positions(table, lam, x_hi, b)) < 32]
    assert any(want[b] for b in confined) and not all(want[b] for b in confined)


@pytest.mark.parametrize("chunk", (1000, 2**18))
def test_islice_counts_what_it_consumes(table_1e6, monkeypatch, chunk):
    # a consumer that stops early has at most the first span, or twice the
    # bases up to its last cluster, counted; and it sees the full scan's prefix
    monkeypatch.setattr(density, "SCAN_CHUNK", chunk)
    first_span = max(chunk // 64, 1)
    x_lo, x_hi = 5000, 6 * 10**5
    full = list(find_clusters(table_1e6, 0.5, x_lo, x_hi, 4))
    counted = set()
    original = clusters_mod.window_runs

    def recording(starts, ends, lo, hi, length):
        counted.add((lo, hi))
        return original(starts, ends, lo, hi, length)

    monkeypatch.setattr(clusters_mod, "window_runs", recording)
    # the last takes end far past the spans' growth to SCAN_CHUNK
    for take in (1, 2, 7, 40, 300, 3000, 20000, 50000):
        counted.clear()
        got = list(itertools.islice(find_clusters(table_1e6, 0.5, x_lo, x_hi, 4), take))
        assert got == full[:take]
        consumed = got[-1].base - x_lo + 1
        bases = sum(hi - lo + 1 for lo, hi in counted)
        assert bases <= max(first_span, 2 * consumed), (take, consumed, bases)


def test_find_clusters_empty_when_m_unreachable(table_1e6):
    assert list(find_clusters(table_1e6, 1.0, 100, 200, 50)) == []


def test_spacing_requirement_excludes_pairs_in_tiny_portions(table_1e6):
    # first portion shorter than any prime gap: no spacing_ok cluster can
    # hold two primes, so m >= 1 scans come back empty
    x_hi = 23000  # lam*log(x_hi) just above 1
    assert list(
        find_clusters(table_1e6, 0.1, 1000, x_hi, 1, require_spacing=True)
    ) == []


def test_cluster_fields_are_consistent(table_1e6):
    # at m = 1 the tuple size of SMALL_K is about 3.8e21: a threshold of
    # log(2e4)/1.35e24, so spacing_ok only asks for the first portion
    threshold = 1.5 * math.log(20000) / spacing_divisor(tuple_size(1, SMALL_K))
    assert 0 < threshold < 1e-20
    assert Cluster._fields == ("base", "spacing_ok")
    for c in itertools.islice(
        find_clusters(table_1e6, 1.5, 5000, 20000, 1, params=SMALL_K), 200
    ):
        offsets = positions(table_1e6, 1.5, 20000, c.base)
        assert len(offsets) >= 2
        assert c.spacing_ok == spacing_ok(offsets, 1.5, 20000, threshold)


def test_scan_past_last_filtered_prime(table_1e6):
    # the filter passes only 3 and 5003 below 1e4; bases beyond 5003 have no
    # filtered prime ahead of them and must simply yield nothing
    filt = PrimeFilter.residue_class(3, 5000)
    assert list(find_clusters(table_1e6, 1.0, 6000, 7000, 0, filt=filt)) == []
    tail = list(find_clusters(table_1e6, 1.0, 4950, 5003, 0, filt=filt))
    assert tail and all(
        positions(table_1e6, 1.0, 5003, c.base, filt) == [5003 - c.base] for c in tail
    )


def test_filtered_cluster_scan(table_1e6):
    filt = PrimeFilter.residue_class(1, 4)
    clusters = list(
        itertools.islice(find_clusters(table_1e6, 2.0, 10**4, 10**5, 1, filt=filt), 50)
    )
    assert len(clusters) == 50
    for c in clusters:
        offsets = positions(table_1e6, 2.0, 10**5, c.base, filt)
        assert len(offsets) >= 2
        assert all((c.base + h) % 4 == 1 for h in offsets)


def test_slide_counts_match_independent_recount(table_1e6):
    # c(n) over the whole range in one call; the slide counts its short
    # covering runs in calls of their own, and each trace must equal its slice
    c_all = window_counts(table_1e6, 1.0, 10**4, 10**5 + 20)
    bases = _bases(find_clusters(table_1e6, 1.0, 10**4, 10**5, 1), 100)
    primes = dense_primes(table_1e6.limit, ALL)
    for base, trace in zip(bases, slide(table_1e6, 1.0, bases, 1)):
        assert len(trace.counts) == exact_length(1.0, base) + 1
        for j, count in enumerate(trace.counts):
            n_j = base + j
            assert count == count_between(primes, n_j, exact_edge(1.0, n_j))
        start = base - 10**4
        assert trace.counts == tuple(c_all[start : start + len(trace.counts)].tolist())


def test_slide_drop_index_properties(table_1e6):
    seen_drop = 0
    bases = _bases(find_clusters(table_1e6, 1.0, 10**4, 10**5, 1), 300)
    for base, trace in zip(bases, slide(table_1e6, 1.0, bases, 1)):
        assert not trace.falsifications
        if trace.j_drop is None:
            assert all(count < 2 for count in trace.counts)
            continue
        seen_drop += 1
        assert trace.counts[trace.j_drop] >= 2
        assert all(count <= 1 for count in trace.counts[trace.j_drop + 1 :])
        if trace.j_drop < len(trace.counts) - 1:
            assert dense_flags(table_1e6.limit)[base + trace.j_drop]
        assert trace.m_run == tuple(
            j for j, count in enumerate(trace.counts) if count == 1
        )
    assert seen_drop > 0


def test_slide_first_window_covers_confined_cluster(table_1e6):
    # every cluster prime confined to the first portion and reachable from j=0:
    # the j=0 window already sees them all
    checked = 0
    bases = _bases(
        find_clusters(table_1e6, 1.0, 10**4, 10**5, 1, require_spacing=True), 50
    )
    for base, trace in zip(bases, slide(table_1e6, 1.0, bases, 1)):
        offsets = positions(table_1e6, 1.0, 10**5, base)
        if max(offsets) <= math.log(base):
            assert trace.counts[0] == len(offsets)
            checked += 1
    assert checked > 0


def test_slide_last_window_sees_no_confined_prime(table_1e6):
    # once the slide leaves the first portion, confined cluster primes are behind it
    checked = 0
    portion = math.log(10**5)
    for c in itertools.islice(
        find_clusters(table_1e6, 1.0, 10**4, 10**5, 0, require_spacing=True), 200
    ):
        j_max = exact_length(1.0, c.base)
        offsets = positions(table_1e6, 1.0, 10**5, c.base)
        if max(offsets) < j_max:
            confined = [p for p in offsets if p < portion]
            in_last = [p for p in confined if p >= j_max]
            assert not in_last
            checked += 1
    assert checked > 0


def test_extract_m_runs_examples():
    t = SlideTrace(
        base=0, lam=1.0, m=1, counts=(2, 2, 1, 1, 1, 0),
        j_drop=1, m_run=(2, 3, 4), falsifications=(),
    )
    assert extract_m_runs(t, 1) == [(2, 3)]
    flat = SlideTrace(
        base=0, lam=1.0, m=2, counts=(2, 2, 2),
        j_drop=2, m_run=(0, 1, 2), falsifications=(),
    )
    assert extract_m_runs(flat, 2) == [(0, 3)]
    assert extract_m_runs(flat, 5) == []


def test_post_drop_run_meets_guarantee_on_spacing_ok_clusters(table_1e7):
    verified = 0
    bases = _bases(
        find_clusters(
            table_1e7, 1.0, 9 * 10**6, 10**7, 0, require_spacing=True, params=SMALL_K
        ),
        2000,
    )
    floor_len = guaranteed_run_floor(1.0, 10**7, 0, SMALL_K)
    assert floor_len == math.floor(math.log(10**7) / 16) == 1  # non-trivial here
    for base, trace in zip(bases, slide(table_1e7, 1.0, bases, 0)):
        assert not trace.falsifications
        if trace.j_drop is None or trace.j_drop + floor_len > len(trace.counts) - 1:
            continue
        runs = extract_m_runs(trace, 0)
        run = next(
            (r for r in runs if r[0] <= trace.j_drop + 1 < r[0] + r[1]), None
        )
        assert run is not None and run[1] >= floor_len, (base, trace.counts)
        verified += 1
    assert verified > 500


def test_windows_stay_inside_cluster_for_small_lambda(table_1e6):
    # lam < 1/5: every slid window [N_j, N_j + lam*log N_j] sits inside
    # [N0, N0 + 5*lam*log(x_hi)]
    x_hi = 10**5
    lam = 0.19
    window = 5 * lam * math.log(x_hi)
    for c in itertools.islice(find_clusters(table_1e6, lam, 10**4, x_hi, 0), 300):
        j_max = math.floor(lam * math.log(c.base))
        for j in (0, j_max // 2, j_max):
            n_j = c.base + j
            assert n_j >= c.base
            assert n_j + lam * math.log(n_j) <= c.base + window


def test_slide_with_unreachable_m_has_no_drop(table_1e6):
    c = next(iter(find_clusters(table_1e6, 1.0, 10**4, 10**4 + 100, 0)))
    top = max(slide(table_1e6, 1.0, [c.base], 0)[0].counts)
    trace = slide(table_1e6, 1.0, [c.base], top + 5)[0]
    assert trace.j_drop is None
    assert trace.m_run == ()
    assert not trace.falsifications


def test_grid_spaced_clusters_are_disjoint(table_1e6):
    # lam < 1/5 keeps the window below log(x_hi); bases a grid g > log(x_hi)
    # apart give pairwise disjoint windows
    x_hi = 10**5
    lam = 0.19
    window = 5 * lam * math.log(x_hi)
    g = math.floor(math.log(x_hi)) + 1
    picked = []
    last_base = None
    for c in find_clusters(table_1e6, lam, 10**4, x_hi, 0):
        if last_base is None or c.base >= last_base + g:
            picked.append(c)
            last_base = c.base
        if len(picked) == 50:
            break
    assert window < math.log(x_hi) <= g
    for a, b in zip(picked, picked[1:]):
        assert a.base + window < b.base


def test_pathological_scan_produces_count_jump_records(table_1e6):
    # window growth 1 + lam/N exceeds 2 at tiny N with huge lam: two primes can
    # enter one step, and the detector must say so rather than hide it
    cluster = next(iter(find_clusters(table_1e6, 30.0, 3, 3, 0)))
    slides = slide(table_1e6, 30.0, [cluster.base], 0)
    trace = slides[0]
    kinds = {f.kind for f in trace.falsifications}
    assert kinds == {"count-jump"}
    lines = falsifications_jsonl(slides).splitlines()
    assert len(lines) == len(trace.falsifications)
    record = json.loads(lines[0])
    assert set(record) == {"kind", "base", "j", "expected", "observed"}
    assert record["observed"] > record["expected"]


def test_trace_csv_layout(table_1e6):
    c = next(iter(find_clusters(table_1e6, 1.0, 10**4, 10**4 + 50, 0)))
    lines = trace_csv(slide(table_1e6, 1.0, [c.base], 0)).strip().splitlines()
    assert lines[0] == "j,N_j,count"
    first = lines[1].split(",")
    assert first[0] == "0" and int(first[1]) == c.base


def test_find_clusters_range_validation(table_1e6):
    with pytest.raises(OutOfRangeError):
        list(find_clusters(table_1e6, 1.0, 10, table_1e6.limit, 0))
    with pytest.raises(ValueError):
        list(find_clusters(table_1e6, -1.0, 10, 100, 0))
    with pytest.raises(ValueError):
        list(find_clusters(table_1e6, 1.0, 100, 10, 0))
    for lam in (math.inf, math.nan):
        with pytest.raises(ParameterRangeError, match="lambda must be finite"):
            list(find_clusters(table_1e6, lam, 10, 100, 0))
    with pytest.raises(ParameterRangeError, match="table limit .* overflows"):
        list(find_clusters(table_1e6, 1e308, 10, 100, 0))


@pytest.mark.parametrize(
    "lam, error",
    ((0.0, ValueError), (-1.0, ValueError), (math.nan, ParameterRangeError)),
)
def test_slide_rejects_bad_lambda(table_1e6, lam, error):
    # the same errors as find_clusters, for an empty batch too, and from
    # window_counts
    with pytest.raises(error, match="lambda must be"):
        list(find_clusters(table_1e6, lam, 10, 100, 0))
    for bases in ([100], []):
        with pytest.raises(error, match="lambda must be"):
            slide(table_1e6, lam, bases, 0)
    with pytest.raises(error, match="lambda must be"):
        window_counts(table_1e6, lam, 1, 100)


def test_tuple_size_overflow_degrades_to_zero_threshold(table_1e6):
    # m far beyond the float range for k(m): threshold collapses to 0 and the
    # scan still runs (and finds nothing at such m)
    assert list(find_clusters(table_1e6, 1.0, 100, 2000, 40)) == []


# -- the batched slide against per-window recounts ------------------------------


def _bases(clusters, count):
    """The bases of the first count clusters."""
    return [c.base for c in itertools.islice(clusters, count)]


def _check_slides(table, lam, bases, m, filt=ALL):
    """slide() on the batch against the dense-sieve oracle per window, the
    definitions of j_drop and m_run, a per-row CSV and a per-trace run scan."""
    slides = slide(table, lam, bases, m, filt)
    primes = dense_primes(table.limit, filt)
    assert len(slides) == len(bases) and slides.lam == lam
    assert slides.starts[0] == 0 and slides.starts[-1] == len(slides.counts)
    rows, runs = ["j,N_j,count\n"], []
    for base, trace in zip(map(int, bases), slides):
        j_max = exact_length(lam, base)
        expected = [
            int(count_between(primes, base + j, exact_edge(lam, base + j)))
            for j in range(j_max + 1)
        ]
        assert trace.base == base and trace.m == m
        assert list(trace.counts) == expected, base
        rich = [j for j, count in enumerate(expected) if count >= m + 1]
        assert trace.j_drop == (rich[-1] if rich else None)
        assert trace.m_run == tuple(j for j, count in enumerate(expected) if count == m)
        assert not trace.falsifications
        rows += [f"{j},{base + j},{count}\n" for j, count in enumerate(expected)]
        j = 0
        for hit, group in itertools.groupby(expected, key=lambda count: count == m):
            size = len(list(group))
            if hit:
                runs.append((j, size))
            j += size
    assert [int(j) for j in slides.j_drop] == [
        -1 if t.j_drop is None else t.j_drop for t in slides
    ]
    assert trace_csv(slides) == "".join(rows)
    assert extract_m_runs(slides, m) == runs
    assert falsifications_jsonl(slides) == ""
    return slides


def test_slides_dense_overlapping_clusters(table_1e6):
    # lam=1 near 1e6: consecutive bases, every trace overlaps the next
    bases = _bases(find_clusters(table_1e6, 1.0, 998_000, 999_000, 1), 300)
    assert all(b <= a + 13 for a, b in zip(bases, bases[1:]))
    _check_slides(table_1e6, 1.0, bases, 1)


def test_slides_sparse_spaced_clusters_form_several_runs(table_1e6):
    bases = _bases(
        find_clusters(table_1e6, 1.0, 10**5, 4 * 10**5, 0, require_spacing=True),
        200,
    )
    gaps = sum(b > a + math.floor(math.log(a)) + 1 for a, b in zip(bases, bases[1:]))
    assert gaps >= 10  # disjoint traces: several covering runs
    # an int64 array is as good as a list
    _check_slides(table_1e6, 1.0, np.array(bases, dtype=np.int64), 0)


def test_slides_keep_input_order_and_repeats(table_1e6):
    bases = _bases(find_clusters(table_1e6, 1.0, 10**4, 10**5, 1), 150)
    shuffled = bases[:]
    random.Random(0).shuffle(shuffled)
    shuffled.append(shuffled[7])
    slides = _check_slides(table_1e6, 1.0, shuffled, 1)
    assert slides.bases.tolist() == shuffled
    assert slides[-1] == slides[7]


@pytest.mark.parametrize(
    "filt", (PrimeFilter.residue_class(1, 4), PrimeFilter.kronecker(5, -1))
)
def test_slides_with_filters(table_1e6, filt):
    bases = _bases(find_clusters(table_1e6, 2.0, 10**4, 10**5, 1, filt=filt), 150)
    assert bases
    _check_slides(table_1e6, 2.0, bases, 1, filt)


def test_slides_of_no_clusters(table_1e6):
    slides = _check_slides(table_1e6, 1.0, [], 1)
    assert len(slides) == 0 and list(slides) == []
    assert trace_csv(slides) == "j,N_j,count\n"


def test_slide_lengths_step_at_a_breakpoint(table_1e7):
    # e**16 = 8886110.52: the trace of 8886110 has j = 0..15, that of 8886111
    # j = 0..16
    slides = _check_slides(table_1e7, 1.0, [8886110, 8886111], 0)
    assert [len(t.counts) for t in slides] == [16, 17]


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


def test_falsification_records_come_trace_by_trace(table_1e6):
    bases = [c.base for c in find_clusters(table_1e6, 30.0, 3, 40, 0)]
    assert bases == list(range(3, 41))
    slides = slide(table_1e6, 30.0, bases, 0)
    records = [json.loads(line) for line in falsifications_jsonl(slides).splitlines()]
    assert [tuple(r.values()) for r in records] == LAM30_RECORDS
    assert [len(t.falsifications) for t in slides][:7] == [3, 2, 1, 1, 1, 1, 0]
    # in reverse input order the traces, and so the records, come reversed
    backwards = slide(table_1e6, 30.0, bases[::-1], 0)
    assert [f.base for f in backwards.falsifications] == [8, 7, 6, 5, 4, 4, 3, 3, 3]
    assert [f.j for f in backwards.falsifications][-3:] == [0, 1, 5]


def _fake_kernel(counts):
    def kernel(table, lam, a, b, filt):
        return np.array([counts.get(n, 0) for n in range(a, b + 1)])

    return kernel


def test_drop_point_record_follows_the_count_jumps(table_1e6, monkeypatch):
    # traces over N = 1002..1008 and 1000..1006 under a kernel with jumps at
    # N = 1000, 1001 and 1006, and drops right after the composites 1003 =
    # 17*59 and 1007 = 19*53: each trace lists its own jumps, then its drop
    monkeypatch.setattr(
        clusters_mod,
        "window_counts",
        _fake_kernel({1000: 0, 1001: 3, 1002: 5, 1003: 3, 1007: 2}),
    )
    slides = slide(table_1e6, 1.0, [1002, 1000], 1)
    assert [t.counts for t in slides] == [(5, 3, 0, 0, 0, 2, 0), (0, 3, 5, 3, 0, 0, 0)]
    assert [t.j_drop for t in slides] == [5, 3]
    got = [(f.base, f.kind, f.j, f.expected, f.observed) for f in slides.falsifications]
    assert got == [
        (1002, "count-jump", 4, 1, 2),
        (1002, "drop-point-not-prime", 5, "1007 is a filtered prime", "1007 is not"),
        (1000, "count-jump", 0, 1, 3),
        (1000, "count-jump", 1, 4, 5),
        (1000, "drop-point-not-prime", 3, "1003 is a filtered prime", "1003 is not"),
    ]
    assert [len(t.falsifications) for t in slides] == [2, 3]


def test_drop_point_must_pass_the_filter(table_1e6, monkeypatch):
    # the count drops right after the prime 1009 = 1 (mod 4)
    monkeypatch.setattr(clusters_mod, "window_counts", _fake_kernel({1009: 2}))
    assert not slide(
        table_1e6, 1.0, [1009], 1, PrimeFilter.residue_class(1, 4)
    ).falsifications
    (record,) = slide(
        table_1e6, 1.0, [1009], 1, PrimeFilter.residue_class(3, 4)
    ).falsifications
    assert (record.kind, record.j) == ("drop-point-not-prime", 0)
