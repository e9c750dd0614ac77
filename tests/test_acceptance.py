"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured evidence (run with -s to see them).  Every tolerance is pinned
here; nothing is deferred to later calibration."""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from shortint.bounds import (
    BoundParams,
    lambda_cap,
    lower_bound,
    tuple_size,
)
from shortint.clusters import find_clusters, guaranteed_run_floor, slide
from shortint.density import measure_density, poisson_reference
from shortint.primes import ALL, PrimeFilter, build_table
from shortint.tuples import count_spaced_selections, greedy_sieve, singular_series

from dense_primes import count_between, dense_flags, dense_sieve
from exact_edges import exact_edges

SMALL_K = BoundParams(scale=2.0)


def _pass(num: int, message: str) -> None:
    print(f"PASS criterion {num:02d}: {message}")


# -- criterion 1: sieve correctness and speed --------------------------------


def trial_division_count(limit: int) -> int:
    count = 0
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            count += 1
    return count


def test_criterion_01_sieve_counts_and_speed():
    assert build_table(10**4).count == trial_division_count(10**4) == 1229
    assert build_table(10**6).count == len(dense_sieve(10**6)) == 78498
    start = time.perf_counter()
    table = build_table(10**8)
    elapsed = time.perf_counter() - start
    assert table.count == 5761455
    assert np.count_nonzero(dense_flags(10**8)) == 5761455
    assert elapsed <= 5.0, f"segmented sieve took {elapsed:.2f}s at 1e8"
    _pass(1, f"counts 1229/78498/5761455 exact; 1e8 sieve in {elapsed:.2f}s <= 5s")


# -- criterion 2: sliding scan equals naive recount to 1e5 -------------------


def test_criterion_02_density_oracle_equivalence():
    start = time.perf_counter()
    m_max = 12
    primes = dense_sieve(10**5 + 100)
    for lam in (0.25, 1.0, 5.0):
        report = measure_density(lam, 10**5, m_max)
        n = np.arange(1, 10**5 + 1)
        c = count_between(primes, n, exact_edges(lam, n))
        naive = np.bincount(np.minimum(c, m_max + 1), minlength=m_max + 2).tolist()
        assert report.counts == {m: naive[m] for m in range(m_max + 1)}
        assert report.overflow == naive[m_max + 1]
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    _pass(2, f"exact match for lam in (0.25, 1, 5), n <= 1e5, in {elapsed:.1f}s <= 60s")


# -- criterion 3: exact partition of every report ----------------------------


def test_criterion_03_partition_invariant():
    configs = [
        (0.25, 10**4, ALL, 2),
        (1.0, 10**5, ALL, 5),
        (5.0, 3 * 10**4, PrimeFilter.residue_class(2, 3), 3),
        (2.0, 10**4, PrimeFilter.kronecker(5, 1), 0),
        (1.0, 1, ALL, 4),
    ]
    for lam, x, filt, m_max in configs:
        report = measure_density(lam, x, m_max, filt)
        assert sum(report.counts.values()) + report.overflow == x
        assert sum(report.densities.values(), report.overflow_density) == Fraction(1)
    _pass(3, f"counts partition x exactly across {len(configs)} reports")


# -- criterion 4: Poisson proximity at 1e8 ------------------------------------

# frozen from this implementation's own run (x = 1e8, lam = 1)
EXPECTED_1E8 = {0: 30553656, 1: 42122762, 2: 21614311, 3: 5124556,
                4: 560270, 5: 24220, 6: 225}


def test_criterion_04_poisson_proximity_at_1e8():
    start = time.perf_counter()
    report = measure_density(1.0, 10**8, 6)
    elapsed = time.perf_counter() - start
    assert report.counts == EXPECTED_1E8 and report.overflow == 0
    ratios = {}
    for m in range(4):
        ratio = float(report.densities[m]) / poisson_reference(1.0, m)
        ratios[m] = ratio
        assert 0.5 <= ratio <= 2.0, f"m={m}: ratio {ratio}"
    assert elapsed <= 120.0
    shown = ", ".join(f"m={m}: {r:.3f}" for m, r in ratios.items())
    _pass(4, f"density/poisson within factor 2 ({shown}) in {elapsed:.0f}s <= 120s")


# -- criterion 5: greedy sieve survivor bound ---------------------------------


def test_criterion_05_greedy_sieve_mertens_bound():
    rng = random.Random(2024)
    primes_to_30 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for _ in range(100):
        window = rng.uniform(1, 10**5)
        k = rng.randint(1, 30)
        survivors = len(greedy_sieve(window, k))
        product = 1.0
        for p in primes_to_30:
            if p <= k:
                product *= 1 - 1 / p
        assert survivors >= window * product - k
    _pass(5, "survivors >= window * prod(1 - 1/p) - k on 100 random instances")


# -- criterion 6: spaced-selection count and product bound --------------------


def brute_spaced_count(elements, k, spacing):
    return sum(
        1
        for combo in itertools.combinations(elements, k)
        if all(b - a > spacing for a, b in itertools.combinations(combo, 2))
    )


def test_criterion_06_selection_count_soundness():
    rng = random.Random(88)
    sieved_checked = arbitrary_checked = 0
    for _ in range(50):
        k = rng.randint(2, 4)
        sieved = greedy_sieve(rng.uniform(5, 38.9), k)  # <= 39 integers, half survive p=2
        assert len(sieved) <= 20
        spacing = rng.randint(1, 9)
        exact, bound = count_spaced_selections(sieved, k, spacing)
        assert exact == brute_spaced_count(sieved.elements.tolist(), k, spacing)
        assert exact >= bound
        sieved_checked += 1
    for _ in range(50):
        n = rng.randint(1, 20)
        elements = sorted(rng.sample(range(50), n))
        k = rng.randint(1, 4)
        spacing = rng.choice([0, 1, 2, 4, 7])
        exact, _ = count_spaced_selections(elements, k, spacing)
        assert exact == brute_spaced_count(elements, k, spacing)
        arbitrary_checked += 1
    _pass(
        6,
        f"DP == exhaustive on {sieved_checked + arbitrary_checked} instances; "
        f"clamped product bound dominated on all {sieved_checked} sieved ones",
    )


# -- criteria 7-9: sliding process properties over >= 1e4 traces --------------


def _bases(clusters, count):
    return [c.base for c in itertools.islice(clusters, count)]


@pytest.fixture(scope="module")
def slide_scan():
    """(m, slides) batches: lam 1 near 1e7 at m = 1, lam 0.5 near 5e6 at m = 0."""
    return [
        (1, slide(1.0, _bases(find_clusters(1.0, 1, 9 * 10**6, 10**7), 8000), 1)),
        (0, slide(0.5, _bases(find_clusters(0.5, 0, 5 * 10**6, 6 * 10**6), 3000), 0)),
    ]


@pytest.fixture(scope="module")
def spacing_scan():
    bases = _bases(
        find_clusters(1.0, 0, 9 * 10**6, 10**7, require_spacing=True, params=SMALL_K),
        3000,
    )
    return slide(1.0, bases, 0)


def _drops(slides, after=1):
    """The flat index into slides.counts of each trace's drop, and whether
    the trace has a drop and at least after windows past it."""
    drop = slides.starts[:-1] + slides.j_drop
    return drop, (slides.j_drop >= 0) & (drop + after < slides.starts[1:])


def test_criterion_07_count_increases_by_exactly_one(slide_scan):
    n_traces = sum(len(slides) for _, slides in slide_scan)
    assert n_traces >= 10**4
    for _, slides in slide_scan:
        # consecutive windows of one trace; the pairs across traces are out
        diffs = np.diff(slides.counts)
        diffs[slides.starts[1:-1] - 1] = 0
        assert np.all(diffs <= 1)
        assert not any(f.kind == "count-jump" for f in slides.falsifications)
    _pass(7, f"every count increase is exactly 1 across {n_traces} traces")


def test_criterion_08_drop_point_is_prime(slide_scan):
    drops = 0
    is_prime = dense_flags(10**7 + 200)
    for _, slides in slide_scan:
        assert not any(
            f.kind == "drop-point-not-prime" for f in slides.falsifications
        )
        _, has = _drops(slides)
        assert np.all(is_prime[slides.bases[has] + slides.j_drop[has]])
        drops += int(has.sum())
    assert drops > 0
    _pass(8, f"N at the drop index is prime on all {drops} observed drops")


def test_criterion_09_post_drop_run_length(slide_scan, spacing_scan):
    # non-trivial floor (= 1) on the dedicated spacing_ok scan: counts[j_drop]
    # exceeds m, so the run of m after the drop starts at j_drop + 1, and on
    # traces with floor_len windows after the drop they must all hold m
    floor_len = guaranteed_run_floor(1.0, 10**7, 0, SMALL_K)
    assert floor_len == 1
    drop, room = _drops(spacing_scan, floor_len)
    for k in range(1, floor_len + 1):
        assert np.all(spacing_scan.counts[drop[room] + k] == 0)
    verified = int(room.sum())
    assert verified > 500
    # trivially satisfied floor (= 0) on the criterion-7 scan traces
    for m, slides in slide_scan:
        drop, has = _drops(slides)
        assert np.all(slides.counts[drop[has] + 1] == m)
    _pass(9, f"post-drop runs >= floor(threshold) on {verified} spacing_ok clusters")


# -- criterion 10: positive-proportion growth ---------------------------------


def test_criterion_10_growth_ratios():
    limit = 2 * 10**6 + 64
    # brute-force baseline, independent of the segmented sieve and the
    # streamed scan: a dense sieve over every integer turned into a prefix count, and
    # each right edge exact, from the tests' own decimal oracle
    pi = np.cumsum(dense_flags(limit))  # pi[t] = number of primes <= t
    starts = range(1, 2 * 10**6 + 1)
    results = {}
    for m, lam in ((0, 0.5), (1, 1.0)):
        edges = exact_edges(lam, np.array(starts))
        hit = pi[edges] - pi[np.arange(len(starts))] == m  # pi[n - 1]
        counts = {x: int(np.count_nonzero(hit[:x])) for x in (10**6, 2 * 10**6)}
        for x, total in counts.items():
            report = measure_density(lam, x, m)
            assert report.counts[m] == total
        ratio = counts[2 * 10**6] / counts[10**6]
        assert 1.7 <= ratio <= 2.3, (m, lam, ratio)
        results[(m, lam)] = ratio
    shown = ", ".join(f"(m={m},lam={lam}): {r:.3f}" for (m, lam), r in results.items())
    _pass(10, f"counts double from 1e6 to 2e6 ({shown}), inside [1.7, 2.3]")


# -- criterion 11: singular series ---------------------------------------------


def independent_series(offsets, cutoff):
    """Plain running product over an independently sieved prime list."""
    k = len(offsets)
    value = 1.0
    for p in dense_sieve(cutoff).tolist():
        nu = len({h % p for h in offsets})
        value *= (1 - nu / p) / (1 - 1 / p) ** k
    return value


def test_criterion_11_singular_series():
    value = singular_series([0, 2], 10**6)
    assert abs(value - 1.32032) < 1e-3
    for cutoff in (10**5, 10**6):
        reference = independent_series([0, 2], cutoff)
        assert abs(singular_series([0, 2], cutoff) - reference) < 1e-9
    assert singular_series([0], 10**6) == 1.0
    _pass(11, f"series({{0,2}}) = {value:.6f} within 1e-3 of 1.32032; series({{0}}) = 1 exactly")


# -- criterion 12: bounds algebra ----------------------------------------------


def test_criterion_12_bounds_algebra():
    for k in range(2, 1001):
        product = lambda_cap(k) * k**4 * math.log(k) ** 2
        assert abs(product - 1.0) <= 1e-12
    combos = [
        (0, 2, BoundParams(scale=2.0)),
        (0, 7, BoundParams(scale=5.0)),
        (1, 3, BoundParams(scale=1.0, growth=49.0)),
        (2, 10, BoundParams(scale=2.0, growth=98.0)),
    ]
    for m, q, params in combos:
        k = tuple_size(m, params)
        lam = lambda_cap(k) / 2
        plain = lower_bound("primes", lam, m, params=params)
        restricted = lower_bound("progression", lam, m, q=q, params=params)
        recombined = restricted.log_value + (k + 1) * math.log(q)
        assert abs(recombined - plain.log_value) <= 1e-10 * abs(plain.log_value)
    _pass(12, "cap identity exact to 1e-12 for k <= 1000; progression bound "
              "recombines to the plain bound within 1e-10 (log space)")
