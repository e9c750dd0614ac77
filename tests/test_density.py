import itertools
import json
import math
import sys
import threading
from fractions import Fraction

import pytest

from shortint import density
from shortint.density import (
    DensityReport,
    density_csv,
    density_json,
    growth_check,
    growth_csv,
    measure_density,
    poisson_reference,
    required_limit,
    uniform_poisson_reference,
    window_counts,
)
from shortint.errors import OutOfRangeError
from shortint.primes import ALL, PrimeFilter, PrimeTable, build_table, count_in


def naive_histogram(table, lam, x, m_max, filt=ALL):
    """Independent per-n recount straight from count_in."""
    counts = {m: 0 for m in range(m_max + 1)}
    overflow = 0
    for n in range(1, x + 1):
        c = count_in(table, n, n + lam * math.log(n), filt)
        if c <= m_max:
            counts[c] += 1
        else:
            overflow += 1
    return counts, overflow


def test_density_example_x10(table_1e5):
    rep = measure_density(table_1e5, 1.0, 10, 3)
    assert float(rep.densities[0]) == 0.2  # n = 1 and n = 8 see no prime
    assert float(rep.densities[1]) == 0.8
    assert rep.overflow == 0


def test_degenerate_window_counts_primes(table_1e5):
    # lam*log(x) < 1: the window holds no integer beyond n itself
    rep = measure_density(table_1e5, 0.05, 100, 2)
    assert rep.counts[1] == 25
    assert rep.counts[0] == 75


def test_densities_partition_and_sum_to_one(table_1e5):
    for lam, x, filt in (
        (0.25, 4000, ALL),
        (1.0, 4000, PrimeFilter.residue_class(3, 4)),
        (5.0, 2500, PrimeFilter.kronecker(5, -1)),
    ):
        rep = measure_density(table_1e5, lam, x, 4, filt)
        assert sum(rep.counts.values()) + rep.overflow == x
        assert sum(rep.densities.values(), rep.overflow_density) == Fraction(1)


def test_report_rejects_broken_partition():
    with pytest.raises(AssertionError):
        DensityReport(lam=1.0, x=10, filt=ALL, m_max=1, counts={0: 5, 1: 4}, overflow=0)


def test_sliding_scan_equals_naive_recount(table_1e5):
    for lam in (0.25, 1.0, 5.0):
        rep = measure_density(table_1e5, lam, 3000, 8)
        counts, overflow = naive_histogram(table_1e5, lam, 3000, 8)
        assert rep.counts == counts and rep.overflow == overflow


def test_sliding_scan_equals_naive_recount_filtered(table_1e5):
    for filt in (PrimeFilter.residue_class(1, 4), PrimeFilter.kronecker(-4, 1)):
        rep = measure_density(table_1e5, 5.0, 1500, 5, filt)
        counts, overflow = naive_histogram(table_1e5, 5.0, 1500, 5, filt)
        assert rep.counts == counts and rep.overflow == overflow


def test_chunking_and_threads_do_not_change_counts(table_1e5, monkeypatch):
    monkeypatch.setattr(density, "WORKERS", 1)
    base = measure_density(table_1e5, 1.0, 30000, 6)
    monkeypatch.setattr(density, "SCAN_CHUNK", 1024)
    chunked = measure_density(table_1e5, 1.0, 30000, 6)
    monkeypatch.setattr(density, "SCAN_CHUNK", 4096)
    monkeypatch.setattr(density, "WORKERS", 4)
    threaded = measure_density(table_1e5, 1.0, 30000, 6)
    assert base.counts == chunked.counts == threaded.counts
    assert base.overflow == chunked.overflow == threaded.overflow


def test_prime_index_is_built_once_on_the_calling_thread(monkeypatch):
    table = build_table(20000)
    builds = []
    original = PrimeTable.primes

    def recording(self):
        if self._prime_cache is None:
            builds.append(threading.current_thread())
        return original(self)

    monkeypatch.setattr(PrimeTable, "primes", recording)
    monkeypatch.setattr(density, "WORKERS", 4)
    monkeypatch.setattr(density, "SCAN_CHUNK", 500)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        measure_density(table, 1.0, 9000, 4)
        growth_check(table, 1.0, 4, 9000)
    finally:
        sys.setswitchinterval(interval)
    assert builds == [threading.current_thread()]


@pytest.mark.parametrize("lam", (0.25, 1.0, 5.0, 30.0))
def test_window_counts_match_naive_recount(table_1e5, monkeypatch, lam):
    # both counting methods (binary search below SEARCH_SPAN windows, prefix
    # sums from it on) and a span that crosses several scan chunks
    monkeypatch.setattr(density, "SCAN_CHUNK", 300)
    t = density.SEARCH_SPAN
    filters = (ALL, PrimeFilter.residue_class(2, 3), PrimeFilter.kronecker(-3, -1))
    runs = ((1, 1), (7919, 1), (2, t - 1), (4000, t), (50, t + 1), (700, 1000))
    for a, length in runs:
        for filt in filters:
            got = window_counts(table_1e5, lam, a, a + length - 1, filt)
            want = [
                count_in(table_1e5, n, n + lam * math.log(n), filt)
                for n in range(a, a + length)
            ]
            assert got.tolist() == want, (a, length, filt.tag)


def test_growing_lambda_never_loses_tail_mass(table_1e5):
    small = measure_density(table_1e5, 0.5, 20000, 6)
    large = measure_density(table_1e5, 1.0, 20000, 6)

    def tail(rep, m):
        return sum(rep.counts[j] for j in rep.counts if j >= m) + rep.overflow

    for m in range(7):
        assert tail(large, m) >= tail(small, m)


def test_residue_counts_per_window_reconcile(table_1e5):
    # per n: counts over the coprime residues + primes dividing q = unfiltered count
    q = 4
    filters = [PrimeFilter.residue_class(a, q) for a in (1, 3)]
    for n in range(2, 800):
        hi = n + 5.0 * math.log(n)
        split = sum(count_in(table_1e5, n, hi, f) for f in filters)
        ramified = sum(
            1 for p in (2,) if n <= p <= hi
        )
        assert split + ramified == count_in(table_1e5, n, hi)


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


def test_uniform_poisson_examples():
    assert uniform_poisson_reference(0.1, 0) == 1.0
    assert uniform_poisson_reference(0.1, 1) == 0.1
    assert uniform_poisson_reference(0.5, 2) == 0.125
    with pytest.raises(ValueError):
        uniform_poisson_reference(1.5, 0)


def test_growth_check_frozen_example(table_1e6):
    # own brute-force baseline: prime-free windows of length 5*log(n)
    [g] = growth_check(table_1e6, 5.0, 0, 10**5)
    assert (g.m, g.count_at_x, g.count_at_2x) == (0, 55, 150)
    assert g.ratio == pytest.approx(150 / 55)


def test_growth_check_matches_scans_to_x_and_2x(table_1e5, monkeypatch):
    monkeypatch.setattr(density, "SCAN_CHUNK", 1000)
    filters = (ALL, PrimeFilter.residue_class(1, 4))
    for workers, filt in itertools.product((1, 4), filters):
        monkeypatch.setattr(density, "WORKERS", workers)
        results = growth_check(table_1e5, 1.0, 4, 2500, filt)
        at_x = measure_density(table_1e5, 1.0, 2500, 4, filt)
        at_2x = measure_density(table_1e5, 1.0, 5000, 4, filt)
        assert [r.m for r in results] == list(range(5))
        for r in results:
            assert r.count_at_x == at_x.counts[r.m]
            assert r.count_at_2x == at_2x.counts[r.m]


def test_growth_check_empty_signal(table_1e5):
    g = growth_check(table_1e5, 0.1, 7, 1000)[7]  # no window that small holds 7 primes
    assert g.count_at_x == 0 and g.count_at_2x == 0 and g.ratio is None
    # huge lambda: every window beyond n=1 holds far more than 1 prime
    g = growth_check(table_1e5, 40.0, 1, 500)[1]
    assert g.count_at_x == 0 and g.count_at_2x == 0 and g.ratio is None


def test_out_of_range_errors_name_required_limit(table_1e5):
    x = table_1e5.limit
    with pytest.raises(OutOfRangeError, match=str(required_limit(1.0, x))):
        measure_density(table_1e5, 1.0, x, 3)
    with pytest.raises(OutOfRangeError):
        growth_check(table_1e5, 1.0, 0, table_1e5.limit // 2 + 10)


def test_csv_layout(table_1e5):
    rep = measure_density(table_1e5, 1.0, 10, 2)
    text = density_csv(rep)
    lines = text.strip().splitlines()
    assert lines[0] == "m,count,density,poisson,ratio"
    assert lines[1].startswith("0,2,0.2,0.367879441171,")
    assert lines[-1].startswith("overflow,0,0,")
    bare = density_csv(rep, compare_poisson=False)
    assert bare.strip().splitlines()[1] == "0,2,0.2,,"


def test_json_mirror(table_1e5):
    rep = measure_density(table_1e5, 1.0, 10, 2)
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
