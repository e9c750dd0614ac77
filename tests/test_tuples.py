import itertools
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from shortint import primes, tuples
from shortint.errors import InadmissibleTupleError, MemoryBudgetError, ParameterRangeError
from shortint.primes import DEFAULT_MEMORY_BUDGET, build_table
from shortint.tuples import (
    AdmissibleTuple,
    SievedSet,
    count_spaced_selections,
    first_covered_prime,
    format_offsets,
    greedy_sieve,
    is_admissible,
    parse_offsets,
    select_spaced,
    singular_series,
)


def _primes_upto(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]


def brute_admissible(offsets):
    """Check every prime up to len(offsets) against every residue directly."""
    for p in _primes_upto(len(offsets)):
        if all(any(h % p == r for h in offsets) for r in range(p)):
            return False
    return True


def test_admissibility_examples():
    assert not is_admissible([0, 2, 4])
    assert is_admissible([0, 2, 6])
    assert is_admissible([0, 4, 6, 10, 12, 16])
    assert first_covered_prime([0, 2, 4]) == 3


def test_admissibility_matches_brute_force_on_random_tuples():
    rng = random.Random(3)
    for _ in range(300):
        k = rng.randint(1, 7)
        offsets = sorted(rng.sample(range(40), k))
        assert is_admissible(offsets) == brute_admissible(offsets), offsets


def test_offsets_validation():
    for bad in ([], [3, 1], [1, 1], [-2, 0]):
        with pytest.raises(ValueError):
            is_admissible(bad)


def test_greedy_sieve_examples():
    s = greedy_sieve(20, 3)
    assert s.elements.tolist() == [0, 2, 6, 8, 12, 14, 18, 20]
    assert s.removed == ((2, 1), (3, 1))
    s = greedy_sieve(5, 1)
    assert s.elements.tolist() == [0, 1, 2, 3, 4, 5]
    assert s.removed == ()


def test_greedy_sieve_mertens_bound():
    s = greedy_sieve(10**4, 10)
    floor = 10**4 * (1 / 2) * (2 / 3) * (4 / 5) * (6 / 7) - 4
    assert len(s) >= floor


def test_greedy_sieve_argument_validation():
    with pytest.raises(ValueError):
        greedy_sieve(0.5, 3)
    with pytest.raises(ValueError):
        greedy_sieve(20, 0)


def test_greedy_sieve_refuses_windows_over_the_memory_budget(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the sieve allocated before checking its budget")

    monkeypatch.setattr(np, "ones", no_allocation)
    with pytest.raises(MemoryBudgetError) as info:
        greedy_sieve(1e12, 3)
    message = str(info.value)
    # a bool per integer, then at most half the window as int64 elements and
    # a bool each for SievedSet's order check
    size = 10**12 + 1
    assert f"{size + 9 * ((size + 1) // 2):,}" in message
    assert f"{DEFAULT_MEMORY_BUDGET:,}" in message
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            greedy_sieve(bad, 3)


def _traced_peak_and_budget(monkeypatch, call):
    """The most bytes call() holds at once under tracemalloc, over what was
    traced before it, and the bytes its one budget check counted."""
    counted = []

    def record(need, who, what):
        counted.append(need)
        primes.check_budget(need, who, what)

    monkeypatch.setattr(tuples, "check_budget", record)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    (need,) = counted
    return peak, need


@pytest.mark.parametrize("k", [1, 2, 30])
def test_greedy_sieve_never_holds_more_than_its_budget_counts(monkeypatch, k):
    greedy_sieve(1000, k)  # anything numpy sets up on first use is not traced
    peak, need = _traced_peak_and_budget(monkeypatch, lambda: greedy_sieve(1e6, k))
    assert peak <= need
    assert need <= 10 * (10**6 + 1)  # at most 10 bytes per integer


@pytest.mark.parametrize(
    "source, k, spacing",
    [
        (None, 30, 60),  # the seed-0 count: 157,970 survivors in 9 limbs
        (SievedSet(np.arange(2000), window=1999.0), 30, 5),  # 5 limbs
    ],
)
def test_count_spaced_never_holds_more_than_its_budget_counts(
    monkeypatch, source, k, spacing
):
    if source is None:
        source = greedy_sieve(10**6, 30)
    count_spaced_selections(source, k, spacing)  # warm, as above
    peak, need = _traced_peak_and_budget(
        monkeypatch, lambda: count_spaced_selections(source, k, spacing)
    )
    assert peak <= need


def test_greedy_sieve_removes_minimum_class_each_step():
    rng = random.Random(5)
    cases = [(rng.uniform(10, 500), rng.randint(1, 13)) for _ in range(30)]
    # primes past tuples.STRIDED_CLASSES, some of them past the window
    cases += [(5000.5, 400), (150, 250)]
    for window, k in cases:
        s = greedy_sieve(window, k)
        elements = np.arange(math.floor(window) + 1)
        for p, r in s.removed:
            counts = np.bincount(elements % p, minlength=p)
            assert counts[r] == counts.min()  # removed class is minimal
            survivors = elements[elements % p != r]
            assert len(survivors) >= math.ceil(len(elements) * (p - 1) / p)
            elements = survivors
        assert elements.tolist() == s.elements.tolist()


def test_greedy_sieve_primes_past_the_window_pick_a_class_without_survivors(monkeypatch):
    counted = []
    original = tuples._class_counts

    def record(keep, p):
        counted.append(p)
        return original(keep, p)

    monkeypatch.setattr(tuples, "_class_counts", record)
    s = greedy_sieve(100, 100000)
    assert s.removed[:26] == (
        (2, 1), (3, 0), (5, 1), (7, 5), (11, 2), (13, 0), (17, 1), (19, 2),
        (23, 3), (29, 2), (31, 6), (37, 2), (41, 0), (43, 0), (47, 1), (53, 0),
        (59, 0), (61, 0), (67, 0), (71, 0), (73, 0), (79, 0), (83, 0), (89, 0),
        (97, 0), (101, 0),
    )
    # from 101 on every class mod p holds at most one integer, and 0 is cleared
    assert s.removed[26:] == tuple((p, 0) for p in primes.primes_upto(100000)[26:])
    assert s.elements.tolist() == [
        4, 8, 10, 14, 20, 22, 28, 32, 34, 38, 44, 50, 58, 62, 64, 70, 74, 80,
        88, 92, 94, 98, 100,
    ]
    assert max(counted) == 97  # no prime past the window counts its classes
    # windows whose length is a prime <= k: 7, where 1 is the first integer
    # cleared, and 2, where nothing is cleared at p = 2, each class holds one
    # integer and 0 goes
    assert greedy_sieve(6, 30).removed == (
        (2, 1), (3, 1), (5, 3), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1),
        (23, 1), (29, 1),
    )
    s = greedy_sieve(1, 30)
    assert s.removed == tuple((p, 0) for p in primes.primes_upto(30))
    assert s.elements.tolist() == [1]


def test_greedy_sieve_survivors_avoid_removed_classes():
    s = greedy_sieve(300, 11)
    for p, r in s.removed:
        assert not np.any(s.elements % p == r)


def test_any_subset_of_sieved_set_is_admissible():
    rng = random.Random(9)
    s = greedy_sieve(400, 12)
    pool = s.elements.tolist()
    for _ in range(100):
        size = rng.randint(1, 12)
        subset = sorted(rng.sample(pool, size))
        assert is_admissible(subset), subset


def test_select_spaced_examples():
    s = SievedSet(np.array([0, 2, 6, 8, 12, 14, 18, 20]), window=20.0)
    picked = select_spaced(s, 2, 10)
    assert picked.offsets == (0, 12)
    assert picked.min_gap == 12 and picked.min_gap > 10
    single = select_spaced(s, 1, 999)
    assert single.offsets == (0,) and single.min_gap is None
    assert select_spaced([0, 2], 2, 5) is None


def test_select_spaced_random_strategy_is_seeded_and_valid():
    s = greedy_sieve(2000, 5)
    a = select_spaced(s, 4, 60, strategy="random", seed=42)
    b = select_spaced(s, 4, 60, strategy="random", seed=42)
    c = select_spaced(s, 4, 60, strategy="random", seed=43)
    assert a == b
    assert a.min_gap > 60 and is_admissible(a.offsets)
    assert c is None or is_admissible(c.offsets)


def test_select_spaced_under_sieved_source_raises():
    # {0..30} untouched by any sieve: first-fit would pick 0, 2, 4
    with pytest.raises(InadmissibleTupleError):
        select_spaced(list(range(31)), 3, 1)


def brute_spaced_count(elements, k, spacing):
    return sum(
        1
        for combo in itertools.combinations(elements, k)
        if all(b - a > spacing for a, b in itertools.combinations(combo, 2))
    )


def test_count_spaced_examples():
    s = [0, 2, 6, 8, 12, 14, 18, 20]
    exact, bound = count_spaced_selections(s, 2, 10)
    assert exact == 10
    assert bound == 0.0
    exact, bound = count_spaced_selections(s, 1, 5)
    assert exact == 8 and bound == 8.0
    exact, _ = count_spaced_selections(list(range(10)), 2, 0)
    assert exact == math.comb(10, 2) == 45


def test_count_spaced_matches_exhaustive_on_arbitrary_sets():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 20)
        elements = sorted(rng.sample(range(60), n))
        k = rng.randint(1, 4)
        spacing = rng.choice([0, 1, 2, 3, 5, 9])
        exact, bound = count_spaced_selections(elements, k, spacing)
        assert exact == brute_spaced_count(elements, k, spacing)
        if k == 1:
            assert exact == bound == n


def test_count_spaced_matches_closed_form_above_int64():
    # For range(N) the selections with consecutive gaps > s are the
    # k-subsets of range(N - (k-1)s); on d*range(N) the threshold is s // d.
    exact, _ = count_spaced_selections(range(2000), 30, 5)
    assert type(exact) is int
    assert exact == math.comb(1855, 30)
    assert exact > 2**63
    sieved = SievedSet(np.arange(2000), window=1999.0)
    assert count_spaced_selections(sieved, 30, 5)[0] == exact
    scaled, _ = count_spaced_selections([7 * i for i in range(900)], 25, 20)
    assert scaled == math.comb(900 - 24 * (20 // 7), 25) > 2**63
    assert count_spaced_selections(range(40), 40, 0)[0] == 1  # k == n
    assert count_spaced_selections(range(40), 40, 1)[0] == 0
    assert count_spaced_selections(range(40), 41, 0)[0] == 0  # k > n
    assert count_spaced_selections([0, 6, 20], 2, 10**30)[0] == 0


@pytest.mark.parametrize(
    "n, k, spacing",
    [
        # limb width 64 - n.bit_length() changes between 2**b - 1 and 2**b
        *(
            (2**b + d, k, s)
            for b, k, s in ((7, 40, 1), (15, 40, 3), (17, 30, 5))
            for d in (-1, 0, 1)
        ),
        (30000, 60, 7),  # about 13 limbs
        (1000, 900, 0),  # k > n/2: the widest pass is not the last
        (1000, 1000, 0),
        (1000, 999, 1),
    ],
)
def test_count_spaced_matches_closed_form_across_limb_layouts(n, k, spacing):
    # the k-subsets of range(n) with consecutive gaps > s are the k-subsets
    # of range(n - (k-1)s), shifted; math.comb shares no code with the DP
    exact, _ = count_spaced_selections(range(n), k, spacing)
    assert type(exact) is int
    assert exact == math.comb(n - (k - 1) * spacing, k)


def test_count_spaced_refuses_limbs_over_the_memory_budget(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the count allocated before checking its budget")

    monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET", 10**6)
    monkeypatch.setattr(np, "zeros", no_allocation)
    monkeypatch.setattr(np, "empty", no_allocation)
    with pytest.raises(MemoryBudgetError) as info:
        count_spaced_selections(range(100000), 30, 0)
    message = str(info.value)
    assert message.startswith("100,000 elements at k=30 needs about ")
    assert message.endswith("; budget is 1,000,000")


def test_count_spaced_refuses_sets_too_large_for_the_limbs(monkeypatch):
    # 2**32 elements as a zero-stride view; the check reads none of them
    huge = np.broadcast_to(np.int64(0), (2**32,))
    monkeypatch.setattr(tuples, "_elements_of", lambda source: huge)
    with pytest.raises(ParameterRangeError, match="at most 4,294,967,295 elements"):
        count_spaced_selections(huge, 2, 0)


def _fraction_bound(n, k, spacing):
    return Fraction(math.prod(max(0, n - 2 * i * spacing) for i in range(k)),
                    math.factorial(k))


def test_count_spaced_bound_beyond_the_float_factorials():
    # 171! is the first factorial beyond the float range
    exact, bound = count_spaced_selections(range(400), 171, 0)
    assert exact == math.comb(400, 171)
    assert bound == pytest.approx(float(_fraction_bound(400, 171, 0)), rel=1e-12)
    # a product past the float range over a finite bound: no spurious inf
    _, bound = count_spaced_selections(range(2000), 100, 0)
    assert bound == pytest.approx(float(_fraction_bound(2000, 100, 0)), rel=1e-12)
    # a bound past the float range is inf
    _, bound = count_spaced_selections(range(1000), 900, 0)
    assert _fraction_bound(1000, 900, 0) > sys.float_info.max
    assert bound == math.inf
    # a zero factor after the product overflowed gave nan, and k > 170 raised
    for k in (170, 200):
        exact, bound = count_spaced_selections(range(1000), k, 3)
        assert exact == math.comb(1000 - 3 * (k - 1), k)
        assert bound == 0.0
    # up to 170! a finite bound is the float product over k!, bit for bit
    for n, k, spacing in ((2000, 30, 5), (157970, 30, 60), (64, 170, 0)):
        prod = 1.0
        for i in range(k):
            prod *= max(0.0, n - 2 * i * spacing)
        assert count_spaced_selections(range(n), k, spacing)[1] == prod / math.factorial(k)


def test_spaced_functions_reject_non_integer_and_oversized_elements():
    for bad in ([0, 2.5, 6], [0, math.inf], [0, math.nan]):
        with pytest.raises(ValueError, match="offsets must be integers"):
            count_spaced_selections(bad, 2, 1)
        with pytest.raises(ValueError, match="offsets must be integers"):
            select_spaced(bad, 2, 1)
    too_big = [0, 2**63]
    with pytest.raises(ValueError, match=str(2**63 - 1)):
        count_spaced_selections(too_big, 2, 1)
    with pytest.raises(ValueError, match=str(2**63 - 1)):
        select_spaced(too_big, 2, 1)
    # integral floats and numpy integers are still integers
    assert count_spaced_selections([0.0, 2.0, 6.0], 2, 1)[0] == 3
    assert select_spaced(np.array([0, 2, 6]), 2, 1).offsets == (0, 2)


def test_bound_dominated_by_exact_count_on_sieved_sets():
    # The product bound assumes each pick knocks out at most 2*spacing other
    # candidates, which holds once gaps are >= 2 (any sieve with k >= 2) and
    # spacing >= 1; dense unsieved sets can violate it.
    rng = random.Random(19)
    for _ in range(60):
        k = rng.randint(2, 4)
        sieved = greedy_sieve(rng.uniform(10, 48), k)
        assert len(sieved) <= 24
        spacing = rng.choice([1, 2, 3, 5, 9])
        exact, bound = count_spaced_selections(sieved, k, spacing)
        assert exact == brute_spaced_count(sieved.elements.tolist(), k, spacing)
        assert exact >= bound


def test_singular_series_examples():
    assert singular_series([0], 100) == 1.0
    value = singular_series([0, 2], 10**6)
    assert abs(value - 1.32032) < 1e-3
    with pytest.raises(InadmissibleTupleError):
        singular_series([0, 2, 4], 100)
    with pytest.raises(ValueError):
        singular_series([0, 50], 10)  # cutoff below the largest offset


def test_singular_series_partial_products_stabilise():
    primes = build_table(10**6).primes()
    tail = primes[np.searchsorted(primes, 10**5, side="right") :].astype(np.float64)
    tail_budget = float(np.sum(2.0 / tail**2))
    for offsets in ((0, 2, 6), (0, 4, 6, 10, 12, 16)):
        k = len(offsets)
        drift = abs(
            math.log(singular_series(offsets, 10**6))
            - math.log(singular_series(offsets, 10**5))
        )
        assert drift <= k**2 * tail_budget


def test_admissible_tuple_validation():
    t = AdmissibleTuple((0, 6, 12), span=20.0)
    assert t.min_gap == 6
    with pytest.raises(InadmissibleTupleError):
        AdmissibleTuple((0, 2, 4), span=10.0)
    with pytest.raises(ValueError):
        AdmissibleTuple((0, 30), span=20.0)  # outside the window
    boundary = AdmissibleTuple((0, 20), span=20.0)  # floor(window) is reachable
    assert boundary.offsets == (0, 20)


def test_offsets_line_roundtrip():
    assert parse_offsets("0, 2,6") == (0, 2, 6)
    assert format_offsets((0, 2, 6)) == "0,2,6"
    assert parse_offsets(format_offsets((5, 11, 17))) == (5, 11, 17)
    with pytest.raises(ValueError):
        parse_offsets("3,2")
    with pytest.raises(ValueError):
        parse_offsets("1,two")
