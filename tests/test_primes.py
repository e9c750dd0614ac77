import functools
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from shortint import primes
from shortint.cli import main
from shortint.density import window_counts
from shortint.errors import MemoryBudgetError, ParameterRangeError
from shortint.primes import (
    ALL,
    PrimeFilter,
    PrimeReader,
    build_table,
    is_fundamental_discriminant,
    prime_count,
    prime_segments,
)

from dense_primes import dense_primes, dense_sieve, is_prime
from kronecker import kronecker_symbol


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_table_primes_match_trial_division_exhaustively():
    want = [n for n in range(0, 10**5 + 1) if trial_division_is_prime(n)]
    assert build_table(10**5).primes().tolist() == want


def test_count_examples(monkeypatch):
    monkeypatch.setattr(primes, "SEGMENT_SIZE", 64)
    assert build_table(100).count == 25
    assert build_table(2).count == 1
    monkeypatch.setattr(primes, "SEGMENT_SIZE", 2**16)
    assert build_table(10**6).count == len(dense_sieve(10**6)) == 78498


def test_segment_size_does_not_change_output(monkeypatch):
    reference = build_table(10**5)
    for segment_size in (64, 97, 1000, 2**18):
        monkeypatch.setattr(primes, "SEGMENT_SIZE", segment_size)
        other = build_table(10**5)
        assert other.count == reference.count
        assert np.array_equal(other.primes(), reference.primes())


def _segment_end_limits(segment_size: int) -> list[int]:
    """Limits around the ends of the first and third segments: the last odd
    entry of a segment is 3 + 2*(k*segment_size - 1)."""
    ends = (3 + 2 * (k * segment_size - 1) for k in (1, 3))
    return [end + d for end in ends for d in (-1, 0, 1, 2)]


@pytest.mark.parametrize("segment_size", [64, 97, primes.SEGMENT_SIZE])
def test_prime_count_and_sieve_cli_match_dense_sieve(monkeypatch, capsys, segment_size):
    monkeypatch.setattr(primes, "SEGMENT_SIZE", segment_size)
    # every wheel prime and its neighbours, and the ends of one wheel period
    # (2*WHEEL integers)
    wheel_ends = [2 * primes.WHEEL + 1 + d for d in (-2, 0, 2)]
    limits = [*range(2, 41), 100, 10**5 + 3, *wheel_ends]
    for limit in [*limits, *_segment_end_limits(segment_size)]:
        expected = dense_sieve(limit)
        assert prime_count(limit) == len(expected), limit
        assert primes.primes_upto(limit) == expected.tolist(), limit
        assert main(["sieve", "--limit", str(limit)]) == 0
        assert capsys.readouterr().out == f"{len(expected)}\n"
        table = build_table(limit)
        assert table.count == len(expected)
        assert np.array_equal(table.primes(), expected), limit
        assert table.primes().dtype == np.int64
        assert not table.primes().flags.writeable


RANGE_FILTERS = (ALL, PrimeFilter.residue_class(2, 3), PrimeFilter.kronecker(-3, -1))


def _check_range(limit, filt, lo, oracle):
    """prime_segments(limit, filt, lo) yields the oracle's primes in
    [lo, limit], each item's primes inside (previous top, top], and ends at
    top = limit unless the range holds neither 2 nor an odd n > 2."""
    got, low = [], lo
    for top, found in primes.prime_segments(limit, filt, lo=lo):
        assert found.dtype == np.int64
        assert found.size == 0 or low <= found[0] <= found[-1] <= top, (lo, limit)
        got.append(found)
        low = top + 1
    if lo <= 2 or lo < limit or lo % 2:  # the range holds 2 or an odd n > 2
        assert low == limit + 1, (lo, limit)
    else:
        assert not got
    want = oracle[(oracle >= lo) & (oracle <= limit)]
    assert np.array_equal(np.concatenate([want[:0], *got]), want), (lo, limit)


@pytest.mark.parametrize("filt", RANGE_FILTERS, ids=lambda f: f.tag)
@pytest.mark.parametrize("segment_size", [3, 8, 64, 97])
def test_prime_segments_from_lo_match_dense_sieve(monkeypatch, filt, segment_size):
    # lo on and around every wheel prime, and on either side of the first and
    # third segment ends; SEGMENT_SIZE 3 puts the wheel primes in three
    # segments
    monkeypatch.setattr(primes, "SEGMENT_SIZE", segment_size)
    oracle = dense_primes(2000, filt)
    for lo in range(1, 41):
        for limit in (lo, lo + 1, lo + 30, 200):
            if limit >= max(lo, 2):
                _check_range(limit, filt, lo, oracle)
    for lo in _segment_end_limits(segment_size):
        _check_range(lo + 300, filt, lo, oracle)


@pytest.mark.parametrize("filt", RANGE_FILTERS, ids=lambda f: f.tag)
@pytest.mark.parametrize("segment_size", [97, primes.SEGMENT_SIZE])
def test_prime_segments_from_lo_around_the_wheel_period(monkeypatch, filt, segment_size):
    # the wheel tile repeats every WHEEL odd entries, at n = 3 + 2*WHEEL; a
    # range may also start at WHEEL itself or near the square of a base prime
    monkeypatch.setattr(primes, "SEGMENT_SIZE", segment_size)
    period = 3 + 2 * primes.WHEEL
    oracle = dense_primes(period + 5000, filt)
    for lo in [primes.WHEEL + d for d in (-2, -1, 0, 1, 2)] + [
        period + d for d in (-3, -2, -1, 0, 1, 2)
    ] + [19 * 19, 19 * 19 + 1, 10007]:
        _check_range(lo + 3000, filt, lo, oracle)


@functools.lru_cache
def _oracle(limit, filt):
    return dense_primes(limit, filt)


@pytest.mark.parametrize("filt", RANGE_FILTERS, ids=lambda f: f.tag)
@pytest.mark.parametrize("segment_size", [8, primes.SEGMENT_SIZE])
def test_short_ranges_far_above_the_wheel_match_dense_sieve(monkeypatch, filt, segment_size):
    # the wheel tile is sized from the range, so a range of a few thousand
    # integers copies a tile of about WHEEL + its length; these start in the
    # fourth wheel period, at its ends and around the tile's wrap
    monkeypatch.setattr(primes, "SEGMENT_SIZE", segment_size)
    period = 2 * primes.WHEEL  # integers per wheel period of the odd-only index
    oracle = _oracle(4 * period + 6000, filt)
    for lo in [3 * period + d for d in (-3, 0, 1, 2, 3, 4)] + [
        4 * period + d for d in (-2000, -7, 1, 3)
    ] + [3 * period + 123457]:
        for length in (0, 1, 2, 50, 3000):
            _check_range(lo + length, filt, lo, oracle)


@pytest.mark.parametrize("filt", RANGE_FILTERS, ids=lambda f: f.tag)
@pytest.mark.parametrize("segment_size", [97, primes.SEGMENT_SIZE])
def test_one_sieve_serves_every_range_inside_its_own(
    nothing_kept, monkeypatch, filt, segment_size
):
    # from nothing kept, a range from n = 1 and one from far above the wheel
    # period leave base primes and a wheel tile that reach their own ends;
    # ranges inside, read after them in any order, sieve nothing again and
    # match the oracle
    monkeypatch.setattr(primes, "SEGMENT_SIZE", segment_size)
    period = 2 * primes.WHEEL  # integers per wheel period of the odd-only index
    oracle = _oracle(4 * period + 6000, filt)
    for lo0, limit0, ranges in (
        (1, 5000, ((4000, 5000), (1, 2), (90, 100), (2, 2), (3, 100))),
        (3 * period - 5, 4 * period + 6000, (
            (4 * period + 6000, 4 * period + 6000), (3 * period + 123457, 4 * period),
            (3 * period - 5, 3 * period + 50), (4 * period - 7, 4 * period + 3000),
            (3 * period - 5, 4 * period + 6000),
        )),
    ):
        _check_range(limit0, filt, lo0, oracle)
        base, tile = primes._base, primes._tile
        assert base[0] >= math.isqrt(limit0)
        for lo, limit in ranges:
            _check_range(limit, filt, lo, oracle)
            assert primes._base is base and primes._tile is tile


def test_build_argument_validation():
    with pytest.raises(ValueError):
        build_table(1)
    with pytest.raises(ValueError):
        prime_count(1)


def test_memory_budget_error_names_required_bytes(monkeypatch):
    monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET", 10**6)
    with pytest.raises(MemoryBudgetError, match=r"bytes"):
        build_table(10**9)
    # primes_upto takes the same path, and the same check, before allocating
    monkeypatch.undo()

    def no_allocation(*args, **kwargs):
        raise AssertionError("the prime array was allocated before the check")

    monkeypatch.setattr(np, "empty", no_allocation)
    want = f"^limit=100000000000 needs about {primes._array_bytes(10**11):,} bytes "
    with pytest.raises(MemoryBudgetError, match=want):
        primes.primes_upto(10**11)


def test_limits_beyond_int64_marking_fail_typed_at_once():
    # marking computes q*p below limit + 2*isqrt(limit): MAX_LIMIT is the
    # last limit where that fits int64; beyond it nothing is sieved, and at
    # it the base primes up to sqrt(limit) are over the budget
    top = primes.MAX_LIMIT
    assert top + 2 * math.isqrt(top) < 2**63 <= top + 1 + 2 * math.isqrt(top + 1)
    begin = time.perf_counter()
    for limit in (2**63, 2**63 - 1, top + 1):
        with pytest.raises(ParameterRangeError, match=f"{top:,}"):
            prime_count(limit)
    with pytest.raises(ParameterRangeError):
        window_counts(1.0, 2**63 + 1, 2**63 + 1)
    with pytest.raises(MemoryBudgetError, match="base primes"):
        prime_count(top)
    assert time.perf_counter() - begin < 1.0


def test_marking_far_up_holds_a_few_chunks_of_offsets(nothing_kept, monkeypatch):
    # a short range at 1e12 is marked with the 78k base primes up to 1e6,
    # kept from its first read; their start offsets come MARK_CHUNK at a
    # time, so a read holds a few chunks of temporaries, not a few arrays
    # the size of the base primes, and still matches Miller-Rabin
    lo, hi = 10**12, 10**12 + 3000
    want = [n for n in range(lo, hi + 1) if is_prime(n)]
    assert read(lo, hi, start=lo, limit=hi).tolist() == want
    monkeypatch.setattr(primes, "MARK_CHUNK", 1024)
    tracemalloc.start()
    try:
        got = read(lo, hi, start=lo, limit=hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == want
    assert len(primes._base[1]) > 70 * primes.MARK_CHUNK
    assert peak < 16 * 8 * primes.MARK_CHUNK


def read(lo, hi, filt=ALL, start=1, limit=10**5):
    """The reader's primes in [lo, hi], from a reader over [start, limit]."""
    return PrimeReader(prime_segments(limit, filt, start)).between(lo, hi)


def test_reader_between_closed_integer_ends():
    assert read(8, 10).tolist() == []
    assert read(2, 2).tolist() == [2]
    assert read(1, 7).tolist() == [2, 3, 5, 7]
    assert read(3, 6).tolist() == [3, 5]
    assert read(3, 6, start=3, limit=6).tolist() == [3, 5]


def test_reader_at_the_ends_of_its_range(monkeypatch):
    # up to the limit exactly, past the last segment, and over a range that
    # holds no odd n > 2 (prime_segments yields nothing for it)
    monkeypatch.setattr(primes, "SEGMENT_SIZE", 8)
    reader = PrimeReader(prime_segments(100, ALL, 90))
    assert reader.between(90, 96).tolist() == []
    assert reader.between(97, 100).tolist() == [97]
    assert reader.between(100, 100).tolist() == []
    assert PrimeReader(prime_segments(10, ALL, 10)).between(10, 10).tolist() == []
    assert PrimeReader(prime_segments(2, ALL, 2)).between(2, 2).tolist() == [2]


@pytest.mark.parametrize(
    "filt, two",
    [(ALL, [2]), (PrimeFilter.residue_class(2, 3), [2]), (PrimeFilter.residue_class(1, 4), [])],
    ids=lambda v: v.tag if isinstance(v, PrimeFilter) else str(v),
)
def test_prime_segments_yield_two_only_up_to_the_limit(filt, two):
    # [1, 1] holds no prime; [1, 2] and [2, 2] hold 2 alone, which the filter
    # keeps or drops, and the one item's top is the limit
    assert list(prime_segments(1, filt, 1)) == []
    for lo in (1, 2):
        assert [(top, p.tolist()) for top, p in prime_segments(2, filt, lo)] == [(2, two)]


def test_reader_between_additive_over_adjacent_intervals(monkeypatch):
    # one reader walked forward over adjacent intervals, each lo and hi at
    # least the last, gives the oracle's primes of every interval; some
    # intervals are empty, some repeat the last hi, some span many segments
    rng = random.Random(7)
    limit = 3 * 10**4
    for segment_size, filt in itertools.product((8, primes.SEGMENT_SIZE), RANGE_FILTERS):
        monkeypatch.setattr(primes, "SEGMENT_SIZE", segment_size)
        want_all = _oracle(limit, filt)
        reader = PrimeReader(prime_segments(limit, filt, 5))
        lo = 5
        pieces = []
        while lo <= limit:
            hi = min(lo + rng.choice((0, 1, 7, 300, 5000)), limit)
            got = reader.between(lo, hi)
            want = want_all[(want_all >= lo) & (want_all <= hi)]
            assert np.array_equal(got, want), (lo, hi, filt.tag)
            pieces.append(got)
            lo = hi + rng.choice((0, 1))  # a piece may share its lo with the last hi
        merged = np.unique(np.concatenate(pieces))
        assert np.array_equal(merged, want_all[want_all >= 5])


@pytest.mark.parametrize("q", [3, 4, 5, 12])
def test_residue_filters_partition_the_primes(q):
    lo, hi = 1, 50000
    total = read(lo, hi)
    coprime = [a for a in range(q) if math.gcd(a, q) == 1]
    filtered = sum(
        len(read(lo, hi, PrimeFilter.residue_class(a, q))) for a in coprime
    )
    dividing = sum(1 for p in total.tolist() if q % p == 0)
    assert filtered + dividing == len(total) == 5133


@pytest.mark.parametrize("d", [5, -4, 8, 12, -3])
def test_kronecker_views_partition_unramified_primes(d):
    lo, hi = 1, 20000
    plus = read(lo, hi, PrimeFilter.kronecker(d, +1))
    minus = read(lo, hi, PrimeFilter.kronecker(d, -1))
    unramified = [p for p in read(lo, hi).tolist() if d % p != 0]
    merged = sorted(plus.tolist() + minus.tolist())
    assert merged == unramified


def test_kronecker_symbol_examples():
    assert kronecker_symbol(5, 5) == 0
    assert all(kronecker_symbol(1, n) == 1 for n in range(1, 50))
    assert kronecker_symbol(5, 11) == 1


def _kronecker_oracle(d: int, n: int) -> int:
    """Multiplicativity over the factorisation of n; Euler's criterion at odd p."""
    result = 1
    for p in range(2, n + 1):
        while n % p == 0:
            n //= p
            if p == 2:
                if d % 2 == 0:
                    result = 0
                elif d % 8 in (3, 5):
                    result = -result
            elif d % p == 0:
                result = 0
            else:
                euler = pow(d % p, (p - 1) // 2, p)
                if euler == p - 1:
                    result = -result
    return result


def test_kronecker_symbol_against_factored_oracle():
    rng = random.Random(11)
    for _ in range(400):
        d = rng.randint(-60, 60)
        n = rng.randint(1, 600)
        assert kronecker_symbol(d, n) == _kronecker_oracle(d, n), (d, n)


def test_kronecker_symbol_multiplicative_in_n():
    rng = random.Random(13)
    for _ in range(200):
        d = rng.randint(-40, 40)
        a, b = rng.randint(1, 200), rng.randint(1, 200)
        assert kronecker_symbol(d, a * b) == kronecker_symbol(d, a) * kronecker_symbol(d, b)


def test_kronecker_periodic_for_fundamental_discriminants():
    for d in (5, 8, 12, -3, -4, -7, 13):
        assert is_fundamental_discriminant(d)
        for n in range(1, 200):
            assert kronecker_symbol(d, n) == kronecker_symbol(d, n + abs(d))


def test_fundamental_discriminant_recognition():
    assert is_fundamental_discriminant(1)
    for d in (0, 2, 3, 9, -1, -2, 25, 18):
        assert not is_fundamental_discriminant(d), d


def test_filter_validation():
    with pytest.raises(ValueError, match="^residue 2 and modulus 4 must be coprime$"):
        PrimeFilter.residue_class(2, 4)
    with pytest.raises(ValueError, match=r"^residue must satisfy 0 <= a < 4, got 5$"):
        PrimeFilter.residue_class(5, 4)
    with pytest.raises(ValueError, match="^modulus must be >= 1, got 0$"):
        PrimeFilter.residue_class(0, 0)
    with pytest.raises(ValueError, match="^9 is not a fundamental discriminant$"):
        PrimeFilter.kronecker(9, 1)
    with pytest.raises(ValueError, match="^sign must be [+]1 or -1, got 0$"):
        PrimeFilter.kronecker(5, 0)


def test_kronecker_refuses_a_discriminant_past_the_cap_at_once():
    # 10000000033 is a prime = 1 (mod 4), so fundamental: its classes would
    # take 10**10 symbol calls; the cap is checked before any of them, and
    # before the trial division that tests d
    assert primes.MAX_DISCRIMINANT == 10**6
    for d in (10000000033, -(10**18) - 3, 1000001):
        start = time.perf_counter()
        with pytest.raises(ParameterRangeError, match=f"^discriminant {d} is beyond "
                           r"the supported range; \|d\| must be at most 1,000,000$"):
            PrimeFilter.kronecker(d, 1)
        assert time.perf_counter() - start < 0.1
    # at the cap, d = -10**6 = 4 * -250000 is checked and found not fundamental
    with pytest.raises(ValueError, match="^-1000000 is not a fundamental discriminant$"):
        PrimeFilter.kronecker(-(10**6), 1)


def test_kronecker_classes_match_the_symbol_for_every_small_discriminant():
    for d in range(-1000, 1001):
        if not is_fundamental_discriminant(d):
            continue
        q = abs(d)
        symbols = [kronecker_symbol(d, r or q) for r in range(q)]
        for sign in (1, -1):
            want = tuple(r for r, s in enumerate(symbols) if s == sign)
            assert PrimeFilter.kronecker(d, sign).classes == want, (d, sign)


@pytest.mark.parametrize("d", (999997, -999988))  # 757 * 1321, -4 * 11 * 22727
def test_kronecker_classes_near_the_cap(d):
    # fast at the cap, and equal to the symbol on the ends and a sample of r
    q = abs(d)
    start = time.perf_counter()
    plus, minus = (set(PrimeFilter.kronecker(d, sign).classes) for sign in (1, -1))
    assert time.perf_counter() - start < 2.0
    rng = random.Random(d)
    for r in [*range(300), *range(q - 300, q), *rng.sample(range(q), 5000)]:
        symbol = kronecker_symbol(d, r or q)
        assert (r in plus, r in minus) == (symbol == 1, symbol == -1), r
    coprime = int(np.count_nonzero(np.gcd(np.arange(q), q) == 1))
    assert 2 * len(plus) == 2 * len(minus) == coprime


@pytest.mark.parametrize(
    "modulus, classes",
    ((4, (4,)), (4, (-1,)), (4, (1, 3, 1)), (0, ()), (-3, (0,)), (1, (1,))),
)
def test_constructed_filter_refuses_bad_classes(modulus, classes):
    # a class outside [0, modulus) is no class mod modulus
    with pytest.raises(ValueError):
        PrimeFilter(modulus, classes, "bad")


def test_filters_with_a_modulus_past_int32():
    # few classes mod a large modulus are compared, never gathered from a
    # table of the modulus's size, so the parent's residue filters all work
    q = 2**31 + 11
    values = np.array([2, 3, q + 1, 2 * q + 1, 2 * q + 3], dtype=np.int64)
    filt = PrimeFilter.residue_class(1, q)
    assert filt.mask(values).tolist() == [False, False, True, True, False]
    assert [len(p) for _, p in prime_segments(1000, filt)] == [0, 0]
    two = PrimeFilter(q, (1, 3), "two")
    assert two.mask(values).tolist() == [False, True, True, True, True]


def test_filter_of_many_classes_gathers_from_a_table_made_once():
    # more than one class mod at most MAX_DISCRIMINANT: one read-only bool
    # per class, made with the filter; one class or a larger modulus: none
    big = PrimeFilter.kronecker(999997, -1)
    assert big._kept.nbytes == 999997 and not big._kept.flags.writeable
    assert big == PrimeFilter.kronecker(999997, -1) != PrimeFilter.kronecker(999997, 1)
    values = np.arange(10**6 - 500, 10**6 + 500)
    for filt, gathers in (
        (big, True), (PrimeFilter.kronecker(5, 1), True), (PrimeFilter(30, (1, 7), "two"), True),
        (PrimeFilter.kronecker(-4, 1), False), (PrimeFilter.residue_class(1, 4), False),
        (PrimeFilter(2**31 + 11, (1, 3), "far"), False),
    ):
        assert (filt._kept is not None) == gathers, filt.tag
        want = np.isin(values % filt.modulus, filt.classes)
        assert filt.mask(values).tolist() == want.tolist(), filt.tag


def test_filter_form_of_each_constructor():
    assert (ALL.modulus, ALL.classes, ALL.tag) == (1, (0,), "all")
    for a, q in ((1, 4), (3, 4), (0, 1), (7, 30), (2, 3)):
        filt = PrimeFilter.residue_class(a, q)
        assert (filt.modulus, filt.classes, filt.tag) == (q, (a,), f"mod{q}r{a}")
    assert PrimeFilter.kronecker(1, +1).classes == (0,)
    assert PrimeFilter.kronecker(1, -1).classes == ()
    assert PrimeFilter.kronecker(1, -1).modulus == 1
    assert PrimeFilter.kronecker(5, -1).tag == "disc5s-1"
    assert PrimeFilter.kronecker(-4, 1).tag == "disc-4s+1"


@pytest.mark.parametrize("d", (5, -4, 8, 12, -3, -7, 13))
@pytest.mark.parametrize("sign", (1, -1))
def test_kronecker_keeps_half_the_coprime_classes(d, sign):
    # (d/.) is a character of order 2 mod |d|: each sign keeps half of the
    # phi(|d|) classes coprime to d, so the two filters split them
    filt = PrimeFilter.kronecker(d, sign)
    q = abs(d)
    assert filt.modulus == q
    assert all(math.gcd(a, q) == 1 for a in filt.classes)
    phi = sum(1 for r in range(q) if math.gcd(r, q) == 1)
    assert len(filt.classes) == phi // 2


def test_reader_between_filtered():
    assert read(1, 30, PrimeFilter.residue_class(1, 4)).tolist() == [5, 13, 17, 29]
    assert read(24, 28).tolist() == []
