import math
import random

import numpy as np
import pytest

from shortint import primes
from shortint.cli import main
from shortint.errors import MemoryBudgetError, OutOfRangeError
from shortint.primes import (
    ALL,
    PrimeFilter,
    build_table,
    count_in,
    is_fundamental_discriminant,
    kronecker_symbol,
    prime_count,
    primes_between,
)


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def dense_sieve(limit: int) -> np.ndarray:
    """Independent oracle: one-shot sieve over every integer, no odd packing."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def test_membership_matches_trial_division_exhaustively(table_1e5):
    for n in range(0, 10**5 + 1):
        assert table_1e5.membership(n) == trial_division_is_prime(n), n


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


@pytest.mark.parametrize("segment_size", [64, 97])
def test_prime_count_and_sieve_cli_match_dense_sieve(monkeypatch, capsys, segment_size):
    monkeypatch.setattr(primes, "SEGMENT_SIZE", segment_size)
    for limit in [2, 3, 100, 10**5 + 3, *_segment_end_limits(segment_size)]:
        expected = dense_sieve(limit)
        assert prime_count(limit) == len(expected), limit
        assert main(["sieve", "--limit", str(limit)]) == 0
        assert capsys.readouterr().out == f"{len(expected)}\n"
        table = build_table(limit)
        assert table.count == len(expected)
        assert np.array_equal(table.primes(), expected), limit
        assert table.membership(limit) == (expected[-1] == limit)
        assert table.primes().dtype == np.int64
        assert not table.primes().flags.writeable


def test_build_argument_validation():
    with pytest.raises(ValueError):
        build_table(1)
    with pytest.raises(ValueError):
        prime_count(1)


def test_memory_budget_error_names_required_bytes(monkeypatch):
    monkeypatch.setattr(primes, "DEFAULT_MEMORY_BUDGET", 10**6)
    with pytest.raises(MemoryBudgetError, match=r"bytes"):
        build_table(10**9)


def test_membership_beyond_limit_raises(table_1e5):
    with pytest.raises(OutOfRangeError):
        table_1e5.membership(10**7)


def test_count_in_examples(table_1e5):
    assert count_in(table_1e5, 8, 10.08) == 0
    assert count_in(table_1e5, 2, 2.693) == 1
    assert count_in(table_1e5, 1, 30, PrimeFilter.residue_class(1, 4)) == 4


def test_count_in_validation(table_1e5):
    with pytest.raises(OutOfRangeError, match="limit"):
        count_in(table_1e5, 0, table_1e5.limit + 1)
    with pytest.raises(ValueError):
        count_in(table_1e5, -1, 10)
    with pytest.raises(ValueError):
        count_in(table_1e5, 10, 5)


def test_count_in_additive_over_adjacent_intervals(table_1e5):
    rng = random.Random(7)
    for _ in range(200):
        lo = rng.uniform(0, 90000)
        hi = lo + rng.uniform(0, 5000)
        mid = rng.uniform(lo, hi)
        if table_1e5.membership(round(mid)) and round(mid) == mid:
            mid += 0.5
        total = count_in(table_1e5, lo, hi)
        split = count_in(table_1e5, lo, mid) + count_in(
            table_1e5, math.nextafter(mid, math.inf), hi
        )
        assert split == total


@pytest.mark.parametrize("q", [3, 4, 5, 12])
def test_residue_filters_partition_the_primes(table_1e5, q):
    lo, hi = 1, 50000
    total = count_in(table_1e5, lo, hi)
    coprime = [a for a in range(q) if math.gcd(a, q) == 1]
    filtered = sum(
        count_in(table_1e5, lo, hi, PrimeFilter.residue_class(a, q)) for a in coprime
    )
    dividing = sum(
        1
        for p in primes_between(table_1e5, lo, hi).tolist()
        if q % p == 0
    )
    assert filtered + dividing == total


@pytest.mark.parametrize("d", [5, -4, 8, 12, -3])
def test_kronecker_views_partition_unramified_primes(table_1e5, d):
    lo, hi = 1, 20000
    plus = primes_between(table_1e5, lo, hi, PrimeFilter.kronecker(d, +1))
    minus = primes_between(table_1e5, lo, hi, PrimeFilter.kronecker(d, -1))
    unramified = [
        p for p in primes_between(table_1e5, lo, hi).tolist() if d % p != 0
    ]
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
    with pytest.raises(ValueError):
        PrimeFilter.residue_class(2, 4)  # not coprime
    with pytest.raises(ValueError):
        PrimeFilter.residue_class(5, 4)  # residue out of range
    with pytest.raises(ValueError):
        PrimeFilter.kronecker(9, 1)  # not fundamental
    with pytest.raises(ValueError):
        PrimeFilter.kronecker(5, 0)  # bad sign


def test_primes_between_filtered(table_1e5):
    out = primes_between(table_1e5, 1, 30, PrimeFilter.residue_class(1, 4))
    assert out.tolist() == [5, 13, 17, 29]
    assert primes_between(table_1e5, 24, 28).tolist() == []
