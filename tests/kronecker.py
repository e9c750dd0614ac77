"""The Kronecker symbol by quadratic reciprocity, for the test oracles.

It computes (d/n) one n at a time, and shares no code with
shortint.primes._kronecker_table, which builds the symbol's table mod |d|
from Legendre symbols instead.
"""

import math


def kronecker_symbol(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for positive n, with the usual 2-adic rules."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if n == 1:
        return 1
    if math.gcd(d, n) != 1:
        return 0
    result = 1
    # (d/2) factors: depends on d mod 8
    twos = (n & -n).bit_length() - 1
    n >>= twos
    if twos % 2 == 1 and d % 8 in (3, 5):
        result = -result
    # Jacobi symbol (d/n) for odd n via quadratic reciprocity
    a = d % n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result
