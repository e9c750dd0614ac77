"""Exact window edges for the test oracles.

floor(n + lam*ln n) = n + floor(lam*ln n) for integer n, with lam taken as the
exact value of its float64.  The length floor(lam*ln n) is computed for each n
on its own, in 50-digit decimal arithmetic; it shares no code with
shortint.density.edge_steps, which searches for the breakpoints instead.
"""

from decimal import ROUND_FLOOR, Decimal, localcontext

import numpy as np


def exact_length(lam: float, n: int) -> int:
    """floor(lam*ln n) for an integer n >= 1, at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        value = Decimal(lam) * Decimal(n).ln()
        # 50 digits decide the floor unless lam*ln n is within 1e-40 of an
        # integer; lam*ln n is never one for n > 1
        assert n == 1 or abs(value - value.to_integral_value()) > Decimal("1e-40")
        return int(value.to_integral_value(rounding=ROUND_FLOOR))


def exact_edge(lam: float, n: int) -> int:
    """n + floor(lam*ln n): the last integer of the window of n."""
    return n + exact_length(lam, n)


def exact_edges(lam: float, ns) -> np.ndarray:
    """exact_edge over an array of n.

    lam*ln n in float64 is off by far less than 1e-9 for these n, so its floor
    is certain wherever it lies more than 1e-9 from an integer; every other n
    goes through exact_length.
    """
    ns = np.asarray(ns, dtype=np.int64)
    t = lam * np.log(ns.astype(np.float64))
    lengths = np.floor(t).astype(np.int64)
    near = np.flatnonzero(np.abs(t - np.round(t)) < 1e-9)
    lengths[near] = [exact_length(lam, n) for n in ns[near].tolist()]
    return ns + lengths
