"""Constant bundle and closed-form lower bounds for the density of short
intervals with exactly m primes, plus validity-range checks for scans where
m and lambda vary with x.

The constants are configuration, not derived values: defaults are chosen so
every formula is computable, and callers may substitute their own bundle.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ParameterRangeError, check_lambda
from .primes import primes_upto

EULER_GAMMA = 0.5772156649015329
_EXACT_MERTENS_LIMIT = 10**7


@dataclass(frozen=True)
class BoundParams:
    """Constants feeding the bound formulas.

    scale, growth set the tuple size k(m) = ceil(scale * exp(49*m/growth));
    decay drives the exp(-decay * k^4 * log k) factor; shift and rate enter
    the lambda-m coupling lambda * (49m + shift)^2 * exp(196 * rate * m);
    m_fraction caps m <= m_fraction * log log x; floor_exp sets the lambda
    floor (log x)^(floor_exp - 1).
    """

    scale: float = 50.0
    growth: float = 1.0
    decay: float = 1.0
    shift: float = 1.0
    rate: float = 1.0
    m_fraction: float = 0.003
    floor_exp: float = 0.5

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if not math.isfinite(value):
                raise ParameterRangeError(f"{name} must be finite, got {value}")
        for name in ("scale", "growth", "decay", "shift", "rate", "m_fraction"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 < self.floor_exp < 1:
            raise ValueError(f"floor_exp must lie in (0, 1), got {self.floor_exp}")


DEFAULT_PARAMS = BoundParams()


def tuple_size(m: int, params: BoundParams = DEFAULT_PARAMS) -> int:
    """k(m) = ceil(scale * exp(49*m/growth)), the tuple length the bound
    machinery uses for a prescribed prime count m."""
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    y = 49.0 * m / params.growth
    if y > 700.0 or math.isinf(params.scale * math.exp(y)):
        raise ParameterRangeError(
            f"tuple size overflows the float range at m={m} (49*m/growth = "
            f"{y:.1f}, at most 700; scale = {params.scale:g}); "
            "lower m or scale, or raise growth"
        )
    return math.ceil(params.scale * math.exp(y))


def lambda_cap(k: int) -> float:
    """Largest admissible lambda for the main bound: 1 / (k^4 (log k)^2)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return k**-4 * math.log(k) ** -2


@lru_cache(maxsize=32)
def mertens_product(k: int) -> float:
    """prod_{p <= k} (1 - 1/p), exact below 10^7 and by the asymptotic
    exp(-gamma)/log k above (relative error below ~2e-4 at that scale)."""
    if k < 2:
        return 1.0
    if k <= _EXACT_MERTENS_LIMIT:
        primes = np.array(primes_upto(int(k)), dtype=np.float64)
        return float(math.exp(np.sum(np.log1p(-1.0 / primes))))
    return math.exp(-EULER_GAMMA) / math.log(k)


def spacing_divisor(k: int) -> float:
    """C0(k) = 4k / prod_{p <= k}(1 - 1/p); the well-spacing threshold for a
    window of length L is L / spacing_divisor(k)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return 4.0 * float(k) / mertens_product(k)


class BoundValue(NamedTuple):
    """A bound evaluated in log space; value is exp(log_value), which may
    underflow to 0.0 for large tuple sizes."""

    log_value: float
    value: float


VARIANTS = ("primes", "progression", "wide-lambda")


def lower_bound(
    variant: str,
    lam: float,
    m: int,
    q: int | None = None,
    x: float | None = None,
    params: BoundParams = DEFAULT_PARAMS,
) -> BoundValue:
    """Evaluate one of the closed-form density lower bounds.

    primes:       lam^(k+1) * exp(-decay k^4 log k),      needs lam <= lambda_cap(k)
    progression:  the primes value divided by q^(k+1),    same lambda range
    wide-lambda:  lam * exp(-decay k^4 log k)/(log x)^k,  needs lam < 1/(k log k)
    """
    check_lambda(lam)
    k = tuple_size(m, params)
    if k < 2:
        raise ParameterRangeError(
            f"bound formulas need tuple size >= 2, got k={k}; raise scale"
        )
    log_k = math.log(k)
    decay_term = params.decay * float(k) ** 4 * log_k
    if variant in ("primes", "progression"):
        cap = lambda_cap(k)
        if lam > cap:
            raise ParameterRangeError(
                f"{variant!r} bound requires lambda <= 1/(k^4 (log k)^2) = "
                f"{cap:.6g} at k={k}; got lambda={lam}"
            )
        log_value = (k + 1) * math.log(lam) - decay_term
        if variant == "progression":
            if q is None or q < 1:
                raise ValueError("progression bound needs a modulus q >= 1")
            log_value -= (k + 1) * math.log(q)
    elif variant == "wide-lambda":
        _check_x(x)
        cap = 1.0 / (float(k) * log_k)
        if lam >= cap:
            raise ParameterRangeError(
                f"'wide-lambda' bound requires lambda < 1/(k log k) = "
                f"{cap:.6g} at k={k}; got lambda={lam}"
            )
        log_value = math.log(lam) - decay_term - k * math.log(math.log(x))
    else:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return BoundValue(log_value, math.exp(log_value) if log_value > -746 else 0.0)


@dataclass(frozen=True)
class Condition:
    """One evaluated inequality: lhs `op` rhs."""

    name: str
    lhs: float
    rhs: float
    op: str
    ok: bool


@dataclass(frozen=True)
class ParamCheck:
    ok: bool
    violated: tuple[Condition, ...]
    conditions: tuple[Condition, ...]


def _check_x(x: float | None) -> None:
    """ParameterRangeError for a non-finite x, ValueError for no x or x <= 1."""
    if x is not None and not math.isfinite(x):
        raise ParameterRangeError(f"x must be finite and > 1, got {x}")
    if x is None or x <= 1:
        raise ValueError(f"x must exceed 1, got {x}")


def _safe_exp(y: float) -> float:
    try:
        return math.exp(y)
    except OverflowError:
        return math.inf


def check_uniform_range(
    m: int, lam: float, x: float, params: BoundParams = DEFAULT_PARAMS
) -> ParamCheck:
    """Evaluate the five validity conditions for scans with growing x:
    the m cap, the lambda floor and cap, the lambda-over-k floor, and the
    lambda-m coupling ("much less than 1" operationalised as <= 1)."""
    check_lambda(lam)
    _check_x(x)
    k = tuple_size(m, params)
    log_x = math.log(x)
    log_k = math.log(k)
    checks = []

    rhs = params.m_fraction * math.log(log_x) if log_x > 0 else -math.inf
    checks.append(Condition("m-cap", float(m), rhs, "<=", m <= rhs))

    rhs = log_x ** (params.floor_exp - 1.0)
    checks.append(Condition("lambda-floor", lam, rhs, ">=", lam >= rhs))

    lhs = float(k) ** 4 * log_k**2 * lam
    checks.append(Condition("lambda-cap", lhs, 1.0, "<=", lhs <= 1.0))

    rhs = float(k) * log_k / log_x
    checks.append(Condition("lambda-over-k", lam, rhs, ">", lam > rhs))

    lhs = lam * (49.0 * m + params.shift) ** 2 * _safe_exp(196.0 * params.rate * m)
    checks.append(Condition("coupling", lhs, 1.0, "<=", lhs <= 1.0))

    conditions = tuple(checks)
    violated = tuple(c for c in conditions if not c.ok)
    return ParamCheck(ok=not violated, violated=violated, conditions=conditions)


def _json_float(v: float) -> float | None:
    return None if (math.isinf(v) or math.isnan(v)) else v


def bounds_report(
    m: int,
    lam: float | None = None,
    x: float | None = None,
    q: int | None = None,
    params: BoundParams = DEFAULT_PARAMS,
) -> dict:
    """JSON-ready bundle of derived constants, bound values, and the range
    check for the supplied scan parameters; a bad lam or x raises first."""
    if lam is not None:
        check_lambda(lam)
    if x is not None:
        _check_x(x)
    k = tuple_size(m, params)
    report: dict = {"m": m, "params": asdict(params), "k": k}
    if k >= 2:
        report["lambda_cap"] = lambda_cap(k)
        report["spacing_divisor"] = _json_float(spacing_divisor(k))
    if lam is not None:
        report["lambda"] = lam
        wanted = [("primes", {})]
        if q is not None:
            wanted.append(("progression", {"q": q}))
        if x is not None:
            wanted.append(("wide-lambda", {"x": x}))
        bounds = {}
        for variant, extra in wanted:
            try:
                bv = lower_bound(variant, lam, m, params=params, **extra)
                bounds[variant] = {
                    "log_value": _json_float(bv.log_value),
                    "value": bv.value,
                }
            except (ParameterRangeError, ValueError) as exc:
                bounds[variant] = {"error": str(exc)}
        report["bounds"] = bounds
    if q is not None:
        report["q"] = q
    if x is not None:
        report["x"] = x
    if lam is not None and x is not None:
        check = check_uniform_range(m, lam, x, params)
        report["range_check"] = {
            "ok": check.ok,
            "violated": [c.name for c in check.violated],
            "conditions": [
                {
                    "name": c.name,
                    "lhs": _json_float(c.lhs),
                    "rhs": _json_float(c.rhs),
                    "op": c.op,
                    "ok": c.ok,
                }
                for c in check.conditions
            ],
        }
    return report


def params_from_dict(data: dict) -> BoundParams:
    """BoundParams from a JSON object; unknown keys are rejected."""
    known = set(BoundParams.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown constant names: {sorted(unknown)}")
    return BoundParams(**{key: float(val) for key, val in data.items()})
