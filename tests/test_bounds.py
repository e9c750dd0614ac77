import json
import math

import numpy as np
import pytest

from shortint.bounds import (
    BoundParams,
    DEFAULT_PARAMS,
    bounds_report,
    check_uniform_range,
    lambda_cap,
    lower_bound,
    mertens_product,
    params_from_dict,
    spacing_divisor,
    tuple_size,
)
from shortint.errors import ParameterRangeError
from shortint.primes import build_table

SMALL = BoundParams(scale=2.0)


def test_tuple_size_examples():
    assert tuple_size(0) == 50
    assert tuple_size(1, BoundParams(scale=1, growth=49)) == 3
    sizes = [tuple_size(m, BoundParams(scale=3, growth=20)) for m in range(5)]
    assert sizes == sorted(sizes)


def test_tuple_size_overflow_guard():
    with pytest.raises(ParameterRangeError, match="700"):
        tuple_size(15)
    assert tuple_size(14) > 10**298
    # a finite scale can still carry k past the float range
    at_1e300 = r"49\*m/growth = 49\.0, at most 700; scale = 1e\+300"
    with pytest.raises(ParameterRangeError, match=at_1e300):
        tuple_size(1, BoundParams(scale=1e300))


def test_lambda_cap_values():
    assert lambda_cap(2) == pytest.approx(1 / (16 * math.log(2) ** 2), rel=1e-15)
    assert lambda_cap(2) == pytest.approx(0.13008556131285048, rel=1e-14)
    assert lambda_cap(10) == pytest.approx(1.8861169701161392e-05, rel=1e-12)
    caps = [lambda_cap(k) for k in range(2, 40)]
    assert all(a > b for a, b in zip(caps, caps[1:]))
    with pytest.raises(ValueError):
        lambda_cap(1)


def test_lambda_cap_identity_with_its_inverse():
    for k in range(2, 1001):
        product = lambda_cap(k) * k**4 * math.log(k) ** 2
        assert abs(product - 1.0) <= 1e-12


def test_mertens_product_matches_direct_accumulation():
    direct = 1.0
    for p in build_table(100).primes().tolist():
        direct *= 1 - 1 / p
    assert mertens_product(100) == pytest.approx(direct, rel=1e-13)
    # asymptotic branch stays close to the exact value at the crossover scale
    exact_at_cross = mertens_product(10**7)
    asym = math.exp(-0.5772156649015329) / math.log(10**7)
    assert asym == pytest.approx(exact_at_cross, rel=3e-3)


def test_spacing_divisor_values():
    assert spacing_divisor(2) == pytest.approx(16.0, rel=1e-12)
    assert spacing_divisor(3) == pytest.approx(36.0, rel=1e-12)
    values = [spacing_divisor(k) for k in range(2, 30)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_lower_bound_log_matches_direct_product():
    k = tuple_size(0, SMALL)
    lam = 0.05
    got = lower_bound("primes", lam, 0, params=SMALL)
    direct = lam ** (k + 1) * math.exp(-(float(k) ** 4) * math.log(k))
    assert got.value == pytest.approx(direct, rel=1e-10)
    assert math.exp(got.log_value) == pytest.approx(direct, rel=1e-10)


def test_progression_bound_is_primes_bound_over_q_power():
    for q in (2, 3, 10):
        for m, params in ((0, SMALL), (1, BoundParams(scale=1, growth=49))):
            k = tuple_size(m, params)
            lam = lambda_cap(k) / 3
            a = lower_bound("primes", lam, m, params=params)
            b = lower_bound("progression", lam, m, q=q, params=params)
            recombined = b.log_value + (k + 1) * math.log(q)
            assert abs(recombined - a.log_value) <= 1e-10 * abs(a.log_value)


def test_wide_lambda_bound_at_x_e():
    k = tuple_size(0, SMALL)
    lam = 0.3
    got = lower_bound("wide-lambda", lam, 0, x=math.e, params=SMALL)
    assert got.value == pytest.approx(
        lam * math.exp(-(float(k) ** 4) * math.log(k)), rel=1e-10
    )


def test_lambda_range_enforcement():
    k = tuple_size(0, SMALL)
    cap = lambda_cap(k)
    lower_bound("primes", cap, 0, params=SMALL)  # boundary accepted
    with pytest.raises(ParameterRangeError, match="lambda <="):
        lower_bound("primes", cap * 1.0001, 0, params=SMALL)
    with pytest.raises(ParameterRangeError, match="k log k"):
        lower_bound("wide-lambda", 1.0, 0, x=100.0, params=SMALL)
    with pytest.raises(ValueError):
        lower_bound("progression", cap, 0, params=SMALL)  # q missing
    with pytest.raises(ValueError):
        lower_bound("nope", cap, 0, params=SMALL)


def test_bound_monotone_in_lambda_and_m():
    params = BoundParams(scale=2, growth=49)
    lams = [1e-4, 1e-3, 1e-2]
    logs = [lower_bound("primes", lam, 0, params=params).log_value for lam in lams]
    assert logs == sorted(logs)
    by_m = [lower_bound("primes", 1e-6, m, params=params).log_value for m in (0, 1, 2)]
    assert by_m == sorted(by_m, reverse=True)


def test_uniform_range_all_slack_configuration():
    check = check_uniform_range(0, 0.05, 1e174, SMALL)
    assert check.ok and not check.violated
    assert len(check.conditions) == 5


def test_uniform_range_default_constants_at_1e100():
    # direct evaluation: the lambda floor (log x)^(eps2-1) ~ 0.066 dwarfs
    # lambda = lambda_cap(50)/2 ~ 5e-9, and lambda <= k log k / log x as well
    check = check_uniform_range(0, lambda_cap(50) / 2, 1e100)
    assert not check.ok
    assert {c.name for c in check.violated} == {"lambda-floor", "lambda-over-k"}


def test_uniform_range_individual_violations():
    base = dict(m=0, lam=0.05, x=1e174, params=SMALL)
    assert check_uniform_range(**base).ok

    too_big = check_uniform_range(0, 0.2, 1e174, SMALL)
    assert "lambda-cap" in {c.name for c in too_big.violated}

    small_x = check_uniform_range(0, 0.05, 50.0, SMALL)
    assert "lambda-over-k" in {c.name for c in small_x.violated}

    big_m = check_uniform_range(3, 1e-8, 1e174, BoundParams(scale=2.0, growth=49.0))
    assert "m-cap" in {c.name for c in big_m.violated}
    assert "coupling" in {c.name for c in big_m.violated}


def test_uniform_range_reports_both_sides():
    check = check_uniform_range(0, 0.05, 1e174, SMALL)
    cap = next(c for c in check.conditions if c.name == "lambda-cap")
    assert cap.lhs == pytest.approx(2**4 * math.log(2) ** 2 * 0.05)
    assert cap.rhs == 1.0


def test_bounds_report_shape():
    rep = bounds_report(0, lam=2e-10, x=1e30, q=4)
    assert rep["k"] == 50
    assert set(rep["bounds"]) == {"primes", "progression", "wide-lambda"}
    assert rep["range_check"]["ok"] is False
    assert json.dumps(rep)  # JSON-serialisable (inf filtered out)
    no_args = bounds_report(0)
    assert "bounds" not in no_args and "range_check" not in no_args


def test_params_from_dict_roundtrip():
    params = params_from_dict({"scale": 2, "floor_exp": 0.25})
    assert params.scale == 2.0 and params.floor_exp == 0.25
    with pytest.raises(ValueError, match="unknown"):
        params_from_dict({"C": 50})
    with pytest.raises(ValueError):
        params_from_dict({"scale": -1})


@pytest.mark.parametrize("name", sorted(BoundParams.__dataclass_fields__))
@pytest.mark.parametrize("value", (math.inf, -math.inf, math.nan))
def test_params_refuse_non_finite_constants(name, value):
    # NaN and infinity pass a test of <= 0, or of 0 < x < 1 for floor_exp
    with pytest.raises(ParameterRangeError, match=f"^{name} must be finite, got "):
        BoundParams(**{name: value})
    with pytest.raises(ParameterRangeError, match=f"^{name} must be finite"):
        params_from_dict({name: value})
