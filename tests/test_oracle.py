import pytest

from coeffcount.ffield import Field
from coeffcount import oracle
from coeffcount.mpoly import BudgetError, MultiPoly, ZZ, parse_poly
from coeffcount.oracle import (
    brute_power_census,
    brute_product_census,
    power_census_series,
)

F2 = Field(2)


def test_power_census_examples():
    f = parse_poly("1+x", 1, F2)
    assert brute_power_census(f, 11, 1) == 8
    assert brute_power_census(f, 0, 1) == 1
    g = parse_poly("1+x1+x2+x1*x2^2", 2, F2)
    assert brute_power_census(g, 1, 1) == 4


def test_catalan_product():
    factors = [
        parse_poly("+".join(f"x{j}" for j in range(1, i + 1)), 3, ZZ)
        for i in range(1, 4)
    ]
    n, census = brute_product_census(factors)
    assert n == 5  # Catalan number C_3
    assert sum(census.values()) == 5


def test_single_factor():
    n, census = brute_product_census([parse_poly("x1+x2+x3", 3, ZZ)])
    assert n == 3 and census == {1: 3}


def test_vandermonde_signs():
    # prod_{i<j} (x_i - x_j) over ZZ: n! monomials, half +1 and half -1
    from math import factorial

    for nv in range(2, 6):
        factors = []
        for i in range(1, nv + 1):
            for j in range(i + 1, nv + 1):
                factors.append(parse_poly(f"x{i} - x{j}", nv, ZZ))
        n, census = brute_product_census(factors)
        assert n == factorial(nv)
        assert census == {1: factorial(nv) // 2, -1: factorial(nv) // 2}


def test_pairs_mod2_count():
    # prod_{i<j<=3} (x_i + x_j) over F_2 has 3! nonzero coefficients
    factors = [
        parse_poly("x1+x2", 3, F2),
        parse_poly("x1+x3", 3, F2),
        parse_poly("x2+x3", 3, F2),
    ]
    n, census = brute_product_census(factors)
    assert n == 6 and census == {1: 6}


def test_series_is_consistent_with_point_queries():
    f = parse_poly("1+x1+x2^2", 2, F2)
    series = power_census_series(f, 12)
    for n in (0, 3, 7, 12):
        assert brute_power_census(f, n) == series[n]


def test_zero_polynomial_series():
    z = MultiPoly.zero(2, ZZ)
    series = power_census_series(z, 3)
    assert series[0] == {1: 1}
    assert series[1] == {} and series[3] == {}
    assert brute_power_census(z, 0) == {1: 1} and brute_power_census(z, 3) == {}


def test_ladder_length_refused_before_the_first_product(monkeypatch):
    # n products by |f| terms visit at least n |f| term pairs
    def never(*args, **kwargs):
        raise AssertionError("the ladder started")

    monkeypatch.setattr(oracle, "_mul_packed", never)
    f = parse_poly("1+x", 1, F2)
    for call in (brute_power_census, power_census_series):
        with pytest.raises(BudgetError, match="100000000 products by 2 terms"):
            call(f, 10**8)
        with pytest.raises(BudgetError):
            call(f, 6, budget=11)
    with pytest.raises(BudgetError):
        power_census_series(MultiPoly.zero(1, F2), 12, budget=11)
    monkeypatch.undo()
    assert brute_power_census(f, 5, budget=10) == {1: 4}


def test_budget_enforced():
    f = parse_poly("1+x1+x2+x3+x4", 4, ZZ)
    with pytest.raises(BudgetError):
        brute_product_census([f] * 12, budget=300)


def test_mismatched_factors_rejected():
    with pytest.raises(ValueError):
        brute_product_census([parse_poly("x1", 1, ZZ), parse_poly("x1", 2, ZZ)])
