import ast

import pytest

from coeffcount import automaton, closed_forms, ffield
from coeffcount.automaton import base_digits
from coeffcount.closed_forms import (
    all_ones_power_coeff,
    all_ones_power_count,
    averaging_identity_sides,
    binomial_row_census,
    doubling_mismatches,
    family_count,
    family_poly,
    lucas_binomial,
    run_lengths,
    trinomial_odd_count,
    trinomial_series_vs_doubling,
)
from coeffcount.ffield import Field
from coeffcount.mpoly import parse_poly
from coeffcount.oracle import brute_power_census, power_census_series

F2 = Field(2)
F3 = Field(3)
F5 = Field(5)


def test_lucas():
    assert lucas_binomial(11, 5, 2) == 0
    assert lucas_binomial(17, 0, 5) == 1
    assert lucas_binomial(4, 2, 3) == 0
    from math import comb

    for n in range(40):
        for k in range(n + 1):
            for p in (2, 3, 5):
                assert lucas_binomial(n, k, p) == comb(n, k) % p
    with pytest.raises(ValueError):
        lucas_binomial(4, 2, 6)


def test_digits():
    assert base_digits(0, 3) == []
    assert base_digits(11, 2) == [1, 1, 0, 1]
    # a negative n is refused instead of looping on floor division forever
    with pytest.raises(ValueError):
        binomial_row_census(-3, 2)
    with pytest.raises(ValueError):
        all_ones_power_count(-3, 2)


def test_binomial_row_census():
    assert binomial_row_census(2**5 - 1, 2) == ({1: 32}, 32)
    assert binomial_row_census(0, 3) == ({1: 1}, 1)
    assert binomial_row_census(4, 3) == ({1: 4}, 4)
    for p, field in ((2, F2), (3, F3), (5, F5)):
        f = parse_poly("1+x", 1, field)
        series = power_census_series(f, 200)
        for n in range(201):
            census, total = binomial_row_census(n, p)
            assert census == series[n], (p, n)
            assert total == sum(series[n].values())


def test_all_ones_power():
    assert all_ones_power_count(2, 3) == 4
    assert all_ones_power_coeff(1, 1, 3) == 1  # -C(2,1) = 1 mod 3
    for p, field in ((2, F2), (3, F3), (5, F5)):
        text = "+".join(["1"] + [f"x^{i}" for i in range(1, p)])
        f = parse_poly(text, 1, field)
        series = power_census_series(f, 60)
        for n in range(61):
            assert all_ones_power_count(n, p) == sum(series[n].values()), (p, n)
    # p = 2 reduces to the binomial case
    for n in range(50):
        assert all_ones_power_count(n, 2) == 2 ** bin(n).count("1")
    # the coefficient form matches direct expansion
    f = parse_poly("1+x+x^2", 1, F3)
    for n in (1, 2, 5, 9):
        expanded = f.pow(n)
        for k in range(2 * n + 1):
            assert all_ones_power_coeff(n, k, 3) == expanded.terms.get((k,), 0)


def test_run_lengths():
    assert run_lengths(6039) == [3, 1, 4, 1]  # binary 1011110010111 read low-first
    assert run_lengths(0) == []
    assert run_lengths(2**5 - 1) == [5]


def test_trinomial_odd_count():
    assert trinomial_odd_count(6039) == 2079
    assert trinomial_odd_count(1) == 3
    for k in (1, 3, 5, 7):
        assert trinomial_odd_count(2**k - 1) == (2 ** (k + 2) + 1) // 3
    f = parse_poly("1+x+x^2", 1, F2)
    series = power_census_series(f, 512)
    for n in range(513):
        assert trinomial_odd_count(n) == series[n].get(1, 0), n


def test_family_counts():
    assert family_count(2, 3) == 46
    for k in (1, 2, 3, 4):
        assert family_count(k, 0) == 1
    for k in (2, 3):
        f = family_poly(k, F2)
        for n in range(4):
            assert brute_power_census(f, 2**n - 1, 1) == family_count(k, n), (k, n)


def test_averaging_identity():
    for n in range(13):
        lhs, rhs = averaging_identity_sides(n)
        assert lhs == rhs, n


def test_doubling_identity_is_refuted():
    # the even part does recurse (count(2m) = count(m)) but appending a
    # low 1-bit does not double the count, so mismatches appear at every
    # odd index
    mism = trinomial_series_vs_doubling(64)
    assert mism == list(range(1, 64, 2))
    for m in range(32):
        assert trinomial_odd_count(2 * m) == trinomial_odd_count(m)


def test_doubling_identity_holds_for_binomial_rows():
    # 2^s(m) doubles when a low 1-bit is appended, so L(z) = (1+2z) L(z^2)
    rows = [binomial_row_census(m, 2)[1] for m in range(128)]
    assert doubling_mismatches(rows) == []
    assert doubling_mismatches([1, 2, 2, 5]) == [3]


def test_closed_forms_do_not_depend_on_the_automaton():
    # verify checks these closed forms against the automaton, so they take
    # their digits from ffield, the lowest layer, not from its module
    with open(closed_forms.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if name and "automaton" in name}
    # one base_digits, re-exported by automaton for its callers
    assert closed_forms.base_digits is automaton.base_digits is ffield.base_digits
