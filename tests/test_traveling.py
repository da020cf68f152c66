import functools
import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from coeffcount import traveling
from coeffcount.cli import main
from coeffcount.combinat import fibonacci, narayana
from coeffcount.ffield import Field
from coeffcount.mpoly import ZZ, MultiPoly, parse_poly
from coeffcount.ratgen import RationalGF, genfun_equal_as_series
from coeffcount.traveling import (
    MAX_SEQ_TERMS,
    TravelingError,
    charpoly,
    connectivity_matrix,
    d_count,
    d_poly,
    duplication_report,
    h_genfun,
    h_poly,
    h_seq,
    j_count,
    j_poly,
    nu_sequence,
    pm_chain_genfun,
    pm_chain_poly,
    schroeder_sum,
    spaced_triple_count,
    spaced_triple_genfun,
    spaced_triple_poly,
    theta_charpoly,
    traveling_denominator,
    traveling_genfun,
    traveling_poly,
    traveling_seq,
    univariate_chain_check,
    window_power_counts,
    window_power_genfun,
    window_power_poly,
)


def test_h_series():
    assert h_seq(2, 5) == [1, 3, 7, 17, 41]
    assert h_seq(3, 5) == [1, 3, 8, 20, 51]
    for p in (2, 3, 5):
        series = h_seq(p, 6)
        for n in range(6):
            assert h_poly(p, n).num_terms == series[n], (p, n)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_h_seq_matches_the_cleared_series(p):
    # h_seq expands the uncleared form, whose denominator has zero
    # coefficients between z^2 and z^(p+1)
    terms = 3 * p + 5
    assert h_seq(p, terms) == h_genfun(p).expand(terms)


@pytest.mark.parametrize("p", [0, -2, 1, 4])
def test_h_series_needs_a_prime(capsys, p):
    # the chain series is a census over F_p, as h_poly's Field(p) demands
    with pytest.raises(TravelingError, match=f"{p} is not prime"):
        h_genfun(p)
    assert main(["traveling", "h-seq", "--p", str(p)]) == 1
    assert capsys.readouterr() == ("", f"error: {p} is not prime\n")


def test_univariate_chain():
    assert univariate_chain_check(3, 5)
    assert univariate_chain_check(5, 2)
    with pytest.raises(TravelingError):
        univariate_chain_check(2, 3)


def test_traveling_denominator_truncation():
    assert traveling_denominator(1, 3) == [1, -3, 1]
    assert traveling_denominator(1, 1) == [1, -1]
    assert traveling_denominator(2, 3) == [1, -3]
    assert traveling_denominator(3, 2) == [1, -2]


def test_traveling_sequences():
    assert traveling_seq(1, 3, 6) == [fibonacci(2 * n + 2) for n in range(6)]
    assert traveling_seq(1, 1, 5) == [1] * 5
    for j in (1, 2, 3):
        for k in (1, 2, 3, 4):
            seq = traveling_seq(j, k, 6)
            for n in range(6):
                p = traveling_poly(j, k, n)
                N = p.num_terms if not p.is_zero() else 1
                assert N == seq[n], (j, k, n)


def test_spaced_triple():
    assert spaced_triple_count(1) == 3
    assert spaced_triple_count(2) == 9
    gf = spaced_triple_genfun()
    assert gf.expand(7) == [spaced_triple_count(n) for n in range(7)]
    for n in range(6):
        p = spaced_triple_poly(n)
        N = p.num_terms if not p.is_zero() else 1
        assert N == spaced_triple_count(n)


def test_pm_chains():
    ser1 = pm_chain_genfun(1).expand(8)
    assert ser1[:4] == [1, 3, 7, 17]
    for t in (1, 2):
        ser = pm_chain_genfun(t).expand(8)
        for n in range(8):
            p = pm_chain_poly(n, t)
            N = p.num_terms if not p.is_zero() else 1
            assert N == ser[n], (t, n)
            census = p.coeff_census()
            assert set(census) <= {1, -1}
            assert census.get(1, 0) - census.get(-1, 0) == 1
    with pytest.raises(TravelingError):
        pm_chain_genfun(3)
    with pytest.raises(TravelingError):
        pm_chain_poly(2, 0)  # 1 - x_i + x_i is no chain


def _leibniz_charpoly(A):
    """det(xI - A), ascending, as the sum over permutations s of
    sign(s) * prod_i (x [i = s(i)] - A[i][s(i)])."""
    n = len(A)
    out = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = [(-1) ** inversions]
        for i, j in enumerate(perm):
            # term times (x [i = j] - A[i][j]), one degree longer
            shifted = [0] + term if i == j else [0] * (len(term) + 1)
            term = [s - A[i][j] * t for s, t in zip(shifted, term + [0])]
        out = [a + b for a, b in zip(out, term)]
    return out


def test_connectivity_matrix_and_charpoly():
    assert connectivity_matrix(1, 1) == [[1, 1], [1, 1]]
    assert theta_charpoly(1, 1) == [0, -2, 1]
    assert charpoly(connectivity_matrix(1, 1)) == [0, -2, 1]
    assert charpoly(connectivity_matrix(0, 2)) == theta_charpoly(0, 2)
    for k in range(7):
        for m in range(7):
            assert charpoly(connectivity_matrix(k, m)) == theta_charpoly(k, m)
    # integer matrices with negative entries, against the Leibniz expansion
    rng = random.Random(0)
    for n in (1, 2, 3, 4):
        for _ in range(50):
            A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert charpoly(A) == _leibniz_charpoly(A), A
    # a matrix whose characteristic polynomial is not integral is refused
    with pytest.raises(TravelingError, match="non-integer characteristic coefficient"):
        charpoly([[Fraction(1, 2)]])


def test_window_power_counts_refused_past_the_term_cap(monkeypatch):
    # like traveling_seq and h_seq, refused before the series is built
    def never(*args):
        raise AssertionError("the refusal came too late")

    monkeypatch.setattr(traveling, "window_power_genfun", never)
    with pytest.raises(TravelingError, match=f"{10**8} terms exceed the cap {MAX_SEQ_TERMS}"):
        window_power_counts(2, 1, 10**8)
    monkeypatch.undo()
    assert len(window_power_counts(2, 1, MAX_SEQ_TERMS)) == MAX_SEQ_TERMS


def test_window_power_genfuns():
    gf = window_power_genfun(2, 1)
    assert genfun_equal_as_series(gf, traveling_genfun(1, 3))
    gf = window_power_genfun(2, 2)
    assert genfun_equal_as_series(
        gf, RationalGF.make([1, 1], [1, -5, 3])
    )  # numerator 1 + Y(2,2) z with Y(2,2) = 1
    for k in (1, 2, 3):
        for m in (1, 2):
            ser = window_power_counts(k, m, 6)
            for n in range(6):
                p = window_power_poly(n, k, m)
                N = p.num_terms if not p.is_zero() else 1
                assert N == ser[n], (k, m, n)


def test_window_first_counts_equal_matrix_sums():
    for k in (2, 3, 4):
        for m in (1, 2, 3):
            A = connectivity_matrix(k, m)
            size = k + 1
            col = [1 if i == 0 else 0 for i in range(size)]
            for xi in range(k):
                p = window_power_poly(xi, k, m)
                N = p.num_terms if not p.is_zero() else 1
                assert sum(col) == N, (k, m, xi)
                col = [sum(A[i][j] * col[j] for j in range(size))
                       for i in range(size)]


def test_j_counts():
    assert j_count(1, 2, 1) == 4
    assert j_count(0, 3, 2) == 1
    assert j_count(2, 1, 2) == 11
    for n in range(4):
        for k in range(4):
            for m in range(4):
                p = j_poly(n, k, m)
                N = p.num_terms if not p.is_zero() else 1
                assert N == j_count(n, k, m)


def test_schroeder():
    assert [schroeder_sum(n) for n in range(6)] == [1, 2, 6, 22, 90, 394]
    for n in range(5):
        assert d_count(n + 1, 0) == schroeder_sum(n)
    assert d_count(1, 2) == 3  # x1 + x2 + x3


def test_zero_product_has_no_monomials():
    # d_poly(1, -1) has the empty first factor, so the product is zero
    assert d_poly(1, -1).is_zero()
    assert d_count(1, -1) == 0
    assert d_count(0, -1) == 1  # the empty product


def test_nu_sequence():
    nu = nu_sequence(7)
    assert nu[2] == 1 and nu[3] == 2 and nu[4] == 6 and nu[5] == 22
    assert nu[6] == 92 and nu[7] == 420


def test_duplication_report():
    rows = duplication_report(8)
    assert [r[0] for r in rows] == [3, 4, 5, 6, 7, 8]
    # shifted pairing holds on this range; direct pairing does not
    for n, nu_n, half, direct, shifted in rows:
        assert str(shifted) == half
        assert str(direct) != half


def _expand(k, ring, factors):
    """The product of factors written as text, multiplied left to right."""
    return functools.reduce(MultiPoly.mul, [parse_poly(f, k, ring) for f in factors],
                            MultiPoly.one(k, ring))


def _xsum(indices):
    return "+".join(f"x{i}" for i in indices)


def test_builders_match_written_out_products():
    for p in (2, 3, 5):
        for n in range(5):
            want = _expand(n + 1, Field(p),
                           [f"1+x{i}+x{i + 1}" for i in range(1, n + 1)])
            assert h_poly(p, n) == want, (p, n)
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            for n in range(5):
                want = _expand(max((n - 1) * j + k, 1), ZZ,
                               [_xsum(range((i - 1) * j + 1, (i - 1) * j + k + 1))
                                for i in range(1, n + 1)])
                assert traveling_poly(j, k, n) == want, (j, k, n)
    for n in range(6):
        want = _expand(n + 4, ZZ, [f"x{i}+x{i + 2}+x{i + 4}" for i in range(1, n + 1)])
        assert spaced_triple_poly(n) == want, n
    for t in (1, 2, 3):
        for n in range(6):
            want = _expand(n + t, ZZ, [f"1-x{i}+x{i + t}" for i in range(1, n + 1)])
            assert pm_chain_poly(n, t) == want, (n, t)
    for n in range(5):
        for k in (0, 1, 2):
            for m in (1, 2, 3):
                want = _expand(max(n + k, 1), ZZ, [_xsum(range(i, i + k + 1))
                                                   for i in range(1, n + 1)
                                                   for _ in range(m)])
                assert window_power_poly(n, k, m) == want, (n, k, m)
    for n in range(5):
        for k in (0, 1, 2):
            nx = n + k
            # x_1..x_{n+k} are x1..x{nx}; y_1..y_{n-1} follow them
            want = _expand(max(nx + max(n - 1, 0), 1), ZZ,
                           [_xsum([*range(nx + 1, nx + i), *range(i, i + k + 1)])
                            for i in range(1, n + 1)])
            assert d_poly(n, k) == want, (n, k)
