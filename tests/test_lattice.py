import functools
import gc
import itertools
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from coeffcount import lattice
from coeffcount.combinat import binomial_row, catalan, gbinom, multichoose, multichoose_row
from coeffcount.mpoly import ZZ, MultiPoly, parse_poly
from coeffcount.lattice import (
    LatticeError,
    ascending_product_count,
    ascending_product_poly,
    catalan_inversion,
    distinct_monomial_count,
    draconian_count,
    draconian_sequences,
    fuss_catalan,
    fuss_product_poly,
    lpath_sequences,
    nested_sum_product,
    noncrossing_identity,
    path_count_under_boundary,
    ps_interior_direct,
    ps_interior_transform,
    ps_points_direct,
    ps_points_formula,
    ratio_matrix,
    shifted_path_count,
    staircase_grid_report,
    staircase_parts,
    staircase_power_poly,
    weighted_polytope_sum,
)


def test_gbinom_conventions():
    assert gbinom(-1, 0) == 1
    assert gbinom(-2, 3) == -4
    assert gbinom(3, 5) == 0
    assert gbinom(4, -1) == 0
    assert multichoose(0, 0) == 1
    assert multichoose(0, 3) == 0
    assert multichoose(3, 2) == 6


def test_draconian():
    assert draconian_sequences(0) == [()]
    assert draconian_sequences(2) == [(0, 2), (1, 1)]
    assert len(draconian_sequences(3)) == 5
    for n in range(10):
        assert len(draconian_sequences(n)) == catalan(n)
    # exactly the bounded tuples, in product (lexicographic) order
    for n in range(7):
        assert draconian_sequences(n) == [
            k for k in itertools.product(range(n + 1), repeat=n)
            if sum(k) == n and all(sum(k[:i]) <= i for i in range(1, n + 1))]
    with pytest.raises(LatticeError):
        draconian_sequences(20)


def test_draconian_count_answers_past_the_listing():
    # the listing is stopped by the polytope walk's visit cap from n = 14,
    # the count only by the enumeration cap past n = 15
    assert len(draconian_sequences(13)) == 742_900
    with pytest.raises(LatticeError, match=f"exceeds {lattice.MAX_WALK_VISITS} visits"):
        draconian_sequences(14)
    assert [draconian_count(n) for n in (14, 15)] == [2_674_440, 9_694_845]
    with pytest.raises(LatticeError, match="n = 16 exceeds the enumeration cap 15"):
        draconian_count(16)


def test_distinct_monomial_count():
    assert distinct_monomial_count([3, 2, 1]) == 5
    assert distinct_monomial_count([2, 2, 2]) == multichoose(2, 3)
    for n in range(1, 7):
        assert distinct_monomial_count(list(range(n, 0, -1))) == catalan(n)
    with pytest.raises(LatticeError):
        distinct_monomial_count([1, 2])


def test_monomial_count_vs_expansion():
    for parts in [(4, 4, 2), (5, 1, 1), (3, 3), (6, 5, 4, 1), (2, 1, 0)]:
        poly = nested_sum_product(parts)
        n = poly.num_terms if not poly.is_zero() else 0
        assert distinct_monomial_count(parts) == n, parts
        # the factors commute: any order of the parts gives the same terms
        for perm in set(itertools.permutations(parts)):
            assert nested_sum_product(perm).terms == poly.terms, perm


def test_nested_sum_product_zero_and_negative_parts():
    assert nested_sum_product([2, 0]) == MultiPoly.zero(2, ZZ)
    assert nested_sum_product([0]).is_zero()
    # a negative part is refused wherever it sits, also after a zero part
    for parts in ([-1], [2, -1], [0, -1], [-1, 0, 3]):
        with pytest.raises(LatticeError):
            nested_sum_product(parts)


def test_catalan_inversion():
    assert catalan_inversion(3) == 5
    assert catalan_inversion(5) == 42
    assert catalan_inversion(1) == 2  # the identity starts at n = 2
    for n in range(2, 12):
        assert catalan_inversion(n) == catalan(n)


def test_ps_points():
    assert ps_points_direct([1, 1, 1]) == 14 == ps_points_formula([1, 1, 1])
    assert ps_points_direct([0, 0, 0]) == 1
    assert ps_points_direct([2, 1]) == 7 == ps_points_formula([2, 1])
    for n in range(1, 5):
        for ts in itertools.product(range(3), repeat=n):
            assert ps_points_direct(ts) == ps_points_formula(ts), ts


def test_ps_interior_reciprocity():
    for n in range(1, 4):
        for ms in itertools.product(range(5), repeat=n):
            img = ps_interior_transform(ms)
            assert ps_interior_direct(ms) == ps_points_direct(img), ms


def test_shifted_paths():
    assert shifted_path_count(2, 1, 2, "closed") == 2
    # n = 1: every monotone path fits under U^(t-1) R^(s-1)
    from math import comb

    assert shifted_path_count(1, 3, 3, "closed") == comb(4, 2)
    # uniform case: t * Catalan(nt - 1)
    for n in range(2, 5):
        for t in range(1, 4):
            assert (shifted_path_count(n, t, t, "closed")
                    == t * catalan(n * t - 1)), (n, t)
    for n in range(1, 5):
        for s in range(1, 4):
            for t in range(1, 4):
                closed = shifted_path_count(n, s, t, "closed")
                assert closed == shifted_path_count(n, s, t, "Lsum")
                assert closed == shifted_path_count(n, s, t, "Ksum")
                assert closed == path_count_under_boundary(n, s, t)


def test_lpath_sequences():
    assert lpath_sequences(2, 2) == [(0, 3), (1, 2)]
    from math import comb

    for n in range(1, 7):
        for t in range(1, 5):
            assert len(lpath_sequences(n, t)) * n == comb((t + 1) * n - 2, n - 1)
    for n in range(1, 5):
        for t in range(1, 4):
            total = t * n - 1
            assert lpath_sequences(n, t) == [
                k for k in itertools.product(range(total + 1), repeat=n)
                if sum(k) == total
                and all(sum(k[:j]) <= t * j - 1 for j in range(1, n + 1))]


def test_enumerators_leave_no_reference_cycles():
    # a cycle would keep the whole enumerated list alive until a full collection
    for fn, args in ((draconian_sequences, (10,)), (lpath_sequences, (4, 3)),
                     (ps_points_direct, ([2, 1, 3, 1],)),
                     (ps_interior_direct, ([3, 2, 4, 1],)),
                     (weighted_polytope_sum, (4, 2))):
        gc.collect()
        fn(*args)
        assert gc.collect() == 0, fn.__name__


# -- the ballot-sum DP against sums over the enumerated sequences -----------------

_draconian = functools.lru_cache(maxsize=None)(draconian_sequences)


def _brute(seqs, weight):
    """sum over the listed sequences of prod_j weight(j, k_j), j 1-based."""
    total = 0
    for k in seqs:
        term = 1
        for j, kj in enumerate(k, 1):
            term *= weight(j, kj)
        total += term
    return total


def test_weight_rows_match_their_binomials():
    # the ballot sums' rows come from these recurrences, negative x included
    for x in range(-8, 9):
        for top in range(13):
            ks = range(top + 1)
            assert binomial_row(x, top) == [gbinom(x, k) for k in ks], (x, top)
            assert multichoose_row(x, top) == [gbinom(x + k - 1, k) for k in ks], (x, top)
            if x >= 0:
                assert multichoose_row(x, top) == [multichoose(x, k) for k in ks]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), max_size=10))
def test_monomial_count_dp_matches_enumeration(parts):
    parts = sorted(parts, reverse=True)
    n = len(parts)
    drops = [a - b for a, b in zip(parts, parts[1:] + [0])]
    assert distinct_monomial_count(parts) == _brute(
        _draconian(n), lambda j, k: multichoose(drops[j - 1], k))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=10))
def test_polytope_formula_dp_matches_enumeration(ts):
    n = len(ts)
    assert ps_points_formula(ts) == _brute(
        _draconian(n), lambda j, k: multichoose(ts[j - 1] + (j == n), k))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=6), min_size=1, max_size=10))
def test_matching_identity_dp_matches_enumeration(ms):
    n = len(ms)
    lhs = _brute(_draconian(n), lambda j, k: gbinom(ms[j - 1] + (j < n), k))
    rhs = _brute(_draconian(n), lambda j, k: gbinom(ms[j - 1] + k - 1, k))
    assert noncrossing_identity(ms) == (lhs, rhs, lhs == rhs)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=4))
def test_lsum_dp_matches_enumeration(n, s, t):
    assert shifted_path_count(n, s, t, "Lsum") == _brute(
        lpath_sequences(n, t), lambda j, k: comb(k + s - 1, k))


def test_weighted_polytope_sum_matches_enumeration():
    for n in range(2, 6):
        for k in range(4):
            ts = [k + n - i for i in range(1, n)]
            ts[0] -= 1
            bounds = list(itertools.accumulate(reversed(ts)))
            points = [y for y in itertools.product(range(bounds[-1] + 1), repeat=n - 1)
                      if all(p <= b for p, b in zip(itertools.accumulate(y), bounds))]
            assert weighted_polytope_sum(n, k) == sum(1 + y[-1] for y in points)


def test_ballot_sums_beyond_enumeration():
    # 14 parts: Catalan(14) ~ 2.7e6 sequences; at n = 30 the parts number 29 to 119
    assert len(staircase_parts(5, 3, 3)) == 14
    for n, s, t in ((5, 3, 3), (30, 1, 2), (30, 3, 4), (30, 4, 1)):
        closed = shifted_path_count(n, s, t, "closed")
        assert shifted_path_count(n, s, t, "Ksum") == closed, (n, s, t)
        assert shifted_path_count(n, s, t, "Lsum") == closed, (n, s, t)
        assert path_count_under_boundary(n, s, t) == closed, (n, s, t)
    assert distinct_monomial_count(list(range(100, 0, -1))) == catalan(100)


def test_polytope_walk_stops_past_its_visit_cap(monkeypatch):
    # bounds (1, 2, 3): 2 values of y_1, then 3 and 2 of y_2, so 7 visits
    monkeypatch.setattr(lattice, "MAX_WALK_VISITS", 7)
    assert ps_points_direct([1, 1, 1]) == 14
    monkeypatch.setattr(lattice, "MAX_WALK_VISITS", 6)
    with pytest.raises(LatticeError, match="exceeds 6 visits"):
        ps_points_direct([1, 1, 1])
    with pytest.raises(LatticeError, match="exceeds 6 visits"):
        draconian_sequences(4)


def test_oversized_ballot_sum_refused_before_allocation():
    # refused by arithmetic on the caps alone: no row, weight or caps list is
    # built, so the refusal allocates almost nothing
    tracemalloc.start()
    try:
        with pytest.raises(LatticeError, match="work cap"):
            shifted_path_count(10**6, 2, 10**6, "Lsum")
        with pytest.raises(LatticeError, match="work cap"):
            ps_points_formula([0] * 392)  # (n-1) n (n+1) / 3 pairs > 2e7
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_last_weight_row_counts_toward_the_work_cap(monkeypatch):
    # one position: the sum is the last weight row alone, 3 * 10^7 entries,
    # refused before that row is built
    def never(*args):
        raise AssertionError("a weight row was built")

    monkeypatch.setattr(lattice, "multichoose_row", never)
    with pytest.raises(LatticeError, match="work cap"):
        shifted_path_count(1, 1, 3 * 10**7, "Lsum")


@pytest.mark.parametrize("n, s, t", [(2, 3, 2000), (2, 50, 3000), (3, 2, 700)])
def test_wide_first_step_sums_equal_the_closed_form(n, s, t):
    # the first weight rows are wide and the rows they meet narrow: each
    # entry reads only as much of its weight row as the row it multiplies
    assert (shifted_path_count(n, s, t, "Lsum")
            == shifted_path_count(n, s, t, "closed"))


def test_noncrossing_identity():
    assert noncrossing_identity([1, 1]) == (2, 2, True)
    assert noncrossing_identity([1, 2]) == (5, 5, True)
    lhs, rhs, eq = noncrossing_identity([0, 0, 0])
    assert eq
    # non-monotone vectors still satisfy the polynomial identity
    for ms in [(3, 1, 2), (0, 2, 1), (2, 0, 2, 1)]:
        assert noncrossing_identity(ms)[2], ms


def test_ascending_products():
    assert ascending_product_count(2, 0) == 2
    poly = ascending_product_poly(2, 0)
    assert poly.num_terms == 2
    for n in range(1, 5):
        for m in range(n + 1):
            poly = ascending_product_poly(n, m)
            N = poly.num_terms if not poly.is_zero() else 1
            assert N == ascending_product_count(n, m)
    with pytest.raises(LatticeError):
        ascending_product_count(1, 2)


def test_fuss_catalan():
    assert fuss_catalan(2, 2) == 3
    for n in range(1, 7):
        assert fuss_catalan(n, 1) == catalan(n)
    for n in range(1, 5):
        for k in range(1, 4):
            poly = fuss_product_poly(n, k)
            N = poly.num_terms if not poly.is_zero() else 1
            assert N == fuss_catalan(n, k)


def test_staircase_grid():
    R = ratio_matrix(8)
    assert R[0][0] == 1 and R[3][1] == 3 and R[4][1] == 18
    # R is an integer matrix with R N = M exactly, M and N written out here
    size = 12
    R = ratio_matrix(size)
    assert all(type(x) is int for row in R for x in row)

    def triangle(shift):
        return [[comb(comb(i, 2) - comb(j, 2) + i - j + shift, i - j) if j <= i else 0
                 for j in range(size)] for i in range(size)]

    M, N = triangle(3), triangle(2)
    assert [[sum(R[i][t] * N[t][j] for t in range(size)) for j in range(size)]
            for i in range(size)] == M
    rows = staircase_grid_report(3, 2)
    for n, k, oracle, rnk, rnkk, weighted in rows:
        assert str(oracle) == rnkk, (n, k)
    # spot oracle values
    assert staircase_power_poly(2, 1).num_terms == 3
    assert staircase_power_poly(3, 2).num_terms == 30


def _expand(k, factors):
    """The product of factors written as text, multiplied left to right."""
    return functools.reduce(MultiPoly.mul, [parse_poly(f, k, ZZ) for f in factors],
                            MultiPoly.one(k, ZZ))


def _xsum(top):
    return "+".join(f"x{i}" for i in range(1, top + 1))


def test_builders_match_written_out_products():
    for parts in [(), (1,), (2, 1), (3, 3, 1), (1, 3), (4, 2, 2, 1), (5, 1, 1)]:
        want = _expand(max(parts, default=1), [_xsum(lam) for lam in parts])
        assert nested_sum_product(parts) == want, parts
    # the variables x_0..x_r of the docstrings are x1..x{r+1} here
    for n in range(1, 5):
        for m in range(n + 1):
            want = _expand(n + m, [_xsum(j + m + 1) for j in range(1, n)])
            assert ascending_product_poly(n, m) == want, (n, m)
    for n in range(1, 5):
        for k in range(4):
            want = _expand(n, [_xsum(j + 1) for j in range(1, n) for _ in range(k)])
            assert fuss_product_poly(n, k) == want, (n, k)
            want = _expand(n, [_xsum(j + 1) for j in range(1, n) for _ in range(j + k)])
            assert staircase_power_poly(n, k) == want, (n, k)
