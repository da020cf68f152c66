import ast
import functools
import itertools
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from coeffcount.ffield import Field
from coeffcount import oracle
from coeffcount.mpoly import BudgetError, MultiPoly, ZZ, limits, parse_poly
from coeffcount.oracle import (
    brute_power_census,
    brute_product_census,
    power_census_series,
)
from coeffcount.traveling import h_seq

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)
F257 = Field(257)  # above the table bound: the ring branch of _mul_packed


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
        with pytest.raises(BudgetError), limits(terms=11):
            call(f, 6)
    with pytest.raises(BudgetError), limits(terms=11):
        power_census_series(MultiPoly.zero(1, F2), 12)
    monkeypatch.undo()
    with limits(terms=10):
        assert brute_power_census(f, 5) == {1: 4}


def test_budget_enforced():
    f = parse_poly("1+x1+x2+x3+x4", 4, ZZ)
    with pytest.raises(BudgetError), limits(terms=300):
        brute_product_census([f] * 12)


def test_mismatched_factors_rejected():
    with pytest.raises(ValueError):
        brute_product_census([parse_poly("x1", 1, ZZ), parse_poly("x1", 2, ZZ)])


@pytest.mark.parametrize("ring, alpha", [(ZZ, 0), (F3, 0), (F3, 3), (F4, 0)],
                         ids=["ZZ", "F3", "F3-p", "F4"])
def test_alpha_zero_refused_before_the_ladder(monkeypatch, ring, alpha):
    # (1 + x^2)^1 has a zero coefficient at x, but the pruned census holds
    # none, so alpha = 0 would read 0 for every power
    def never(*args, **kwargs):
        raise AssertionError("the ladder started")

    monkeypatch.setattr(oracle, "_mul_packed", never)
    f = parse_poly("1+x^2", 1, ring)
    with pytest.raises(ValueError, match="alpha must be nonzero"):
        brute_power_census(f, 1, alpha)


# coefficient pools that make cancellations likely: over ZZ and F_257 a
# coefficient and its negative, over the tabled fields every nonzero value
POOLS = {"F2": (F2, [1]), "F3": (F3, [1, 2]), "F4": (F4, [1, 2, 3]),
         "F257": (F257, [1, 2, 255, 256]), "ZZ": (ZZ, [-2, -1, 1, 2])}


@st.composite
def cancelling_factors(draw):
    ring, pool = POOLS[draw(st.sampled_from(sorted(POOLS)))]
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    factors = draw(st.lists(st.dictionaries(exps, st.sampled_from(pool),
                                            min_size=1, max_size=4),
                            min_size=1, max_size=7))
    return [MultiPoly(2, ring, terms) for terms in factors]


@settings(max_examples=150, deadline=None)
@given(cancelling_factors())
@example([parse_poly("x1+x2", 2, ZZ), parse_poly("x1-x2", 2, ZZ)])
# pair products that cancel, and an unpaired last factor
@example([parse_poly("1+x1", 2, ZZ), parse_poly("1-x1", 2, ZZ)] * 2
         + [parse_poly("x1+x2", 2, ZZ)])
@example([parse_poly("1+x1", 2, F2)] * 2)
@example([parse_poly("1+x1+x2", 2, F3)] * 3)
@example([parse_poly("1+x1+2*x2", 2, F4), parse_poly("1+x1+3*x2", 2, F4),
          parse_poly("2+x1^2", 2, F4)])
@example([parse_poly("1+x1", 2, F257), parse_poly("1+256*x1", 2, F257)])
def test_pruned_products_match_multipoly_mul(factors):
    product = functools.reduce(MultiPoly.mul, factors)
    n, census = brute_product_census(factors)
    assert (n, census) == (product.num_terms, product.coeff_census())
    assert 0 not in census and all(product._held().values())


def test_product_census_multiplies_pairs_first(monkeypatch):
    # the chain trinomials 1 + x_i + x_{i+1} over F_3: a plain left-to-right
    # chain visits 175 185 term pairs for 12 of them, pairs first 131 766,
    # still in one product per factor
    pairs = []
    mul_packed = oracle._mul_packed

    def counted(acc, factor, ring, budget):
        factor = list(factor)
        pairs.append(len(acc) * len(factor))
        return mul_packed(acc, factor, ring, budget)

    monkeypatch.setattr(oracle, "_mul_packed", counted)
    factors = [parse_poly(f"1+x{i}+x{i + 1}", 13, F3) for i in range(1, 13)]
    chain = h_seq(3, 13)
    assert brute_product_census(factors)[0] == chain[12]
    assert (len(pairs), sum(pairs)) == (12, 131766)
    pairs.clear()
    # an odd count: the last factor joins the chain as it is
    assert brute_product_census(factors[:11])[0] == chain[11]
    assert len(pairs) == 11


def _peak_bytes(call):
    """The traced peak of call() above what was held before it, and its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        return tracemalloc.get_traced_memory()[1] - before, out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel, ring", [("oracle", F3), ("oracle", ZZ), ("mpoly", ZZ)],
                         ids=["oracle-tabled", "oracle-ring", "mpoly"])
def test_one_product_holds_one_result_dict(kernel, ring):
    # a 100 x 100 box of ones whose first column alternates in sign, times
    # 1 + x1: 99 of the 10100 keys cancel.  The product's traced peak is
    # about 2.1 times the result dict (the dict, its last resize and its new
    # int keys); a filtered copy of the result adds a second dict on top,
    # for about 3.6 times
    side = 100
    terms = {(i, j): 1 for i in range(side) for j in range(side)}
    for i in range(side):
        terms[(i, 0)] = ring.neg(1) if i % 2 else 1
    box = MultiPoly(2, ring, terms)
    shift = parse_poly("1+x1", 2, ring)
    if kernel == "oracle":
        acc = dict(oracle._pack_terms(box, [side, side - 1]))
        factor = oracle._pack_terms(shift, [side, side - 1])
        peak, out = _peak_bytes(lambda: oracle._mul_packed(acc, factor, ring, 10**7))
    else:
        held = box.mul(MultiPoly.one(2, ring))  # on the product's packed keys
        peak, product = _peak_bytes(lambda: held.mul(shift))
        out = product._held()
    assert len(out) == side * (side + 1) - (side - 1) and all(out.values())
    assert peak < 2.5 * sys.getsizeof(out)


def test_exponent_packer():
    bounds = [3, 0, 8]  # widths 2, 1 and 4 bits

    def pack(exp):
        [(key, _)] = oracle._pack_terms(MultiPoly(3, ZZ, {exp: 1}), bounds)
        return key

    assert pack((3, 0, 8)) == 3 | 8 << 3
    for a in itertools.product(range(2), range(1), range(5)):
        # disjoint fields at shifts 0, 2 and 3: the key is the vector's bits
        assert pack(a) == a[0] | a[1] << 2 | a[2] << 3
        for b in itertools.product(range(2), range(1), range(4)):
            s = tuple(x + y for x, y in zip(a, b))
            assert pack(a) + pack(b) == pack(s)
    f = parse_poly("x1^2*x3 + 1 + x1", 3, ZZ)
    assert oracle._pack_terms(f, bounds) == [(0, 1), (1, 1), (2 | 1 << 3, 1)]


def test_oracle_shares_no_packed_product_code():
    # the oracle is the independent check of the fast paths: it packs and
    # multiplies on its own, not through mpoly's key layout or kernel
    with open(oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert not {"_convolve", "_key_fields"} & names


@pytest.mark.parametrize("ring, text, k, n", [
    (F2, "1+x1+x2+x1*x2^2", 2, 12), (F3, "2+x+x^2", 1, 20), (F4, "1+2*x+x^2", 1, 9),
    (ZZ, "1-x+x^3", 1, 10), (F257, "3+x1*x2+256*x2^2", 2, 7),
], ids=["F2", "F3", "F4", "ZZ", "F257"])
def test_census_series_and_power_read_one_ladder(ring, text, k, n):
    # the series is every rung of the ladder, and brute_power_census its last
    f = parse_poly(text, k, ring)
    series = power_census_series(f, n)
    assert len(series) == n + 1
    assert series[n] == brute_power_census(f, n)
    assert series[0] == brute_power_census(f, 0) == {ring.one: 1}


def test_the_ladder_is_refused_before_its_first_product(monkeypatch):
    # the generator checks n and the budget on its first step, before it
    # packs f or makes a product
    def never(*args, **kwargs):
        raise AssertionError("the ladder started")

    monkeypatch.setattr(oracle, "_mul_packed", never)
    monkeypatch.setattr(oracle, "_pack_terms", never)
    f = parse_poly("1+x", 1, F2)
    with pytest.raises(ValueError, match="negative exponent"):
        next(oracle._ladder(f, -1))
    with pytest.raises(BudgetError, match="100000000 products by 2 terms"):
        next(oracle._ladder(f, 10**8))
