import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from coeffcount.acceptance import vandermonde_poly
from coeffcount.ffield import Field
from coeffcount.mpoly import (
    BudgetError,
    ExponentPacker,
    MultiPoly,
    ParseError,
    ZZ,
    dense_coeffs,
    from_dense,
    linear_product,
    parse_poly,
)
from coeffcount.oracle import brute_power_census

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)
F9 = Field(3, 2)


def test_parse_basic():
    f = parse_poly("1 + x1 + x2 + x1*x2^2", 2, F2)
    assert f.num_terms == 4
    assert parse_poly("x1 - x1", 2, ZZ).is_zero()
    assert parse_poly("2*x1", 2, F2).is_zero()
    assert parse_poly("-3 + x", 1, ZZ).terms == {(0,): -3, (1,): 1}
    assert parse_poly("x^3", 1, F2).terms == {(3,): 1}


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_poly("x3", 2, ZZ)
    with pytest.raises(ParseError):
        parse_poly("1 + ", 1, ZZ)
    with pytest.raises(ParseError):
        parse_poly("x + y", 1, ZZ)
    with pytest.raises(ParseError):
        parse_poly("x", 2, ZZ)  # bare x needs k = 1
    with pytest.raises(ParseError):
        parse_poly("", 1, ZZ)
    err = None
    try:
        parse_poly("1 + ?", 1, ZZ)
    except ParseError as exc:
        err = exc
    assert err is not None and err.pos == 4


def test_parse_coefficients_by_the_field_encoding_rule():
    # over F_p a literal reduces mod p; over F_4 it must be an encoding
    assert parse_poly("5 + 7*x", 1, F3).terms == {(0,): 2, (1,): 1}
    assert parse_poly("3*x", 1, F4).terms == {(1,): 3}
    with pytest.raises(ParseError,
                       match=r"^encoding 7 out of range for F_4 \(at position 3\)$"):
        parse_poly("1+7*x", 1, F4)


def test_parse_collects_terms_without_polynomial_sums(monkeypatch):
    # one dict for the whole sum: a fold with + would copy it per term
    def no_add(self, other):
        raise AssertionError("parse_poly added polynomials")

    monkeypatch.setattr(MultiPoly, "__add__", no_add)
    f = parse_poly("+".join(f"x^{e}" for e in range(3000)), 1, F2)
    assert list(f.terms) == [(e,) for e in range(3000)]


_term_factor = st.one_of(
    st.integers(0, 3),
    st.tuples(st.integers(1, 2), st.integers(0, 2)),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([ZZ, F3, F4]),
       st.lists(st.tuples(st.booleans(), st.lists(_term_factor, min_size=1, max_size=3)),
                min_size=1, max_size=12))
def test_parse_matches_a_sum_of_single_terms(ring, signed_terms):
    # terms, their order and cancellation as a + fold of one-term polynomials
    texts = []
    expected = MultiPoly.zero(2, ring)
    for negative, factors in signed_terms:
        coeff, exps = ring.one, [0, 0]
        for fac in factors:
            if isinstance(fac, int):
                coeff = ring.mul(coeff, fac % ring.q if ring is F3 else fac)
            else:
                exps[fac[0] - 1] += fac[1]
        if negative:
            coeff = ring.neg(coeff)
        expected = expected + MultiPoly(2, ring, {tuple(exps): coeff})
        texts.append(("-" if negative else "+") + "*".join(
            str(fac) if isinstance(fac, int) else f"x{fac[0]}^{fac[1]}" for fac in factors))
    f = parse_poly("".join(texts), 2, ring)
    assert list(f.terms.items()) == list(expected.terms.items())


def test_mul_cancellation():
    a = parse_poly("1+x1+x2", 3, F2)
    b = parse_poly("1+x2+x3", 3, F2)
    assert (a * b).num_terms == 7  # the x2 cross terms cancel mod 2
    sq = parse_poly("1+x", 1, F2)
    assert (sq * sq).terms == {(0,): 1, (2,): 1}


def test_pow_examples():
    f = parse_poly("1+x", 1, F2)
    assert f.pow(3).terms == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}
    assert f.pow(0) == MultiPoly.one(1, F2)
    tri = parse_poly("1+x+x^2", 1, F2)
    for k in range(5):
        assert tri.pow(2**k).terms == {(0,): 1, (2**k,): 1, (2 ** (k + 1),): 1}


def test_census_and_degrees():
    f = parse_poly("1+x", 1, F2).pow(11)
    census = f.coeff_census()
    total = sum(census.values())
    assert census == {1: 8} and total == 8
    assert MultiPoly.zero(1, ZZ).coeff_census() == {}
    g = parse_poly("1+x+x^2", 1, F3).pow(2)
    assert g.coeff_census() == {1: 2, 2: 2}
    assert parse_poly("1+x1+x2+x1*x2^2", 2, ZZ).var_degrees() == (1, 2)
    assert parse_poly("1", 3, ZZ).var_degrees() == (0, 0, 0)
    assert parse_poly("1+x", 1, F2).pow(4).var_degrees() == (4,)
    with pytest.raises(ValueError):
        MultiPoly.zero(1, ZZ).var_degrees()


def test_univariate_zero_count_complement():
    # N(f) + N_0(f) = 1 + deg f
    f = parse_poly("1+x+x^3", 1, F2).pow(9)
    census = f.coeff_census()
    total = sum(census.values())
    deg = f.var_degrees()[0]
    zeros = deg + 1 - total
    assert total + zeros == 1 + deg and zeros >= 0


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-3, 3),
        max_size=4,
    ),
    st.integers(0, 5),
    st.integers(0, 3),
)
def test_pow_is_homomorphic(terms, m, n):
    f = MultiPoly(2, ZZ, terms)
    assert f.pow(m + n) == f.pow(m) * f.pow(n)


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(0, 2),
        max_size=5,
    )
)
def test_field_pow_p_is_frobenius(terms):
    # f^p = f(x^p) with every coefficient raised to the p-th power
    f = MultiPoly(2, F3, terms)
    if f.is_zero():
        return
    image = MultiPoly(2, F3, {(3 * e1, 3 * e2): F3.pow(c, 3)
                              for (e1, e2), c in f.terms.items()})
    assert f.pow(3) == image
    assert brute_power_census(f, 3) == image.coeff_census()


def test_field_pow_matches_oracle():
    # square-and-multiply over F_3 against the oracle's repeated products
    f = parse_poly("1+x1+2*x2^2+x1*x2", 2, F3)
    for n in (4, 7, 11):
        assert f.pow(n).coeff_census() == brute_power_census(f, n)


def test_budget_error():
    f = parse_poly("1+x1+x2+x3", 3, ZZ)
    with pytest.raises(BudgetError):
        f.pow(40, budget=500)


def test_mul_bounds_the_exponent_width():
    # the top exponent of the product decides the key width; 2^64 - 2 still fits
    f = MultiPoly(1, ZZ, {(0,): 1, (2**63 - 1,): 1})
    assert list(f.mul(f).terms.items()) == [
        ((0,), 1), ((2**63 - 1,), 2), ((2**64 - 2,), 1)]
    g = MultiPoly(1, ZZ, {(0,): 1, (2**63,): 1})
    with pytest.raises(BudgetError, match=str(2**64)):
        g.mul(g)
    with pytest.raises(BudgetError):
        parse_poly("1+x", 1, F2).pow(2**64)
    # the width comes from the product's exact degrees, not from stacked bounds:
    # (2^62, 2^62) + (2^63, 0) stays below 2^64 in each variable
    x62, y62, x63 = (MultiPoly(2, ZZ, {e: 1}) for e in
                     ((2**62, 0), (0, 2**62), (2**63, 0)))
    assert (x62 * y62 * x63).terms == {(2**62 + 2**63, 2**62): 1}
    assert (x63 * x62 * y62).var_degrees() == (2**62 + 2**63, 2**62)
    y63 = MultiPoly(2, ZZ, {(0, 2**63): 1})
    assert (x63 * y63).terms == {(2**63, 2**63): 1}


def _schoolbook(f, g):
    """f * g on tuple keys, larger operand inner, as MultiPoly.mul orders it."""
    ring = f.ring
    a, b = f.terms, g.terms
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for e2, c2 in b.items():
        for e1, c1 in a.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            c = ring.mul(c1, c2)
            out[exp] = ring.add(out[exp], c) if exp in out else c
    return {e: c for e, c in out.items() if c}


# exponents at the edges of the 1-, 2-, 4- and 8-byte key fields
EDGE_EXPONENTS = st.one_of(
    st.integers(0, 3),
    st.sampled_from([127, 128, 255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**63 - 1]),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([ZZ, F2, F3, F4, F9]), st.integers(0, 4), st.data())
def test_mul_matches_tuple_schoolbook(ring, k, data):
    coeffs = st.integers(-3, 3) if ring is ZZ else st.integers(0, ring.q - 1)
    exps = st.lists(EDGE_EXPONENTS, min_size=k, max_size=k).map(tuple)
    f, g = (MultiPoly(k, ring, data.draw(st.dictionaries(exps, coeffs, max_size=6)))
            for _ in range(2))
    got = f.mul(g).terms
    want = _schoolbook(f, g)
    assert got == want
    assert list(got) == list(want)  # same insertion order
    assert all(got.values())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([ZZ, F2, F3, F4, F9]), st.integers(0, 3), st.data())
def test_mul_chains_stay_packed_until_read(ring, k, data):
    # Each step multiplies the running product by an operand built from
    # tuples or by another product, on either side, and is checked against
    # the tuple schoolbook on eagerly held copies before and after unpacking.
    # Operands with small exponents keep a product on 1-byte fields until an
    # operand at a field edge makes the next product repack it.
    coeffs = st.sampled_from([-3, -2, -1, 1, 2, 3] if ring is ZZ else range(1, ring.q))
    small, edge = (st.lists(e, min_size=k, max_size=k).map(tuple)
                   for e in (st.integers(0, 3), EDGE_EXPONENTS))

    def operand():
        exps = data.draw(st.sampled_from([small, edge]))
        terms = data.draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4))
        return MultiPoly(k, ring, terms), MultiPoly(k, ring, terms)

    def product(lazy_pair, eager_pair):
        want = _schoolbook(*eager_pair)
        if any(e >> 64 for exp in want for e in exp):
            with pytest.raises(BudgetError, match="2\\^64"):
                lazy_pair[0].mul(lazy_pair[1])
            return None, None
        got = lazy_pair[0].mul(lazy_pair[1])
        eager = MultiPoly(k, ring, want, _clean=True)
        assert got.num_terms == eager.num_terms
        assert got.is_zero() == eager.is_zero()
        assert got.var_degrees() == eager.var_degrees()  # operands are nonzero
        assert got._terms is None  # none of the queries above unpacked it
        return got, eager

    lazy, eager = operand()
    for _ in range(data.draw(st.integers(2, 5))):
        if eager.num_terms > 256:  # keeps each example small
            break
        other, other_eager = operand()
        if data.draw(st.booleans()):
            second, second_eager = operand()
            other, other_eager = product((other, second), (other_eager, second_eager))
            if other is None:
                return
        if data.draw(st.booleans()):
            lazy, eager = product((lazy, other), (eager, other_eager))
        else:
            lazy, eager = product((other, lazy), (other_eager, eager))
        if lazy is None:
            return
        if data.draw(st.booleans()):
            # read now, so that the next product reuses a packed dict whose
            # tuple dict is already cached
            assert lazy == eager and hash(lazy) == hash(eager)
            assert list(lazy.terms.items()) == list(eager.terms.items())
    assert list(lazy.terms.items()) == list(eager.terms.items())
    assert lazy == eager and hash(lazy) == hash(eager)


def test_dense_roundtrip():
    f = parse_poly("1+2*x^3", 1, ZZ)
    assert dense_coeffs(f) == [1, 0, 0, 2]
    assert from_dense([1, 0, 0, 2], ZZ) == f
    assert dense_coeffs(MultiPoly.zero(1, ZZ)) == []


def test_repr_is_graded_lex():
    f = parse_poly("x1*x2 + x2^3 + 1 + x1", 2, ZZ)
    assert repr(f) == "1 + x1 + x1*x2 + x2^3"


def test_linear_product():
    # a constant term and a coefficient of -1, as in the plus-minus chains
    chain = linear_product(2, ZZ, [{None: 1, 0: -1, 1: 1}])
    assert chain == parse_poly("1-x1+x2", 2, ZZ)
    assert linear_product(3, ZZ, [{None: 2, 2: 1}, {0: 1, 1: -1}]).terms == {
        (1, 0, 0): 2, (0, 1, 0): -2, (1, 0, 1): 1, (0, 1, 1): -1}
    # an empty form, or one whose coefficients vanish, is the zero polynomial
    assert linear_product(2, ZZ, [{0: 1}, {}]).is_zero()
    assert linear_product(1, F2, [{None: 0, 0: 0}]).is_zero()
    # k = 1, and a repeated form is one product per occurrence
    cube = linear_product(1, F2, [{None: 1, 0: 1}] * 3)
    assert cube == parse_poly("1+x+x^2+x^3", 1, F2)
    form = {0: 1, 1: 1}
    assert linear_product(2, ZZ, [form, form]) == parse_poly("x1^2+2*x1*x2+x2^2", 2, ZZ)
    # no forms: the empty product is 1
    assert linear_product(3, ZZ, []) == MultiPoly.one(3, ZZ)
    # the product comes back with its terms already unpacked
    assert linear_product(3, ZZ, [form, form, {2: 1}])._terms is not None
    with pytest.raises(ValueError):
        linear_product(2, ZZ, [{2: 1}])
    with pytest.raises(ValueError):
        linear_product(2, ZZ, [{-1: 1}])


def test_vandermonde_matches_written_out_product():
    for nvars in range(1, 5):
        for field in (F2, F3, F4):
            factors = [parse_poly(f"x{i}+x{j}", nvars, field)
                       for i, j in itertools.combinations(range(1, nvars + 1), 2)]
            want = functools.reduce(MultiPoly.mul, factors, MultiPoly.one(nvars, field))
            assert vandermonde_poly(nvars, field) == want, (nvars, field)
            assert (vandermonde_poly(nvars, field, plus_one=True)
                    == want + MultiPoly.one(nvars, field))


def test_exponent_packer():
    packer = ExponentPacker([3, 0, 8])  # widths 2, 1 and 4 bits
    assert packer.pack((3, 0, 8)) == 3 | 8 << 3
    for a in itertools.product(range(2), range(1), range(5)):
        assert packer.unpack(packer.pack(a)) == a
        for b in itertools.product(range(2), range(1), range(4)):
            s = tuple(x + y for x, y in zip(a, b))
            assert packer.pack(a) + packer.pack(b) == packer.pack(s)
    f = parse_poly("x1^2*x3 + 1 + x1", 3, ZZ)
    assert packer.pack_terms(f) == [(0, 1), (1, 1), (2 | 1 << 3, 1)]
