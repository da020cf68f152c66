import functools

import pytest
from hypothesis import given, strategies as st

from coeffcount import unipoly
from coeffcount.ffield import (
    Field,
    FieldError,
    find_irreducible,
    is_primitive,
)
from coeffcount.mpoly import dense_coeffs, parse_poly
from coeffcount.unipoly import prime_factors

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)


def test_basic_arithmetic():
    one = F2.elem(1)
    assert (one + one).val == 0
    two = F3.elem(2)
    assert (two * two).val == 1
    # F4 with modulus x^2 + x + 1: x * x = x + 1
    x = F4.elem([0, 1])
    assert (x * x).coeffs == (1, 1)


def test_field_elem_operators():
    a, b = F3.elem(2), F3.elem(2)
    assert (a + b).val == 1
    assert (a * b).val == 1
    assert (a / b).val == 1
    assert (a - F3.elem(0)).val == 2
    assert (a ** 2).val == 1
    with pytest.raises(ZeroDivisionError):
        a / F3.elem(0)
    with pytest.raises(FieldError):
        a + F2.elem(1)


def test_division_inverts():
    for field in (F2, F3, F4, Field(5), Field(3, 2)):
        for a in range(1, field.q):
            assert field.mul(a, field.inv(a)) == 1
            assert field.div(field.mul(a, 3 % field.q or 1), a) in range(field.q)


@pytest.mark.parametrize("field", [F2, F3, F4, Field(2, 3), Field(3, 2), Field(3, 4)])
def test_frobenius_additive(field):
    # (a + b)^p = a^p + b^p, exhaustively for q <= 81
    p = field.p
    for a in range(field.q):
        for b in range(field.q):
            lhs = field.pow(field.add(a, b), p)
            rhs = field.add(field.pow(a, p), field.pow(b, p))
            assert lhs == rhs


def test_find_irreducible_values():
    assert find_irreducible(2, 2) == (1, 1, 1)
    assert find_irreducible(2, 1) == (0, 1)
    assert find_irreducible(3, 2) == (1, 0, 1)


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (5, 2)])
def test_find_irreducible_has_no_roots(p, r):
    mod = find_irreducible(p, r)
    for a in range(p):
        val = sum(c * a**i for i, c in enumerate(mod)) % p
        assert val != 0
    # and constructing the field with it validates irreducibility
    Field(p, r, mod)


def _monic_polys(field, d):
    """Monic polynomials of degree d, ascending in a_0 + a_1 q + ... as
    find_irreducible scans them."""
    for v in range(field.q**d):
        coeffs = []
        for _ in range(d):
            v, c = divmod(v, field.q)
            coeffs.append(c)
        yield coeffs + [1]


@functools.lru_cache(maxsize=None)
def _irreducibles(field, d):
    return [a for a in _monic_polys(field, d) if _irreducible_by_trial_division(field, a)]


def _irreducible_by_trial_division(field, a):
    """The reference: no monic polynomial of degree 1..n/2 divides a.  A
    divisor has an irreducible factor of no larger degree, so only the
    irreducible ones, found the same way, are tried."""
    n = unipoly.deg(a)
    return n > 0 and all(unipoly.mod(field, a, g)
                         for d in range(1, n // 2 + 1)
                         for g in _irreducibles(field, d))


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_is_irreducible_matches_trial_division(field):
    for d in range(7):
        for a in _monic_polys(field, d):
            assert unipoly.is_irreducible(field, a) == \
                _irreducible_by_trial_division(field, a), a
    # the answer ignores a scalar factor and trailing zeros
    for a in _monic_polys(field, 3):
        scaled = unipoly.scalar_mul(field, field.q - 1, a) + [0]
        assert unipoly.is_irreducible(field, scaled) == unipoly.is_irreducible(field, a)


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (3, 2),
                                 (3, 3), (3, 4), (5, 2), (5, 3)])
def test_find_irreducible_is_first_by_trial_division(p, r):
    prime = Field(p)
    first = next(a for a in _monic_polys(prime, r)
                 if _irreducible_by_trial_division(prime, a))
    assert find_irreducible(p, r) == tuple(first)


def test_bad_modulus_rejected():
    with pytest.raises(FieldError):
        Field(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(FieldError):
        Field(4)  # not prime
    with pytest.raises(FieldError):
        Field(2, 20)  # q over the cap


def test_is_primitive_examples():
    g = dense_coeffs(parse_poly("1+x^2+x^5", 1, F2))
    assert is_primitive(g, F2)
    g = dense_coeffs(parse_poly("1+x+x^2+x^3+x^4", 1, F2))
    assert not is_primitive(g, F2)
    g = dense_coeffs(parse_poly("2+x+x^2", 1, F3))
    assert is_primitive(g, F3)
    with pytest.raises(FieldError):
        # reducible input
        is_primitive(dense_coeffs(parse_poly("1+x^2", 1, F2)), F2)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(2) == [2]
    assert prime_factors(12) == [2, 3]
    assert prime_factors(4095) == [3, 5, 7, 13]  # 3^2 * 5 * 7 * 13
    assert prime_factors(242) == [2, 11]  # 2 * 11^2


F81 = Field(3, 4)


@given(st.integers(min_value=0, max_value=80))
def test_elem_roundtrip_f81(val):
    e = F81.elem(val)
    assert F81.encode(e.coeffs) == val


def test_elem_parsing_and_repr():
    assert F3.elem(-1).val == 2
    assert F4.elem([1, 1]).val == 3
    assert repr(F4.elem(2)) == "F4(a)"
    with pytest.raises(FieldError):
        F4.elem(7)
