import functools
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from coeffcount import ffield, unipoly
from coeffcount.ffield import (
    Field,
    FieldError,
    base_digits,
    find_irreducible,
    is_primitive,
)
from coeffcount.mpoly import dense_coeffs, parse_poly
from coeffcount.unipoly import prime_factors

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)
F9 = Field(3, 2)


def test_basic_arithmetic():
    assert F2.add(1, 1) == 0
    assert F3.mul(2, 2) == 1
    # F4 with modulus x^2 + x + 1: x * x = x + 1
    assert F4.coeffs(F4.mul(2, 2)) == (1, 1)


def test_field_operators():
    assert F3.add(2, 2) == 1
    assert F3.mul(2, 2) == 1
    assert F3.mul(2, F3.inv(2)) == 1
    assert F3.sub(2, 0) == 2
    assert F3.pow(2, 2) == 1
    with pytest.raises(ZeroDivisionError):
        F3.inv(0)


def test_division_inverts():
    # every field here is tabled: inv reads a table, and _scale[c] is a
    # bytes.translate table multiplying each element by c
    for field in (F2, F3, F4, Field(5), Field(2, 3), F9, Field(3, 3), Field(2, 8)):
        assert field._inv is not None
        elems = bytes(range(field.q))
        for a in range(1, field.q):
            assert field.mul(a, field.inv(a)) == 1
            assert field.add(a, field.neg(a)) == 0
            b = 3 % field.q or 1
            assert field.mul(field.mul(b, a), field.inv(a)) == b
        for c in range(field.q):
            assert elems.translate(field._scale[c]) == bytes(field.mul(c, v) for v in elems)
        with pytest.raises(ZeroDivisionError):
            field.inv(0)


@pytest.mark.parametrize("p, r", [
    (2, 1), (3, 1), (251, 1),
    (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6),
    (3, 4), (11, 2), (5, 3), (2, 7), (13, 2), (3, 5), (2, 8),
])
def test_log_tables_match_slow_path(p, r):
    # every tabled extension field and some prime fields: the discrete-log
    # tables against the slow digit-wise add and polynomial mul, all pairs
    # of a prime field or up to q = 64, and fixed rows above it
    field = Field(p, r)
    q = field.q
    rows = range(q) if q <= 64 or r == 1 else (0, 1, 2, p, q // 2, q - 2, q - 1)
    for a in rows:
        assert field._add[a] == [field._slow_add(a, b) for b in range(q)]
        assert field._mul[a] == [field._slow_mul(a, b) for b in range(q)]
        assert field._scale[a] == bytes(field._mul[a]).ljust(256, b"\0")
    for a in range(1, q):
        assert field._slow_mul(a, field._inv[a]) == 1


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


def _power(field, a, m):
    return functools.reduce(lambda acc, _: unipoly.mul(field, acc, a), range(m), [1])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_squarefree_decomposition(data):
    # factors raised to multiples of p make f' vanish, so over F_4 and F_9
    # the p-th root is taken in an extension field
    field = data.draw(st.sampled_from([F2, F3, F4, F9]))
    p = field.p
    coeff = st.integers(0, field.q - 1)
    f = [data.draw(st.integers(1, field.q - 1))]  # a nonzero scalar
    for m in [p] + data.draw(st.lists(st.sampled_from([1, 2, p, p + 1, 2 * p, p * p]),
                                      max_size=2)):
        base = data.draw(st.lists(coeff, min_size=1, max_size=2)) + [1]
        f = unipoly.mul(field, f, _power(field, base, m))
    parts = unipoly.squarefree_decomposition(field, f)
    product = [1]
    for g, m in parts:
        assert m >= 1 and g[-1] == 1
        dg = unipoly.trim([field.mul(i % p, g[i]) for i in range(1, len(g))])  # g'
        assert dg and unipoly.deg(unipoly.gcd(field, g, dg)) == 0  # squarefree
        product = unipoly.mul(field, product, _power(field, g, m))
    assert product == unipoly.monic(field, f)
    for (g, _), (h, _) in itertools.combinations(parts, 2):
        assert unipoly.deg(unipoly.gcd(field, g, h)) == 0


def _multiplicity(field, f, a):
    """How many times a divides f exactly."""
    m = 0
    while unipoly.deg(f) >= unipoly.deg(a):
        f, rem = unipoly.divmod_(field, f, a)
        if rem:
            break
        m += 1
    return m


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_degree_chains_match_trial_division(data):
    # multiplicities p and 2p make f' vanish on those factors, so over F_4
    # and F_9 they are p-th powers in an extension field
    field = data.draw(st.sampled_from([F2, F3, F4, F9]))
    p = field.p
    built = {}
    f = [data.draw(st.integers(1, field.q - 1))]  # a nonzero scalar
    for _ in range(data.draw(st.integers(1, 4))):
        a = data.draw(st.sampled_from(_irreducibles(field, data.draw(st.integers(1, 3)))))
        m = data.draw(st.sampled_from([1, 2, 3, p, p + 1, 2 * p]))
        built[tuple(a)] = built.get(tuple(a), 0) + m
        f = unipoly.mul(field, f, _power(field, a, m))
    chains = list(unipoly.degree_chains(field, f))
    # every factor has degree <= 3, so trial division finds them all
    found = {}
    for d in range(1, 4):
        for a in _irreducibles(field, d):
            m = _multiplicity(field, f, a)
            if m:
                found.setdefault(d, []).append((a, m))

    def product(polys):
        return functools.reduce(lambda acc, a: unipoly.mul(field, acc, a), polys, [1])

    assert chains == [(d, [product(a for a, m in found[d] if m >= j)
                           for j in range(1, max(m for _, m in found[d]) + 1)])
                      for d in sorted(found)]
    assert unipoly.radical(field, f) == product(a for d in found for a, _ in found[d])
    assert math.lcm(*(d for d, _ in chains)) == math.lcm(*map(unipoly.deg, built))
    assert max(len(chain) for _, chain in chains) == max(built.values())


def test_bad_modulus_rejected():
    with pytest.raises(FieldError, match="not irreducible"):
        Field(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(FieldError, match="monic of degree 2"):
        Field(3, 2, (2, 0, 2))  # 2(x^2 + 1): irreducible over F_3, not monic
    with pytest.raises(FieldError, match="monic of degree 3"):
        Field(2, 3, (1, 1, 1))  # degree 2 given for r = 3
    with pytest.raises(FieldError):
        Field(4)  # not prime
    with pytest.raises(FieldError):
        Field(2, 20)  # q over the cap
    # modulus digits are read by Field.encoding: reduced mod p, never truncated
    with pytest.raises(FieldError, match=r"^1\.5 is not an integer$"):
        Field(2, 2, (1.5, 1.9, 1))
    assert Field(3, 2, (-1, -2, 1)).modulus == (2, 1, 1)


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
    assert sum(c * 3**i for i, c in enumerate(F81.coeffs(val))) == val


@pytest.mark.parametrize("field", [F2, F3, F4, F9, F81, Field(2, 9), Field(3, 6)],
                         ids=["F2", "F3", "F4", "F9", "F81", "F512", "F729"])
def test_coeffs_are_the_padded_base_p_digits(field):
    # every coordinate tuple has r entries in [0, p), whatever a's top digits
    for a in range(field.q):
        coeffs = field.coeffs(a)
        assert len(coeffs) == field.r and all(0 <= c < field.p for c in coeffs)
        assert sum(c * field.p**i for i, c in enumerate(coeffs)) == a
    assert base_digits(field.q - 1, field.p) == [field.p - 1] * field.r


@pytest.mark.parametrize("p", [0, 1, 4, 9, 256])
def test_find_irreducible_refuses_a_p_that_is_not_prime(p):
    # the Field(p) it builds refuses p with the text Field(p) itself raises
    with pytest.raises(FieldError, match=f"^{p} is not prime$"):
        find_irreducible(p, 2)
    with pytest.raises(FieldError, match=f"^{p} is not prime$"):
        find_irreducible(p, 1)
    with pytest.raises(FieldError, match=f"^{p} is not prime$"):
        Field(p, 2)


def test_encoding_rule():
    assert F3.encoding(-1) == 2
    assert F3.encoding(7) == 1
    assert F4.encoding(3) == 3
    with pytest.raises(FieldError, match="encoding 7 out of range for F_4"):
        F4.encoding(7)
    with pytest.raises(FieldError):
        F4.encoding(-1)
    # not truncated: an integer-valued float or a digit string is refused too
    for value in (1.9, 2.0, "5"):
        with pytest.raises(FieldError, match=f"^{value!r} is not an integer$"):
            F3.encoding(value)


F257 = Field(257)
F512 = Field(2, 9)


def test_untabled_prime_field_matches_integers_mod_p():
    # q = 257 is past the table limit: every operation takes the slow path
    assert F257._add is None and F257._mul is None
    for a in range(257):
        assert F257.neg(a) == -a % 257
        for b in range(257):
            assert F257.add(a, b) == (a + b) % 257
            assert F257.mul(a, b) == a * b % 257
        if a:
            assert F257.inv(a) * a % 257 == 1


@pytest.mark.parametrize("field", [F512, Field(3, 6)])
def test_untabled_extension_negation(field):
    # the digit-wise negation equals multiplication by -1 (encoded p - 1)
    assert field._mul is None
    for a in range(field.q):
        assert field.add(a, field.neg(a)) == 0
        assert field.neg(a) == field.mul(field.p - 1, a)


@given(st.integers(min_value=1, max_value=511),
       st.integers(min_value=0, max_value=511))
def test_untabled_extension_field(a, b):
    assert F512._mul is None
    assert F512.mul(a, F512.inv(a)) == 1
    assert F512.add(a, F512.neg(a)) == 0
    square = F512.pow(F512.add(a, b), 2)
    assert square == F512.add(F512.pow(a, 2), F512.pow(b, 2))


@pytest.mark.parametrize("args, message", [
    ((2, 100_000_000), "field size 2^100000000 exceeds the cap 65536"),
    ((2, 99_999_999_999), "field size 2^99999999999 exceeds the cap 65536"),
    ((3, 17), "field size 3^17 exceeds the cap 65536"),
    ((3, 11), "field size 177147 exceeds the cap 65536"),
    ((256, 10**9), "256 is not prime"),
    ((5, 1, (1, 2, 3)), "modulus must be monic of degree 1"),
    ((5, 1, (3, 2)), "modulus must be monic of degree 1"),
    ((7, 2, (1, 0, 0, 1)), "modulus must be monic of degree 2"),
], ids=["2^10^8", "2^huge", "3^17", "3^11", "not-prime-first", "r1-degree-2",
        "r1-not-monic", "r2-degree-3"])
def test_field_refuses_its_size_and_modulus_before_it_computes(monkeypatch, args, message):
    # 2^r past the cap is refused before p^r is formed or printed, and a
    # modulus given for r = 1 is checked as for r > 1
    def never(*args):
        raise AssertionError("find_irreducible ran")

    monkeypatch.setattr(ffield, "find_irreducible", never)
    with pytest.raises(FieldError) as err:
        Field(*args)
    assert str(err.value) == message


def test_a_monic_linear_modulus_gives_the_prime_field():
    # every monic linear polynomial is irreducible; the stored modulus stays x
    assert Field(5, 1, (3, 1)) == Field(5)
    assert Field(5, 1, (-2, 6)).modulus == (0, 1)
