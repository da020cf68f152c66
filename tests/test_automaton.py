import ast
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from coeffcount import automaton
from coeffcount.automaton import (
    AutomatonError,
    DigitAutomaton,
    StateCapError,
    base_digits,
    build_automaton,
)
from coeffcount.acceptance import vandermonde_poly
from coeffcount.ffield import Field, FieldError
from coeffcount.mpoly import MultiPoly, limits, parse_poly
from coeffcount.oracle import brute_power_census, power_census_series

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)


def test_worked_example_structure():
    A = build_automaton(parse_poly("1+x", 1, F2))
    assert A.state_count == 2
    assert A.count(11, 1) == 8
    assert [A.count(2**m - 1, 1) for m in range(6)] == [1, 2, 4, 8, 16, 32]
    # the section pattern census of (1+x)^3 under mod-8 slicing is [4, 4]
    vec = A.start_vector()
    for digit in (1, 1, 0):
        vec = A.apply_digit(digit, vec)
    assert sorted(vec) == [4, 4]
    # the walk yields the start vector, then the vector after each digit
    walked = list(A.walk([1, 1, 0]))
    assert len(walked) == 4
    assert walked[0] == A.start_vector() and walked[-1] == vec


def test_constant_polynomial():
    # the pattern of 1 plus the absorbing zero pattern
    A = build_automaton(MultiPoly.one(1, F2))
    assert A.state_count <= 2
    for n in (0, 1, 5, 100):
        assert A.count(n, 1) == 1


def test_zero_alpha_rejected():
    A = build_automaton(parse_poly("1+x", 1, F2))
    with pytest.raises(ValueError):
        A.count(3, 0)


def test_non_integer_alpha_rejected():
    # alpha = 1.9 is refused, not counted as alpha = 1
    A = build_automaton(parse_poly("1+x", 1, F3))
    with pytest.raises(FieldError, match="1.9"):
        A.count(10, 1.9)


def test_agreement_with_oracle_small_fields():
    cases = [
        (parse_poly("1+x1+x2+x1*x2^2", 2, F2), 40),
        (parse_poly("2+x+x^2", 1, F3), 40),
        (parse_poly("1+2*x+x^2", 1, F4), 40),
    ]
    for f, n_max in cases:
        A = build_automaton(f)
        series = power_census_series(f, n_max)
        for n in range(n_max + 1):
            for alpha in range(1, f.ring.q):
                assert A.count(n, alpha) == series[n].get(alpha, 0), (n, alpha)


def test_two_variable_quartic_field():
    # q = 4, k = 2: sixteen sections per transition column
    f = parse_poly("1+x1+2*x2+3*x1*x2^2", 2, F4)
    A = build_automaton(f)
    assert A.column_sum_violations() == []
    series = power_census_series(f, 20)
    for n in range(21):
        for alpha in range(1, 4):
            assert A.count(n, alpha) == series[n].get(alpha, 0), (n, alpha)


def test_four_variable_vandermonde():
    f = vandermonde_poly(4, F2)
    A = build_automaton(f)
    series = power_census_series(f, 16)
    for n in range(17):
        assert A.count(n, 1) == series[n].get(1, 0), n
    reps = A.repunit_counts(1, 6)
    assert reps == [1] + [5 * 8**n - 8 * 2**n for n in range(1, 6)]


def test_repunit_base_digit():
    # digits of (q^m - 1)/(q - 1) * d are all d; check via direct counts
    f = parse_poly("2+x+x^2", 1, F3)
    A = build_automaton(f)
    for base_digit in (1, 2):
        seq = A.read_counts(1, list(A.walk([base_digit] * 4)))
        for m in range(5):
            n = base_digit * (3**m - 1) // 2
            assert seq[m] == A.count(n, 1) == brute_power_census(f, n, 1)


def test_prefix_counting():
    f = parse_poly("1+x", 1, F2)
    g = parse_poly("1+x+x^3", 1, F2)
    A = build_automaton(f, prefix=g)
    for n in (0, 1, 5, 12, 30):
        want = brute_power_census(g * f.pow(n), 1, 1)
        assert A.count(n, 1) == want
    for n in (0, 7, 30):
        assert A.census(n) == (g * f.pow(n)).coeff_census()
    # every walk starts at the prefix's state, the repunit walk too
    assert A.repunit_counts(1, 6) == [brute_power_census(g * f.pow(2**m - 1), 1, 1)
                                      for m in range(6)]


def test_prefix_must_match_f():
    f = parse_poly("1+x", 1, F2)
    for prefix in (parse_poly("1+x1", 2, F2), parse_poly("1+x", 1, F3)):
        with pytest.raises(AutomatonError, match="prefix polynomial does not match f"):
            DigitAutomaton(f, prefix=prefix)


CENSUS_FIELDS = {2: Field(2), 3: F3, 4: F4, 5: Field(5), 7: Field(7),
                 8: Field(2, 3), 9: Field(3, 2)}
CENSUS_STATE_CAP = 5000


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(sorted(CENSUS_FIELDS)),
    k=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_census_matches_oracle(q, k, data):
    # one digit product and q - 1 dot products against plain multiplication
    field = CENSUS_FIELDS[q]
    exps = data.draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * k),
        min_size=1, max_size=4, unique=True))
    coeffs = data.draw(st.lists(st.integers(min_value=1, max_value=q - 1),
                                min_size=len(exps), max_size=len(exps)))
    f = MultiPoly(k, field, dict(zip(exps, coeffs)))
    n = data.draw(st.integers(min_value=0, max_value=40))
    # some draws over F_5..F_9 pass 100000 states and take minutes to
    # build; test_state_cap covers the refusal itself
    try:
        with limits(states=CENSUS_STATE_CAP):
            A = build_automaton(f)
    except StateCapError:
        assume(False)
    census = A.census(n)
    assert census == brute_power_census(f, n)
    assert census == {a: A.count(n, a) for a in range(1, q) if A.count(n, a)}


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from(sorted(CENSUS_FIELDS)),
    k=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_census_and_zeros_fill_the_slots(q, k, data):
    # the automaton's census plus the zeros of the plain expansion cover
    # every slot of the box prod [0, n * deg_i f] exactly once
    field = CENSUS_FIELDS[q]
    exps = data.draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=2)] * k),
        min_size=1, max_size=4, unique=True))
    coeffs = data.draw(st.lists(st.integers(min_value=1, max_value=q - 1),
                                min_size=len(exps), max_size=len(exps)))
    f = MultiPoly(k, field, dict(zip(exps, coeffs)))
    n = data.draw(st.integers(min_value=0, max_value=12))
    try:
        with limits(states=CENSUS_STATE_CAP):
            A = build_automaton(f)
    except StateCapError:
        assume(False)
    g = f.pow(n)
    box = itertools.product(*(range(n * d + 1) for d in f.var_degrees()))
    zeros = sum(1 for e in box if e not in g.terms)
    slots = math.prod(n * d + 1 for d in f.var_degrees())
    assert sum(A.census(n).values()) + zeros == slots


def test_base_digits():
    assert base_digits(3**40 - 1, 3) == [2] * 40
    with pytest.raises(ValueError):
        base_digits(-1, 2)
    with pytest.raises(ValueError):
        build_automaton(parse_poly("1+x", 1, F2)).census(-5)


UNCLOSED_FIELDS = {2: F2, 3: F3, 4: F4, 5: Field(5)}
UNCLOSED_STATE_CAP = 400


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(sorted(UNCLOSED_FIELDS)),
    k=st.integers(min_value=1, max_value=2),
    data=st.data(),
)
def test_unclosed_automaton_matches_closed(q, k, data):
    # columns made on demand give the closed automaton's counts, whatever
    # order the walks discover the states in
    field = UNCLOSED_FIELDS[q]
    exps = data.draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=2)] * k),
        min_size=1, max_size=3, unique=True))
    coeffs = data.draw(st.lists(st.integers(min_value=1, max_value=q - 1),
                                min_size=len(exps), max_size=len(exps)))
    f = MultiPoly(k, field, dict(zip(exps, coeffs)))
    try:
        with limits(states=UNCLOSED_STATE_CAP):
            closed = build_automaton(f)
    except StateCapError:
        assume(False)
    digits = st.lists(st.integers(min_value=0, max_value=q - 1), max_size=5)
    early_digits = data.draw(digits)
    prefix = data.draw(digits)
    repeated = [data.draw(st.integers(min_value=1, max_value=q - 1))] * 4
    n = data.draw(st.integers(min_value=0, max_value=q**5))
    alpha = data.draw(st.integers(min_value=1, max_value=q - 1))

    lazy = DigitAutomaton(f)
    assert lazy.state_count == 1  # only the pattern of 1
    # vectors made before the walks below discover more states
    early = list(lazy.walk(early_digits))
    assert lazy.count(n, alpha) == closed.count(n, alpha)
    assert lazy.census(n) == closed.census(n)
    assert lazy.repunit_counts(alpha, 5) == closed.repunit_counts(alpha, 5)
    walked = prefix + repeated
    assert (lazy.read_counts(alpha, list(lazy.walk(walked)))
            == closed.read_counts(alpha, list(closed.walk(walked))))
    assert (lazy.read_counts(alpha, early)
            == closed.read_counts(alpha, list(closed.walk(early_digits))))
    assert lazy.state_count <= closed.state_count

    assert lazy.close() is lazy
    assert lazy.state_count == closed.state_count
    assert set(lazy.states) == set(closed.states)
    assert not lazy.column_sum_violations()
    assert lazy.census(n) == closed.census(n)
    assert lazy.repunit_counts(alpha, 5) == closed.repunit_counts(alpha, 5)


def _zero_run_exponent(data, q):
    """n from 1-4 digit blocks below q^3 with 0-40 zero digits after each."""
    n, place = 0, 0
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        n += data.draw(st.integers(min_value=0, max_value=q**3 - 1)) * q**place
        place += 3 + data.draw(st.integers(min_value=0, max_value=40))
    return n


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(sorted(UNCLOSED_FIELDS)),
    k=st.integers(min_value=1, max_value=2),
    data=st.data(),
)
def test_run_jumps_match_the_plain_walk(q, k, data):
    # count and census jump runs that leave the vector fixed off the zero
    # state; the jumped end vector must be the plain walk's, zero entry too
    field = UNCLOSED_FIELDS[q]
    polys = st.lists(st.tuples(*[st.integers(min_value=0, max_value=2)] * k),
                     min_size=1, max_size=3, unique=True)
    exps = data.draw(polys)
    coeffs = data.draw(st.lists(st.integers(min_value=1, max_value=q - 1),
                                min_size=len(exps), max_size=len(exps)))
    f = MultiPoly(k, field, dict(zip(exps, coeffs)))
    prefix = None
    if data.draw(st.booleans()):
        prefix_exps = data.draw(polys)
        prefix = MultiPoly(k, field, {e: 1 for e in prefix_exps})
    try:
        with limits(states=UNCLOSED_STATE_CAP):
            closed = build_automaton(f, prefix=prefix)
    except StateCapError:
        assume(False)
    n = _zero_run_exponent(data, q)
    digits = base_digits(n, q)

    *_, plain = closed.walk(digits)
    assert closed.end_vector(n) == plain

    # on unclosed automata the jump makes the same states as a plain walk
    lazy, walked = DigitAutomaton(f, prefix=prefix), DigitAutomaton(f, prefix=prefix)
    assert lazy.census(n) == closed.census(n)
    for _ in walked.walk(digits):
        pass
    assert lazy.state_count == walked.state_count


def test_frobenius_shift_keeps_counts():
    # f^(n q^m) = f^n(x^q^m) over F_q has the same nonzero coefficients
    for f in (parse_poly("1+x1+x2+x2^2", 2, F2), parse_poly("2+x+x^2", 1, F3),
              parse_poly("1+2*x1+3*x1*x2^2", 2, F4)):
        q = f.ring.q
        A = build_automaton(f)
        for n in (1, 5, 7, 19, q**3 + 1):
            for alpha in range(1, q):
                base = A.count(n, alpha)
                assert [A.count(n * q**m, alpha) for m in (1, 2, 7, 40)] == [base] * 4
        # exponents up to 64 with a zero digit between nonzero ones
        inner = [n for n in range(65) if 0 in base_digits(n, q)[:-1]
                 and n % q]
        assert inner
        for n in inner:
            assert A.census(n) == brute_power_census(f, n)


def test_state_cap():
    f = vandermonde_poly(4, F2)
    with pytest.raises(StateCapError), limits(states=10):
        build_automaton(f)


def test_column_sums_and_leading_zeros():
    for f in (parse_poly("1+x1+x2+x2^2", 2, F2), parse_poly("2+x^2+x^3", 1, F3)):
        A = build_automaton(f)
        assert A.column_sum_violations() == []
        q = f.ring.q
        for n in (0, 7, 19):
            base = A.count(n, 1)
            vec = A.start_vector()
            nn = n
            while nn:
                vec = A.apply_digit(nn % q, vec)
                nn //= q
            for _ in range(4):
                vec = A.apply_digit(0, vec)
            assert A.read_counts(1, [vec]) == [base]


def test_count_conservation_univariate():
    # nonzero count + zero count = 1 + n*deg f for univariate f
    f = parse_poly("1+x+x^3", 1, F2)
    A = build_automaton(f)
    for n in range(1, 25):
        assert A.count(n, 1) <= 1 + 3 * n
        zeros = 1 + 3 * n - A.count(n, 1)
        census = brute_power_census(f, n)
        assert zeros == 1 + 3 * n - sum(census.values())


def test_krylov_order_bounds_recurrence():
    f = parse_poly("1+x1+x2+x2^2", 2, F2)
    A = build_automaton(f)
    D = A.krylov_order()
    assert 1 <= D <= A.state_count
    # the order-D dependence really does propagate
    seq = A.repunit_counts(1, 2 * D + 8)
    from coeffcount.ratgen import fit_recurrence

    rec = fit_recurrence(seq, D)
    assert rec.fits(seq)


def test_json_dump_is_deterministic():
    import json

    f = parse_poly("1+x1+x2", 2, F2)
    a = json.dumps(build_automaton(f).to_json_dict(), sort_keys=True)
    b = json.dumps(build_automaton(f).to_json_dict(), sort_keys=True)
    assert a == b


def test_nonfield_rejected():
    from coeffcount.mpoly import ZZ

    with pytest.raises(AutomatonError):
        build_automaton(parse_poly("1+x", 1, ZZ))


POWER_FIELDS = {2: F2, 3: F3, 4: F4, 5: Field(5), 7: Field(7)}


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(sorted(POWER_FIELDS)),
    k=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_packed_powers_match_sparse_products(q, k, data):
    # f^0 .. f^(q-1) made on packed keys equal the sparse products, also
    # when a prefix widens the box and with it the key layout's fields
    field = POWER_FIELDS[q]
    terms = st.lists(st.tuples(*[st.integers(min_value=0, max_value=3)] * k),
                     min_size=1, max_size=4, unique=True)
    exps = data.draw(terms)
    coeffs = data.draw(st.lists(st.integers(min_value=1, max_value=q - 1),
                                min_size=len(exps), max_size=len(exps)))
    f = MultiPoly(k, field, dict(zip(exps, coeffs)))
    prefix_exps = data.draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=4 * q)] * k), max_size=2))
    A = DigitAutomaton(f, prefix=MultiPoly(k, field, {e: 1 for e in prefix_exps}))
    for a, packed in enumerate(A._f_pows_packed):
        assert packed == sorted(f.pow(a)._packed_in(A._layout).items())
    assert len(A._f_pows_packed) == q


@pytest.mark.parametrize("field, text", [
    (F2, "1+x1+x2+x3+x4^128"),  # 2-byte fields, x4's at bits 48..63
    (F3, "1+x1+2*x2+x3*x4+x4^40"),  # 1-byte fields, x4's at bits 24..31
], ids=["F2", "F3"])
def test_four_variable_keys_past_30_bits_match_the_oracle(field, text):
    # keys above 2^30 take more than one CPython int digit
    f = parse_poly(text, 4, field)
    A = DigitAutomaton(f)
    assert max(key for key, _ in A._f_pows_packed[-1]) >= 1 << 30
    for n in range(10):
        assert A.census(n) == brute_power_census(f, n), n


def test_box_points_follow_product_order():
    # bounds (q-1) deg_i f = (1, 2, 1), widened to (2, 2, 1) by the prefix
    A = build_automaton(parse_poly("1+x1+x2^2+x3", 3, F2),
                        prefix=parse_poly("x1^2", 3, F2))
    data = A.to_json_dict()
    assert data["box_bounds"] == [2, 2, 1]
    assert data["box_points"] == [
        list(pt) for pt in itertools.product(range(3), range(3), range(2))]


def test_construction_never_calls_the_sparse_product(monkeypatch):
    cases = [(parse_poly("1+x1+x2+x1*x2^2", 2, F2), parse_poly("1+x1^3", 2, F2)),
             (parse_poly("2+x+x^2", 1, F3), parse_poly("1+x^5", 1, F3)),
             (parse_poly("1+2*x1+3*x1*x2^2", 2, F4), None)]

    def refuse(*args, **kwargs):
        raise AssertionError("automaton set-up called MultiPoly.mul")

    monkeypatch.setattr(MultiPoly, "mul", refuse)
    for f, prefix in cases:
        A = DigitAutomaton(f, prefix=prefix).close()
        assert A.count(7, 1) >= 0 and not A.column_sum_violations()


ORBIT_FIELDS = {3: F3, 4: F4, 5: Field(5), 7: Field(7), 9: Field(3, 2)}


def _expanded_column(A, state, a):
    """The column of a state for digit a, re-expanded from its own pattern."""
    column = {}
    slices = A._expand(A._support(A.states[state]), a)
    for arr in slices:
        child = A._state_index[bytes(arr)]
        column[child] = column.get(child, 0) + 1
    empty = A.field.q**A.f.k - len(slices)
    if empty:
        column[A._state_index[bytes(len(A.states[state]))]] = empty
    return sorted(column.items())


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from(sorted(ORBIT_FIELDS)),
    k=st.integers(min_value=1, max_value=2),
    prefixed=st.booleans(),
    data=st.data(),
)
def test_scaled_columns_equal_their_expansion(q, k, prefixed, data):
    # a column made by scaling an orbit mate's column equals the state's
    # own expansion, with or without a prefix
    field = ORBIT_FIELDS[q]
    exps = data.draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=2)] * k),
        min_size=1, max_size=3, unique=True))
    coeffs = data.draw(st.lists(st.integers(min_value=1, max_value=q - 1),
                                min_size=len(exps), max_size=len(exps)))
    f = MultiPoly(k, field, dict(zip(exps, coeffs)))
    prefix = None
    if prefixed:
        prefix_exps = data.draw(st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=q)] * k),
            min_size=1, max_size=2, unique=True))
        prefix_coeffs = data.draw(st.lists(
            st.integers(min_value=1, max_value=q - 1),
            min_size=len(prefix_exps), max_size=len(prefix_exps)))
        prefix = MultiPoly(k, field, dict(zip(prefix_exps, prefix_coeffs)))
    try:
        with limits(states=UNCLOSED_STATE_CAP):
            A = build_automaton(f, prefix=prefix)
    except StateCapError:
        assume(False)
    for a in range(q):
        for state in range(A.state_count):
            assert sorted(A.transitions[a][state].items()) == _expanded_column(A, state, a)


def test_one_expansion_per_digit_and_scalar_orbit(monkeypatch):
    # the closure expands a column once per (digit, scalar orbit) pair; the
    # zero pattern is an orbit of its own.  Digit 0 makes no product, so
    # each orbit takes q - 1 = 2 products
    from coeffcount import automaton

    A = DigitAutomaton(parse_poly("1+2*x+2*x^4+2*x^5", 1, F3))
    expansions, products = [], []

    def counted(calls, fn):
        def wrapped(*args):
            calls.append(None)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(automaton, "_convolve", counted(products, automaton._convolve))
    monkeypatch.setattr(A, "_expand", counted(expansions, A._expand))
    A.close()
    orbits = {min(bytes(F3.mul(c, b) for b in pat) for c in (1, 2)) for pat in A.states}
    assert (A.state_count, len(orbits)) == (243, 122)
    assert len(expansions) == 3 * len(orbits)
    assert len(products) == 2 * len(orbits)


EXPAND_FIELDS = {2: F2, 3: F3, 4: F4, 5: Field(5)}


def _random_poly(data, field, k, max_exp=2):
    exps = data.draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * k),
        min_size=1, max_size=3, unique=True))
    coeffs = data.draw(st.lists(st.integers(min_value=1, max_value=field.q - 1),
                                min_size=len(exps), max_size=len(exps)))
    return MultiPoly(k, field, dict(zip(exps, coeffs)))


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(sorted(EXPAND_FIELDS)),
    k=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_digit_zero_slices_equal_the_product_by_one(q, k, data):
    # digit 0 slices G itself; the product 1 * G, sliced here by its
    # unpacked exponents, gives the same slices in the same order
    field = EXPAND_FIELDS[q]
    A = DigitAutomaton(_random_poly(data, field, k))
    points = len(A._box_packed)
    G = bytearray(points)
    for point, c in data.draw(st.dictionaries(
            st.integers(min_value=0, max_value=points - 1),
            st.integers(min_value=1, max_value=q - 1), max_size=12)).items():
        G[point] = c
    support = A._support(bytes(G))
    product = automaton._convolve([(0, field.one)], support, field, 10**7)
    want: dict[tuple, bytearray] = {}
    for key, c in product.items():
        exps = A._layout.unpack(key.to_bytes(A._layout.size, "little"))
        point = 0
        for e, b in zip(exps, A._bounds):
            point = point * (b + 1) + e // q
        want.setdefault(tuple(e % q for e in exps), bytearray(points))[point] = c
    assert [bytes(x) for x in A._expand(support, 0)] == [bytes(x) for x in want.values()]


def _counting_steps(A):
    """A list that grows by one entry per apply_digit call of A."""
    steps = []
    apply_digit = A.apply_digit

    def counted(digit, vec):
        steps.append(digit)
        return apply_digit(digit, vec)

    A.apply_digit = counted
    return steps


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from([3, 4, 5]),
    k=st.integers(min_value=1, max_value=2),
    data=st.data(),
)
def test_counts_of_every_alpha_make_one_walk(q, k, data):
    # the q - 1 counts at one n, and the census after them, read the end
    # vector of the first count's walk
    field = EXPAND_FIELDS[q]
    f = _random_poly(data, field, k)
    n = data.draw(st.integers(min_value=0, max_value=30))
    A = DigitAutomaton(f)
    steps = _counting_steps(A)
    try:
        with limits(states=UNCLOSED_STATE_CAP):
            counts = [A.count(n, 1)]
    except StateCapError:
        assume(False)
    walked = len(steps)
    assert walked <= len(base_digits(n, q))
    counts += [A.count(n, a) for a in range(2, q)]
    census = A.census(n)
    assert len(steps) == walked
    assert census == {a: c for a, c in enumerate(counts, 1) if c}
    assert counts == [DigitAutomaton(f).count(n, a) for a in range(1, q)]
    assert census == brute_power_census(f, n)


def test_a_kept_end_vector_survives_states_found_later():
    # the walk to n2 discovers states after n1's end vector was kept; n1's
    # counts read that shorter vector, with no new walk, and do not change
    f = parse_poly("1+2*x+2*x^4+2*x^5", 1, F3)
    n1, n2 = 4, 3**6 - 1
    A = DigitAutomaton(f)
    steps = _counting_steps(A)
    before = [A.count(n1, a) for a in (1, 2)]
    found, walked = A.state_count, len(steps)
    for _ in A.walk(base_digits(n2, 3)):
        pass
    assert A.state_count > found
    walked = len(steps)
    assert [A.count(n1, a) for a in (1, 2)] == before
    assert A.census(n1) == {a: c for a, c in enumerate(before, 1) if c}
    assert len(steps) == walked
    closed = build_automaton(f)
    assert before == [closed.count(n1, a) for a in (1, 2)]
    assert A.census(n1) == brute_power_census(f, n1)


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from(sorted(UNCLOSED_FIELDS)),
    k=st.integers(min_value=1, max_value=2),
    data=st.data(),
)
def test_the_kept_walk_resumes_to_fresh_counts(q, k, data):
    # repeats, extensions of the kept n's low digits, smaller n and long
    # runs: each census read from the kept walk is a fresh automaton's, and
    # the oracle's for small n; censuses, since numbering differs by automaton
    field = UNCLOSED_FIELDS[q]
    f = _random_poly(data, field, k)
    prefix = None
    if data.draw(st.booleans()):
        prefix = _random_poly(data, field, k)
    A = DigitAutomaton(f, prefix)
    n = 0
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        kind = data.draw(st.sampled_from(["repeat", "extend", "smaller", "zeros", "run"]))
        block = data.draw(st.integers(min_value=1, max_value=q**2 - 1))
        length = data.draw(st.integers(min_value=0, max_value=30))
        if kind == "extend":
            n += block * q**(len(base_digits(n, q)) + data.draw(st.integers(0, 3)))
        elif kind == "smaller":
            n = data.draw(st.integers(min_value=0, max_value=n))
        elif kind == "zeros":
            n = block + block * q**(2 + length)
        elif kind == "run":
            n = block * (q**length - 1) // (q - 1)
        try:
            with limits(states=UNCLOSED_STATE_CAP):
                fresh = DigitAutomaton(f, prefix).census(n)
                census = A.census(n)
        except StateCapError:
            assume(False)
        assert census == fresh
        if n <= 60:
            brute = (brute_power_census(f, n) if prefix is None
                     else brute_power_census(prefix * f.pow(n), 1))
            assert census == brute


@pytest.mark.parametrize("text, field, c", [
    ("1+x+x^3", F2, 1), ("1+x+x^3", F2, 7), ("2+x+x^2", F3, 5), ("2+x+x^2", F3, 8),
    ("1+x1+x2^2", F4, 3), ("1+2*x+3*x^3", Field(5), 1),
])
def test_each_further_q_power_costs_one_digit_product(text, field, c):
    # q^(m+1) - c = (q^m - c) + (q-1) q^m; q^l0 - c, for l0 the smallest
    # with q^l0 >= c, may have fewer than l0 digits, and the next q-power
    # walks its padding zeros too
    q = field.q
    A = DigitAutomaton(parse_poly(text, 2 if "x1" in text else 1, field))
    steps = _counting_steps(A)
    l0 = next(m for m in itertools.count() if q**m >= c)
    A.end_vector(q**l0 - c)
    for m in range(l0 + 1, l0 + 6):
        before = len(steps)
        A.end_vector(q**m - c)
        short = l0 - len(base_digits(q**l0 - c, q)) if m == l0 + 1 else 0
        assert len(steps) - before == 1 + short


def test_a_walk_past_the_state_cap_keeps_the_previous_walk():
    # over F_5 the walk of 1+2x+3x^3 discovers 31 states to 5^2 - 1 and
    # 124 to 5^3 - 1
    F5 = Field(5)
    f = parse_poly("1+2*x+3*x^3", 1, F5)
    with limits(states=123):
        A = DigitAutomaton(f)
    steps = _counting_steps(A)
    assert A.count(24, 1) == 11
    with pytest.raises(StateCapError):
        A.end_vector(124)
    walked = len(steps)
    assert A.census(24) == brute_power_census(f, 24)
    assert A.count(24, 1) == 11
    assert len(steps) == walked


def test_digit_zero_makes_no_product_under_the_term_budget():
    # a prefix of 12 terms under a budget of 5: digit 0 slices it with no
    # product, which the budget used to refuse; digit 1 still multiplies
    # and is refused
    from coeffcount.mpoly import BudgetError

    f = parse_poly("1+x", 1, F2)
    prefix = parse_poly("+".join(f"x^{e}" for e in range(12)), 1, F2)
    with limits(terms=5):
        A = DigitAutomaton(f, prefix)
    plain = DigitAutomaton(f, prefix)
    assert (A.read_counts(1, [A.apply_digit(0, A.start_vector())])
            == plain.read_counts(1, [plain.apply_digit(0, plain.start_vector())]) == [12])
    with pytest.raises(BudgetError, match="term budget 5"):
        A.apply_digit(1, A.start_vector())


def test_discovery_order_and_state_cap_unchanged():
    # numbers, caps and the digest of states and columns as the plain
    # one-expansion-per-state closure gives them over F_5
    import hashlib

    from coeffcount import qpow

    F5 = Field(5)
    f = parse_poly("1+2*x+3*x^3", 1, F5)
    with limits(states=125):
        A = build_automaton(f)
    columns = [[sorted(col.items()) for col in cols] for cols in A.transitions]
    digest = hashlib.sha256(repr((A.states, columns)).encode()).hexdigest()
    assert digest[:16] == "d339ba9e375d8d89"
    with pytest.raises(StateCapError), limits(states=124):
        build_automaton(f)
    # the lazy q-power walk discovers 124 of the 125 states
    g = [1, 2, 0, 3]
    with limits(states=124):
        assert qpow.qpow_counts(g, F5, 1, 1, 2, 6) == [11, 76, 380, 1886, 9451]
    with pytest.raises(StateCapError), limits(states=123):
        qpow.qpow_counts(g, F5, 1, 1, 2, 6)


def test_only_the_paths_that_print_every_state_close_an_automaton():
    # a walk makes only the columns it needs; closing is for the places
    # that print or check every state
    closers = set()
    for path in sorted(Path(automaton.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(node):
                    func = getattr(call, "func", None)
                    if getattr(func, "attr", getattr(func, "id", None)) in (
                            "close", "build_automaton"):
                        closers.add(f"{path.stem}.{node.name}")
    assert closers == {"automaton.build_automaton", "automaton.to_json_dict",
                       "automaton.column_sum_violations", "cli.cmd_automaton",
                       "acceptance.corpus_automaton"}
