import itertools
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from coeffcount.automaton import (
    AutomatonError,
    DigitAutomaton,
    StateCapError,
    base_digits,
    build_automaton,
)
from coeffcount.acceptance import vandermonde_poly
from coeffcount.ffield import Field
from coeffcount.mpoly import MultiPoly, parse_poly
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
    A = build_automaton(f, seeds=[g])
    for n in (0, 1, 5, 12, 30):
        want = brute_power_census(g * f.pow(n), 1, 1)
        assert A.count(n, 1, prefix=g) == want
    for n in (0, 7, 30):
        assert A.census(n, prefix=g) == (g * f.pow(n)).coeff_census()


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
        A = build_automaton(f, state_cap=CENSUS_STATE_CAP)
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
        A = build_automaton(f, state_cap=CENSUS_STATE_CAP)
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


def test_prefix_needs_seed():
    f = parse_poly("1+x", 1, F2)
    g = parse_poly("1+x^3", 1, F2)
    A = build_automaton(f)  # box too small for g, and no seed
    with pytest.raises(AutomatonError):
        A.count(3, 1, prefix=g)


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
        closed = build_automaton(f, state_cap=UNCLOSED_STATE_CAP)
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
    seeds = [] if prefix is None else [prefix]
    try:
        closed = build_automaton(f, state_cap=UNCLOSED_STATE_CAP, seeds=seeds)
    except StateCapError:
        assume(False)
    n = _zero_run_exponent(data, q)
    digits = base_digits(n, q)

    *_, plain = closed.walk(digits, closed.start_vector(prefix))
    assert closed._end_vector(n, prefix) == plain

    # on unclosed automata the jump makes the same states as a plain walk
    lazy, walked = DigitAutomaton(f, seeds=seeds), DigitAutomaton(f, seeds=seeds)
    assert lazy.census(n, prefix) == closed.census(n, prefix)
    for _ in walked.walk(digits, walked.start_vector(prefix)):
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
    with pytest.raises(StateCapError):
        build_automaton(f, state_cap=10)


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
    # when a seed widens the box and with it the packer's fields
    field = POWER_FIELDS[q]
    terms = st.lists(st.tuples(*[st.integers(min_value=0, max_value=3)] * k),
                     min_size=1, max_size=4, unique=True)
    exps = data.draw(terms)
    coeffs = data.draw(st.lists(st.integers(min_value=1, max_value=q - 1),
                                min_size=len(exps), max_size=len(exps)))
    f = MultiPoly(k, field, dict(zip(exps, coeffs)))
    seed_exps = data.draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=4 * q)] * k), max_size=2))
    seeds = [MultiPoly(k, field, {e: 1 for e in seed_exps})]
    A = DigitAutomaton(f, seeds=seeds)
    power = MultiPoly.one(k, field)
    for packed in A._f_pows_packed:
        assert packed == A._packer.pack_terms(power)
        power = power * f
    assert len(A._f_pows_packed) == q


def test_box_points_follow_product_order():
    # bounds (q-1) deg_i f = (1, 2, 1), widened to (2, 2, 1) by the seed
    A = build_automaton(parse_poly("1+x1+x2^2+x3", 3, F2),
                        seeds=[parse_poly("x1^2", 3, F2)])
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
    for f, seed in cases:
        A = DigitAutomaton(f, seeds=[] if seed is None else [seed]).close()
        assert A.count(7, 1) >= 0 and not A.column_sum_violations()
