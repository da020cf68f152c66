import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coeffcount.acceptance import corpus_poly
from coeffcount.automaton import build_automaton
from coeffcount.ffield import Field
from coeffcount.mpoly import parse_poly
from coeffcount.qpow import QPowProfile
from coeffcount.ratgen import (
    LinearRecurrence,
    RationalGF,
    RecurrenceError,
    fit_recurrence,
    fit_repunit_genfun,
    genfun_equal_as_series,
    seq_to_genfun,
)

F2 = Field(2)


def test_fibonacci_fit():
    seq = [0, 1, 1, 2, 3, 5, 8, 13, 21]
    rec = fit_recurrence(seq, 4)
    assert rec.coeffs == (1, 1)
    gf = seq_to_genfun(seq, rec)
    assert gf == RationalGF.make([0, 1], [1, -1, -1])
    assert gf.expand(12) == seq + [34, 55, 89]


def test_constant_and_alternating():
    rec = fit_recurrence([1, 1, 1, 1, 1], 2)
    assert rec.coeffs == (1,)
    rec = fit_recurrence([1, 3, 8, 21, 55, 144, 377], 3)
    assert rec.coeffs == (3, -1)


def test_minimality():
    # 2^n satisfies an order-1 recurrence; BM must not return order 2
    rec = fit_recurrence([1, 2, 4, 8, 16, 32, 64], 3)
    assert rec.order == 1
    with pytest.raises(RecurrenceError):
        fit_recurrence([1, 2, 4, 8, 17, 33, 64, 120, 230], 2)


def test_insufficient_terms():
    with pytest.raises(RecurrenceError):
        fit_recurrence([1, 2, 3], 2)


def test_no_low_order_recurrence_detected():
    # factorials are not C-finite; every small order must be rejected
    from math import factorial

    seq = [factorial(n) for n in range(12)]
    with pytest.raises(RecurrenceError):
        fit_recurrence(seq, 4)


def test_records_are_frozen_values():
    rec = LinearRecurrence((1, 1), (1, 2))
    gf = RationalGF((1,), (1, -1, -1))
    assert rec == LinearRecurrence(coeffs=(1, 1), initial=(1, 2))
    assert hash(rec) == hash(LinearRecurrence((1, 1), (1, 2)))
    assert rec != LinearRecurrence((1, 1), (1, 3))
    assert gf == RationalGF((1,), (1, -1, -1))
    assert hash(gf) == hash(RationalGF(num=(1,), den=(1, -1, -1)))
    # equal fields of another record type are not equal
    assert RationalGF((1,), (1,)) != LinearRecurrence((1,), (1,))
    for record in (rec, gf):
        for name in (*record.__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, ())
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
    # the repr text of the former dataclasses; RationalGF keeps its own
    assert repr(rec) == "LinearRecurrence(coeffs=(1, 1), initial=(1, 2))"
    assert (repr(LinearRecurrence((Fraction(1, 2),), (1,)))
            == "LinearRecurrence(coeffs=(Fraction(1, 2),), initial=(1,))")
    assert repr(gf) == "RationalGF(num=[1], den=[1, -1, -1])"


@pytest.mark.parametrize("cls", [LinearRecurrence, RationalGF, QPowProfile])
def test_record_constructors_come_from_the_slots(cls):
    # one constructor per record, made from its slots: positional and
    # keyword construction agree, and a missing or extra field is a
    # TypeError that names the class, as a hand-written __init__ would
    values = [(i,) for i in range(len(cls.__slots__))]
    record = cls(*values)
    assert record == cls(**dict(zip(cls.__slots__, values)))
    assert record._fields() == tuple(values)
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__
    init = rf"^{cls.__qualname__}\.__init__\(\) "
    with pytest.raises(TypeError, match=init + "missing 1 required positional"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=init + "takes"):
        cls(*values, ())
    with pytest.raises(TypeError, match=init + "got an unexpected keyword argument 'extra'"):
        cls(*values, extra=())


def test_gf_expansion_examples():
    gf = RationalGF.make([1, 1], [1, -2, -1])
    assert gf.expand(5) == [1, 3, 7, 17, 41]
    assert RationalGF.make([1], [1, -1]).expand(4) == [1, 1, 1, 1]
    # polynomial part longer than the denominator
    gf = RationalGF.make([1, 14, 64], [1, -10, 16])
    assert gf.expand(3) == [1, 24, 288]


def test_series_equality():
    a = RationalGF.make([1, 0, -1], [1, -3, 1, 1])
    b = RationalGF.make([1, 1], [1, -2, -1])
    assert genfun_equal_as_series(a, b)
    assert genfun_equal_as_series(
        RationalGF.make([1], [1, -1]), RationalGF.make([1, 1], [1, 0, -1])
    )
    assert not genfun_equal_as_series(
        RationalGF.make([1], [1, -1]), RationalGF.make([1], [1, -2])
    )


def test_with_denominator():
    # a head as long as the order: Fibonacci from 0, 1
    gf = RationalGF.with_denominator([1, -1, -1], [0, 1])
    assert gf == RationalGF.make([0, 1], [1, -1, -1])
    assert gf.expand(6) == [0, 1, 1, 2, 3, 5]
    # a head one term shorter than the order, as window_power_genfun
    # passes it: the numerator stops after the head
    gf = RationalGF.with_denominator([1, -3, 1], [1])
    assert gf == RationalGF.make([1], [1, -3, 1])
    assert gf.expand(5) == [1, 3, 8, 21, 55]


def test_make_normalizes():
    gf = RationalGF.make([2, 2], [2, -4])
    assert gf.num == (1, 1) and gf.den == (1, -2)
    gf = RationalGF.make([1], [-1, 2])
    assert gf.den[0] == 1 and gf.num == (-1,)
    with pytest.raises(ValueError):
        RationalGF.make([1], [2, 1])  # constant term not +-1 after reduction


small_gfs = st.builds(
    RationalGF.make,
    st.lists(st.integers(-4, 4), max_size=4),
    st.lists(st.integers(-4, 4), max_size=3).map(lambda tail: [1] + tail),
)


@settings(max_examples=60, deadline=None)
@given(small_gfs, small_gfs)
def test_gf_arithmetic(a, b):
    # the sum expands termwise, the product as the Cauchy product
    N = 12
    x, y = a.expand(N), b.expand(N)
    assert (a + b).expand(N) == [u + v for u, v in zip(x, y)]
    assert (a * b).expand(N) == [sum(x[i] * y[n - i] for i in range(n + 1))
                                 for n in range(N)]


def test_fractional_recurrence_refused():
    # the minimal recurrence of this integer sequence has coefficient -1/2,
    # so no integer generating function with den[0] = 1 comes out of it
    seq = [-1, -2, 0, -2, 1]
    rec = fit_recurrence(seq, 2)
    assert rec.coeffs == (Fraction(-1, 2), 1)
    with pytest.raises(RecurrenceError, match="-1/2 is not an integer"):
        seq_to_genfun(seq, rec)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
)
def test_roundtrip_random_recurrences(coeffs, initial):
    initial = (initial + [1] * len(coeffs))[: len(coeffs)]
    rec = LinearRecurrence(tuple(coeffs), tuple(initial))
    seq = rec.extend(2 * len(coeffs) + 11)
    fitted = fit_recurrence(seq, len(coeffs))
    assert fitted.order <= len(coeffs)
    gf = seq_to_genfun(seq, fitted)
    assert gf.expand(len(seq) + 10) == rec.extend(len(seq) + 10)


def test_fit_repunit_genfun_certified():
    f = parse_poly("1+x1+x2+x2^2", 2, F2)
    A = build_automaton(f)
    seq, rec, gf = fit_repunit_genfun(A, 1)
    D = A.krylov_order()
    assert len(seq) == 2 * D + 11
    assert genfun_equal_as_series(gf, RationalGF.make([1, 2], [1, -2, -4]))
    # held-out: the generating function predicts terms beyond the fit window
    more = A.repunit_counts(1, len(seq) + 5)
    assert gf.expand(len(more)) == more
    # order-minimality: one order lower must fail to fit
    assert rec.order == 2
    with pytest.raises(RecurrenceError):
        fit_recurrence(seq, rec.order - 1)


@pytest.mark.parametrize("name, D", [("viii", 12), ("vp3", 4)])
def test_fit_repunit_genfun_walks_the_iterates_once(monkeypatch, name, D):
    # the D products that prove the Krylov order are all the fit makes: the
    # proven relation among the iterates extends the counts to 2D + 11
    A = build_automaton(corpus_poly(name))
    apply_digit = A.apply_digit
    digits = []

    def counted(digit, vec):
        digits.append(digit)
        return apply_digit(digit, vec)

    monkeypatch.setattr(A, "apply_digit", counted)
    seq, _, _ = fit_repunit_genfun(A, 1)
    assert digits == [1] * D and len(seq) == 2 * D + 11
    monkeypatch.undo()
    assert A.krylov_order() == D


@pytest.mark.parametrize("alpha, message", [
    (0, "alpha must be nonzero"), (2, "alpha must be nonzero"),
    (1.5, "is not an integer"), ("1", "is not an integer"),
])
def test_fit_repunit_genfun_refuses_bad_alpha_first(monkeypatch, alpha, message):
    # refused before the Krylov elimination of this 184-state automaton
    A = build_automaton(parse_poly("1+x2^3+x1*x2+x1^2*x2^3+x1^3*x2^2", 2, F2))

    def must_not_run(*args):
        raise AssertionError("a bad alpha reached the digit walk")

    monkeypatch.setattr(A, "apply_digit", must_not_run)
    monkeypatch.setattr(A, "close", must_not_run)
    with pytest.raises(ValueError, match=message):
        fit_repunit_genfun(A, alpha)
