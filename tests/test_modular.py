"""Modular Krylov order and Berlekamp-Massey against the Fraction references."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

import fraction_reference as ref
from coeffcount import modular
from coeffcount.acceptance import CORPUS_ALL, corpus_poly
from coeffcount.automaton import DigitAutomaton, StateCapError, build_automaton
from coeffcount.ffield import Field, is_prime
from coeffcount.mpoly import MultiPoly, limits, parse_poly
from coeffcount.ratgen import fit_repunit_genfun

FIELDS = {2: Field(2), 3: Field(3), 4: Field(2, 2), 5: Field(5)}
SMALL_STATE_CAP = 40


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(3000) if is_prime(n)] == [
        n for n in range(3000) if _trial_division(n)]
    # strong pseudoprimes to several of the bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(modular.TOP_PRIME)


def test_primes_descend_from_2_61_minus_1():
    first = list(itertools.islice(modular.primes(), 3))
    assert first[0] == (1 << 61) - 1
    assert first == sorted(first, reverse=True) and all(map(is_prime, first))
    assert not any(is_prime(n) for n in range(first[1] + 1, first[0]))


def _assert_matches_reference(A, alpha):
    seq, rec, gf = fit_repunit_genfun(A, alpha)
    ref_seq, ref_coeffs, (ref_num, ref_den) = ref.repunit_fit(A, alpha)
    assert A.krylov_order() == ref.krylov_order(A)
    assert seq == ref_seq
    assert rec.coeffs == ref_coeffs and rec.initial == tuple(seq[:rec.order])
    assert all(type(c) is int for c in rec.coeffs)
    assert (gf.num, gf.den) == (ref_num, ref_den)


@settings(max_examples=100, deadline=None)
@given(
    q=st.sampled_from(sorted(FIELDS)),
    k=st.integers(min_value=1, max_value=2),
    data=st.data(),
)
def test_modular_fit_matches_fraction_reference(q, k, data):
    field = FIELDS[q]
    exps = data.draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * k),
        min_size=1, max_size=4, unique=True))
    coeffs = data.draw(st.lists(st.integers(min_value=1, max_value=q - 1),
                                min_size=len(exps), max_size=len(exps)))
    f = MultiPoly(k, field, dict(zip(exps, coeffs)))
    try:
        with limits(states=SMALL_STATE_CAP):
            A = build_automaton(f)
    except StateCapError:
        assume(False)
    _assert_matches_reference(A, data.draw(st.integers(1, q - 1)))


@pytest.mark.parametrize("text, q, k, D, lengths, closed_states", [
    # the digit-1 walk reaches 3 of the closure's 45 states
    ("2+x1*x2^2+x1^2*x2+x1^2*x2^2", 3, 2, 3, [1, 3, 3, 3], 45),
    # states are interned after the second and third steps, mid-elimination
    ("1+x+x^3", 2, 1, 4, [1, 2, 4, 7, 7], 8),
])
def test_certified_order_on_a_growing_walk(text, q, k, D, lengths, closed_states):
    f = parse_poly(text, k, FIELDS[q])
    walk = DigitAutomaton(f).walk(itertools.repeat(1))
    order, coeffs, iterates = modular.certified_order(walk, q**k, 64)
    assert (order, [len(v) for v in iterates]) == (D, lengths)
    # the proven relation v_D = sum c_i v_i, on zero-padded vectors
    padded = [v + [0] * (lengths[-1] - len(v)) for v in iterates]
    assert padded[D] == [sum(c * v[s] for c, v in zip(coeffs, padded))
                         for s in range(lengths[-1])]
    closed = build_automaton(f)
    assert (closed.krylov_order(), closed.state_count) == (D, closed_states)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(sorted(FIELDS)),
    k=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_lazy_fit_matches_closed_fit(q, k, data):
    # a lazy fit discovers only states that digit 1 reaches from the start,
    # so it runs under a state cap of that many and returns the closed
    # automaton's (sequence, recurrence, generating function)
    field = FIELDS[q]
    exps = data.draw(st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=2)] * k),
        min_size=1, max_size=4, unique=True))
    coeffs = data.draw(st.lists(st.integers(min_value=1, max_value=q - 1),
                                min_size=len(exps), max_size=len(exps)))
    f = MultiPoly(k, field, dict(zip(exps, coeffs)))
    try:
        with limits(states=SMALL_STATE_CAP):
            closed = build_automaton(f)
    except StateCapError:
        assume(False)
    reach, todo = {closed.initial}, [closed.initial]
    while todo:
        for child in closed.transitions[1][todo.pop()]:
            if child not in reach:
                reach.add(child)
                todo.append(child)
    alpha = data.draw(st.integers(1, q - 1))
    with limits(states=len(reach)):
        lazy_fit = fit_repunit_genfun(DigitAutomaton(f), alpha)
    assert lazy_fit == fit_repunit_genfun(closed, alpha)


@pytest.mark.parametrize("name", CORPUS_ALL)
def test_corpus_fits_match_fraction_reference(name):
    _assert_matches_reference(build_automaton(corpus_poly(name)), 1)


def test_tiny_primes_take_every_retry_path(monkeypatch):
    # Small primes find too low a rank or order, lift coefficients that
    # fail the exact check, and need several primes combined by CRT; the
    # certified results must still be the reference ones.
    real_primes = modular.primes
    events = []
    real_lift = modular.certified_lift

    def tiny_then_real():
        yield from (2, 3, 5, 7, 11, 13)
        yield from real_primes()

    def recording_lift(solve, holds, base, limit):
        calls = []

        def solve_rec(p):
            order, residues = solve(p)
            calls.append(["solve", order])
            return order, residues

        def holds_rec(order, ints):
            ok = holds(order, ints)
            calls.append(["holds", order, ok])
            return ok

        result = real_lift(solve_rec, holds_rec, base, limit)
        events.append((result[0], calls))
        return result

    monkeypatch.setattr(modular, "primes", tiny_then_real)
    monkeypatch.setattr(modular, "certified_lift", recording_lift)
    for name in CORPUS_ALL:
        _assert_matches_reference(build_automaton(corpus_poly(name)), 1)
    unlucky = any(c[1] < order for order, calls in events for c in calls)
    failed = any(c[0] == "holds" and not c[2] for _, calls in events for c in calls)
    # some certified order needed two or more primes combined
    crt = any(sum(1 for c in calls if c[0] == "holds" and c[1] == order) >= 2
              for order, calls in events)
    assert unlucky and failed and crt


def test_lift_drops_an_order_proven_too_small():
    # The first primes find order 1 and residues of no solution.  Once
    # their modulus passes 2 * base^1, order 1 is dropped for good: later
    # primes that find it are skipped, not lifted again, and the primes
    # that find order 2 certify the true solution.
    true = [3, -4]
    orders = iter([1, 1, 1, 2])
    checked = []

    def solve(p):
        order = next(orders)
        return order, [5] if order == 1 else [c % p for c in true]

    def holds(order, ints):
        checked.append((order, ints))
        return ints == true

    assert modular.certified_lift(solve, holds, 2, 3) == (2, true)
    assert checked == [(1, [5]), (2, true)]


def test_lift_refuses_once_the_largest_order_fails():
    # order 1 is dropped, then order 2 = limit fails past its bound too:
    # the lift raises at once instead of drawing another prime
    orders = iter([1, 2])

    def solve(p):
        order = next(orders)
        return order, [5] * order

    with pytest.raises(ArithmeticError, match="no integer solution of order 2"):
        modular.certified_lift(solve, lambda order, ints: False, 2, 2)


def test_large_automaton_fit_order():
    # 184 states: the Krylov order is 164 and the minimal recurrence of
    # the counts has order 129
    f = parse_poly("1+x2^3+x1*x2+x1^2*x2^3+x1^3*x2^2", 2, Field(2))
    A = build_automaton(f)
    assert A.state_count == 184
    assert A.krylov_order() == 164
    seq, rec, gf = fit_repunit_genfun(A, 1)
    assert rec.order == 129 and len(seq) == 2 * 164 + 11
    assert gf.expand(len(seq) + 5) == A.repunit_counts(1, len(seq) + 5)
