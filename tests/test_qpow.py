import itertools
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import coeffcount
from coeffcount import qpow, unipoly
from coeffcount.automaton import DigitAutomaton, StateCapError, build_automaton
from coeffcount.ffield import Field
from coeffcount.mpoly import dense_coeffs, from_dense, limits, parse_poly
from coeffcount.oracle import brute_power_census
from coeffcount.qpow import (
    QPowError,
    QPowProfile,
    count_qpow,
    fit_qpow_profile,
    max_multiplicity,
    power_census,
    primitive_u_check,
    qpow_counts,
    splitting_degree,
)

F2 = Field(2)
F3 = Field(3)
FIELDS = {2: F2, 3: F3, 4: Field(2, 2), 5: Field(5), 7: Field(7)}


def g(text, field=F2):
    return dense_coeffs(parse_poly(text, 1, field))


def test_splitting_degree():
    assert splitting_degree(g("1+x+x^2+x^3+x^4"), F2) == 4
    assert splitting_degree(g("1+x"), F2) == 1
    base = g("1+x^2+x^5")
    cubed = unipoly.mul(F2, unipoly.mul(F2, base, base), base)
    assert splitting_degree(cubed, F2) == 5
    # (x+1)(x^2+x+1)^2 splits in F_4
    assert splitting_degree(g("1+x+x^2+x^3+x^4+x^5"), F2) == 2
    assert splitting_degree(g("2+x^2+x^3", F3), F3) == 3


def test_max_multiplicity():
    base = g("1+x^2+x^5")
    cubed = unipoly.mul(F2, unipoly.mul(F2, base, base), base)
    assert max_multiplicity(cubed, F2) == 3
    assert max_multiplicity(g("1+x^2+x^5"), F2) == 1
    prod = unipoly.mul(F2, unipoly.mul(F2, g("1+x"), g("1+x")), g("1+x+x^2"))
    assert max_multiplicity(prod, F2) == 2
    decomp = unipoly.squarefree_decomposition(F2, prod)
    assert decomp == [(g("1+x+x^2"), 1), (g("1+x"), 2)]


def test_preconditions():
    with pytest.raises(QPowError):
        splitting_degree(g("x+x^2"), F2)  # g(0) = 0
    with pytest.raises(QPowError):
        splitting_degree([1], F2)  # constant
    with pytest.raises(QPowError):
        count_qpow(g("1+x"), F2, 5, 1, 1)  # q^m < c
    with pytest.raises(QPowError):
        count_qpow(g("1+x"), F2, 1, 0, 3)  # alpha = 0


def test_degree_past_the_cap_is_refused_before_factoring(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("g was factored")

    monkeypatch.setattr(unipoly, "squarefree_decomposition", never)
    big = g("1+x+x^" + str(qpow.MAX_QPOW_DEGREE + 1))
    for measure in (splitting_degree, max_multiplicity):
        with pytest.raises(QPowError, match="factoring cap"):
            measure(big, F2)
    with pytest.raises(QPowError, match="factoring cap"):
        fit_qpow_profile(big, F2, 1, 1)


def test_count_examples():
    assert count_qpow(g("1+x+x^2+x^3+x^4"), F2, 1, 1, 1) == 5
    assert count_qpow(g("1+x+x^2"), F2, 1, 1, 0) == 1
    base = g("1+x^2+x^5")
    cubed = unipoly.mul(F2, unipoly.mul(F2, base, base), base)
    assert count_qpow(cubed, F2, 1, 1, 1) == 9


def test_engines_agree():
    # the digit automaton against the oracle's plain repeated multiplication
    cases = [(2, "1+x+x^4"), (3, "2+x+x^2"), (4, "1+2*x+x^2"), (4, "3+x+2*x^3"),
             (5, "2+3*x+x^3"), (7, "3+x+x^3")]
    for q, text in cases:
        field = FIELDS[q]
        poly = parse_poly(text, 1, field)
        gg = dense_coeffs(poly)
        for n in (0, 1, 5, 17, 40):
            assert power_census(gg, field, n) == brute_power_census(poly, n), (q, text, n)


def test_census_of_huge_exponents():
    # (1+x)^(2^h - 1) over F_2 has all 2^h coefficients equal to 1
    assert power_census([1, 1], F2, 2**4000 - 1) == {1: 2**4000}
    # over F_3 every base-3 digit of 3^h - 1 is 2, so by Lucas' theorem the
    # coefficient of x^j is 2^(number of digits 1 of j) mod 3: it is 1 for
    # the (3^h + 1) / 2 exponents j < 3^h with an even number of such digits
    h = 500
    assert power_census([1, 1], F3, 3**h - 1) == {1: (3**h + 1) // 2, 2: (3**h - 1) // 2}


@pytest.mark.parametrize("q, c, m_lo", [
    (2, 1, 0), (3, 2, 1), (7, 5, 1),
    # q^m_lo - c has fewer than m_lo digits: the walk pads it with zeros
    (2, 2, 1), (3, 7, 2), (3, 8, 2), (5, 24, 2), (2, 3, 2), (4, 13, 2),
])
def test_qpow_counts_match_digit_products(q, c, m_lo):
    field = FIELDS[q]
    for gg in ([1, 1], [1, 1, 0, 1], [q - 1, 1, 1], [1, q - 1, 0, 1, 1]):
        full = build_automaton(from_dense(gg, field))
        m_hi = m_lo + (8 if q == 2 else 4)
        for alpha in range(1, q):
            want = [full.count(q**m - c, alpha) for m in range(m_lo, m_hi + 1)]
            assert qpow_counts(gg, field, c, alpha, m_lo, m_hi) == want, (gg, alpha)
            assert count_qpow(gg, field, c, alpha, m_lo) == want[0]
    assert qpow_counts([1, 1], field, c, 1, m_lo, m_lo - 1) == []


def _g_strategy(q):
    # g of degree 1 to 4 with g(0) != 0
    return st.tuples(
        st.integers(min_value=1, max_value=q - 1),
        st.lists(st.integers(min_value=0, max_value=q - 1), min_size=0, max_size=3),
        st.integers(min_value=1, max_value=q - 1),
    ).map(lambda t: [t[0], *t[1], t[2]])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shared_walk_answers_every_request_as_a_fresh_automaton(data):
    # requests for one (g, F, c) resume one walk, backwards ones walk again
    # from the start, and requests for a second g evict the first one's walk
    q = data.draw(st.sampled_from(sorted(FIELDS)))
    field = FIELDS[q]
    gs = [data.draw(_g_strategy(q)), data.draw(_g_strategy(q))]
    c = data.draw(st.integers(min_value=1, max_value=10))
    l0 = next(m for m in itertools.count() if q**m >= c)
    fresh = [DigitAutomaton(from_dense(gg, field)) for gg in gs]
    requests = data.draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=1),             # which g
        st.integers(min_value=l0, max_value=l0 + 6),       # m_lo
        st.integers(min_value=-1, max_value=3),            # m_hi - m_lo
        st.integers(min_value=1, max_value=q - 1),         # alpha
        st.booleans(),                                     # count_qpow
    ), min_size=1, max_size=8))
    for which, m_lo, span, alpha, single in requests:
        gg = gs[which]
        if single:
            got = [count_qpow(gg, field, c, alpha, m_lo)]
            span = 0
        else:
            got = qpow_counts(gg, field, c, alpha, m_lo, m_lo + span)
        ms = range(m_lo, m_lo + span + 1)
        assert got == [fresh[which].count(q**m - c, alpha) for m in ms], (gg, c, ms)
        for m, count in zip(ms, got):
            if q**m - c <= 60:
                assert count == brute_power_census(from_dense(gg, field), q**m - c, alpha)


def test_shared_walk_keeps_the_cap_of_a_fresh_walk():
    # over F_5 the walk of 1+2x+3x^3 discovers 31 states to m = 2, and all
    # 124 of its states by m = 3
    F5 = Field(5)
    g5 = [1, 2, 0, 3]
    want = [5, 11, 76, 380, 1886, 9451]
    qpow._last_automaton.clear()
    with limits(states=124):
        assert qpow_counts(g5, F5, 1, 1, 1, 6) == want
        # a shorter walk under the same cap reads the columns already made
        assert qpow_counts(g5, F5, 1, 1, 2, 3) == want[1:3]
    assert count_qpow(g5, F5, 1, 1, 6) == want[-1]
    # a resumed walk that passes the cap raises as a fresh one would, and
    # the walk it grew is not kept
    with limits(states=123):
        assert qpow_counts(g5, F5, 1, 1, 1, 2) == want[:2]
        assert len(qpow._last_automaton) == 1
        with pytest.raises(StateCapError):
            qpow_counts(g5, F5, 1, 1, 3, 4)
    assert qpow._last_automaton == {}
    with limits(states=124):
        assert qpow_counts(g5, F5, 1, 1, 2, 6) == want[1:]


def test_threads_resuming_the_kept_walk_get_fresh_walk_counts():
    # six threads resume, rewind and evict the one kept walk at once
    cases = [([1, 1, 2], 1), ([2, 0, 1, 1], 2)]
    want = {(tuple(gg), c): [DigitAutomaton(from_dense(gg, F3)).count(3**m - c, 1)
                             for m in range(1, 9)] for gg, c in cases}
    wrong = []

    def requests(seed):
        rng = random.Random(seed)
        for _ in range(150):
            gg, c = rng.choice(cases)
            m_lo = rng.randrange(1, 7)
            got = qpow_counts(gg, F3, c, 1, m_lo, m_lo + 2)
            if got != want[tuple(gg), c][m_lo - 1:m_lo + 2]:
                wrong.append((gg, c, m_lo, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=requests, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_power_census_rejects_negative_exponent():
    with pytest.raises(QPowError):
        power_census([1, 1], F2, -1)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(sorted(FIELDS)),
    coeffs=st.lists(st.integers(min_value=0, max_value=6), min_size=5, max_size=5),
    c=st.integers(min_value=1, max_value=3),
    alpha=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_count_qpow_matches_oracle(q, coeffs, c, alpha, data):
    # random g of degree <= 4 with g(0) != 0, exponents q^m - c <= 200
    field = FIELDS[q]
    gg = unipoly.trim([coeffs[0] % (q - 1) + 1] + [x % q for x in coeffs[1:]])
    assume(len(gg) >= 2)
    m = data.draw(st.integers(min_value=0, max_value=max(
        m for m in range(9) if q**m - c <= 200)))
    assume(q**m >= c)
    alpha = alpha % (q - 1) + 1
    expected = brute_power_census(from_dense(gg, field), q**m - c, alpha)
    assert count_qpow(gg, field, c, alpha, m) == expected


def test_profile_predicts_far_counts():
    # exponents near q^60, far past any term-by-term expansion
    gg = g("3+x+x^3", Field(7))
    prof = fit_qpow_profile(gg, Field(7), 1, 1)
    for m in range(prof.l, 61):
        assert prof.predict(m) == count_qpow(gg, Field(7), 1, 1, m), m
    gg = g("1+x+x^2+x^3+x^4+2*x^5", F3)
    prof = fit_qpow_profile(gg, F3, 2, 1)
    for m in range(prof.l, 61):
        assert prof.predict(m) == count_qpow(gg, F3, 2, 1, m), m


def test_import_pulls_in_no_numpy():
    # numpy is no dependency; a fresh interpreter must not load it
    src = os.path.dirname(os.path.dirname(coeffcount.__file__))
    code = "import sys, coeffcount; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    # the records are plain slotted classes: dataclasses would import
    # inspect, ast, dis and tokenize on every start; -S keeps site's own
    # imports out of the probe
    src = os.path.dirname(os.path.dirname(coeffcount.__file__))
    code = ("import sys, coeffcount, coeffcount.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_profile_record():
    prof = fit_qpow_profile(g("1+x^2+x^5"), F2, 1, 1)
    same = QPowProfile(g=(1, 0, 1, 0, 0, 1), c=1, alpha=1, q=2, d=5, mu=1, l=0,
                       u=(Fraction(80, 31),) * 5, v=prof.v)
    assert prof == same and hash(prof) == hash(same)
    assert prof != QPowProfile((1, 0, 1, 0, 0, 1), 1, 1, 2, 5, 1, 1, prof.u, prof.v)
    with pytest.raises(AttributeError):
        prof.l = 1
    assert repr(QPowProfile(g=(1, 1), c=1, alpha=1, q=2, d=1, mu=1, l=0,
                            u=(Fraction(1, 3),), v=(Fraction(2, 3),))) == (
        "QPowProfile(g=(1, 1), c=1, alpha=1, q=2, d=1, mu=1, l=0, "
        "u=(Fraction(1, 3),), v=(Fraction(2, 3),))")


def test_profile_three_unseen_checks_per_class():
    cases = [
        ("1+x+x^2+x^3+x^4", F2, 1, 1),
        ("1+x^2+x^5", F2, 1, 1),
        ("2+x+x^2", F3, 1, 1),
        ("2+x^2+x^3", F3, 1, 2),
        ("1+x+x^2+x^3+x^4", F2, 3, 1),
    ]
    for text, field, c, alpha in cases:
        gg = g(text, field)
        prof = fit_qpow_profile(gg, field, c, alpha)
        for m in range(prof.l + 2 * prof.d, prof.l + 5 * prof.d):
            assert prof.predict(m) == count_qpow(gg, field, c, alpha, m), (text, m)


def test_squarefree_c1_profile_holds_from_zero():
    prof = fit_qpow_profile(g("1+x^2+x^5"), F2, 1, 1)
    assert prof.l == 0
    assert prof.predict(0) == 1  # g^0 = 1


def test_cube_profile_fails_below_threshold():
    base = g("1+x^2+x^5")
    cubed = unipoly.mul(F2, unipoly.mul(F2, base, base), base)
    prof = fit_qpow_profile(cubed, F2, 1, 1)
    assert prof.l == 2
    assert prof.u[0] * 1 + prof.v[0] != 1
    assert prof.u[1] * 2 + prof.v[1] != 9
    assert count_qpow(cubed, F2, 1, 1, 0) == 1
    assert count_qpow(cubed, F2, 1, 1, 1) == 9


def test_window_trinomial_u_constants():
    # g = 1 + x^(k-1) + x^k: u is constant for k = 2^h, 2^h + 1, 2^h - 1
    prof = fit_qpow_profile(g("1+x^3+x^4"), F2, 1, 1)
    assert set(prof.u) == {Fraction(32, 15)}
    prof = fit_qpow_profile(g("1+x^4+x^5"), F2, 1, 1)
    assert set(prof.u) == {Fraction(50, 21)}
    # k = 7 = 2^3 - 1: delta = lcm(2^d - 1) over factor degrees of 1+x^2+x^3,
    # which is irreducible of degree 3, so delta = 7 and u = 7 * 64 / 127
    assert unipoly.is_irreducible(F2, g("1+x^2+x^3"))
    prof = fit_qpow_profile(g("1+x^6+x^7"), F2, 1, 1)
    assert set(prof.u) == {Fraction(7 * 2**6, 2**7 - 1)}


def test_primitive_u_check():
    assert primitive_u_check(g("1+x^2+x^5"), F2) == Fraction(80, 31)
    assert primitive_u_check(g("1+x+x^3+x^4+x^5"), F2) == Fraction(80, 31)
    assert primitive_u_check(g("2+x+x^2", F3), F3) == Fraction(3, 4)
    with pytest.raises(QPowError):
        primitive_u_check(g("1+x+x^2+x^3+x^4"), F2)  # irreducible, not primitive


def test_distinct_degrees_and_radical():
    # x^6 + ... : (1+x)(1+x+x^2)^2 has factors of degrees 1 and 2
    prod = unipoly.mul(
        F2, g("1+x"), unipoly.mul(F2, g("1+x+x^2"), g("1+x+x^2"))
    )
    rad = unipoly.radical(F2, prod)
    assert unipoly.deg(rad) == 3
    assert sorted(unipoly.distinct_degrees(F2, rad)) == [1, 2]
