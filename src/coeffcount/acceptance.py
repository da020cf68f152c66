"""The acceptance suite: one function per criterion, shared by CLI and tests.

Each criterion function returns a list of (clause, ok, detail) triples;
a criterion passes when every clause does.  Heavy intermediates (oracle
ladders, automata) are cached so the CLI `verify` run and the pytest run
both stay inside the time budget; each is cached per limits in force
(`mpoly.limits`), so a tighter budget or cap is never met from a result
made under a looser one.

Two printed reference values are refuted by the exact computations.
They are kept verbatim, and their clauses assert exactly where and how
the certified counts disagree with them:

* C3(viii): the cubic [1,-2,4]/[1,-6,12,-12] printed for
  viii = 1+x1^2+x2^2+x1*x2^3 over F_2 expands to 1, 4, 16, 60, 216, 768,
  2736, ...  The repunit counts are 1, 4, 16, 60, 216, 768, 2728, 9704,
  34552, confirmed by the automaton, by the oracle ladder and by a plain
  GF(2) set expansion.  The two series first differ at index 6, and the
  certified minimal form has order 4: [1,-1,2,2]/[1,-5,6,-2,-4].
* C5(doubling): L(z) = (1+2z) L(z^2) fails for the trinomial odd-count
  series at exactly the odd indices (count(1) = 3 != 2 * count(0)),
  while count(2m) = count(m) holds; the identity does hold for the
  binomial row counts 2^s(m).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache, wraps
from math import comb, factorial

from . import closed_forms, lattice, qpow, traveling, unipoly
from .automaton import build_automaton
from .combinat import catalan, fibonacci, narayana, partitions
from .ffield import Field, base_digits
from .mpoly import ZZ, MultiPoly, current_limits, dense_coeffs, linear_product, parse_poly
from .oracle import power_census_series
from .ratgen import RationalGF, fit_repunit_genfun, genfun_equal_as_series

FIELDS = {"F2": Field(2), "F3": Field(3), "F4": Field(2, 2)}


def vandermonde_poly(nvars: int, field, plus_one: bool = False) -> MultiPoly:
    """prod_{i<j} (x_i + x_j) over the field, optionally plus 1."""
    f = linear_product(nvars, field, ({i: field.one, j: field.one}
                                      for i, j in itertools.combinations(range(nvars), 2)))
    if plus_one:
        f = f + MultiPoly.one(nvars, field)
    return f


def _corpus_texts():
    return {
        "w": ("F2", "1+x", 1),
        "i_f": ("F2", "1+x1+x2+x1*x2^2", 2),
        "i_g": ("F2", "1+x1+x2^2+x1*x2", 2),
        "ii": ("F2", "1+x1+x2+x3+x1*x2^2+x1*x3^2", 3),
        "iii": ("F2", "1+x1+x2+x3+x1*x2^2+x2*x3^2", 3),
        "iv": ("F2", "1+x1+x2+x3+x1*x2^2", 3),
        "v": ("F2", "1+x1+x2+x3+x1*x2+x1*x3^2", 3),
        "vi": ("F2", "1+x1+x2^2+x1*x2^3", 2),
        "vii": ("F2", "1+x1+x2+x1^2*x2^2", 2),
        "viii": ("F2", "1+x1^2+x2^2+x1*x2^3", 2),
        "ix": ("F2", "1+x1+x2+x2^2", 2),
        "e23i": ("F2", "1+x1+x2+x2^3", 2),
        "e23ii": ("F2", "1+x1+x2+x2^4", 2),
        "e23iii": ("F2", "1+x1+x2+x3+x1*x2^2+x1*x3^2+x2*x3^2", 3),
        "e23iv": ("F2", "1+x1+x2+x3+x1*x2^2+x2*x1^2", 3),
        "f3a": ("F3", "2+x+x^2", 1),
        "f3b": ("F3", "2+x^2+x^3", 1),
        "f4": ("F4", "1+2*x+x^2", 1),
    }


# the Vandermonde products over F_2: name -> (variables, plus one)
VANDERMONDE = {"v2": (2, False), "v3": (3, False), "v4": (4, False),
               "vp2": (2, True), "vp3": (3, True)}


@lru_cache(maxsize=None)
def corpus_poly(name: str) -> MultiPoly:
    texts = _corpus_texts()
    if name in texts:
        fkey, text, k = texts[name]
        return parse_poly(text, k, FIELDS[fkey])
    nvars, plus_one = VANDERMONDE[name]
    return vandermonde_poly(nvars, FIELDS["F2"], plus_one)


CORPUS_ALL = list(_corpus_texts()) + list(VANDERMONDE)
# v4 is exercised through the automaton and small oracle powers only; its
# 64-step expansion ladder would dominate the whole suite's runtime.
CORPUS_LADDER = [name for name in CORPUS_ALL if name != "v4"]


def _per_limits(fn):
    """fn cached by its arguments and the limits in force."""
    cached = lru_cache(maxsize=None)(lambda _, *args, **kw: fn(*args, **kw))
    return wraps(fn)(lambda *args, **kw: cached(current_limits(), *args, **kw))


@_per_limits
def corpus_automaton(name: str):
    return build_automaton(corpus_poly(name))


@_per_limits
def corpus_ladder(name: str, n_max: int = 64):
    return power_census_series(corpus_poly(name), n_max)


@_per_limits
def corpus_fit(name: str):
    return fit_repunit_genfun(corpus_automaton(name), 1)


def _clause(label, bad, ok="ok"):
    """The clause label: passing, with detail ok, when its list of failing
    cases bad is empty, and otherwise failing, with bad's first four."""
    return (label, not bad, f"failed at {bad[:4]}" if bad else ok)


# -- criterion 1: automaton vs oracle ------------------------------------------


def check_c1():
    out = []
    for name in CORPUS_LADDER:
        A = corpus_automaton(name)
        ladder = corpus_ladder(name)
        bad = [n for n in range(65) if A.census(n) != ladder[n]]
        out.append((
            f"automaton = oracle for {name} (n <= 64, all alpha)",
            not bad,
            f"mismatches: {bad[:3]}" if bad else f"{A.state_count} states",
        ))
    return out


# -- criterion 2: binomial repunit powers ---------------------------------------


def check_c2():
    A = corpus_automaton("w")
    bad = [m for m in range(31) if A.count(2**m - 1, 1) != 2**m]
    return [(
        "N((1+x)^(2^m-1)) = 2^m for m <= 30 via digit products",
        not bad,
        f"failed at m = {bad}" if bad else "ok",
    )]


# -- criterion 3: repunit generating functions -----------------------------------

C3_PRINTED_GF = {
    "i_f": ([1, -1], [1, -5, 6]),
    "i_g": ([1, -1], [1, -5, 6]),
    "ii": ([1, -1], [1, -7, 12]),
    "iii": ([1, -1], [1, -7, 10]),
    "viii": ([1, -2, 4], [1, -6, 12, -12]),  # refuted at index 6, see below
    "ix": ([1, 2], [1, -2, -4]),
    "e23i": ([1, 1, 0, -2], [1, -3, -2, 2, 4]),
    "e23ii": ([1, 1, 4, 2, -4], [1, -3, 0, -2, -8, 8]),
    "e23iii": ([1, -2, 1], [1, -9, 23, -19]),
    "e23iv": ([1, -1, 2, -4], [1, -7, 12, -12, 8]),
}

C3_OPERATORS = {
    "iv": [1, -6, 7],
    "v": [1, -7, 8],
    "vii": [1, -5, 6, -2, -4],
    "vp3": [1, -5, -2],
}

C3_CLOSED = {
    "i_f": lambda n: 2 * 3**n - 2**n,
    "i_g": lambda n: 2 * 3**n - 2**n,
    "ii": lambda n: 3 * 4**n - 2 * 3**n,
    "iii": lambda n: (4 * 5**n - 2**n) // 3,
    "v2": lambda n: 2**n,
    "vp2": lambda n: 3**n,
    "v3": lambda n: 1 if n == 0 else 6 * 4 ** (n - 1),
    "v4": lambda n: 1 if n == 0 else 5 * 8**n - 8 * 2**n,
}


C3_VIII_FIRST_MISMATCH = (6, 2736, 2728)  # (index, printed, computed)
C3_VIII_FITTED = ([1, -1, 2, 2], [1, -5, 6, -2, -4])
C3_VIII_CLAUSE = ("printed GF of viii refuted at index 6 (2736 printed, "
                  "2728 computed); fitted GF has order 4")


def _viii_refutation_clause():
    """The printed cubic of viii is kept verbatim; this clause passes
    exactly when the repunit counts agree with the oracle ladder, the
    printed series first differs from them at index 6 (2736 vs 2728),
    and the fitted generating function is the order-4 form."""
    seq, rec, gf = corpus_fit("viii")
    ladder = corpus_ladder("viii")
    ladder_bad = [m for m in range(len(seq)) if 2**m - 1 < len(ladder)
                  and seq[m] != ladder[2**m - 1].get(1, 0)]
    printed = RationalGF.make(*C3_PRINTED_GF["viii"]).expand(len(seq))
    diff = next((i for i, (a, b) in enumerate(zip(printed, seq)) if a != b), None)
    first = None if diff is None else (diff, printed[diff], seq[diff])
    fitted_ok = (rec.order == len(C3_VIII_FITTED[1]) - 1
                 and genfun_equal_as_series(gf, RationalGF.make(*C3_VIII_FITTED)))
    ok = not ladder_bad and first == C3_VIII_FIRST_MISMATCH and fitted_ok
    return (C3_VIII_CLAUSE, ok,
            f"counts {seq[:9]}; oracle mismatches at m = {ladder_bad}; "
            f"first (index, printed, computed) = {first}; fitted "
            f"{list(gf.num)}/{list(gf.den)} (order {rec.order})")


def check_c3():
    out = []
    for name, (num, den) in C3_PRINTED_GF.items():
        if name == "viii":
            out.append(_viii_refutation_clause())
            continue
        seq, rec, gf = corpus_fit(name)
        ok = genfun_equal_as_series(gf, RationalGF.make(num, den))
        out.append((
            f"fitted repunit GF of {name} = printed form",
            ok,
            "ok" if ok else (
                "printed form refuted: fitted "
                f"{list(gf.num)}/{list(gf.den)} vs printed {num}/{den}; "
                f"counts {seq[:8]}"
            ),
        ))
    for name, den in C3_OPERATORS.items():
        seq, rec, gf = corpus_fit(name)
        ok = genfun_equal_as_series(
            gf, RationalGF.with_denominator(den, seq[:len(den) - 1]))
        out.append((f"fitted GF of {name} satisfies the printed operator", ok,
                    f"order {rec.order}"))
    for name, form in C3_CLOSED.items():
        seq, rec, gf = corpus_fit(name)
        bad = [n for n in range(len(seq)) if seq[n] != form(n)]
        out.append(_clause(f"repunit counts of {name} match the closed form",
                           bad, f"{len(seq)} terms"))
    return out


# -- criterion 4: q-power profiles ------------------------------------------------


def _frac_list(numers, den):
    return tuple(Fraction(x, den) for x in numers)


@_per_limits
def _qpow_profile(gtext: str, fkey: str, c: int, alpha: int, cube: bool = False):
    field = FIELDS[fkey]
    g = dense_coeffs(parse_poly(gtext, 1, field))
    if cube:
        g = unipoly.mul(field, unipoly.mul(field, g, g), g)
    return qpow.fit_qpow_profile(g, field, c, alpha), g, field


def _profile_clause(label, gtext, fkey, c, alpha, want, cube=False):
    prof, g, field = _qpow_profile(gtext, fkey, c, alpha, cube)
    checks = []
    for key, expect in want.items():
        checks.append((key, getattr(prof, key) == expect, getattr(prof, key)))
    # one more unseen ground-truth point per residue class
    m_lo = prof.l + 3 * prof.d
    counts = qpow.qpow_counts(g, field, c, alpha, m_lo, m_lo + prof.d - 1)
    for m, actual in enumerate(counts, m_lo):
        checks.append((f"m={m}", prof.predict(m) == actual, actual))
    bad = [(k, got) for k, ok, got in checks if not ok]
    return (label, not bad, f"wrong: {bad}" if bad else
            f"d={prof.d} l={prof.l} verified to m={prof.l + 4 * prof.d - 1}")


def check_c4():
    F31 = Fraction(1, 31)
    out = [
        _profile_clause(
            "(a) 1+x+x^2+x^3+x^4, c=1", "1+x+x^2+x^3+x^4", "F2", 1, 1,
            dict(d=4, mu=1, l=0,
                 u=_frac_list([8, 12, 8, 12], 5),
                 v=_frac_list([-3, 1, 3, -1], 5)),
        ),
        _profile_clause(
            "(b) 1+x^2+x^5, c=1", "1+x^2+x^5", "F2", 1, 1,
            dict(d=5, l=0, u=tuple([Fraction(80, 31)] * 5),
                 v=_frac_list([-49, -67, -41, 11, -9], 31)),
        ),
        _profile_clause(
            "(c) 1+x+x^3+x^4+x^5, c=1", "1+x+x^3+x^4+x^5", "F2", 1, 1,
            dict(d=5, u=tuple([Fraction(80, 31)] * 5),
                 v=_frac_list([-49, -5, -41, 11, -9], 31)),
        ),
        _profile_clause(
            "(d) (1+x^2+x^5)^3, c=1", "1+x^2+x^5", "F2", 1, 1,
            dict(d=5, mu=3, l=2, u=tuple([Fraction(168, 31)] * 5),
                 v=_frac_list([297, -243, -393, -507, -177], 31)),
            cube=True,
        ),
        _profile_clause(
            "(e1) 1+x+x^2+x^3+x^4, c=3", "1+x+x^2+x^3+x^4", "F2", 3, 1,
            dict(d=4, l=2, u=_frac_list([9, 11, 9, 11], 5),
                 v=_frac_list([11, 3, -11, -3], 5)),
        ),
        _profile_clause(
            "(e2) 1+x^2+x^5, c=3", "1+x^2+x^5", "F2", 3, 1,
            dict(d=5, l=2, u=tuple([Fraction(60, 31)] * 5),
                 v=_frac_list([33, -27, -147, -201, -123], 31)),
        ),
        _profile_clause(
            "(e3) 1+x+x^2+x^3+x^4+x^5, c=3", "1+x+x^2+x^3+x^4+x^5", "F2", 3, 1,
            dict(d=2, mu=2, l=3, u=tuple([Fraction(13, 6)] * 2),
                 v=(Fraction(4, 3), Fraction(-4, 3))),
        ),
        _profile_clause(
            "(f) 2+x+x^2 over F3, alpha=1", "2+x+x^2", "F3", 1, 1,
            dict(d=2, l=0, u=tuple([Fraction(3, 4)] * 2),
                 v=(Fraction(1, 4), Fraction(3, 4))),
        ),
        _profile_clause(
            "(f) 2+x+x^2 over F3, alpha=2", "2+x+x^2", "F3", 1, 2,
            dict(u=tuple([Fraction(3, 4)] * 2),
                 v=(Fraction(-3, 4), Fraction(-1, 4))),
        ),
        _profile_clause(
            "(f) 2+x^2+x^3 over F3, alpha=1", "2+x^2+x^3", "F3", 1, 1,
            dict(d=3, u=tuple([Fraction(18, 13)] * 3),
                 v=_frac_list([-5, 11, 7], 13)),
        ),
        _profile_clause(
            "(f) 2+x^2+x^3 over F3, alpha=2", "2+x^2+x^3", "F3", 1, 2,
            dict(u=tuple([Fraction(9, 13)] * 3),
                 v=_frac_list([-9, -14, -3], 13)),
        ),
        _profile_clause(
            "(g) 1+x^3+x^4 (k = 4), c=1", "1+x^3+x^4", "F2", 1, 1,
            dict(d=4, u=tuple([Fraction(32, 15)] * 4)),
        ),
        _profile_clause(
            "(g) 1+x^4+x^5 (k = 5), c=1", "1+x^4+x^5", "F2", 1, 1,
            dict(d=6, u=tuple([Fraction(50, 21)] * 6)),
        ),
    ]
    # (d) exceptional small-m values and failure of the law below l
    prof, g, field = _qpow_profile("1+x^2+x^5", "F2", 1, 1, cube=True)
    n0, n1 = qpow.qpow_counts(g, field, 1, 1, 0, 1)
    law0 = prof.u[0] * 1 + prof.v[0]
    law1 = prof.u[1] * 2 + prof.v[1]
    out.append((
        "(d) N(0)=1, N(1)=9, and the m>=2 law fails below threshold",
        n0 == 1 and n1 == 9 and law0 != 1 and law1 != 9,
        f"N(0)={n0} N(1)={n1} law(0)={law0} law(1)={law1}",
    ))
    # (e3) the law starts at m = 3; at m = 2 the actual count differs
    prof, g, field = _qpow_profile("1+x+x^2+x^3+x^4+x^5", "F2", 3, 1)
    n2 = qpow.count_qpow(g, field, 3, 1, 2)
    extended = prof.u[0] * 4 + prof.v[0]
    out.append((
        "(e3) N(2)=6 while the fitted law would give a different value",
        n2 == 6 and extended != 6,
        f"N(2)={n2} law(2)={extended}",
    ))
    # primitive u values
    F2, F3 = FIELDS["F2"], FIELDS["F3"]
    prim = [
        ("1+x^2+x^5", F2, Fraction(80, 31)),
        ("1+x+x^3+x^4+x^5", F2, Fraction(80, 31)),
        ("1+x^3+x^4", F2, Fraction(32, 15)),
        ("2+x+x^2", F3, Fraction(3, 4)),
    ]
    bad = []
    for text, field, expect in prim:
        got = qpow.primitive_u_check(dense_coeffs(parse_poly(text, 1, field)), field)
        if got != expect:
            bad.append((text, got))
    out.append(_clause("primitive polynomials give u = d q^(d-1)/(q^d - 1)", bad))
    return out


# -- criterion 5: closed forms -----------------------------------------------------


def check_c5():
    out = []
    out.append(("run-product count at 6039 equals 2079",
                closed_forms.trinomial_odd_count(6039) == 2079, "ok"))
    F2 = FIELDS["F2"]
    tri = parse_poly("1+x+x^2", 1, F2)
    ladder = power_census_series(tri, 512)
    bad = [n for n in range(513)
           if ladder[n].get(1, 0) != closed_forms.trinomial_odd_count(n)]
    out.append(_clause("trinomial odd counts match the oracle for n <= 512", bad))
    for p in (2, 3, 5):
        field = Field(p)
        f = parse_poly("+".join(f"x^{i}" for i in range(p)).replace("x^0", "1"),
                       1, field)
        lad = power_census_series(f, 60)
        bad = [n for n in range(61)
               if sum(lad[n].values()) != closed_forms.all_ones_power_count(n, p)]
        out.append(_clause(f"all-ones power counts match the oracle (p = {p}, n <= 60)",
                           bad))
    bad = []
    for n in range(13):
        lhs, rhs = closed_forms.averaging_identity_sides(n)
        if lhs != rhs:
            bad.append(n)
    out.append(_clause("run-product averages equal 2^n F(n+2) for n <= 12", bad))
    out.append(_doubling_clause())
    return out


C5_DOUBLING_CLAUSE = (
    "L(z) = (1+2z) L(z^2) through order 128: the trinomial series fails at "
    "exactly the odd indices; the binomial row series satisfies it")


def _doubling_clause():
    """The doubling identity is refuted for the trinomial odd-count series
    exactly at the odd indices (count(1) = 3 != 2 * count(0)), so its even
    part count(2m) = count(m) holds; on the binomial row counts 2^s(m),
    read off the oracle census of (1+x)^m over F_2, it holds at every
    index.  The second half shows the comparison itself can pass."""
    order = 128
    tri = closed_forms.trinomial_series_vs_doubling(order)
    binomial = [c.get(1, 0) for c in power_census_series(corpus_poly("w"), order - 1)]
    bino = closed_forms.doubling_mismatches(binomial)
    odd = list(range(1, order, 2))
    return (C5_DOUBLING_CLAUSE, tri == odd and not bino,
            f"trinomial mismatches off the odd indices: "
            f"{sorted(set(tri) ^ set(odd))[:6]}; "
            f"binomial mismatches: {bino[:6]}")


# -- criterion 6: chain products ---------------------------------------------------


def check_c6():
    out = []
    for p in (2, 3, 5):
        series = traveling.h_seq(p, 9)
        bad = []
        for n in range(9):
            if traveling.h_poly(p, n).num_terms != series[n]:
                bad.append(n)
        out.append(_clause(f"chain-product series = oracle (p = {p}, n <= 8)", bad))
    for p in (2, 3, 5):
        one_minus_zp = unipoly.sub(ZZ, [1], [0] * p + [1])
        printed = RationalGF.make(
            one_minus_zp,
            unipoly.sub(ZZ, unipoly.mul(ZZ, [1, -1], [1, -1]),
                        unipoly.mul(ZZ, [0, 1], one_minus_zp)),
        )
        ok = genfun_equal_as_series(traveling.h_genfun(p), printed)
        out.append((f"cleared chain GF equals the printed form (p = {p})", ok, "ok"))
    out.append(("univariate collapse check (p = 3, n <= 6)",
                traveling.univariate_chain_check(3, 6), "ok"))
    out.append(("univariate collapse check (p = 5, n <= 3)",
                traveling.univariate_chain_check(5, 3), "ok"))
    return out


# -- criterion 7: lattice counts ----------------------------------------------------


def check_c7():
    out = []
    bad = [n for n in range(13)
           if len(lattice.draconian_sequences(n)) != catalan(n)]
    out.append(_clause("ballot-sequence counts equal Catalan numbers (n <= 12)", bad))

    bad = []
    for n in range(1, 7):
        for ascending in itertools.combinations_with_replacement(range(7), n):
            parts = ascending[::-1]  # weakly decreasing
            poly = lattice.nested_sum_product(parts)
            if lattice.distinct_monomial_count(parts) != poly.num_terms:
                bad.append(parts)
    out.append(_clause("nested-sum monomial counts match expansion (n <= 6, parts <= 6)",
                       bad))

    bad = []
    for n in range(1, 6):
        for ts in itertools.product(range(4), repeat=n):
            if lattice.ps_points_direct(ts) != lattice.ps_points_formula(ts):
                bad.append(ts)
    out.append(_clause("polytope points: direct enumeration = ballot formula "
                       "(n <= 5, t_i <= 3)", bad))

    bad = []
    for n in range(1, 6):
        for ts in itertools.product(range(1, 4), repeat=n):
            lam = [sum(ts[i:]) for i in range(n)]
            if lattice.distinct_monomial_count(lam) != lattice.ps_points_direct(
                list(ts[:-1]) + [ts[-1] - 1]
            ):
                bad.append(ts)
    out.append(_clause("monomial count = polytope count bridge (n <= 5, t_i <= 3)", bad))

    bad = []
    for n in range(1, 6):
        for t in range(1, 4):
            closed = comb((t + 1) * n - 2, n - 1) // n
            if not (
                closed * n == comb((t + 1) * n - 2, n - 1)
                and lattice.path_count_under_boundary(n, 1, t) == closed
                and len(lattice.lpath_sequences(n, t)) == closed
            ):
                bad.append((n, t))
    out.append(_clause("uniform staircase: closed form = path DP = slice count "
                       "(n <= 5, t <= 3)", bad))

    bad = []
    for n in range(1, 9):
        for s in range(1, 5):
            for t in range(1, 5):
                closed = lattice.shifted_path_count(n, s, t, "closed")
                dp = lattice.path_count_under_boundary(n, s, t)
                L = lattice.shifted_path_count(n, s, t, "Lsum")
                K = lattice.shifted_path_count(n, s, t, "Ksum")
                if not closed == dp == L == K:
                    bad.append((n, s, t))
    out.append(_clause("shifted staircase: closed form = path DP = both ballot sums "
                       "(n <= 8, s,t <= 4)", bad))

    bad = []
    for n in range(1, 5):
        for ms in itertools.product(range(-2, 4), repeat=n):
            l, r, eq = lattice.noncrossing_identity(ms)
            if not eq:
                bad.append(ms)
    out.append(_clause("matching identity holds for all m in [-2,3]^n, n <= 4 "
                       "(including negative and non-monotone)", bad))

    bad = []
    for n in range(1, 6):
        for m in range(0, n + 1):
            N = lattice.ascending_product_poly(n, m).num_terms
            if N != lattice.ascending_product_count(n, m):
                bad.append((n, m))
    out.append(_clause("ascending products match the tableau count (n <= 5)", bad))

    bad = []
    for n in range(1, 6):
        for k in range(1, 4):
            N = lattice.fuss_product_poly(n, k).num_terms
            if N != lattice.fuss_catalan(n, k):
                bad.append((n, k))
    out.append(_clause("staircase k-th powers give Fuss-Catalan counts (n <= 5)", bad))

    rows = lattice.staircase_grid_report(4, 3)
    grid_ok = all(str(row[2]) == row[4] for row in rows)
    out.append((
        "staircase-power grid: oracle equals shifted ratio-matrix entry "
        "R(n+k, k); full grid reported",
        grid_ok,
        "; ".join(f"n={r[0]} k={r[1]} oracle={r[2]} R(n,k)={r[3]} "
                  f"R(n+k,k)={r[4]} weighted={r[5]}" for r in rows[:4]) + " ...",
    ))

    bad = []
    for n in range(1, 5):
        for ms in itertools.product(range(5), repeat=n):
            if lattice.ps_interior_direct(ms) != lattice.ps_points_direct(
                lattice.ps_interior_transform(ms)
            ):
                bad.append(ms)
    out.append(_clause("interior points match the reciprocity transform (n <= 4, "
                       "m_i <= 4)", bad))

    bad = []
    for n in range(2, 9):
        for s in range(1, 4):
            total = 0
            for lam in partitions(n - 1):
                mult = Counter(lam)
                M = sum(mult.values())
                coef = comb(n, M) * factorial(M)
                for m in mult.values():
                    coef //= factorial(m)
                prod = 1
                for part, m in mult.items():
                    prod *= comb(part + s - 1, part) ** m
                total += coef * prod
            if total != comb((s + 1) * n - 2, n - 1):
                bad.append((n, s))
    out.append(_clause("partition-sum identity with coefficient C(n, #parts) "
                       "(n <= 8, s <= 3)", bad))

    bad = [n for n in range(2, 13) if lattice.catalan_inversion(n) != catalan(n)]
    n1 = lattice.catalan_inversion(1)
    out.append(("alternating inversion reproduces Catalan for 2 <= n <= 12 "
                "(n = 1 gives 2, frozen)", not bad and n1 == 2,
                f"{bad} n1={n1}" if bad or n1 != 2 else "ok"))
    return out


# -- criterion 8: traveling products -------------------------------------------------


def check_c8():
    out = []
    bad = []
    for j in range(1, 4):
        for k in range(1, 5):
            seq = traveling.traveling_seq(j, k, 8)
            for n in range(8):
                if traveling.traveling_poly(j, k, n).num_terms != seq[n]:
                    bad.append((j, k, n))
    out.append(_clause("traveling counts match the oracle (j <= 3, k <= 4, n <= 7)", bad))

    seq = traveling.traveling_seq(1, 3, 21)
    bad = [n for n in range(21) if seq[n] != fibonacci(2 * n + 2)]
    out.append(_clause("j=1, k=3 sequence equals F(2n+2) for n <= 20", bad))

    bad = [(k, m) for k in range(7) for m in range(7)
           if traveling.charpoly(traveling.connectivity_matrix(k, m))
           != traveling.theta_charpoly(k, m)]
    out.append(_clause("transfer-matrix characteristic polynomial: determinant = "
                       "closed form (k, m <= 6)", bad))

    bad = []
    for k in range(1, 4):
        for m in range(1, 3):
            ser = traveling.window_power_counts(k, m, 6)
            for n in range(6):
                if traveling.window_power_poly(n, k, m).num_terms != ser[n]:
                    bad.append((k, m, n))
    out.append(_clause("window-power series match the oracle (k <= 3, m <= 2, n <= 5)",
                       bad))

    bad = []
    for m in range(1, 5):
        gf2 = traveling.window_power_genfun(2, m)
        want2 = RationalGF.make([1, narayana(m, 2)],
                                [1, -(2 * m + 1), comb(m + 1, 2)])
        gf3 = traveling.window_power_genfun(3, m)
        want3 = RationalGF.make(
            [1, 2 * comb(m, 2) + comb(m + 1, 3), narayana(m, 3)],
            [1, -comb(3 * m + 1, 1), comb(2 * m + 1, 2), -comb(m + 1, 3)],
        )
        gf4 = traveling.window_power_genfun(4, m)
        want4 = RationalGF.make(
            [1,
             3 * comb(m, 2) + 2 * comb(m + 1, 3) + comb(m + 2, 4),
             10 * comb(m, 3) + 23 * comb(m, 4) + 10 * comb(m, 5),
             narayana(m, 4)],
            [1, -comb(4 * m + 1, 1), comb(3 * m + 1, 2), -comb(2 * m + 1, 3),
             comb(m + 1, 4)],
        )
        for k, gf, want in ((2, gf2, want2), (3, gf3, want3), (4, gf4, want4)):
            if not genfun_equal_as_series(gf, want):
                bad.append((k, m))
    out.append(_clause("window-power numerators match the printed templates "
                       "(k in {2,3,4}, m <= 4)", bad))

    bad = []
    for n in range(4):
        for k in range(4):
            for m in range(4):
                if traveling.j_poly(n, k, m).num_terms != traveling.j_count(n, k, m):
                    bad.append((n, k, m))
    out.append(_clause("one-variable window counts match the closed form (n,k,m <= 3)",
                       bad))

    bad = []
    gfG = traveling.spaced_triple_genfun()
    serG = gfG.expand(9)
    for n in range(9):
        N = traveling.spaced_triple_poly(n).num_terms
        if not (N == traveling.spaced_triple_count(n) == serG[n]):
            bad.append(n)
    out.append(_clause("spaced-triple counts: closed form = GF = oracle (n <= 8)", bad))

    bad = []
    for t in (1, 2):
        ser = traveling.pm_chain_genfun(t).expand(9)
        for n in range(9):
            p = traveling.pm_chain_poly(n, t)
            cen = p.coeff_census()
            balanced = (set(cen) <= {1, -1}
                        and cen.get(1, 0) - cen.get(-1, 0) == 1)
            if p.num_terms != ser[n] or not balanced:
                bad.append((t, n))
    out.append(_clause("plus-minus chains: counts match GF; coefficients all +-1 with "
                       "one extra +1 (n <= 8)", bad))

    want = [1, 2, 6, 22, 90]
    got = [traveling.schroeder_sum(n) for n in range(5)]
    oracle = [traveling.d_count(n + 1, 0) for n in range(5)]
    ok = got == oracle == want
    out.append(("two-colored ascent counts give Schroeder numbers 2, 6, 22, 90 "
                "(n <= 4)", ok, f"sum={got} oracle={oracle}"))

    rows = traveling.duplication_report(10)
    out.append((
        "doubling-recurrence comparison table emitted (no assertion)",
        len(rows) == 8,
        "; ".join(f"n={r[0]} nu={r[1]} nu/2={r[2]} N(D(n-2,2))={r[3]} "
                  f"N(D(n-3,2))={r[4]}" for r in rows),
    ))
    return out


# -- criterion 9: automaton invariants -------------------------------------------------


def check_c9():
    out = []
    bad = []
    for name in CORPUS_ALL:
        A = corpus_automaton(name)
        if A.column_sum_violations():
            bad.append(name)
    out.append(_clause("every transition column sums to q^k over the whole corpus",
                       bad, f"{len(CORPUS_ALL)} automata"))

    import random

    rng = random.Random(20260808)
    bad = []
    for _ in range(50):
        name = rng.choice(CORPUS_ALL)
        A = corpus_automaton(name)
        n = rng.randrange(0, 5000)
        zeros = rng.randrange(1, 6)
        alpha = rng.randrange(1, A.field.q)
        base = A.count(n, alpha)
        for vec in A.walk(base_digits(n, A.field.q) + [0] * zeros):
            pass
        padded = A.read_counts(alpha, [vec])[0]
        if padded != base:
            bad.append((name, n, zeros))
    out.append(_clause("leading zero digits never change the count (50 random cases)",
                       bad))
    return out


CRITERIA = [
    ("C1", "automaton vs oracle over the corpus", check_c1),
    ("C2", "binomial repunit powers", check_c2),
    ("C3", "repunit generating functions", check_c3),
    ("C4", "q-power profiles", check_c4),
    ("C5", "digit closed forms", check_c5),
    ("C6", "chain products", check_c6),
    ("C7", "lattice counts", check_c7),
    ("C8", "traveling products", check_c8),
    ("C9", "automaton invariants", check_c9),
]


def run_suite(suite: str = "full"):
    """Run acceptance checks; returns (results, ok) where results are
    (criterion, clause, ok, detail) rows."""
    if suite == "minimal":
        return run_minimal()
    results = []
    ok = True
    for key, desc, fn in CRITERIA:
        for clause, cok, detail in fn():
            results.append((key, clause, cok, detail))
            if not cok:
                ok = False
    return results, ok


def run_minimal():
    """A fast smoke slice of the suite; every check here must pass."""
    results = []
    A = corpus_automaton("w")
    results.append(("C1", "worked example: count(11) = 8", A.count(11, 1) == 8, ""))
    results.append(("C2", "count(2^10 - 1) = 2^10",
                    A.count(2**10 - 1, 1) == 1024, ""))
    seq, rec, gf = corpus_fit("ix")
    results.append(("C3", "family ix GF = (1+2z)/(1-2z-4z^2)",
                    genfun_equal_as_series(
                        gf, RationalGF.make([1, 2], [1, -2, -4])), ""))
    prof, g, field = _qpow_profile("1+x^2+x^5", "F2", 1, 1)
    results.append(("C4", "primitive quintic profile u = 80/31",
                    set(prof.u) == {Fraction(80, 31)}, ""))
    results.append(("C5", "run-product count at 6039",
                    closed_forms.trinomial_odd_count(6039) == 2079, ""))
    results.append(("C6", "chain series starts 1, 3, 7, 17, 41 (p = 2)",
                    traveling.h_seq(2, 5) == [1, 3, 7, 17, 41], ""))
    results.append(("C7", "ballot sequences: |K_6| = C_6",
                    len(lattice.draconian_sequences(6)) == catalan(6), ""))
    results.append(("C8", "traveling (1,3) counts are F(2n+2)",
                    traveling.traveling_seq(1, 3, 8)
                    == [fibonacci(2 * n + 2) for n in range(8)], ""))
    results.append(("C9", "column sums are q^k for the worked example",
                    not corpus_automaton("w").column_sum_violations(), ""))
    ok = all(r[2] for r in results)
    return results, ok
