"""Coefficient counts of g(x)^(q^m - c) and their periodic-plus-exponential law.

For univariate g over F_q with g(0) != 0, the number of coefficients of
g^(q^m - c) equal to a nonzero alpha has the exact form
u(m) * q^m + v(m) with u, v periodic of period d, where d is the degree
of the splitting field of g, valid once m >= ceil(log_q(mu * c)) for mu
the largest multiplicity of an irreducible factor.  This module reads
d and mu off one distinct-degree split (`unipoly.degree_chains`),
counts the coefficients through the digit automaton of g (a product of
integer matrices along the base-q digits of the exponent, whose columns
are made only where the walk needs them), and solves for the periodic
tables u, v over exact rationals.

Since q^(m+1) - c = (q^m - c) + (q-1) q^m, the base-q digits of
q^(m+1) - c are those of q^m - c, zero-padded to m digits, followed by
q-1, so all the exponents of one (g, F_q, c) lie on one digit walk of
g's automaton.  The automaton keeps its last walk and resumes it
(`DigitAutomaton.end_vector`), and the module keeps the automaton of the
most recent (g, F_q, c, limits): a profile fit and the counts read after
it share their digit products and columns.  A walk of one key always
follows the same digits, so counts, state numbering and state-cap errors
are those of a fresh automaton.

A fit is bounded before it starts: a field past the automaton's q, or a
g of degree past MAX_QPOW_DEGREE, is refused before g is factored, and a
fit whose walk l + 3d - 1 passes MAX_FIT_DIGITS digits is refused before
the walk.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import automaton, unipoly
from .ffield import Field, is_primitive
from .mpoly import MultiPoly, current_limits, dense_coeffs, from_dense
from .ratgen import _Record


# Measured on a 2-CPU Xeon under Python 3.11, worst of three random g:
# factoring g of degree 64 takes at most 0.6 s over every F_q with q <= 256
# (0.05 s over F_2), degree 100 1.6-2.3 s over F_31, F_251 and F_256, and
# degree 128 up to 3.3 s.  The slowest admitted g, 0.68 s, is an irreducible
# of degree 64 over F_251; a prime power P^e, whose split runs up to deg P,
# costs no more (over F_251, P^2 with deg P = 32 takes 0.66 s, P^8 0.21 s).
MAX_QPOW_DEGREE = 64
# The fit walks m = 0 .. l + 3d - 1 over digit q - 1.  1000 digits take
# 0.007 s on a 15-state walk, 0.25 s on a 2040-state one and 2.8 s on a
# 12 285-state one; 3000 digits take 0.026, 0.76 and 10 s.  Every x^D - 1
# with D <= MAX_QPOW_DEGREE splits in degree d <= D, far below the cap.
MAX_FIT_DIGITS = 1000


class QPowError(ValueError):
    pass


def _as_dense(g, field: Field, check: bool = True):
    """Accept a univariate MultiPoly or a dense list of integers, each made
    an encoding by Field.encoding; with check, refuse a constant g or one
    with g(0) = 0."""
    if isinstance(g, MultiPoly):
        if g.ring != field:
            raise QPowError("polynomial ring does not match the field")
        g = dense_coeffs(g)
    else:
        g = unipoly.trim([field.encoding(c) for c in g])
    if check and len(g) < 2:
        raise QPowError("g must be nonconstant")
    if check and g[0] == 0:
        raise QPowError("g(0) must be nonzero")
    return g


def _degree_and_multiplicity(g, field: Field):
    """(d, mu) of g from one pass of `unipoly.degree_chains`: d is the lcm
    of the factor degrees and mu the length of the longest chain; g of
    degree past MAX_QPOW_DEGREE is refused before it is factored."""
    g = _as_dense(g, field)
    if len(g) - 1 > MAX_QPOW_DEGREE:
        raise QPowError(f"g of degree {len(g) - 1} exceeds the factoring cap "
                        f"of degree {MAX_QPOW_DEGREE}")
    chains = list(unipoly.degree_chains(field, g))
    return math.lcm(*(i for i, _ in chains)), max(len(chain) for _, chain in chains)


def splitting_degree(g, field: Field) -> int:
    """Degree of the extension of F_q generated by all roots of g.

    Computed as the lcm of the degrees of the distinct irreducible
    factors, read off one distinct-degree split.
    """
    return _degree_and_multiplicity(g, field)[0]


def max_multiplicity(g, field: Field) -> int:
    """Largest multiplicity of an irreducible factor of g."""
    return _degree_and_multiplicity(g, field)[1]


# -- counting through the digit automaton -------------------------------------


def _exponent(field: Field, c: int, m: int) -> int:
    """The exponent q^m - c, checked to be a nonnegative integer."""
    if c < 1:
        raise QPowError("c must be a positive integer")
    n = field.q**m - c
    if n < 0:
        raise QPowError(f"q^m = {field.q**m} is smaller than c = {c}")
    return n


def _alpha_val(field: Field, alpha) -> int:
    val = field.encoding(alpha)
    if val == 0:
        raise QPowError("alpha must be nonzero")
    return val


# The automaton of the most recent (g, F, c, limits), at most one.  A call
# takes it out and puts it back only after a success, so an automaton whose
# walk failed is dropped and no two threads ever walk the same one.
_last_automaton: dict = {}


def qpow_counts(g, field: Field, c: int, alpha, m_lo: int, m_hi: int):
    """Exact N_alpha(m) for m = m_lo .. m_hi (empty when m_hi < m_lo).

    q^(m+1) - c = (q^m - c) + (q-1) q^m, so each count resumes the kept
    walk of the one before it (`DigitAutomaton.end_vector`) at the cost of
    one digit product.  The automaton of the most recent (g, field, c,
    limits) is kept between calls: a call whose first exponent extends its
    last walk resumes it, any other walks again from the start over the
    columns already made.  Either way the automaton may discover at most
    the state cap of states, and StateCapError is raised exactly when a
    fresh automaton's walks to m_lo .. m_hi would raise it; the automaton
    of a failed call is not kept.  alpha is read only from the vectors, so
    every alpha shares the walk.
    """
    g = _as_dense(g, field)
    _exponent(field, c, m_lo)
    alpha_val = _alpha_val(field, alpha)
    if m_hi < m_lo:
        return []
    key = (tuple(g), field, c, current_limits())
    A = _last_automaton.pop(key, None)
    if A is None:
        A = automaton.DigitAutomaton(from_dense(g, field))
    q = field.q
    counts = A.read_counts(alpha_val, [A.end_vector(q**m - c) for m in range(m_lo, m_hi + 1)])
    _last_automaton.clear()
    _last_automaton[key] = A
    return counts


def count_qpow(g, field: Field, c: int, alpha, m: int):
    """Exact N_alpha(m): coefficients of g^(q^m - c) equal to alpha."""
    return qpow_counts(g, field, c, alpha, m, m)[0]


def power_census(g, field: Field, n: int):
    """Census of g^n: each nonzero coefficient value and its multiplicity."""
    if n < 0:
        raise QPowError("n must be nonnegative")
    g = from_dense(_as_dense(g, field, check=False), field)
    return automaton.DigitAutomaton(g).census(n)


class QPowProfile(_Record):
    """The fitted law N_alpha(m) = u(m mod d) q^m + v(m mod d) for m >= l."""

    __slots__ = ("g", "c", "alpha", "q", "d", "mu", "l", "u", "v")

    def predict(self, m: int) -> int:
        if m < self.l:
            raise QPowError(f"profile valid only for m >= {self.l}")
        val = self.u[m % self.d] * self.q**m + self.v[m % self.d]
        if val.denominator != 1:
            raise QPowError("non-integer prediction; profile is inconsistent")
        return int(val)


def fit_qpow_profile(g, field: Field, c: int, alpha) -> QPowProfile:
    """Measure d, mu, l and solve for the periodic tables u, v.

    For each residue class r mod d the two smallest admissible m fix u(r)
    and v(r) by a 2x2 linear solve over exact rationals; a third value in
    the class is then verified, so an inconsistent fit cannot escape.  One
    run of the (g, field, c) walk, within the state cap, counts all
    3d exponents, and counts read after the fit resume that walk.  A field
    the automaton cannot count over and a degree past MAX_QPOW_DEGREE are
    refused before g is factored, and a walk past MAX_FIT_DIGITS digits
    before it starts.
    """
    g = _as_dense(g, field)
    automaton.check_field(field)
    d, mu = _degree_and_multiplicity(g, field)
    # smallest l >= 0 with q^l >= mu*c, i.e. ceil(log_q(mu*c))
    l = 0
    while field.q**l < mu * c:
        l += 1
    # the classes' first three admissible m are exactly l .. l + 3d - 1
    m_hi = l + 3 * d - 1
    if m_hi > MAX_FIT_DIGITS:
        raise QPowError(f"the fit would walk {m_hi} digits (splitting degree "
                        f"d = {d}), past the cap of {MAX_FIT_DIGITS}")
    q = field.q
    counts = qpow_counts(g, field, c, alpha, l, m_hi)
    u = [Fraction(0)] * d
    v = [Fraction(0)] * d
    for residue in range(d):
        m1 = l + ((residue - l) % d)  # smallest admissible m in this class
        m2 = m1 + d
        m3 = m2 + d
        n1, n2, n3 = (counts[m - l] for m in (m1, m2, m3))
        ur = Fraction(n2 - n1, q**m2 - q**m1)
        vr = Fraction(n1) - ur * q**m1
        if ur * q**m3 + vr != n3:
            raise QPowError(
                f"verification failed at m = {m3} (residue {residue} mod {d})"
            )
        u[residue] = ur
        v[residue] = vr
    return QPowProfile(
        g=tuple(g), c=c, alpha=_alpha_val(field, alpha), q=q, d=d, mu=mu, l=l,
        u=tuple(u), v=tuple(v),
    )


def primitive_u_check(g, field: Field) -> Fraction:
    """The constant u = d q^(d-1) / (q^d - 1) for primitive g (c = 1)."""
    g = _as_dense(g, field)
    if not is_primitive(g, field):
        raise QPowError("g is not primitive")
    d = len(g) - 1
    return Fraction(d * field.q ** (d - 1), field.q**d - 1)
