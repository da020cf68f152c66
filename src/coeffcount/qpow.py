"""Coefficient counts of g(x)^(q^m - c) and their periodic-plus-exponential law.

For univariate g over F_q with g(0) != 0, the number of coefficients of
g^(q^m - c) equal to a nonzero alpha has the exact form
u(m) * q^m + v(m) with u, v periodic of period d, where d is the degree
of the splitting field of g, valid once m >= ceil(log_q(mu * c)) for mu
the largest multiplicity of an irreducible factor.  This module measures
d and mu by factorization machinery, counts the coefficients through the
digit automaton of g (a product of integer matrices along the base-q
digits of the exponent, whose columns are made only where the walk
needs them), and solves for the periodic tables u, v over exact
rationals.  The exponents q^m - c for consecutive m share their low
digits and differ only by more digits q-1, so one walk of the automaton
yields a whole run N(m_lo..m_hi).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import automaton, unipoly
from .ffield import Field, is_primitive
from .mpoly import MultiPoly, dense_coeffs, from_dense


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
    """(d, mu) of g from one squarefree decomposition."""
    g = _as_dense(g, field)
    parts = unipoly.squarefree_decomposition(field, g)
    # the parts are squarefree and coprime: their factors are the radical's
    d = math.lcm(*(e for part, _ in parts
                   for e in unipoly.distinct_degrees(field, part)))
    return d, max(m for _, m in parts)


def splitting_degree(g, field: Field) -> int:
    """Degree of the extension of F_q generated by all roots of g.

    Computed as the lcm of the degrees of the distinct irreducible
    factors, via squarefree decomposition plus distinct-degree splitting.
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


def qpow_counts(g, field: Field, c: int, alpha, m_lo: int, m_hi: int,
                state_cap: int = automaton.DEFAULT_STATE_CAP):
    """Exact N_alpha(m) for m = m_lo .. m_hi (empty when m_hi < m_lo).

    q^m - c = (q^m_lo - c) + (q-1)(q^m_lo + ... + q^(m-1)): one walk over the
    digits of q^m_lo - c, zero-padded to m_lo digits, then q-1 repeated.
    The walk may discover at most state_cap automaton states.
    """
    g = _as_dense(g, field)
    n = _exponent(field, c, m_lo)
    alpha_val = _alpha_val(field, alpha)
    if m_hi < m_lo:
        return []
    low = automaton.base_digits(n, field.q)
    digits = low + [0] * (m_lo - len(low)) + [field.q - 1] * (m_hi - m_lo)
    counter = automaton.DigitAutomaton(from_dense(g, field), state_cap)
    iterates = list(itertools.islice(counter.walk(digits), m_lo, None))
    return counter.read_counts(alpha_val, iterates)


def count_qpow(g, field: Field, c: int, alpha, m: int):
    """Exact N_alpha(m): coefficients of g^(q^m - c) equal to alpha."""
    return qpow_counts(g, field, c, alpha, m, m)[0]


def power_census(g, field: Field, n: int):
    """Census of g^n: each nonzero coefficient value and its multiplicity."""
    if n < 0:
        raise QPowError("n must be nonnegative")
    g = from_dense(_as_dense(g, field, check=False), field)
    return automaton.DigitAutomaton(g).census(n)


@dataclass(frozen=True)
class QPowProfile:
    """The fitted law N_alpha(m) = u(m mod d) q^m + v(m mod d) for m >= l."""

    g: tuple
    c: int
    alpha: int
    q: int
    d: int
    mu: int
    l: int
    u: tuple
    v: tuple

    def predict(self, m: int) -> int:
        if m < self.l:
            raise QPowError(f"profile valid only for m >= {self.l}")
        val = self.u[m % self.d] * self.q**m + self.v[m % self.d]
        if val.denominator != 1:
            raise QPowError("non-integer prediction; profile is inconsistent")
        return int(val)


def fit_qpow_profile(g, field: Field, c: int, alpha,
                     state_cap: int = automaton.DEFAULT_STATE_CAP) -> QPowProfile:
    """Measure d, mu, l and solve for the periodic tables u, v.

    For each residue class r mod d the two smallest admissible m fix u(r)
    and v(r) by a 2x2 linear solve over exact rationals; a third value in
    the class is then verified, so an inconsistent fit cannot escape.  One
    automaton, with at most state_cap states, counts all 3d exponents.
    """
    g = _as_dense(g, field)
    d, mu = _degree_and_multiplicity(g, field)
    # smallest l >= 0 with q^l >= mu*c, i.e. ceil(log_q(mu*c))
    l = 0
    while field.q**l < mu * c:
        l += 1
    q = field.q
    # the classes' first three admissible m are exactly l .. l + 3d - 1
    counts = qpow_counts(g, field, c, alpha, l, l + 3 * d - 1, state_cap)
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
