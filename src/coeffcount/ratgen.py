"""Exact rational generating functions from integer sequences.

Berlekamp-Massey recovers the minimal linear recurrence; its integer
coefficients give the denominator, and the denominator times the leading
terms gives the numerator.  A sequence given on its own (`fit_recurrence`)
is fitted over the rationals.  An automaton's repunit counts
(`fit_repunit_genfun`) are read from one digit-1 walk: its first D + 1
iterates prove the order bound D and the relation among them
(`modular.certified_order`), which extends the counts to the 2D + 11
that are fitted modulo 61-bit primes; the lifted recurrence is certified
by an exact integer fit on all of them (see modular).
Numerators and denominators are dense integer polynomials, added and
multiplied by `unipoly.add/sub/mul` over `mpoly.ZZ`.  All arithmetic is
exact (ints, Fractions and residues), never floating point.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from . import modular, unipoly
from .mpoly import ZZ


class RecurrenceError(ValueError):
    pass


_set = object.__setattr__


class _Record:
    """A frozen record whose fields are its ``__slots__``, set once by an
    ``__init__`` made from them (as namedtuple makes its ``__new__``).
    Records are equal, and hash equal, when their types and fields are;
    assignment raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        body = "; ".join(f"_set(self, {name!r}, {name})" for name in names)
        namespace = {"_set": _set, "__name__": cls.__module__}
        exec(f"def __init__(self, {', '.join(names)}): {body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__qualname__}({fields})"


class LinearRecurrence(_Record):
    """a_n = sum_{i=1..order} coeffs[i-1] * a_{n-i}, with the starting terms."""

    __slots__ = ("coeffs", "initial")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def fits(self, seq) -> bool:
        d = self.order
        for n in range(d, len(seq)):
            if sum(c * seq[n - i - 1] for i, c in enumerate(self.coeffs)) != seq[n]:
                return False
        return True

    def extend(self, terms: int):
        """First `terms` values of the sequence the recurrence generates."""
        out = list(self.initial[:terms])
        while len(out) < terms:
            val = Fraction(sum(c * out[-i - 1] for i, c in enumerate(self.coeffs)))
            if val.denominator != 1:
                raise RecurrenceError("non-integer extension")
            out.append(int(val))
        return out


class RationalGF(_Record):
    """num(t)/den(t) with integer coefficients and den[0] = 1."""

    __slots__ = ("num", "den")

    @staticmethod
    def make(num, den) -> "RationalGF":
        num = unipoly.trim(list(num))
        den = unipoly.trim(list(den))
        if not den:
            raise ValueError("zero denominator")
        g = gcd(*num, *den)
        if g > 1:
            num = [c // g for c in num]
            den = [c // g for c in den]
        if den[0] < 0:
            num = [-c for c in num]
            den = [-c for c in den]
        if den[0] != 1:
            raise ValueError(f"denominator constant term {den[0]} != 1")
        return RationalGF(tuple(num), tuple(den))

    @staticmethod
    def with_denominator(den, head) -> "RationalGF":
        """num/den with num = den * head truncated to len(head) terms: the
        series starts with head, and the numerator has no further terms."""
        return RationalGF.make(unipoly.mul(ZZ, den, head)[:len(head)], den)

    def expand(self, terms: int):
        """First `terms` Taylor coefficients, exact integers: each term
        takes one product per nonzero denominator coefficient it reaches."""
        num = self.num
        taps = [(i, c) for i, c in enumerate(self.den) if i and c]
        out = []
        for m in range(terms):
            val = num[m] if m < len(num) else 0
            for i, c in taps:
                if i > m:
                    break
                val -= c * out[m - i]
            out.append(val)
        return out

    def __add__(self, other):
        return RationalGF.make(
            unipoly.add(ZZ, unipoly.mul(ZZ, self.num, other.den),
                        unipoly.mul(ZZ, other.num, self.den)),
            unipoly.mul(ZZ, self.den, other.den),
        )

    def __mul__(self, other):
        return RationalGF.make(
            unipoly.mul(ZZ, self.num, other.num),
            unipoly.mul(ZZ, self.den, other.den),
        )

    def __repr__(self):
        return f"RationalGF(num={list(self.num)}, den={list(self.den)})"


def genfun_equal_as_series(a: RationalGF, b: RationalGF) -> bool:
    """True iff a and b agree as power series, decided exactly by
    comparing the cross-multiplied numerators."""
    return unipoly.mul(ZZ, a.num, b.den) == unipoly.mul(ZZ, b.num, a.den)


def _berlekamp_massey(seq, p=None):
    """Minimal connection polynomial over Q, or over F_p for a prime p.

    Returns (L, C) with C[0] = 1: the recurrence
    a_n = -sum_{i=1..L} C[i] a_{n-i} holds at every index of seq.  Over F_p
    the terms are reduced mod p and C is returned in [0, p).
    """
    if p is None:
        def inv(b):
            return 1 / Fraction(b)

        def norm(x):
            return x
    else:
        def inv(b):
            return pow(b, -1, p)

        def norm(x):
            return x % p
        seq = [s % p for s in seq]
    C = [1]
    B = [1]
    L = 0
    m = 1
    b_inv = 1
    for n, s in enumerate(seq):
        d = norm(s + sum(C[i] * seq[n - i] for i in range(1, L + 1)))
        if d == 0:
            m += 1
            continue
        T = C
        coef = norm(d * b_inv)
        C = C + [0] * (len(B) + m - len(C))
        for j, y in enumerate(B):
            C[j + m] = norm(C[j + m] - coef * y)
        if 2 * L <= n:
            L = n + 1 - L
            B = T
            b_inv = inv(d)
            m = 1
        else:
            m += 1
    C = (C + [0] * L)[:L + 1]
    return L, C


def _recurrence(seq, C) -> LinearRecurrence:
    """The recurrence with connection polynomial C (C[0] = 1), started from seq."""
    return LinearRecurrence(tuple(-c for c in C[1:]), tuple(seq[:len(C) - 1]))


def fit_recurrence(seq, max_order: int) -> LinearRecurrence:
    """Minimal-order linear recurrence fitting every term of seq.

    Needs at least 2*max_order + 1 terms; raises RecurrenceError when no
    recurrence of order <= max_order fits.  Berlekamp-Massey runs over Q:
    without a known bound on the true order, nothing would certify that
    a recurrence found modulo a prime is minimal.
    """
    seq = list(seq)
    if len(seq) < 2 * max_order + 1:
        raise RecurrenceError(
            f"need at least {2 * max_order + 1} terms to certify order {max_order}"
        )
    L, C = _berlekamp_massey(seq)
    if L > max_order:
        raise RecurrenceError(f"no recurrence of order <= {max_order} fits")
    rec = _recurrence(seq, C)
    if not rec.fits(seq):
        raise RecurrenceError("recurrence fit failed on the supplied terms")
    return rec


def seq_to_genfun(seq, rec: LinearRecurrence) -> RationalGF:
    """Generating function from a recurrence and the sequence it fits.

    The denominator is 1 - sum c_i t^i and the numerator is den * seq
    truncated to the recurrence order.  By Fatou's lemma the reduced form
    of a rational integer series has an integer denominator with constant
    term 1, so a recurrence with a non-integer coefficient is refused.
    """
    seq = list(seq)
    if not rec.fits(seq):
        raise RecurrenceError("recurrence does not fit the sequence")
    for c in rec.coeffs:
        if Fraction(c).denominator != 1:
            raise RecurrenceError(f"recurrence coefficient {c} is not an integer")
    den = [1] + [-int(c) for c in rec.coeffs]
    return RationalGF.with_denominator(den, seq[:rec.order])


def fit_repunit_genfun(automaton, alpha):
    """Provably-correct generating function of an automaton's repunit counts.

    One digit-1 walk, making only the columns and states it reaches: its
    D + 1 iterates prove the Krylov order D and v_D = sum c_i v_i (see
    modular.certified_order), so s_(m+D) = sum c_i s_(m+i) extends their
    counts s_0 .. s_D to the 2D + 11 terms of the sequence.  A bad alpha
    is refused before any column is made or digit applied.

    Berlekamp-Massey runs modulo a 61-bit prime p.  The minimal recurrence
    over Q is integral with constant term 1 (Fatou), so its reduction is a
    recurrence mod p and the order L_p found mod p is at most the true
    order L_Q <= D.  The connection polynomial is lifted to integers and
    must fit all 2D + 11 >= L_p + D terms exactly, which proves
    L_Q <= L_p; a failed fit adds primes (see modular.certified_lift).
    The lifted recurrence is therefore the unique minimal one, with int
    coefficients.  Returns (sequence, recurrence, generating function).
    """
    automaton.read_counts(alpha, [])  # refuses alpha = 0 or a non-integer
    walk = automaton.walk(itertools.repeat(1))
    q_k = automaton.field.q**automaton.f.k  # the column sum of the digit-1 matrix
    D, coeffs, iterates = modular.certified_order(walk, q_k, automaton._state_limit)
    seq = automaton.read_counts(alpha, iterates)
    while len(seq) < 2 * D + 11:  # D >= 1: the start vector is not zero
        seq.append(sum(c * s for c, s in zip(coeffs, seq[-D:])))

    def solve(p):
        return _berlekamp_massey(seq, p)

    def holds(L, C):
        return _recurrence(seq, C).fits(seq)

    rec = _recurrence(seq, modular.certified_lift(solve, holds, 1 + q_k, D)[1])
    gf = seq_to_genfun(seq, rec)
    if gf.expand(len(seq)) != seq:
        raise RecurrenceError("generating function failed to reproduce the counts")
    return seq, rec, gf
