"""Exact-over-Q references for the modular Krylov order and Berlekamp-Massey.

Gaussian elimination and Berlekamp-Massey over Fractions, kept apart from
the library so that its modular, lifted results have an independent
check.  Slow on large automata: use them on small ones.
"""

import itertools
from fractions import Fraction

from coeffcount.ratgen import LinearRecurrence, seq_to_genfun


def krylov_order(A) -> int:
    """First m at which the digit-1 iterate v_m depends on v_0 .. v_{m-1}."""
    A.close()
    pivots = {}  # pivot position -> reduced row
    for m, vec in enumerate(A.walk(itertools.repeat(1))):
        row = [Fraction(x) for x in vec]
        for pos in sorted(pivots):
            if row[pos]:
                c = row[pos]
                row = [x - c * y for x, y in zip(row, pivots[pos])]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            return m
        pivots[lead] = [x / row[lead] for x in row]


def berlekamp_massey(seq):
    """Minimal connection polynomial over Q: (L, C) with C[0] = 1."""
    C, B = [Fraction(1)], [Fraction(1)]
    L, m, b = 0, 1, Fraction(1)
    for n, s in enumerate(seq):
        d = Fraction(s) + sum(C[i] * seq[n - i] for i in range(1, L + 1))
        if d == 0:
            m += 1
            continue
        T = C[:]
        C = C + [Fraction(0)] * max(0, len(B) + m - len(C))
        for j, y in enumerate(B):
            C[j + m] -= d / b * y
        if 2 * L <= n:
            L, B, b, m = n + 1 - L, T, d, 1
        else:
            m += 1
    return L, (C + [Fraction(0)] * L)[:L + 1]


def repunit_fit(A, alpha):
    """(seq, recurrence coefficients, (num, den)) as fit_repunit_genfun gives them."""
    D = krylov_order(A)
    seq = A.repunit_counts(alpha, 2 * D + 11)
    L, C = berlekamp_massey(seq)
    coeffs = tuple(-c for c in C[1:])
    gf = seq_to_genfun(seq, LinearRecurrence(coeffs, tuple(seq[:L])))
    return seq, coeffs, (gf.num, gf.den)
