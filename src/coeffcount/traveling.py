"""Recurrence engines for products of shifting variable blocks.

Covers the chain products prod (1 + x_i + x_{i+1}) over F_p, the
traveling products prod (x_{(i-1)j+1} + ... + x_{(i-1)j+k}), the windowed
powers prod (x_i + ... + x_{i+k})^m with their binomial transfer matrix,
and several one-off families counted alongside a brute-force expansion.
Every multivariate product here is a product of linear forms, expanded by
`mpoly.linear_product` with one product per factor, adjacent factors
paired first; the univariate `j_poly` keeps its own loop.  The univariate
chain check counts (1 + x + x^p)^e through `automaton.DigitAutomaton`,
never expanding the power.  The generating functions are
`ratgen.RationalGF`s built with `unipoly.mul` over `mpoly.ZZ`: the
window-power denominator is `theta_charpoly` reversed, and its numerator
is that denominator times the first k counts, truncated to k terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import unipoly
from .automaton import DigitAutomaton
from .combinat import narayana
from .ffield import DEFAULT_MAX_Q, Field, is_prime
from .mpoly import ZZ, MultiPoly, linear_product
from .ratgen import RationalGF


class TravelingError(ValueError):
    pass


# most terms `traveling_seq`, `h_seq` and `window_power_counts` expand,
# checked before the first: the terms' bit lengths grow linearly, so the
# work and the printed digits grow as terms^2 (`traveling seq` prints
# 10 000 terms, 21 MB, in about 1 s with Python 3.11 on a shared 2-CPU
# machine)
MAX_SEQ_TERMS = 10_000


def _check_terms(terms: int) -> None:
    if terms > MAX_SEQ_TERMS:
        raise TravelingError(f"{terms} terms exceed the cap {MAX_SEQ_TERMS}")


# -- chain products over F_p ------------------------------------------------------


def _check_chain_prime(p: int) -> None:
    """Refuses p past the field cap DEFAULT_MAX_Q, before any p-length list
    is made, and a p that is not prime."""
    if p > DEFAULT_MAX_Q:
        raise TravelingError(f"p = {p} exceeds the cap {DEFAULT_MAX_Q}")
    if not is_prime(p):
        raise TravelingError(f"{p} is not prime")


def h_genfun(p: int) -> RationalGF:
    """Generating function of N(prod_{i<=n} (1 + x_i + x_{i+1})) over F_p.

    Equals (1 - z^p) / ((1 - z)^2 - z(1 - z^p)), stored in the cleared
    form (1 + z + ... + z^(p-1)) / (1 - 2z - z^2 - ... - z^p).
    """
    _check_chain_prime(p)
    return RationalGF.make([1] * p, [1, -2] + [-1] * (p - 1))


def h_seq(p: int, terms: int):
    """The first `terms` coefficients of h_genfun(p), expanded from the
    uncleared form (1 - z^p) / (1 - 3z + z^2 + z^(p+1)), the cleared one
    with both sides times 1 - z: its denominator has 4 nonzero coefficients
    where the cleared one has p + 1, so each term takes 3 products."""
    _check_terms(terms)
    _check_chain_prime(p)
    return RationalGF.make([1] + [0] * (p - 1) + [-1],
                           [1, -3, 1] + [0] * (p - 2) + [1]).expand(terms)


def h_poly(p: int, n: int) -> MultiPoly:
    """prod_{i=1}^n (1 + x_i + x_{i+1}) over F_p, in n+1 variables."""
    return linear_product(n + 1, Field(p),
                          ({None: 1, i - 1: 1, i: 1} for i in range(1, n + 1)))


def univariate_chain_check(p: int, n_max: int) -> bool:
    """N((1 + x + x^p)^((p^n-1)/(p-1))) over F_p, read off the digit
    automaton of 1 + x + x^p, matches the chain series."""
    if p < 3:
        raise TravelingError("needs an odd prime")
    series = h_seq(p, n_max + 1)
    A = DigitAutomaton(MultiPoly(1, Field(p), {(0,): 1, (1,): 1, (p,): 1}))
    return all(sum(A.census((p**n - 1) // (p - 1)).values()) == series[n]
               for n in range(n_max + 1))


# -- traveling products ------------------------------------------------------------


def traveling_denominator(j: int, k: int):
    """Coefficients of sum_h (-1)^h C(k - j(h-1), h) z^h.

    The inclusion-exclusion behind it counts genuine selections, so the
    sum stops as soon as the upper index goes negative (the generalized
    binomial values past that point would be spurious).
    """
    if j < 1 or k < 1:
        raise TravelingError("need j, k >= 1")
    den = []
    h = 0
    while k - j * (h - 1) >= 0:
        den.append((-1) ** h * comb(k - j * (h - 1), h))
        h += 1
    while den and den[-1] == 0:
        den.pop()
    return den


def traveling_genfun(j: int, k: int) -> RationalGF:
    return RationalGF.make([1], traveling_denominator(j, k))


def traveling_seq(j: int, k: int, terms: int):
    _check_terms(terms)
    return traveling_genfun(j, k).expand(terms)


def traveling_poly(j: int, k: int, n: int) -> MultiPoly:
    """prod_{i=1}^n (x_{(i-1)j+1} + ... + x_{(i-1)j+k}) over the integers."""
    return linear_product(max((n - 1) * j + k, 1), ZZ, (
        dict.fromkeys(range((i - 1) * j, (i - 1) * j + k), 1)
        for i in range(1, n + 1)))


# -- spaced triple product and the +-1 chain (example families) --------------------


def spaced_triple_count(n: int) -> int:
    """N(prod_{i<=n} (x_i + x_{i+2} + x_{i+4})) = F(n+2)^2 - (1 - (-1)^n)/2."""
    from .combinat import fibonacci

    eta = (1 - (-1) ** n) // 2
    return fibonacci(n + 2) ** 2 - eta


def spaced_triple_genfun() -> RationalGF:
    return RationalGF.make([1], unipoly.mul(ZZ, [1, 0, -1], [1, -3, 1]))


def spaced_triple_poly(n: int) -> MultiPoly:
    """prod_{i=1}^n (x_i + x_{i+2} + x_{i+4}) over the integers."""
    return linear_product(n + 4, ZZ, (dict.fromkeys((i - 1, i + 1, i + 3), 1)
                                      for i in range(1, n + 1)))


def pm_chain_poly(n: int, t: int) -> MultiPoly:
    """prod_{i=1}^n (1 - x_i + x_{i+t}) over the integers, t >= 1."""
    if t < 1:
        raise TravelingError("need t >= 1")
    return linear_product(max(n + t, 1), ZZ, ({None: 1, i - 1: -1, i + t - 1: 1}
                                              for i in range(1, n + 1)))


def pm_chain_genfun(t: int) -> RationalGF:
    """Generating function of N(prod (1 - x_i + x_{i+t})) for t = 1, 2."""
    if t == 1:
        return RationalGF.make([1, 1], [1, -2, -1])
    if t == 2:
        geom = RationalGF.make([1], [1, -1])
        a = RationalGF.make([0, 0, 1], [1, 0, 1])
        b = RationalGF.make([1], [1, -2, -1])
        return geom * (a + b)
    raise TravelingError("only t = 1 and t = 2 have recorded forms")


# -- windowed powers and their transfer matrix --------------------------------------

# largest window k the transfer matrix is built for: `charpoly`'s
# Faddeev-LeVerrier steps take about k^4 products, so the (k+1)^2 matrix of
# `traveling theta` at m = 3 took 0.36 s at k = 40, 0.85 s at 50 and 1.1 s
# at 60 (Python 3.11, shared 2-CPU machine); `v-genfun` at k = 50 took 13 ms
MAX_WINDOW_K = 50
# largest bound k * bitlen(m + k) on the entries' bit length (every entry is
# below (m + k)^k): the product steps grow with it.  At k = 50, `theta` took
# 0.49 / 0.81 / 1.27 / 2.02 / 2.88 / 5.55 s in process at m = 3 / 10^3 / 10^6 /
# 10^9 / 10^12 / 10^20 (300 / 550 / 1000 / 1500 / 2000 / 3350 bits); a smaller
# k at the same bits costs less (k = 25, 2500 bits: 0.24 s; k = 10, 3330 bits:
# 17 ms), so the cap admits m up to about 10^6 at k = 50
MAX_WINDOW_BITS = 1024


def connectivity_matrix(k: int, m: int):
    """(k+1) x (k+1) binomial transfer matrix for the windowed powers.

    Row i, column 0 holds C(m-1+i, m-1); column j >= 1 holds
    C(m+i-j, m-1), which vanishes for j > i + 1 (one superdiagonal).
    A k past MAX_WINDOW_K, or entries whose bit length bound
    k * bitlen(m + k) passes MAX_WINDOW_BITS, is refused before the first
    entry is made.
    """
    if k < 0 or m < 0:
        raise TravelingError("need k, m >= 0")
    if k > MAX_WINDOW_K:
        raise TravelingError(f"k = {k} exceeds the cap {MAX_WINDOW_K}")
    bits = k * (m + k).bit_length()
    if bits > MAX_WINDOW_BITS:
        raise TravelingError(f"entries of up to {bits} bits (k * bitlen(m + k)) "
                             f"exceed the cap {MAX_WINDOW_BITS}")

    def entry(i, j):
        top = (m - 1 + i) if j == 0 else (m + i - j)
        if m == 0:
            # degenerate C(top, -1): nonzero only at top = -1
            return 1 if top == -1 else 0
        return comb(top, m - 1) if top >= 0 else 0

    return [[entry(i, j) for j in range(k + 1)] for i in range(k + 1)]


def charpoly(matrix):
    """Monic characteristic polynomial det(xI - A), ascending coefficients.

    Faddeev-LeVerrier over the integers for an integer matrix A: with
    M_1 = I, step k takes c_k = -tr(A M_k) / k, an exact quotient, and
    M_{k+1} = A M_k + c_k I.  A nonzero remainder raises TravelingError.
    """
    A = matrix
    n = len(A)
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    coeffs = [1]  # leading coefficient of x^n
    for step in range(1, n + 1):
        AM = [
            [sum(A[i][t] * M[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c, rem = divmod(-sum(AM[i][i] for i in range(n)), step)
        if rem:
            raise TravelingError("non-integer characteristic coefficient")
        coeffs.append(c)
        for i in range(n):
            AM[i][i] += c
        M = AM
    return coeffs[::-1]


def theta_charpoly(k: int, m: int):
    """Closed-form characteristic polynomial of the transfer matrix.

    Coefficient of rho^(k+1-tau) is (-1)^tau C(1 + (k+1-tau)m, tau);
    returned ascending, so out[i] is the coefficient of rho^i.
    """
    size = k + 2
    out = [0] * size
    for tau in range(size):
        top = 1 + (k + 1 - tau) * m
        if top < 0:
            continue
        out[k + 1 - tau] = (-1) ** tau * comb(top, tau)
    return out


def window_power_genfun(k: int, m: int) -> RationalGF:
    """Generating function of N(prod_{i<=n} (x_i + ... + x_{i+k})^m).

    The denominator is the transfer matrix's characteristic polynomial
    read in reverse, sum_i (-1)^i C(1 + (k+1-i)m, i) z^i; the numerator
    comes from the first k column sums of powers of the transfer matrix,
    which equal the small-n counts themselves.
    """
    if k < 1 or m < 1:
        raise TravelingError("need k, m >= 1")
    A = connectivity_matrix(k, m)
    size = k + 1
    col = [1 if i == 0 else 0 for i in range(size)]  # first column of A^0
    phis = []
    for _ in range(k):
        phis.append(sum(col))
        col = [sum(A[i][j] * col[j] for j in range(size)) for i in range(size)]
    den = theta_charpoly(k, m)[::-1]
    return RationalGF.with_denominator(den, phis)


def window_power_poly(n: int, k: int, m: int) -> MultiPoly:
    """prod_{i=1}^n (x_i + ... + x_{i+k})^m over the integers."""
    return linear_product(max(n + k, 1), ZZ, (
        dict.fromkeys(range(i - 1, i + k), 1) for i in range(1, n + 1) for _ in range(m)))


def window_power_counts(k: int, m: int, terms: int):
    _check_terms(terms)
    return window_power_genfun(k, m).expand(terms)


def j_count(n: int, k: int, m: int) -> int:
    """N(prod_{i<=n} (1 + x^i + ... + x^(i+k))^m) = 1 + (nk + C(n+1,2)) m."""
    if n < 0 or k < 0 or m < 0:
        raise TravelingError("need nonnegative parameters")
    return 1 + (n * k + comb(n + 1, 2)) * m


def j_poly(n: int, k: int, m: int) -> MultiPoly:
    poly = MultiPoly.one(1, ZZ)
    for i in range(1, n + 1):
        f = MultiPoly(1, ZZ, {(0,): 1, **{(i + s,): 1 for s in range(k + 1)}})
        for _ in range(m):
            poly = poly * f
    return poly


# -- mixed-variable products and the Schroeder / doubling recurrences ----------------


def d_poly(n: int, k: int) -> MultiPoly:
    """prod_{i=1}^n (y_1 + ... + y_{i-1} + x_i + ... + x_{i+k}).

    Variables are numbered x_1..x_{n+k} then y_1..y_{n-1}.  Each product
    is bounded by the term budget.
    """
    if n < 0 or k < -1:
        raise TravelingError("bad parameters")
    nx = n + k
    # factor i: y_1..y_{i-1} (indices nx..), then x_i..x_{i+k}
    return linear_product(max(nx + max(n - 1, 0), 1), ZZ, (
        dict.fromkeys([*range(nx, nx + i - 1), *range(i - 1, i + k)], 1)
        for i in range(1, n + 1)))


def schroeder_sum(n: int) -> int:
    """sum_j 2^j * narayana(n, j): the large Schroeder number."""
    if n < 0:
        raise TravelingError("n must be nonnegative")
    return sum(2**j * narayana(n, j) for j in range(n + 1))


def d_count(n: int, k: int) -> int:
    """Distinct monomials of d_poly(n, k) by direct expansion."""
    return d_poly(n, k).num_terms


def nu_sequence(n_max: int):
    """The doubling-recurrence values nu_n for n = 2..n_max.

    nu_2 = 1 and nu_n = sum_{j>=1} (-1)^(j+1) C(n+1-2j, j) nu_{n-j},
    reading the recurrence index as n - j.
    """
    if n_max < 2:
        return {}
    nu = {2: 1}
    for n in range(3, n_max + 1):
        total = 0
        j = 1
        while n + 1 - 2 * j >= 0 and n - j >= 2:
            total += (-1) ** (j + 1) * comb(n + 1 - 2 * j, j) * nu[n - j]
            j += 1
        nu[n] = total
    return nu


def duplication_report(n_max: int):
    """Comparison rows for the k = 2 mixed products against nu_n / 2.

    Returns rows (n, nu_n, nu_n / 2, N(D_{n-2,2}), N(D_{n-3,2})).  The
    direct-index pairing (nu_n/2 with N(D_{n-2,2})) never matches; the
    shifted pairing N(D_{n-3,2}) matches for n <= 9 and then diverges
    (at n = 10: 27477 vs 27466), so the table is emitted for inspection
    rather than asserted.  Every expansion is bounded by the term budget.
    """
    # the budget-bounded expansions before nu, which has no bound of its own
    d_cache = {m: d_count(m, 2) for m in range(0, n_max - 1)}
    nu = nu_sequence(n_max)
    rows = []
    for n in range(3, n_max + 1):
        rows.append((
            n,
            nu[n],
            str(Fraction(nu[n], 2)),
            d_cache.get(n - 2),
            d_cache.get(n - 3),
        ))
    return rows
