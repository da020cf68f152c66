"""Closed-form coefficient-count laws built on base-p digit arithmetic.

Everything here reduces a count over an exponentially large expansion to
digit work: the digitwise binomial product, a digit DP for the census of
a binomial row, the all-ones-power count from the digits of (p-1)n, and
the binary run-product for the odd coefficients of (1 + x + x^2)^n.
"""

from __future__ import annotations

from collections import Counter
from itertools import zip_longest
from math import prod

from .combinat import fibonacci
from .ffield import DEFAULT_MAX_Q, base_digits, is_prime


def _check_prime(p: int) -> None:
    """Refuses p past the field cap DEFAULT_MAX_Q, before any p-length
    table is made, and a p that is not prime."""
    if p > DEFAULT_MAX_Q:
        raise ValueError(f"p = {p} exceeds the cap {DEFAULT_MAX_Q}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _factorials(top: int, p: int):
    """The factorials 0!, ..., top! mod p and their inverses, for top < p;
    C(a, b) mod p is then fact[a] * inv[b] * inv[a - b] for b <= a <= top."""
    fact = [1] * (top + 1)
    for i in range(1, top + 1):
        fact[i] = fact[i - 1] * i % p
    inv = [1] * (top + 1)
    inv[top] = pow(fact[top], -1, p)
    for i in range(top, 0, -1):
        inv[i - 1] = inv[i] * i % p
    return fact, inv


def lucas_binomial(n: int, k: int, p: int) -> int:
    """C(n, k) mod p as the product of the digit binomials C(a, b) mod p
    over the base-p digits a of n and b of k.

    Only digits with 0 < b < a contribute a factor other than 0 or 1.  Up
    to the field cap DEFAULT_MAX_Q their binomials are read from one
    factorial table mod p as large as their largest a.  A larger a, which
    only p > DEFAULT_MAX_Q allows, makes them falling products of
    min(b, a - b) factors each, refused past DEFAULT_MAX_Q factors in all
    before the first is multiplied.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    pairs = list(zip_longest(base_digits(n, p), base_digits(k, p), fillvalue=0))
    if any(b > a for a, b in pairs):
        return 0
    pairs = [(a, b) for a, b in pairs if 0 < b < a]
    top = max((a for a, _ in pairs), default=0)
    if top <= DEFAULT_MAX_Q:
        fact, inv = _factorials(top, p)
        result = 1
        for a, b in pairs:
            result = result * fact[a] * inv[b] * inv[a - b] % p
        return result
    factors = sum(min(b, a - b) for a, b in pairs)
    if factors > DEFAULT_MAX_Q:
        raise ValueError(f"digit binomials of {factors} factors mod {p} "
                         f"exceed the cap {DEFAULT_MAX_Q}")
    num = den = 1
    for a, b in pairs:
        for i in range(min(b, a - b)):
            num = num * (a - i) % p
            den = den * (i + 1) % p
    return num * pow(den, -1, p) % p


# most steps of the census DP: every digit a's a + 1 binomials, then each
# digit's classes times its distinct step values.  Over p = 8191, digits
# 3000, 3000 take 1.9 million steps, 0.5 s in process; over 65521, digits
# 4000, 4000 take 3.9 million, 0.75 s, and 30000, 30000 ran past 25 s
# (Python 3.11, shared 2-CPU Xeon)
MAX_CENSUS_STEPS = 4_000_000


def binomial_row_census(n: int, p: int):
    """Census of the nonzero residues in row n of Pascal's triangle mod p.

    Digit DP over the base-p digits of n: each digit a contributes a
    factor C(a, b) mod p for b = 0..a, read from one factorial table mod p,
    and the value classes multiply.  Its steps are checked against
    MAX_CENSUS_STEPS before each digit's products.
    Returns (census dict, total nonzero count = prod(1 + a_i)).
    """
    _check_prime(p)
    digits = base_digits(n, p) or [0]
    steps = sum(a + 1 for a in digits)
    fact, inv = _factorials(max(digits), p)
    dist = {1: 1}
    total = 1
    for a in digits:
        total *= 1 + a
        step = Counter(fact[a] * inv[b] * inv[a - b] % p for b in range(a + 1))
        steps += len(dist) * len(step)
        if steps > MAX_CENSUS_STEPS:
            raise ValueError(f"the census DP takes more than {MAX_CENSUS_STEPS} steps")
        new = {}
        for cls, cnt in dist.items():
            for val, mult in step.items():
                key = (cls * val) % p
                new[key] = new.get(key, 0) + cnt * mult
        dist = new
    assert sum(dist.values()) == total
    return dist, total


def all_ones_power_coeff(n: int, k: int, p: int) -> int:
    """Coefficient of x^k in (1 + x + ... + x^(p-1))^n mod p.

    Uses (1 + x + ... + x^(p-1)) = (1 - x)^(p-1) mod p, so the coefficient
    is (-1)^k C(pn - n, k).
    """
    _check_prime(p)
    if not 0 <= k <= (p - 1) * n:
        raise ValueError(f"k must lie in [0, {(p - 1) * n}]")
    sign = p - 1 if k % 2 else 1
    return (sign * lucas_binomial((p - 1) * n, k, p)) % p


def all_ones_power_count(n: int, p: int) -> int:
    """Number of coefficients of (1 + x + ... + x^(p-1))^n not divisible by p.

    Equals prod(1 + b_i) over the base-p digits b_i of (p-1)n.
    """
    _check_prime(p)
    return prod(1 + b for b in base_digits((p - 1) * n, p))


def run_lengths(n: int):
    """Lengths of the maximal runs of 1s in the binary expansion of n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    run = 0
    while n:
        if n & 1:
            run += 1
        elif run:
            out.append(run)
            run = 0
        n >>= 1
    if run:
        out.append(run)
    return out


def run_factor(k: int) -> int:
    """(2^(k+2) + (-1)^(k+1)) / 3, the per-run factor of the trinomial count."""
    return (2 ** (k + 2) + (-1) ** (k + 1)) // 3


def trinomial_odd_count(n: int) -> int:
    """Number of odd coefficients of (1 + x + x^2)^n.

    Decompose n into maximal binary runs of 1s; the runs contribute
    independent factors because the spread pieces cannot collide.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    result = 1
    for k in run_lengths(n):
        result *= run_factor(k)
    return result


def family_poly(k: int, field):
    """The k-variable family 1 + sum x_i + x_1 * sum_{i>=2} x_i^2 over F_2."""
    from .mpoly import MultiPoly

    terms = {(0,) * k: field.one}
    for i in range(1, k + 1):
        exp = tuple(1 if j == i - 1 else 0 for j in range(k))
        terms[exp] = field.one
    for i in range(2, k + 1):
        exp = tuple((1 if j == 0 else 0) + (2 if j == i - 1 else 0) for j in range(k))
        terms[exp] = field.one
    return MultiPoly(k, field, terms)


def family_count(k: int, n: int) -> int:
    """Odd-coefficient count of family_poly(k) raised to 2^n - 1.

    The closed form is k(k+1)^n - (k-1)k^n.
    """
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    return k * (k + 1) ** n - (k - 1) * k**n


def averaging_identity_sides(n: int):
    """Both sides of sum_{j < 2^n} trinomial_odd_count(j) = 2^n F(n+2)."""
    lhs = sum(trinomial_odd_count(j) for j in range(2**n))
    rhs = 2**n * fibonacci(n + 2)
    return lhs, rhs


def doubling_mismatches(series):
    """Indices where series differs from its image under
    L(z) -> (1 + 2z) L(z^2), compared coefficient by coefficient.

    The image has coefficient series[m] at 2m and 2 * series[m] at 2m + 1.
    """
    order = len(series)
    rhs = [0] * order
    for m in range(order):
        if 2 * m < order:
            rhs[2 * m] += series[m]
        if 2 * m + 1 < order:
            rhs[2 * m + 1] += 2 * series[m]
    return [i for i in range(order) if series[i] != rhs[i]]


def trinomial_series_vs_doubling(order: int):
    """Compare the series sum_m trinomial_odd_count(m) z^m with its image
    under L(z) -> (1 + 2z) L(z^2), coefficient by coefficient.

    Returns the list of indices below `order` where the two differ (the
    identity would require the count to double whenever a low 1-bit is
    appended, which fails: count(1) = 3 != 2 * count(0)).
    """
    return doubling_mismatches([trinomial_odd_count(m) for m in range(order)])
