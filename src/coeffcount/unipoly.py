"""Dense univariate polynomial arithmetic.

Polynomials are plain lists of ring elements, constant term first, with
no trailing zeros (the zero polynomial is []).  `add`, `sub` and `mul`
need only the ring's add/neg/mul, so they serve any ring with that
protocol: the finite fields (elements as integer encodings) and
`mpoly.ZZ`, whose integer polynomials are the numerators and
denominators of `ratgen.RationalGF`.  Everything else is for finite
fields only: division, gcd, powmod and one factoring engine,
`degree_chains`, a distinct-degree split that divides each degree's
factors out with their multiplicities, read by the distinct degrees, the
squarefree parts, the radical and the irreducibility test.  Degrees stay
small (moduli, primitivity, `qpow`'s g), so schoolbook algorithms suffice.
"""

from __future__ import annotations


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def deg(a) -> int:
    return len(a) - 1  # -1 for the zero polynomial


def add(F, a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = F.add(x, y)
    return trim(out)


def sub(F, a, b):
    return add(F, a, [F.neg(y) for y in b])


def scalar_mul(F, c, a):
    if c == 0:
        return []
    return trim([F.mul(c, x) for x in a])


def mul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return trim(out)


def divmod_(F, a, b):
    """Quotient and remainder of a by b (b nonzero)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = F.inv(b[-1])
    while len(a) >= len(b) and a:
        c = F.mul(a[-1], inv_lead)
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] = F.sub(a[k + i], F.mul(c, y))
        trim(a)
    return trim(q), a


def mod(F, a, b):
    return divmod_(F, a, b)[1]


def monic(F, a):
    if not a:
        return []
    return scalar_mul(F, F.inv(a[-1]), a)


def gcd(F, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, mod(F, a, b)
    return monic(F, a)


def powmod(F, a, e: int, m):
    """a^e modulo m, by square and multiply."""
    result = [1]
    base = mod(F, a, m)
    while e:
        if e & 1:
            result = mod(F, mul(F, result, base), m)
        base = mod(F, mul(F, base, base), m)
        e >>= 1
    return result


def degree_chains(F, f):
    """Distinct-degree splitting that strips multiplicities as it goes.

    For each degree i at which f has an irreducible factor, ascending,
    yields (i, [t_1, t_2, ...]) with t_j the monic product of the degree-i
    factors of multiplicity at least j.  Once the factors of degree below i
    are divided out of h (f at the start), t_1 = gcd(x^(q^i) - x, h); h is
    then divided by gcd(h, t_j) until that gcd is 1.  What is left at
    2i > deg h has no two factors of degree >= i, so it is irreducible.
    """
    h = monic(F, trim(list(f)))
    w = [0, 1]  # x^(q^i), modulo h as it stood at degree i
    i = 0
    while deg(h) > 0:
        i += 1
        if 2 * i > deg(h):
            yield deg(h), [h]
            return
        w = powmod(F, w, F.q, h)
        t = gcd(F, sub(F, w, [0, 1]), h)
        chain = []
        while deg(t) > 0:
            chain.append(t)
            h = divmod_(F, h, t)[0]
            t = gcd(F, h, t)
        if chain:
            yield i, chain


def distinct_degrees(F, f):
    """Degrees d for which f has an irreducible factor of degree d."""
    return [i for i, _ in degree_chains(F, f)]


def is_irreducible(F, a) -> bool:
    """True iff a has degree n > 0 and its first factor degree is n: a
    reducible polynomial has an irreducible factor of degree <= n/2."""
    a = trim(list(a))
    return deg(a) > 0 and next(degree_chains(F, a))[0] == deg(a)


def squarefree_decomposition(F, f):
    """Decompose f as a product of squarefree parts.

    Returns a list of (g, m), ascending in m, with f = prod g^m up to a
    constant, the g monic, squarefree and pairwise coprime, and
    multiplicities m >= 1: g is the product of the t_m / t_(m+1) of every
    chain of `degree_chains`.
    """
    parts = {}
    for _, chain in degree_chains(F, f):
        for m, t in enumerate(chain, 1):
            exact = divmod_(F, t, chain[m])[0] if m < len(chain) else t
            if deg(exact) > 0:
                parts[m] = mul(F, parts.get(m, [1]), exact)
    return [(parts[m], m) for m in sorted(parts)]


def radical(F, f):
    """Product of the distinct irreducible factors of f (monic)."""
    out = [1]
    for _, chain in degree_chains(F, f):
        out = mul(F, out, chain[0])
    return out


def prime_factors(n: int):
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out
