"""Dense univariate polynomial arithmetic.

Polynomials are plain lists of ring elements, constant term first, with
no trailing zeros (the zero polynomial is []).  `add`, `sub` and `mul`
need only the ring's add/neg/mul, so they serve any ring with that
protocol: the finite fields (elements as integer encodings) and
`mpoly.ZZ`, whose integer polynomials are the numerators and
denominators of `ratgen.RationalGF`.  Everything else (division, gcd,
derivatives, factoring) is for finite fields only and backs modulus
discovery, primitivity testing, and the squarefree / distinct-degree
machinery; degrees stay small in all of those uses, so schoolbook
algorithms are fine.
"""

from __future__ import annotations


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def deg(a) -> int:
    return len(a) - 1  # -1 for the zero polynomial


def is_zero(a) -> bool:
    return not a


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


def deriv(F, a):
    # i * c in the field; i reduces modulo the characteristic
    return trim([F.mul(i % F.p, a[i]) for i in range(1, len(a))])


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


def pth_root(F, a):
    """For a with only p-th power exponents, the polynomial b with b^p = a."""
    # c^(p^(r-1)) is the p-th root of c in F_{p^r}
    e = F.p ** (F.r - 1)
    return trim([F.pow(c, e) for c in a[::F.p]])


def is_irreducible(F, a) -> bool:
    """True iff a has degree n > 0 and its distinct-degree split is [n]:
    a reducible polynomial has an irreducible factor of degree <= n/2,
    which `distinct_degrees` finds before it stops."""
    a = trim(list(a))
    return deg(a) > 0 and distinct_degrees(F, a) == [deg(a)]


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


def squarefree_decomposition(F, f):
    """Decompose monic f as a product of squarefree parts.

    Returns a list of (g, m) with f = prod g^m up to a constant, the g
    monic, squarefree and pairwise coprime, and multiplicities m >= 1.
    Handles the characteristic-p collapse f' = 0 by extracting p-th roots.
    """
    f = monic(F, trim(list(f)))
    if deg(f) < 1:
        return []
    out = []

    def recurse(f, outer):
        if deg(f) < 1:
            return
        fp = deriv(F, f)
        if is_zero(fp):
            recurse(pth_root(F, f), outer * F.p)
            return
        t = gcd(F, f, fp)
        w = divmod_(F, f, t)[0]
        i = 1
        while deg(w) > 0:
            y = gcd(F, w, t)
            z = divmod_(F, w, y)[0]
            if deg(z) > 0:
                out.append((z, i * outer))
            w = y
            t = divmod_(F, t, y)[0]
            i += 1
        if deg(t) > 0:
            recurse(pth_root(F, t), outer * F.p)

    recurse(f, 1)
    out.sort(key=lambda gm: (gm[1], gm[0]))
    return out


def radical(F, f):
    """Product of the distinct irreducible factors of f (monic)."""
    parts = squarefree_decomposition(F, f)
    out = [1]
    for g, _ in parts:
        out = mul(F, out, g)
    return out


def distinct_degrees(F, f):
    """Degrees d for which squarefree f has an irreducible factor of degree d."""
    f = monic(F, trim(list(f)))
    degrees = []
    h = f
    w = mod(F, [0, 1], h)
    i = 0
    while deg(h) > 0:
        i += 1
        if 2 * i > deg(h):
            degrees.append(deg(h))
            break
        w = powmod(F, w, F.q, h)
        g = gcd(F, sub(F, w, [0, 1]), h)
        if deg(g) > 0:
            degrees.append(i)
            h = divmod_(F, h, g)[0]
            w = mod(F, w, h)
    return degrees
