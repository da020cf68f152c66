"""Finite-field and polynomial arithmetic written apart from coeffcount.

The benchmark makes its inputs and checks the program's answers with
these helpers, so nothing here imports the program.  Fields are F_q for
q in {2, 3, 4, 5, 7}; F_4 is F_2[t]/(t^2 + t + 1) with the element
c0 + c1 t encoded as c0 + 2 c1, the encoding coeffcount uses.
"""

from __future__ import annotations


class GF:
    """Addition and multiplication tables of F_q, q prime or q = 4."""

    def __init__(self, q: int):
        if q not in (2, 3, 4, 5, 7):
            raise ValueError(f"unsupported field size {q}")
        self.q = q
        if q == 4:
            def mul(a, b):
                a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
                c0 = (a0 & b0) ^ (a1 & b1)
                c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
                return c0 | (c1 << 1)

            self.add = [[a ^ b for b in range(4)] for a in range(4)]
            self.mul = [[mul(a, b) for b in range(4)] for a in range(4)]
        else:
            self.add = [[(a + b) % q for b in range(q)] for a in range(q)]
            self.mul = [[(a * b) % q for b in range(q)] for a in range(q)]
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0) for a in range(q)]
        self.inv = [0] + [next(b for b in range(q) if self.mul[a][b] == 1)
                          for a in range(1, q)]



# -- sparse multivariate polynomials: dict exponent tuple -> nonzero element ----


def sparse_mul(F: GF, a: dict, b: dict) -> dict:
    add, mul = F.add, F.mul
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = add[out.get(e, 0)][mul[ca][cb]]
    return {e: c for e, c in out.items() if c}


def sparse_power(F: GF, f: dict, n: int) -> dict:
    """f^n by n plain multiplications (no Frobenius, no squaring)."""
    k = len(next(iter(f)))
    acc = {(0,) * k: 1}
    for _ in range(n):
        acc = sparse_mul(F, acc, f)
    return acc


def census(poly: dict) -> dict:
    out: dict = {}
    for c in poly.values():
        out[c] = out.get(c, 0) + 1
    return out


def census_product(F: GF, a: dict, b: dict) -> dict:
    """Census of a product whose coefficients are pairwise products, one per
    pair of nonzero coefficients: the field-multiplication convolution."""
    out: dict = {}
    for x, nx in a.items():
        for y, ny in b.items():
            z = F.mul[x][y]
            out[z] = out.get(z, 0) + nx * ny
    return out


def degree_box(f: dict):
    k = len(next(iter(f)))
    return tuple(max(e[i] for e in f) for i in range(k))


# -- dense univariate polynomials: lists, constant term first, no trailing 0 -----


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def dense_mul(F: GF, a, b):
    if not a or not b:
        return []
    add, mul = F.add, F.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add[out[i + j]][row[y]]
    return trim(out)


def dense_mod(F: GF, a, m):
    a = list(a)
    inv_lead = F.inv[m[-1]]
    while len(a) >= len(m):
        c = F.mul[a[-1]][inv_lead]
        shift = len(a) - len(m)
        for i, y in enumerate(m):
            a[shift + i] = F.add[a[shift + i]][F.neg[F.mul[c][y]]]
        trim(a)
    return a


def dense_powmod(F: GF, a, e: int, m):
    result = [1]
    base = dense_mod(F, a, m)
    while e:
        if e & 1:
            result = dense_mod(F, dense_mul(F, result, base), m)
        base = dense_mod(F, dense_mul(F, base, base), m)
        e >>= 1
    return result


def monic_polys(F: GF, d: int):
    """Every monic polynomial of degree d, in a fixed order."""
    for v in range(F.q**d):
        coeffs = []
        for _ in range(d):
            coeffs.append(v % F.q)
            v //= F.q
        yield coeffs + [1]


def is_irreducible(F: GF, g) -> bool:
    """Trial division by every monic polynomial of degree 1 .. deg(g) // 2."""
    d = len(g) - 1
    if d < 1:
        return False
    for e in range(1, d // 2 + 1):
        for h in monic_polys(F, e):
            if not dense_mod(F, g, h):
                return False
    return True


def prime_factors(n: int):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_primitive(F: GF, g) -> bool:
    """For irreducible g of degree d: x has order q^d - 1 modulo g."""
    order = F.q ** (len(g) - 1) - 1
    return all(dense_powmod(F, [0, 1], order // ell, g) != [1]
               for ell in prime_factors(order))


def dense_power_census(F: GF, g, n: int) -> dict:
    """Census of g^n by the base-q digits of n: g^n is the product over
    digits a_i of g^(a_i) with x replaced by x^(q^i), since raising to the
    q-th power fixes every coefficient in F_q."""
    small = [[1]]
    for _ in range(F.q - 1):
        small.append(dense_mul(F, small[-1], g))
    acc = [1]
    scale = 1
    while n:
        a = n % F.q
        n //= F.q
        if a:
            out = [0] * (len(acc) + (len(small[a]) - 1) * scale)
            for i, c in enumerate(small[a]):
                if c:
                    off = i * scale
                    row = F.mul[c]
                    for j, x in enumerate(acc):
                        if x:
                            out[off + j] = F.add[out[off + j]][row[x]]
            acc = trim(out)
        scale *= F.q
    return census({i: c for i, c in enumerate(acc) if c})
