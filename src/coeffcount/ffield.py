"""Arithmetic in the finite field F_q with q = p^r.

Elements are encoded as integers in [0, q): the element with
polynomial-basis coordinates (c_0, ..., c_{r-1}) is encoded as
sum(c_i * p**i).  Every layer holds elements as these plain integers,
which keeps the inner loops of the polynomial kernels cheap, and
``Field.encoding`` is the one rule that turns an input integer into one.
"""

from __future__ import annotations

from . import unipoly

DEFAULT_MAX_Q = 1 << 16

# fields are tiny here; build full operation tables up to this size
_TABLE_LIMIT = 256


class FieldError(ValueError):
    pass


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 37.

    No composite below 3.3 * 10^24 passes all twelve bases.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The finite field F_{p^r}, immutable once constructed.

    For r > 1 a monic irreducible modulus of degree r over F_p is required;
    by default the lexicographically smallest one (see find_irreducible) is
    used so that runs are reproducible.
    """

    def __init__(self, p: int, r: int = 1, modulus=None):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if r < 1:
            raise FieldError("extension degree must be >= 1")
        q = p**r
        if q > DEFAULT_MAX_Q:
            raise FieldError(f"field size {q} exceeds the cap {DEFAULT_MAX_Q}")
        self.p = p
        self.r = r
        self.q = q
        self.one = 1
        if r == 1:
            self.modulus = (0, 1)  # the polynomial x; unused for prime fields
        else:
            if modulus is None:
                modulus = find_irreducible(p, r)
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise FieldError(f"modulus must be monic of degree {r}")
            prime = Field(p)
            if not unipoly.is_irreducible(prime, list(modulus)):
                raise FieldError("modulus is not irreducible over F_p")
            self.modulus = modulus
        self._add = None
        self._mul = None
        if q <= _TABLE_LIMIT:
            self._build_tables()

    # -- encoding helpers -------------------------------------------------

    def coeffs(self, a: int):
        """Polynomial-basis coordinates of an encoded element."""
        p = self.p
        out = []
        for _ in range(self.r):
            out.append(a % p)
            a //= p
        return tuple(out)

    def encoding(self, value) -> int:
        """The encoding of an input integer: reduced mod p in a prime field;
        in an extension field it must already lie in [0, q)."""
        value = int(value)
        if self.r == 1:
            return value % self.p
        if not 0 <= value < self.q:
            raise FieldError(f"encoding {value} out of range for F_{self.q}")
        return value

    # -- arithmetic on encodings ------------------------------------------

    def _build_tables(self):
        q = self.q
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                s = self._slow_add(a, b)
                add[a][b] = add[b][a] = s
                m = self._slow_mul(a, b)
                mul[a][b] = mul[b][a] = m
        self._add = add
        self._mul = mul

    def _slow_add(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        shift = 1
        for _ in range(self.r):
            out += ((a % p + b % p) % p) * shift
            a //= p
            b //= p
            shift *= p
        return out

    def _slow_mul(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a * b) % self.p
        p, r = self.p, self.r
        ca = self.coeffs(a)
        cb = self.coeffs(b)
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the modulus polynomial
        mod = self.modulus
        for d in range(2 * r - 2, r - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(r):
                    prod[d - r + j] = (prod[d - r + j] - c * mod[j]) % p
        val = 0
        for c in reversed(prod[:r]):
            val = val * p + c
        return val

    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a][b]
        return self._slow_add(a, b)

    def neg(self, a: int) -> int:
        if self.r == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        shift = 1
        for _ in range(self.r):
            out += ((-(a % p)) % p) * shift
            a //= p
            shift *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self._mul is not None:
            return self._mul[a][b]
        return self._slow_mul(a, b)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in finite field")
        return self.pow(a, self.q - 2)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.r == other.r
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        if self.r == 1:
            return f"Field({self.p})"
        return f"Field({self.p}, {self.r})"


def find_irreducible(p: int, r: int):
    """Lexicographically smallest monic irreducible of degree r over F_p.

    Candidates x^r + a_{r-1} x^{r-1} + ... + a_0 are scanned in increasing
    order of the value a_0 + a_1 p + ... so the result is deterministic.
    For r = 1 the convention is the polynomial x.
    """
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if r < 1:
        raise FieldError("degree must be >= 1")
    if r == 1:
        return (0, 1)
    prime = Field(p)
    for v in range(p**r):
        coeffs = []
        t = v
        for _ in range(r):
            coeffs.append(t % p)
            t //= p
        coeffs.append(1)
        if unipoly.is_irreducible(prime, coeffs):
            return tuple(coeffs)
    raise FieldError("no irreducible found")  # unreachable: they always exist


def is_primitive(g, field: Field) -> bool:
    """True iff a root of irreducible g generates F_{q^d}^* (d = deg g).

    Checks x^{(q^d-1)/l} != 1 (mod g) for every prime l dividing q^d - 1.
    Raises on reducible input.
    """
    g = unipoly.trim(list(g))
    d = unipoly.deg(g)
    if d < 1 or not unipoly.is_irreducible(field, g):
        raise FieldError("is_primitive requires an irreducible polynomial")
    order = field.q**d - 1
    x = [0, 1]
    for ell in unipoly.prime_factors(order):
        if unipoly.powmod(field, x, order // ell, g) == [1]:
            return False
    return True
