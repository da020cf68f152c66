"""Arithmetic in the finite field F_q with q = p^r.

Elements are encoded as integers in [0, q): the element with
polynomial-basis coordinates (c_0, ..., c_{r-1}) is encoded as
sum(c_i * p**i).  Every layer holds elements as these plain integers,
which keeps the inner loops of the polynomial kernels cheap, and
``Field.encoding`` is the one rule that turns an input integer into one.
"""

from __future__ import annotations

import operator

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


def base_digits(n: int, q: int):
    """The base-q digits of n >= 0, least significant first (none for 0)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    digits = []
    while n:
        n, digit = divmod(n, q)
        digits.append(digit)
    return digits


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
        if r >= DEFAULT_MAX_Q.bit_length():  # 2^r already passes the cap
            raise FieldError(f"field size {p}^{r} exceeds the cap {DEFAULT_MAX_Q}")
        q = p**r
        if q > DEFAULT_MAX_Q:
            raise FieldError(f"field size {q} exceeds the cap {DEFAULT_MAX_Q}")
        self.p = p
        self.r = r
        self.q = q
        self.one = 1
        if modulus is not None:
            prime = Field(p)
            modulus = tuple(map(prime.encoding, modulus))
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise FieldError(f"modulus must be monic of degree {r}")
            # every monic linear polynomial is irreducible
            if r > 1 and not unipoly.is_irreducible(prime, list(modulus)):
                raise FieldError("modulus is not irreducible over F_p")
        if r == 1:
            modulus = (0, 1)  # the polynomial x; unused for prime fields
        elif modulus is None:
            # irreducible by construction: find_irreducible proved it
            modulus = find_irreducible(p, r)
        self.modulus = modulus
        self._add = self._mul = self._inv = self._scale = None
        if q <= _TABLE_LIMIT:
            # _inv[0] is a placeholder; inv() refuses 0 before reading it
            self._add, self._mul, self._inv = self._log_tables()
            # _scale[c] is a bytes.translate table multiplying every byte by c
            self._scale = [bytes(row).ljust(256, b"\0") for row in self._mul]

    # -- encoding helpers -------------------------------------------------

    def coeffs(self, a: int):
        """Polynomial-basis coordinates of an encoded element."""
        digits = base_digits(a, self.p)
        return tuple(digits + [0] * (self.r - len(digits)))

    def encoding(self, value) -> int:
        """The encoding of an input integer: reduced mod p in a prime field;
        in an extension field it must already lie in [0, q).  A value that
        is not an integer (operator.index refuses it) is not truncated."""
        try:
            value = operator.index(value)
        except TypeError:
            raise FieldError(f"{value!r} is not an integer") from None
        if self.r == 1:
            return value % self.p
        if not 0 <= value < self.q:
            raise FieldError(f"encoding {value} out of range for F_{self.q}")
        return value

    # -- arithmetic on encodings ------------------------------------------

    def _log_tables(self):
        """Addition, multiplication and inverse tables from q - 2 slow
        products (Lidl-Niederreiter, Finite Fields, ch. 9).

        Every nonzero element is g^k for the smallest primitive encoding g,
        so a * b = g^(log a + log b).  Addition is digit-wise mod p: XOR for
        p = 2, and otherwise its table on p^(j+1) encodings is composed from
        the one on p^j and the p x p table of F_p, one base-p digit at a time.
        """
        p, q = self.p, self.q
        order = q - 1
        cofactors = [order // ell for ell in unipoly.prime_factors(order)]
        g = next(a for a in range(1, q)
                 if all(self.pow(a, e) != 1 for e in cofactors))
        antilog = [1]
        for _ in range(order - 1):
            antilog.append(self._slow_mul(antilog[-1], g))
        log = [0] * q
        for k, a in enumerate(antilog):
            log[a] = k
        logs = log[1:]  # the logs of 1 .. q - 1
        exp = antilog * 2  # exp[k] = g^k for 0 <= k < 2 (q - 1)
        # row a > 0 is 0, then exp[log a + log b] for b = 1 .. q - 1; a getter
        # of one index (F_2) would return a scalar, not a tuple
        by_log = operator.itemgetter(*logs) if order > 1 else tuple
        mul = [[0] * q] + [[0, *by_log(exp[i:i + order])] for i in logs]
        inv = [0] + [exp[order - i] for i in logs]
        if p == 2:
            return [[a ^ b for b in range(q)] for a in range(q)], mul, inv
        digit = [[(a + b) % p for b in range(p)] for a in range(p)]
        add, width = digit, p
        while width < q:
            # a = low + width * t and b = low' + width * s add to
            # add[low][low'] + width * digit[t][s]
            add = [[x + width * s for s in digit[t] for x in add[low]]
                   for t in range(p) for low in range(width)]
            width *= p
        return add, mul, inv

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
        p = self.p
        if self._mul is not None:
            return self._mul[p - 1][a]  # p - 1 encodes -1
        if self.r == 1:
            return -a % p
        # negate each base-p coordinate, as _slow_add walks them
        out = 0
        shift = 1
        while a:
            a, c = divmod(a, p)
            if c:
                out += (p - c) * shift
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
        if self._inv is not None:
            return self._inv[a]
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

    Candidates x^r + a_{r-1} x^{r-1} + ... + a_0, the base-p digits of their
    value at p, are scanned in increasing order of it: the result is deterministic.
    For r = 1 the convention is the polynomial x.
    """
    prime = Field(p)  # refuses a p that is not prime
    if r < 1:
        raise FieldError("degree must be >= 1")
    if r == 1:
        return (0, 1)
    for value in range(p**r, 2 * p**r):
        coeffs = base_digits(value, p)
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
