"""Sparse multivariate polynomials over F_q or the integers.

Terms map exponent tuples to nonzero coefficients.  Field coefficients are
stored as integer encodings (see ffield); integer coefficients are plain
ints.  `MultiPoly.mul` multiplies on int keys with one byte-aligned field
per variable, and its product stays on those packed keys, with its exact
per-variable degrees, until `.terms` is first read: that read unpacks once
and caches the tuple dict.  The cached unpack is the only mutation, so
polynomials can be shared freely.  A chain of products therefore packs only
the operands built from tuples, and repacks a product only when the field
width grows.  `linear_product` expands products of linear forms, adjacent
forms in pairs before the running product.
The digit automaton shares its key layout (`_key_fields`) and its kernel
for packed terms (`_convolve`): one exponent packing, one product loop.
Every product and digit automaton runs under the limits in force in its
context (`limits`): the term budget, the most keys one product may hold,
and the state cap, the most states one automaton may discover.
"""

from __future__ import annotations

import operator
import struct
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar

from .ffield import Field, FieldError

DEFAULT_TERM_BUDGET = 10**7
DEFAULT_STATE_CAP = 100_000

# the (term budget, state cap) pair in force
_limits = ContextVar("limits", default=(DEFAULT_TERM_BUDGET, DEFAULT_STATE_CAP))
current_limits = _limits.get


@contextmanager
def limits(terms: int = DEFAULT_TERM_BUDGET, states: int = DEFAULT_STATE_CAP):
    """Run a block under a term budget and a state cap, and restore the
    limits in force before it when it exits, however it exits.  The values
    live in a context variable, so a new thread starts from the defaults."""
    token = _limits.set((terms, states))
    try:
        yield
    finally:
        _limits.reset(token)


class BudgetError(RuntimeError):
    """A computation would exceed the configured term budget."""


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class IntegerRing:
    """Coefficient-ring protocol for plain integers."""

    one = 1

    # builtins, so that the product loop makes no Python-level call over ZZ
    add = operator.add
    mul = operator.mul
    neg = operator.neg

    def __repr__(self):
        return "ZZ"


ZZ = IntegerRing()


def nonzero_alpha(ring, alpha):
    """The counted coefficient alpha over ring: its Field.encoding over a
    field, alpha as given over ZZ.  Zero is refused."""
    if isinstance(ring, Field):
        alpha = ring.encoding(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero; zero-coefficient counts follow "
                         "from N + N_0 = number of coefficient slots")
    return alpha


class MultiPoly:
    """A sparse polynomial in k variables over ring (ZZ or a Field).

    Built from a dict, it holds its terms as exponent tuples.  A product
    made by `mul` holds them on packed int keys in its key layout, with its
    exact per-variable degrees, and unpacks them once, when `.terms` is
    first read; `num_terms`, `is_zero` and `var_degrees` answer without
    unpacking.  That cached unpack is the only mutation.
    """

    __slots__ = ("k", "ring", "_terms", "_packed", "_layout", "_degs")

    def __init__(self, k: int, ring, terms=None, _clean=False):
        self.k = k
        self.ring = ring
        self._packed = self._layout = self._degs = None
        if terms is None:
            terms = {}
        if _clean:
            self._terms = terms
        else:
            clean = {}
            for exp, c in terms.items():
                try:
                    exp = tuple(map(operator.index, exp))
                    ok = len(exp) == k and not any(e < 0 for e in exp)
                except TypeError:  # exp keeps the vector as given
                    ok = False
                if not ok:
                    raise ValueError(f"bad exponent vector {tuple(exp)} for k={k}")
                if c:
                    clean[exp] = ring.add(clean[exp], c) if exp in clean else c
                    if not clean[exp]:
                        del clean[exp]
            self._terms = clean

    @classmethod
    def _product(cls, k, ring, packed: dict, layout: struct.Struct, degs):
        """A polynomial held on packed keys; degs must be its exact degrees."""
        poly = cls.__new__(cls)
        poly.k = k
        poly.ring = ring
        poly._terms = None
        poly._packed = packed
        poly._layout = layout
        poly._degs = degs
        return poly

    @property
    def terms(self) -> dict:
        """Exponent tuple -> nonzero coefficient, unpacked on the first read."""
        terms = self._terms
        if terms is None:
            unpack, nbytes = self._layout.unpack, self._layout.size
            terms = self._terms = {unpack(key.to_bytes(nbytes, "little")): c
                                   for key, c in self._packed.items()}
        return terms

    def _held(self) -> dict:
        """The terms as held: on packed keys until the first unpack."""
        return self._packed if self._terms is None else self._terms

    def _packed_in(self, layout: struct.Struct) -> dict:
        """The terms on int keys in layout, reused when they are held so."""
        if self._layout is not None and self._layout.format == layout.format:
            return self._packed
        pack, from_bytes = layout.pack, int.from_bytes
        return {from_bytes(pack(*e), "little"): c for e, c in self.terms.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, k, ring):
        return cls(k, ring, {}, _clean=True)

    @classmethod
    def constant(cls, k, ring, c):
        if not c:
            return cls.zero(k, ring)
        return cls(k, ring, {(0,) * k: c}, _clean=True)

    @classmethod
    def one(cls, k, ring):
        return cls.constant(k, ring, ring.one)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._held()

    @property
    def num_terms(self) -> int:
        return len(self._held())

    def var_degrees(self):
        """Componentwise max of the exponent vectors (the degree box)."""
        if self._degs is not None:
            return self._degs
        if not self._terms:
            raise ValueError("var_degrees of the zero polynomial")
        return tuple(map(max, zip(*self._terms)))

    def coeff_census(self):
        """Map each distinct nonzero coefficient value to its multiplicity."""
        return Counter(self._held().values())

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, MultiPoly):
            raise TypeError("expected a MultiPoly")
        if self.k != other.k or self.ring != other.ring:
            raise ValueError("mismatched variable count or coefficient ring")

    def __add__(self, other):
        self._check_compatible(other)
        ring = self.ring
        out = dict(self.terms)
        for exp, c in other.terms.items():
            if exp in out:
                s = ring.add(out[exp], c)
                if s:
                    out[exp] = s
                else:
                    del out[exp]
            else:
                out[exp] = c
        return MultiPoly(self.k, ring, out, _clean=True)

    def mul(self, other):
        self._check_compatible(other)
        k, ring = self.k, self.ring
        if self.is_zero() or other.is_zero():
            return MultiPoly.zero(k, ring)
        # ZZ and every Field are integral domains, so the degree in each
        # variable of a product is exactly the sum of the operands' degrees
        degs = tuple(map(operator.add, self.var_degrees(), other.var_degrees()))
        layout = _key_fields(k, max(degs, default=0))
        a, b = self._packed_in(layout), other._packed_in(layout)
        if len(a) < len(b):
            a, b = b, a
        out = _convolve(b.items(), a.items(), ring, current_limits()[0])
        if not all(out.values()):
            zeros = [key for key, c in out.items() if not c]
            if 4 * len(zeros) > 3 * len(out):
                # dicts do not shrink on del: a product that kept fewer than
                # a quarter of its keys is copied, not held in its old table
                out = {key: c for key, c in out.items() if c}
            else:
                for key in zeros:
                    del out[key]
        return MultiPoly._product(k, ring, out, layout, degs)

    def __mul__(self, other):
        return self.mul(other)

    def pow(self, n: int):
        """f^n by square-and-multiply over every ring, each product one `mul`
        under the term budget; `automaton` counts powers over F_q by digits."""
        if n < 0:
            raise ValueError("negative exponent")
        result = MultiPoly.one(self.k, self.ring)
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return result

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.k == other.k
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.k, self.ring, frozenset(self.terms.items())))

    # -- output ----------------------------------------------------------------

    def sorted_terms(self):
        """Terms in graded lexicographic order of the exponent vectors."""
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == self.ring.one:
                parts.append(body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts)


def linear_product(k: int, ring, forms) -> MultiPoly:
    """The product of linear forms, multiplied pairs first.

    Each form maps a 0-based variable index, or None for the constant, to
    its coefficient; zero coefficients are dropped, so an empty form is the
    zero polynomial.  Forms 2j+1 and 2j+2 are multiplied together, each pair
    only when the chain reaches it, and the pair products are multiplied
    left to right starting from 1 (an odd last form joins as it is), so only
    every other product meets the running product.  Every form is still one
    MultiPoly.mul under the term budget, so a power is passed as the form
    repeated.
    """
    zero = (0,) * k

    def linear(form):
        terms = {}
        for i, c in form.items():
            if i is None:
                exp = zero
            elif 0 <= i < k:
                exp = zero[:i] + (1,) + zero[i + 1:]
            else:
                raise ValueError(f"variable index {i} out of range 0..{k - 1}")
            if c:
                terms[exp] = c
        return MultiPoly(k, ring, terms, _clean=True)

    poly = MultiPoly.one(k, ring)
    forms = iter(forms)
    for form in forms:
        second = next(forms, None)
        factor = linear(form)
        if second is not None:
            factor = factor.mul(linear(second))
        poly = poly.mul(factor)
    poly.terms  # unpack here, so that the whole expansion is paid inside this call
    return poly


def _convolve(outer, inner, ring, budget: int) -> dict:
    """The products of two packed (key, coeff) sequences, summed by key in
    the order the loop first reaches them, outer terms outside; sums that
    cancel stay as 0.  The key layout must hold every key sum.  Over a field
    with operation tables (q <= 256) they are indexed inline.  Raises
    BudgetError when a finished outer row leaves more than budget keys;
    the rows are checked only when the pairs outnumber the budget, since
    no product holds more keys than pairs."""
    out: dict[int, int] = {}
    checked = len(outer) * len(inner) > budget
    if isinstance(ring, Field) and ring._mul is not None:
        add_table, mul_table = ring._add, ring._mul
        get = out.get
        for k2, c2 in outer:
            row = mul_table[c2]
            for k1, c1 in inner:
                key = k1 + k2
                c = row[c1]
                prev = get(key)
                out[key] = c if prev is None else add_table[prev][c]
            if checked and len(out) > budget:
                raise BudgetError(f"term budget {budget} exceeded in multiplication")
        return out
    radd = ring.add
    rmul = ring.mul
    for k2, c2 in outer:
        for k1, c1 in inner:
            key = k1 + k2
            c = rmul(c1, c2)
            if key in out:
                out[key] = radd(out[key], c)
            else:
                out[key] = c
        if checked and len(out) > budget:
            raise BudgetError(f"term budget {budget} exceeded in multiplication")
    return out


def _key_fields(k: int, top: int) -> struct.Struct:
    """The int-key layout of MultiPoly.mul and the automaton: one field per variable.

    Each field is little-endian and 1, 2, 4 or 8 bytes wide, the narrowest
    that holds top, so adding two keys adds their exponent vectors as long
    as no sum exceeds top.  MultiPoly.mul passes the largest exponent of
    the product.  Raises BudgetError when top needs more than 64 bits.
    """
    for code, bits in zip("BHIQ", (8, 16, 32, 64)):
        if top >> bits == 0:
            return struct.Struct(f"<{k}{code}")
    raise BudgetError(f"exponent {top} in multiplication exceeds 2^64 - 1")


def dense_coeffs(f: MultiPoly):
    """Dense constant-first coefficient list of a univariate polynomial."""
    if f.k != 1:
        raise ValueError("dense_coeffs needs a univariate polynomial")
    if not f.terms:
        return []
    d = max(e[0] for e in f.terms)
    out = [0] * (d + 1)
    for (e,), c in f.terms.items():
        out[e] = c
    return out


def from_dense(coeffs, ring) -> MultiPoly:
    """Univariate MultiPoly from a dense constant-first coefficient list."""
    return MultiPoly(1, ring, {(i,): c for i, c in enumerate(coeffs)})


# -- parsing -------------------------------------------------------------------
#
# Grammar: poly  := [sign] term ((+|-) term)*
#          term  := factor ('*' factor)*
#          factor:= INT | var
#          var   := 'x' [INT] ['^' INT]   (bare 'x' only when k = 1)
#
# Integer literals become coefficients by Field.encoding: over F_p they
# reduce mod p, over an extension field they must lie in [0, q).  Whitespace
# is ignored.


def parse_poly(text: str, k: int, ring) -> MultiPoly:
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    s = text
    n = len(s)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < n and s[pos].isspace():
            pos += 1

    def read_int():
        nonlocal pos
        start = pos
        while pos < n and s[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected an integer", start)
        return int(s[start:pos])

    def read_coeff():
        c = read_int()
        if not isinstance(ring, Field):
            return c
        try:
            return ring.encoding(c)
        except FieldError as exc:
            raise ParseError(str(exc), pos) from None

    def read_factor():
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise ParseError("unexpected end of input", pos)
        ch = s[pos]
        if ch.isdigit():
            return ("coeff", read_coeff())
        if ch == "x":
            pos += 1
            if pos < n and s[pos].isdigit():
                idx = read_int()
            else:
                if k != 1:
                    raise ParseError("bare 'x' is only allowed when k = 1", pos - 1)
                idx = 1
            if not 1 <= idx <= k:
                raise ParseError(f"variable x{idx} out of range 1..{k}", pos)
            e = 1
            if pos < n and s[pos] == "^":
                pos += 1
                e = read_int()
            return ("var", idx, e)
        raise ParseError(f"unexpected character {ch!r}", pos)

    terms = {}

    def add_term(sign: int):
        """Read one term into terms by the order rule of `+`: a repeated
        exponent updates its term in place, and a zero sum deletes it."""
        nonlocal pos
        coeff = ring.one
        exps = [0] * k
        while True:
            kind = read_factor()
            if kind[0] == "coeff":
                coeff = ring.mul(coeff, kind[1])
            else:
                _, idx, e = kind
                exps[idx - 1] += e
            skip_ws()
            if pos < n and s[pos] == "*":
                pos += 1
                continue
            break
        if sign < 0:
            coeff = ring.neg(coeff)
        exp = tuple(exps)
        if exp in terms:
            coeff = ring.add(terms[exp], coeff)
            if not coeff:
                del terms[exp]
        if coeff:
            terms[exp] = coeff

    skip_ws()
    if pos >= n:
        raise ParseError("empty polynomial", pos)
    sign = 1
    if s[pos] in "+-":
        sign = -1 if s[pos] == "-" else 1
        pos += 1
    add_term(sign)
    while True:
        skip_ws()
        if pos >= n:
            break
        if s[pos] == "+":
            sign = 1
        elif s[pos] == "-":
            sign = -1
        else:
            raise ParseError(f"unexpected character {s[pos]!r}", pos)
        pos += 1
        add_term(sign)
    return MultiPoly(k, ring, terms, _clean=True)

