"""Digit automaton for coefficient counting of f(x)^n over F_q.

The count of coefficients of f^n equal to a nonzero target is a product
of integer matrices indexed by the base-q digits of n, applied to a fixed
start vector, then read off through a per-target output vector.  States
are "section patterns": functions from a fixed box S of exponent vectors
to F_q, obtained by slicing a polynomial's coefficients along residue
classes of exponents.  Only patterns actually reachable from the seed
polynomials are materialized, which keeps the matrices small even when
the full pattern space q^|S| is astronomical.  A (state, digit) column
is made when a digit walk first needs it and `close()` makes the rest, so
q-power counts (see qpow) make only the columns their walk touches.

Every evaluation reads the vectors of one digit walk (`DigitAutomaton.walk`):
counts and censuses its last vector; repunit counts, the Krylov order and
q-power sequences the iterates of a repeated digit.  Counts and censuses
walk each run of equal digits only until a product leaves the vector
unchanged off the zero pattern, then jump the rest of the run in closed
form.  By Frobenius, f^(qn) = f^n(x^q), so zero runs get there within a
few products: the cost is one product per digit outside zero runs, plus
the few each run takes to reach its fixed point.

Exponents live on packed int keys from construction on: the powers of f
come from the packed convolution the columns run, never `MultiPoly.mul`.
A pattern is stored as a bytes object over the box points (so q <= 256
here, the size up to which Field keeps full operation tables; fields that
large are far beyond what pattern enumeration could handle anyway).
"""

from __future__ import annotations

import itertools

from . import modular
from .ffield import _TABLE_LIMIT, Field
from .mpoly import ExponentPacker, MultiPoly

DEFAULT_STATE_CAP = 100_000


class AutomatonError(RuntimeError):
    pass


class StateCapError(AutomatonError):
    pass


def base_digits(n: int, q: int):
    """The base-q digits of n >= 0, least significant first (none for 0)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    digits = []
    while n:
        n, digit = divmod(n, q)
        digits.append(digit)
    return digits


def _convolve(outer, inner, add_table, mul_table):
    """Products of two packed (key, coeff) lists, summed by key in first-seen order.

    The packer's fields must hold every key sum; sums that cancel stay as 0.
    """
    acc: dict[int, int] = {}
    get = acc.get
    for outer_key, outer_c in outer:
        row = mul_table[outer_c]
        for inner_key, inner_c in inner:
            key = outer_key + inner_key
            v = row[inner_c]
            prev = get(key)
            acc[key] = v if prev is None else add_table[prev][v]
    return acc


class DigitAutomaton:
    """Section-pattern digit automaton for one polynomial over one field.

    Construction knows only the patterns of 1 and of the seeds.  A walk
    makes the column of a (state, digit) pair the first time it needs it,
    and the patterns the column leads to become new states; `close()` makes
    every remaining column, breadth first, so a closed automaton has every
    state reachable from 1 and the seeds.

    For a known pattern G and digit a, the polynomial f^a * (the polynomial
    with G's coefficients) is expanded and its exponents split as
    gamma + q*delta with gamma in {0..q-1}^k; each gamma slice is a child
    pattern.  Box bounds (q-1)*deg_i(f) guarantee the slices never escape
    the box, held as packed keys in `itertools.product` order, so the
    closure is finite.  Each f^a is the convolution of f^(a-1) with f.

    Attributes:
        field, f: the coefficient field and base polynomial.
        states: the patterns discovered so far, bytes over box points.
        transitions: per digit a, a list over states of sparse columns
            [(child_state, multiplicity), ...] summing to q^k, or None
            where the column is not made yet.
        initial: index of the pattern of the constant polynomial 1.
    """

    def __init__(self, f: MultiPoly, state_cap: int = DEFAULT_STATE_CAP, seeds=()):
        field = f.ring
        if not isinstance(field, Field):
            raise AutomatonError("automaton needs a finite-field polynomial")
        if field.q > _TABLE_LIMIT:
            raise AutomatonError(f"automaton supports q <= {_TABLE_LIMIT}")
        if f.is_zero():
            raise AutomatonError("automaton needs a nonzero polynomial")
        q = field.q
        k = f.k
        degs = f.var_degrees()
        bounds = [(q - 1) * d for d in degs]
        seeds = list(seeds)
        for g in seeds:
            if g.k != k or g.ring != field:
                raise AutomatonError("seed polynomial does not match f")
            if not g.is_zero():
                bounds = [max(b, d) for b, d in zip(bounds, g.var_degrees())]
        self.field = field
        self.f = f
        self._bounds = tuple(bounds)
        self._state_cap = state_cap
        self.states: list[bytes] = []
        self.transitions = [[] for _ in range(q)]
        self._state_index: dict[bytes, int] = {}
        self._missing = 0  # (state, digit) columns not made yet

        # exponents of f^a * G packed into ints; f^(q-1) * G never carries
        self._packer = ExponentPacker([(q - 1) * d + b for d, b in zip(degs, bounds)])
        box = [0]
        for b, shift in zip(bounds, self._packer.shifts):
            box = [key + (e << shift) for key in box for e in range(b + 1)]
        self._box_packed = box
        self._delta_index = {key: i for i, key in enumerate(box)}
        f_packed = self._packer.pack_terms(f)
        self._f_pows_packed = [[(0, field.one)]]
        for _ in range(q - 1):
            acc = _convolve(self._f_pows_packed[-1], f_packed, field._add, field._mul)
            self._f_pows_packed.append(sorted((key, c) for key, c in acc.items() if c))
        self._split_cache: dict[int, tuple[int, int]] = {}

        # box point 0 is the exponent vector 0
        self.initial = self._intern(bytes([field.one]) + bytes(len(box) - 1))
        for g in seeds:
            self._intern(self.pattern_of(g))

    @property
    def state_count(self) -> int:
        """The number of states discovered so far (all of them once closed)."""
        return len(self.states)

    # -- construction --------------------------------------------------------

    def _intern(self, pat: bytes) -> int:
        idx = self._state_index.get(pat)
        if idx is None:
            idx = len(self.states)
            if idx >= self._state_cap:
                raise StateCapError(f"state cap {self._state_cap} exceeded")
            self._state_index[pat] = idx
            self.states.append(pat)
            for cols in self.transitions:
                cols.append(None)
            self._missing += len(self.transitions)
        return idx

    def _split(self, key: int):
        """(rank of gamma, box index of delta) for a packed exponent gamma + q*delta."""
        q = self.field.q
        exp = self._packer.unpack(key)
        gamma_rank = 0
        for e in exp:
            gamma_rank = gamma_rank * q + e % q
        point = self._delta_index.get(self._packer.pack([e // q for e in exp]))
        if point is None:
            raise AutomatonError("internal error: slice escaped the box")
        self._split_cache[key] = (gamma_rank, point)
        return gamma_rank, point

    def _make_columns(self, src: int, digits) -> None:
        """Make state src's columns for the given digits, interning their children."""
        G = self.states[src]
        npoints = len(G)
        box_packed = self._box_packed
        support = [(box_packed[j], g) for j, g in enumerate(G) if g]
        add_table = self.field._add
        mul_table = self.field._mul
        split_get = self._split_cache.get
        index_get = self._state_index.get
        gamma_count = self.field.q**self.f.k
        for a in digits:
            # f^a outer, support inner: acc's key order sets the state numbering
            acc = _convolve(self._f_pows_packed[a], support, add_table, mul_table)
            children: dict[int, bytearray] = {}
            for key, v in acc.items():
                if v:
                    grank, didx = split_get(key) or self._split(key)
                    arr = children.get(grank)
                    if arr is None:
                        arr = bytearray(npoints)
                        children[grank] = arr
                    arr[didx] = v
            column: dict[int, int] = {}
            for arr in children.values():
                pat = bytes(arr)
                idx = index_get(pat)
                if idx is None:
                    idx = self._intern(pat)
                column[idx] = column.get(idx, 0) + 1
            rest = gamma_count - len(children)
            if rest:
                zidx = self._intern(bytes(npoints))
                column[zidx] = column.get(zidx, 0) + rest
            self.transitions[a][src] = sorted(column.items())
            self._missing -= 1

    def close(self) -> DigitAutomaton:
        """Make every missing column, breadth first in state order; returns self."""
        src = 0
        while self._missing:
            digits = [a for a, cols in enumerate(self.transitions) if cols[src] is None]
            if digits:
                self._make_columns(src, digits)
            src += 1
        return self

    # -- vectors ---------------------------------------------------------

    def _alpha_encoding(self, alpha) -> int:
        alpha = self.field.encoding(alpha)
        if alpha == 0:
            raise ValueError(
                "alpha must be nonzero; zero-coefficient counts follow from "
                "N + N_0 = number of coefficient slots"
            )
        return alpha

    def read_counts(self, alpha, vecs):
        """For each state vector, the number of coefficients equal to alpha.

        The output vector covers only the states known now, so every vector
        must be made before the call.
        """
        a = self._alpha_encoding(alpha)
        out = [pat.count(a) for pat in self.states]
        return [sum(u * x for u, x in zip(out, vec)) for vec in vecs]

    def start_vector(self, prefix: MultiPoly | None = None):
        vec = [0] * len(self.states)
        vec[self.initial if prefix is None else self.state_index_of(prefix)] = 1
        return vec

    def state_index_of(self, poly: MultiPoly) -> int:
        """Index of the pattern of a polynomial (must be a known state)."""
        pat = self.pattern_of(poly)
        try:
            return self._state_index[pat]
        except KeyError:
            raise AutomatonError(
                "pattern of the given polynomial is not a state; rebuild the "
                "automaton passing it as a seed"
            ) from None

    def pattern_of(self, poly: MultiPoly) -> bytes:
        if poly.k != self.f.k or poly.ring != self.field:
            raise AutomatonError("polynomial does not match the automaton")
        arr = bytearray(len(self._box_packed))
        if not poly.is_zero():
            if any(d > b for d, b in zip(poly.var_degrees(), self._bounds)):
                raise AutomatonError("polynomial exponents fall outside the box")
            for key, c in self._packer.pack_terms(poly):
                arr[self._delta_index[key]] = c
        return bytes(arr)

    # -- evaluation ---------------------------------------------------------

    def apply_digit(self, digit: int, vec):
        """The state vector after one digit; makes the columns its support lacks."""
        cols = self.transitions[digit]
        if self._missing:
            for src in [src for src, x in enumerate(vec) if x and cols[src] is None]:
                self._make_columns(src, (digit,))
        out = [0] * len(self.states)
        for src, x in enumerate(vec):
            if x:
                for child, mult in cols[src]:
                    out[child] += mult * x
        return out

    def walk(self, digits, vec=None):
        """Yield the state vector before the first digit and after each digit.

        Digits come least significant first; the walk starts from vec, or
        from the start vector when vec is None.
        """
        if vec is None:
            vec = self.start_vector()
        yield vec
        for digit in digits:
            vec = self.apply_digit(digit, vec)
            yield vec

    def _end_vector(self, n: int, prefix: MultiPoly | None):
        """The state vector after the digits of n, jumping fixed runs.

        The zero pattern's column is {zero: q^k} for every digit, so once a
        step of a run leaves the vector unchanged off the zero state, every
        later step of the run does too, and the zero entry follows from the
        column sums: after j more steps it is q^(k j) (z + S) - S, with z
        the zero entry and S the sum of the others.  The result equals the
        plain walk's last vector.  The skip waits for a step that interned
        no state, since a new state would change the vector's length.
        """
        q = self.field.q
        zero_pat = bytes(len(self._box_packed))
        vec = self.start_vector(prefix)
        for digit, group in itertools.groupby(base_digits(n, q)):
            run = sum(1 for _ in group)
            steps = self.walk(itertools.repeat(digit, run), vec)
            prev = next(steps)
            for taken, vec in enumerate(steps, 1):
                zero = self._state_index.get(zero_pat)
                if (taken < run and zero is not None and len(vec) == len(prev)
                        and vec[:zero] == prev[:zero]
                        and vec[zero + 1:] == prev[zero + 1:]):
                    rest = sum(vec) - vec[zero]
                    vec[zero] = q**(self.f.k * (run - taken)) * (vec[zero] + rest) - rest
                    break
                prev = vec
        return vec

    def count(self, n: int, alpha, prefix: MultiPoly | None = None) -> int:
        """Exact number of coefficients of prefix * f^n equal to alpha.

        Costs one digit product per base-q digit of n outside zero runs,
        plus the few products each run takes to reach its fixed point: a
        zero run shrinks every pattern's support by a factor q per step, so
        it is fixed after at most 2 + log_q(largest box bound) products
        (see _end_vector).
        """
        return self.read_counts(alpha, [self._end_vector(n, prefix)])[0]

    def census(self, n: int, prefix: MultiPoly | None = None):
        """Each nonzero coefficient value of prefix * f^n and its multiplicity.

        One walk for every value, at the cost of count().
        """
        vecs = [self._end_vector(n, prefix)]
        census = {a: self.read_counts(a, vecs)[0] for a in range(1, self.field.q)}
        return {a: count for a, count in census.items() if count}

    def repunit_counts(self, alpha, terms: int):
        """Counts for exponents 1 + q + ... + q^(m-1), m = 0 .. terms-1."""
        iterates = itertools.islice(self.walk(itertools.repeat(1)), max(terms, 0))
        return self.read_counts(alpha, list(iterates))

    def krylov_order(self) -> int:
        """Length D of the first linear dependence among the iterate vectors.

        The start vector and its images under the digit-1 matrix span a
        space of some dimension D <= state count; every scalar sequence read
        off these iterates then satisfies a linear recurrence of order D
        valid from the first term on.

        The iterates are eliminated modulo a 61-bit prime, stopping at the
        first dependence r.  Independence mod p implies independence over
        Q, so r <= D.  The relation v_r = sum c_i v_i, lifted to integers,
        is then checked exactly on the integer vectors, which proves
        D <= r.  The minimal polynomial of the start vector is a monic
        integer divisor of the characteristic polynomial (Gauss's lemma),
        and its roots are eigenvalues of a nonnegative matrix with column
        sums q^k, so the relation is integral with entries at most
        (1 + q^k)^D; a failed check adds primes until the lift is proven
        (see modular.certified_lift).  The walk stops after D digits.
        """
        self.close()
        walk = self.walk(itertools.repeat(1))
        iterates = [next(walk)]  # the start vector; no digit applied yet

        def solve(p):
            return _first_relation_mod(iterates, walk, p)

        def holds(r, coeffs):
            return iterates[r] == [sum(c * v[s] for c, v in zip(coeffs, iterates))
                                   for s in range(len(self.states))]

        base = 1 + self.field.q**self.f.k
        return modular.certified_lift(solve, holds, base, len(self.states))[0]

    # -- checks and export ----------------------------------------------------

    def column_sum_violations(self):
        """Columns whose multiplicities do not sum to q^k (should be none)."""
        self.close()
        expected = self.field.q**self.f.k
        return [(a, src) for a, cols in enumerate(self.transitions)
                for src, col in enumerate(cols) if sum(m for _, m in col) != expected]

    def to_json_dict(self):
        self.close()
        return {
            "field": {"p": self.field.p, "r": self.field.r,
                      "modulus": list(self.field.modulus)},
            "poly": repr(self.f),
            "box_bounds": list(self._bounds),
            "box_points": [list(self._packer.unpack(key)) for key in self._box_packed],
            "state_count": self.state_count,
            "states": [list(pat) for pat in self.states],
            "initial": self.initial,
            "transitions": [
                [[list(pair) for pair in col] for col in cols]
                for cols in self.transitions
            ],
        }


def _first_relation_mod(iterates, walk, p: int):
    """(r, c): the first iterate with v_r = sum_{i<r} c_i v_i modulo p.

    Eliminates the iterates in order, drawing more from walk onto the
    list iterates when it runs out.  Row u_j is v_j reduced by the earlier
    rows and scaled to 1 at its pivot; the multipliers of each reduction
    rebuild the relation in terms of the v_i by back substitution.

    A row is packed into one int, one little-endian field per state, so a
    row operation is one big-int multiply-add: adding c times the packed
    residues of -u_j.  A field holds its residue plus one product below
    p^2 per earlier row without carrying into the next field; entries are
    reduced mod p only when read.
    """
    n = len(iterates[0])
    width = (2 * p.bit_length() + n.bit_length()) // 8 + 1
    bits = 8 * width
    mask = (1 << bits) - 1

    def pack(entries):
        return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in entries),
                              "little")

    pivots = []  # (pivot position, -u_j packed, scale s_j, multipliers of u_0..u_{j-1})
    for m in itertools.count():
        if m == len(iterates):
            iterates.append(next(walk))
        row = pack([x % p for x in iterates[m]])
        mults = []
        for pos, neg, _, _ in pivots:
            c = (row >> (pos * bits) & mask) % p
            mults.append(c)
            if c:
                row += c * neg
        data = row.to_bytes(n * width, "little")
        row = [int.from_bytes(data[i:i + width], "little") % p
               for i in range(0, n * width, width)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            # v_m = sum_j mults[j] u_j and u_j = s_j (v_j - sum_i mults_j[i] u_i)
            coeffs = [0] * m
            for j in range(m - 1, -1, -1):
                _, _, scale, row_mults = pivots[j]
                a = coeffs[j] = mults[j] * scale % p
                if a:
                    for i, c in enumerate(row_mults):
                        mults[i] = (mults[i] - a * c) % p
            return m, coeffs
        scale = pow(row[lead], -1, p)
        pivots.append((lead, pack([-x * scale % p for x in row]), scale, mults))


def build_automaton(
    f: MultiPoly,
    state_cap: int = DEFAULT_STATE_CAP,
    seeds=(),
) -> DigitAutomaton:
    """The closed automaton of f: every pattern reachable from 1 and the seeds.

    States are numbered in breadth-first order from 1 and the seeds, each
    state's digits in order 0..q-1.
    """
    return DigitAutomaton(f, state_cap, seeds).close()
