"""Digit automaton for coefficient counting of f(x)^n over F_q.

The count of coefficients of f^n equal to a nonzero target is a product
of integer matrices indexed by the base-q digits of n, applied to a fixed
start vector, then read off through a per-target output vector.  States
are "section patterns": functions from a fixed box S of exponent vectors
to F_q, obtained by slicing a polynomial's coefficients along residue
classes of exponents.  Only patterns actually reachable from the start
pattern are materialized, which keeps the matrices small even when
the full pattern space q^|S| is astronomical.  A (state, digit) column
is made when a digit walk first needs it and `close()` makes the rest, so
counts, q-power counts and fits make only the columns they touch.  The
children of c*G are c times the children of G, so a column is expanded
once per (digit, scalar orbit) and scaled for the orbit's other states.
Since f^0 = 1, a digit-0 column is the gamma slices of the state's own
pattern, made with no product.  A column is a dict {child state:
multiplicity} in the order its children were discovered; only the export
(`to_json_dict`) sorts it by child.

Every evaluation reads the vectors of a digit walk.  Counts and censuses
read n's end vector from the automaton's one kept walk, which resumes
when n extends the last n's digits (`DigitAutomaton.end_vector`), so
counts at one n walk once and q^(m+1) - c costs one product after
q^m - c; repunit counts and the Krylov order read the iterates of a
repeated digit (`walk`).  A run of zero digits is walked only until a
product leaves the vector unchanged off the zero pattern, then jumped in
closed form.  By Frobenius, f^(qn) = f^n(x^q), so that takes a few
products: the cost is about one product per digit outside zero runs.

Exponents live on packed int keys in mpoly's layout (`_key_fields`) from
construction on: the powers of f and the columns come from mpoly's kernel
`_convolve`, never `MultiPoly.mul`.  An automaton reads the limits in force
(`mpoly.limits`) once, when it is constructed: its expansions keep that
term budget and its states that state cap.
A pattern is stored as a bytes object over the box points (so q <= 256
here, the size up to which Field keeps full operation tables; fields that
large are far beyond what pattern enumeration could handle anyway).
"""

from __future__ import annotations

import itertools
import math

from . import modular
from .ffield import _TABLE_LIMIT, Field, base_digits
from .mpoly import MultiPoly, _convolve, _key_fields, current_limits, nonzero_alpha

# box points Π(b_i + 1) an automaton may have; the box is refused before
# anything the size of it is allocated
MAX_BOX_POINTS = 1 << 20
# bytes the states' patterns (states x box points) may take, checked before a new one is stored
MAX_PATTERN_BYTES = MAX_BOX_POINTS << 8


class AutomatonError(RuntimeError):
    pass


class StateCapError(AutomatonError):
    pass


def check_field(field) -> None:
    """Refuse a coefficient ring that no automaton can be built over."""
    if not isinstance(field, Field):
        raise AutomatonError("automaton needs a finite-field polynomial")
    if field.q > _TABLE_LIMIT:
        raise AutomatonError(f"automaton supports q <= {_TABLE_LIMIT}")


class DigitAutomaton:
    """Section-pattern digit automaton for one polynomial over one field.

    Construction knows only the patterns of 1 and of the prefix P (1 if
    none), where every walk starts: counts are of P * f^n.  A walk makes a
    (state, digit) column when it first needs it, and the patterns it leads
    to become new states; `close()` makes the rest, breadth first, so a
    closed automaton has every state reachable from 1 and P.

    For a known pattern G and digit a, the polynomial f^a * (the polynomial
    with G's coefficients) is expanded and its exponents split as
    gamma + q*delta with gamma in {0..q-1}^k; each gamma slice is a child
    pattern.  Box bounds (q-1)*deg_i(f) guarantee the slices never escape
    the box, held as packed keys in `itertools.product` order, so the
    closure is finite.  Each f^a is the convolution of f^(a-1) with f.
    Over q > 2 a column is expanded once per scalar orbit {c*G} and made
    for the orbit's other states by scaling its children (_make_columns);
    the numbering is the one expanding every column would give.

    Attributes:
        field, f: the coefficient field and base polynomial.
        states: the patterns discovered so far, bytes over box points.
        transitions: per digit a, a list over states of sparse columns
            {child_state: multiplicity} summing to q^k, children in the
            order the column discovered them (`to_json_dict` sorts them),
            or None where the column is not made yet.
        initial: index of the pattern of the constant polynomial 1.
    """

    def __init__(self, f: MultiPoly, prefix=None):
        field = f.ring
        check_field(field)
        if f.is_zero():
            raise AutomatonError("automaton needs a nonzero polynomial")
        q = field.q
        k = f.k
        degs = f.var_degrees()
        bounds = [(q - 1) * d for d in degs]
        if prefix is not None:
            if prefix.k != k or prefix.ring != field:
                raise AutomatonError("prefix polynomial does not match f")
            if not prefix.is_zero():
                bounds = [max(b, d) for b, d in zip(bounds, prefix.var_degrees())]
        points = math.prod(b + 1 for b in bounds)
        if points > MAX_BOX_POINTS:
            raise AutomatonError(
                f"automaton box of {points} points exceeds {MAX_BOX_POINTS}")
        self.field = field
        self.f = f
        self._bounds = tuple(bounds)
        self._budget, self._state_cap = current_limits()
        # the state cap and the pattern cap in one check per state
        self._state_limit = min(self._state_cap, MAX_PATTERN_BYTES // points)
        self.states: list[bytes] = []
        self.transitions = [[] for _ in range(q)]
        self._state_index: dict[bytes, int] = {}
        self._missing = 0  # (state, digit) columns not made yet
        self._zero_state = None  # the zero pattern's index, once a column interns it
        # per digit, unit pattern U -> (lead, column) of the first state
        # lead * U whose column was expanded; F_2 has no scalar but 1
        self._orbit_columns = None if q == 2 else [{} for _ in range(q)]

        # exponents of f^a * G packed into ints; f^(q-1) * G never carries
        self._layout = _key_fields(
            k, max(((q - 1) * d + b for d, b in zip(degs, bounds)), default=0))
        bits = 8 * self._layout.size // max(k, 1)
        box = [0]
        for i, b in enumerate(bounds):
            box = [key + (e << bits * i) for key in box for e in range(b + 1)]
        self._box_packed = box
        f_packed = f._packed_in(self._layout).items()
        self._f_pows_packed = [[(0, field.one)]]
        for _ in range(q - 1):
            acc = _convolve(self._f_pows_packed[-1], f_packed, field, self._budget)
            self._f_pows_packed.append(sorted((key, c) for key, c in acc.items() if c))
        self._split_cache: dict[int, tuple[int, int]] = {}
        self._gamma_count = q**k
        # (n, digits walked, vector) of the last end_vector walk; n = -1 before one
        self._last_end = (-1, 0, None)

        # box point 0 is the exponent vector 0
        self.initial = self._intern(bytes([field.one]) + bytes(len(box) - 1))
        self._start = (self.initial if prefix is None
                       else self._intern(self._pattern_of(prefix)))

    @property
    def state_count(self) -> int:
        """The number of states discovered so far (all of them once closed)."""
        return len(self.states)

    # -- construction --------------------------------------------------------

    def _intern(self, pat: bytes) -> int:
        idx = self._state_index.get(pat)
        if idx is None:
            idx = len(self.states)
            if idx >= self._state_limit:
                if idx >= self._state_cap:
                    raise StateCapError(f"state cap {self._state_cap} exceeded")
                raise AutomatonError(f"{idx + 1} states of {len(pat)} box points exceed "
                                     f"the pattern cap of {MAX_PATTERN_BYTES} bytes")
            self._state_index[pat] = idx
            self.states.append(pat)
            for cols in self.transitions:
                cols.append(None)
            self._missing += len(self.transitions)
        return idx

    def _point(self, delta) -> int:
        """The index of exponent vector delta among the box points, which are
        in `itertools.product` order: mixed radix over the box bounds."""
        point = 0
        for d, b in zip(delta, self._bounds):
            if d > b:
                raise AutomatonError("internal error: slice escaped the box")
            point = point * (b + 1) + d
        return point

    def _pattern_of(self, poly: MultiPoly) -> bytes:
        """The pattern of a polynomial whose degrees the box bounds cover."""
        arr = bytearray(len(self._box_packed))
        for exp, c in poly.terms.items():
            arr[self._point(exp)] = c
        return bytes(arr)

    def _split(self, key: int):
        """(rank of gamma, box index of delta) for a packed exponent gamma + q*delta."""
        q = self.field.q
        exp = self._layout.unpack(key.to_bytes(self._layout.size, "little"))
        gamma_rank = 0
        for e in exp:
            gamma_rank = gamma_rank * q + e % q
        point = self._point([e // q for e in exp])
        self._split_cache[key] = (gamma_rank, point)
        return gamma_rank, point

    def _support(self, G: bytes):
        """The packed (key, coeff) terms of the polynomial with pattern G."""
        return list(itertools.compress(zip(self._box_packed, G), G))

    def _expand(self, support, a: int):
        """The nonempty gamma slices of f^a * G, G given by its support.

        Returns the slices' patterns as bytearrays in first-seen order; the
        other q^k - len(slices) slices are zero.  For a = 0 the product is
        G itself, so its slices are G's own and no product is made.
        """
        npoints = len(self._box_packed)
        split_get = self._split_cache.get
        # f^a outer, support inner: acc's key order sets the state numbering,
        # and 1 * G is G in that order
        acc = support if a == 0 else _convolve(
            self._f_pows_packed[a], support, self.field, self._budget).items()
        slices: dict[int, bytearray] = {}
        for key, v in acc:
            if v:
                grank, didx = split_get(key) or self._split(key)
                arr = slices.get(grank)
                if arr is None:
                    arr = bytearray(npoints)
                    slices[grank] = arr
                arr[didx] = v
        return slices.values()

    def _make_columns(self, src: int, digits) -> None:
        """Make state src's columns for the given digits, interning their children.

        G -> f^a G is F_q-linear, so the children of c*G are c times the
        children of G, in the same order.  Over q > 2 a column is expanded
        once per scalar orbit: the state G = lead * U (lead its first
        nonzero byte) stores its column, the dict of its distinct children
        and their multiplicities in first-seen order, under U, and a later
        state c * U interns them scaled by c / lead in that order, which is
        the order its own expansion would intern them in.
        """
        G = self.states[src]
        index_get = self._state_index.get
        orbit_columns = self._orbit_columns
        unit = support = None
        if orbit_columns is not None:
            nonzero = G.lstrip(b"\0")
            if nonzero:
                field = self.field
                lead = nonzero[0]
                unit = G if lead == 1 else G.translate(field._scale[field._inv[lead]])
        for a in digits:
            made = None if unit is None else orbit_columns[a].get(unit)
            if made is None:
                if support is None:
                    support = self._support(G)
                slices = self._expand(support, a)
                column: dict[int, int] = {}
                for arr in slices:
                    pat = bytes(arr)
                    idx = index_get(pat)
                    if idx is None:
                        idx = self._intern(pat)
                    column[idx] = column.get(idx, 0) + 1
                empty = self._gamma_count - len(slices)
                if empty:
                    zero = self._zero_state
                    if zero is None:
                        zero = self._zero_state = self._intern(bytes(len(G)))
                    column[zero] = empty
                if unit is not None:
                    orbit_columns[a][unit] = (lead, column)
            else:
                made_lead, made_column = made
                states = self.states
                table = field._scale[field._mul[lead][field._inv[made_lead]]]
                column = {}
                for child, mult in made_column.items():
                    pat = states[child].translate(table)
                    idx = index_get(pat)
                    if idx is None:
                        idx = self._intern(pat)
                    column[idx] = mult
            self.transitions[a][src] = column
            self._missing -= 1

    def close(self) -> DigitAutomaton:
        """Make every missing column, breadth first in state order; returns self."""
        src = 0
        while self._missing:
            digits = [a for a, cols in enumerate(self.transitions) if cols[src] is None]
            if digits:
                self._make_columns(src, digits)
            src += 1
        self._orbit_columns = None  # a closed automaton makes no more columns
        return self

    # -- vectors ---------------------------------------------------------

    def read_counts(self, alpha, vecs):
        """For each state vector, the number of coefficients equal to alpha.

        The output vector covers only the states known now, so every vector
        must be made before the call.
        """
        a = nonzero_alpha(self.field, alpha)
        out = [pat.count(a) for pat in self.states]
        return [sum(u * x for u, x in zip(out, vec)) for vec in vecs]

    def start_vector(self):
        """The unit vector of the prefix's state, where every walk starts."""
        vec = [0] * len(self.states)
        vec[self._start] = 1
        return vec

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
                for child, mult in cols[src].items():
                    out[child] += mult * x
        return out

    def walk(self, digits):
        """Yield the start vector, then the state vector after each digit,
        digits least significant first."""
        vec = self.start_vector()
        yield vec
        for digit in digits:
            vec = self.apply_digit(digit, vec)
            yield vec

    def end_vector(self, n: int):
        """The state vector after the base-q digits of n.

        The last (n, digits walked w, vector) is kept and resumed when n's
        low w digits are the kept n's: the same n walks no digit, and
        q^(m+1) - c = (q^m - c) + (q-1) q^m walks one after q^m - c.  Any
        other n walks from the start vector.  States found later have
        entry 0 in a kept vector, as `read_counts` reads it; a walk that
        raises keeps the previous one.  Once a product inside a run of
        zero digits leaves the vector unchanged off the zero state (whose
        column is {zero: q^k}), so does the rest of the run: after j more
        steps the zero entry is q^(k j) (z + S) - S, z that entry and S
        the others' sum.  The jump waits for a step that interned no state.
        """
        q = self.field.q
        kept, walked, vec = self._last_end
        rest, low = divmod(n, q**walked)
        if low != kept:
            rest, walked, vec = n, 0, self.start_vector()
        digits = base_digits(rest, q)
        i, size = 0, len(digits)
        while i < size:
            digit = digits[i]
            prev, vec = vec, self.apply_digit(digit, vec)
            i += 1
            zero = self._zero_state
            if (not digit and i < size and not digits[i] and zero is not None
                    and len(vec) == len(prev) and vec[:zero] == prev[:zero]
                    and vec[zero + 1:] == prev[zero + 1:]):
                run_end = next(j for j in range(i, size) if digits[j])
                others = sum(vec) - vec[zero]
                vec[zero] = q**(self.f.k * (run_end - i)) * (vec[zero] + others) - others
                i = run_end
        self._last_end = (n, walked + size, vec)
        return vec

    def count(self, n: int, alpha) -> int:
        """Exact number of coefficients of prefix * f^n equal to alpha.

        Costs one digit product per base-q digit of n outside zero runs,
        plus the few products each run takes to reach its fixed point: a
        zero run shrinks every pattern's support by a factor q per step, so
        it is fixed after at most 2 + log_q(largest box bound) products
        (see end_vector).  It resumes the kept walk, so counts of several
        alpha at one n, or a count after a census, walk once.
        """
        return self.read_counts(alpha, [self.end_vector(n)])[0]

    def census(self, n: int):
        """Each nonzero coefficient value of prefix * f^n and its multiplicity.

        One walk for every value, at the cost of count(), whose kept walk
        (end_vector) it shares: a census and counts at the same n walk once.
        """
        vecs = [self.end_vector(n)]
        census = {a: self.read_counts(a, vecs)[0] for a in range(1, self.field.q)}
        return {a: count for a, count in census.items() if count}

    def repunit_counts(self, alpha, terms: int):
        """Counts for exponents 1 + q + ... + q^(m-1), m = 0 .. terms-1."""
        iterates = itertools.islice(self.walk(itertools.repeat(1)), max(terms, 0))
        return self.read_counts(alpha, list(iterates))

    def krylov_order(self) -> int:
        """Krylov order D of the digit-1 iterates: the dimension they span,
        proven from the column sums q^k by modular.certified_order.  The
        walk stops after D digits and makes only what they reach."""
        walk = self.walk(itertools.repeat(1))
        return modular.certified_order(walk, self._gamma_count, self._state_limit)[0]

    # -- checks and export ----------------------------------------------------

    def column_sum_violations(self):
        """Columns whose multiplicities do not sum to q^k (should be none)."""
        self.close()
        expected = self.field.q**self.f.k
        return [(a, src) for a, cols in enumerate(self.transitions)
                for src, col in enumerate(cols) if sum(col.values()) != expected]

    def to_json_dict(self):
        self.close()
        return {
            "field": {"p": self.field.p, "r": self.field.r,
                      "modulus": list(self.field.modulus)},
            "poly": repr(self.f),
            "box_bounds": list(self._bounds),
            "box_points": [list(self._layout.unpack(key.to_bytes(self._layout.size, "little")))
                           for key in self._box_packed],
            "state_count": self.state_count,
            "states": [list(pat) for pat in self.states],
            "initial": self.initial,
            "transitions": [
                [[list(pair) for pair in sorted(col.items())] for col in cols]
                for cols in self.transitions
            ],
        }


def build_automaton(f: MultiPoly, prefix: MultiPoly | None = None) -> DigitAutomaton:
    """The closed automaton of f: every pattern reachable from 1 and the prefix.

    States are numbered in breadth-first order from 1 and the prefix, each
    state's digits in order 0..q-1.
    """
    return DigitAutomaton(f, prefix).close()
