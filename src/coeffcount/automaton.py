"""Digit automaton for coefficient counting of f(x)^n over F_q.

The count of coefficients of f^n equal to a nonzero target is a product
of integer matrices indexed by the base-q digits of n, applied to a fixed
start vector, then read off through a per-target output vector.  States
are "section patterns": functions from a fixed box S of exponent vectors
to F_q, obtained by slicing a polynomial's coefficients along residue
classes of exponents.  Only patterns actually reachable from the seed
polynomials are materialized, which keeps the matrices small even when
the full pattern space q^|S| is astronomical.

Every evaluation reads the vectors of one digit walk (`DigitAutomaton.walk`):
counts and censuses its last vector; repunit counts, the Krylov order and
q-power sequences (see qpow) the iterates of a repeated digit.

A pattern is stored as a bytes object over the box points (so q <= 256
here, the size up to which Field keeps full operation tables; fields that
large are far beyond what pattern enumeration could handle anyway).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .ffield import _TABLE_LIMIT, Field, FieldElem
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


class SectionBox:
    """The box S = prod [0, bounds_i] of exponent vectors, in a fixed order."""

    def __init__(self, bounds):
        self.bounds = tuple(int(b) for b in bounds)
        if any(b < 0 for b in self.bounds):
            raise ValueError("box bounds must be nonnegative")
        self.points = list(itertools.product(*(range(b + 1) for b in self.bounds)))
        self.index = {pt: i for i, pt in enumerate(self.points)}

    def __len__(self):
        return len(self.points)

    def contains_degrees(self, degs) -> bool:
        return all(d <= b for d, b in zip(degs, self.bounds))


class DigitAutomaton:
    """Reachable-state digit automaton for one polynomial over one field.

    Attributes:
        field, f: the coefficient field and base polynomial.
        box: the SectionBox the patterns live on.
        states: list of patterns (bytes over box points).
        transitions: per digit a, a list over source states of sparse
            columns [(child_state, multiplicity), ...]; every column's
            multiplicities sum to q^k.  The list is empty for a digit the
            closure was not asked to build.
        initial: index of the pattern of the constant polynomial 1.
    """

    def __init__(self, field, f, box, states, transitions, initial):
        self.field = field
        self.f = f
        self.box = box
        self.states = states
        self.transitions = transitions
        self.initial = initial
        self._state_index = {pat: i for i, pat in enumerate(states)}

    @property
    def state_count(self) -> int:
        return len(self.states)

    # -- vectors ---------------------------------------------------------

    def _alpha_encoding(self, alpha) -> int:
        if isinstance(alpha, FieldElem):
            alpha = alpha.val if alpha.field == self.field else None
            if alpha is None:
                raise AutomatonError("alpha belongs to a different field")
        else:
            alpha = self.field.elem(alpha).val
        if alpha == 0:
            raise ValueError(
                "alpha must be nonzero; zero-coefficient counts follow from "
                "N + N_0 = number of coefficient slots"
            )
        return alpha

    def output_vector(self, alpha):
        """Per state, the number of box points whose pattern value is alpha."""
        a = self._alpha_encoding(alpha)
        return [pat.count(a) for pat in self.states]

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
        arr = bytearray(len(self.box))
        if not poly.is_zero():
            if not self.box.contains_degrees(poly.var_degrees()):
                raise AutomatonError("polynomial exponents fall outside the box")
            for exp, c in poly.terms.items():
                arr[self.box.index[exp]] = c
        return bytes(arr)

    # -- evaluation ---------------------------------------------------------

    def apply_digit(self, digit: int, vec):
        cols = self.transitions[digit]
        if not cols:
            raise AutomatonError(f"transitions for digit {digit} were not built")
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
        digits = base_digits(n, self.field.q)
        for vec in self.walk(digits, self.start_vector(prefix)):
            pass
        return vec

    def count(self, n: int, alpha, prefix: MultiPoly | None = None) -> int:
        """Exact number of coefficients of prefix * f^n equal to alpha."""
        vec = self._end_vector(n, prefix)
        return sum(u * x for u, x in zip(self.output_vector(alpha), vec))

    def census(self, n: int, prefix: MultiPoly | None = None):
        """Each nonzero coefficient value of prefix * f^n and its multiplicity."""
        vec = self._end_vector(n, prefix)
        census = {}
        for alpha in range(1, self.field.q):
            count = sum(u * x for u, x in zip(self.output_vector(alpha), vec))
            if count:
                census[alpha] = count
        return census

    def repunit_counts(self, alpha, terms: int, base_digit: int = 1):
        """Counts for exponents 1 + q + ... + q^(m-1), m = 0 .. terms-1.

        With base_digit = b this is the sequence for exponents with m
        identical base-q digits b.
        """
        if not 1 <= base_digit < self.field.q:
            raise ValueError("base digit must be in 1..q-1")
        out_vec = self.output_vector(alpha)
        iterates = itertools.islice(self.walk(itertools.repeat(base_digit)),
                                    max(terms, 0))
        return [sum(u * x for u, x in zip(out_vec, vec)) for vec in iterates]

    def krylov_order(self) -> int:
        """Length D of the first linear dependence among the iterate vectors.

        The start vector and its images under the digit-1 matrix span a
        space of some dimension D <= state count; every scalar sequence read
        off these iterates then satisfies a linear recurrence of order D
        valid from the first term on.
        """
        pivots = {}  # pivot position -> reduced row (Fractions)
        for m, vec in enumerate(self.walk(itertools.repeat(1))):
            row = [Fraction(x) for x in vec]
            for pos in sorted(pivots):
                if row[pos]:
                    c = row[pos]
                    prow = pivots[pos]
                    row = [x - c * y for x, y in zip(row, prow)]
            lead = next((i for i, x in enumerate(row) if x), None)
            if lead is None:
                return m
            pivots[lead] = [x / row[lead] for x in row]
            if m > len(self.states):
                raise AutomatonError("dependence search exceeded state count")

    # -- checks and export ----------------------------------------------------

    def column_sum_violations(self):
        """Columns whose multiplicities do not sum to q^k (should be none)."""
        expected = self.field.q**self.f.k
        bad = []
        for a, cols in enumerate(self.transitions):
            for src, col in enumerate(cols):
                if sum(m for _, m in col) != expected:
                    bad.append((a, src))
        return bad

    def to_json_dict(self):
        return {
            "field": {"p": self.field.p, "r": self.field.r,
                      "modulus": list(self.field.modulus)},
            "poly": repr(self.f),
            "box_bounds": list(self.box.bounds),
            "box_points": [list(pt) for pt in self.box.points],
            "state_count": self.state_count,
            "states": [list(pat) for pat in self.states],
            "initial": self.initial,
            "transitions": [
                [[list(pair) for pair in col] for col in cols]
                for cols in self.transitions
            ],
        }


def build_automaton(
    f: MultiPoly,
    state_cap: int = DEFAULT_STATE_CAP,
    seeds=(),
    digits=None,
) -> DigitAutomaton:
    """Breadth-first closure of the section patterns reachable from 1 and seeds.

    For a known pattern G and digit a, the polynomial f^a * (the polynomial
    with G's coefficients) is expanded and its exponents split as
    gamma + q*delta with gamma in {0..q-1}^k; each gamma slice is a child
    pattern.  Box bounds (q-1)*deg_i(f) guarantee the slices never escape
    the box, so the closure is finite.

    With digits given, only those digits get transitions, and only the
    patterns they reach become states: enough to count f^n for every n
    whose base-q digits all lie in the set.
    """
    field = f.ring
    if not isinstance(field, Field):
        raise AutomatonError("automaton needs a finite-field polynomial")
    if field.q > _TABLE_LIMIT:
        raise AutomatonError(f"automaton supports q <= {_TABLE_LIMIT}")
    if f.is_zero():
        raise AutomatonError("automaton needs a nonzero polynomial")
    q = field.q
    k = f.k
    built = range(q) if digits is None else sorted(set(digits))
    if any(not 0 <= a < q for a in built):
        raise AutomatonError(f"digits must lie in 0..{q - 1}")
    degs = f.var_degrees()
    bounds = [(q - 1) * d for d in degs]
    seeds = list(seeds)
    for g in seeds:
        if g.k != k or g.ring != field:
            raise AutomatonError("seed polynomial does not match f")
        if not g.is_zero():
            bounds = [max(b, d) for b, d in zip(bounds, g.var_degrees())]
    box = SectionBox(bounds)
    npoints = len(box)

    # pack exponent vectors of products f^a * G into single ints
    packer = ExponentPacker([(q - 1) * d + b for d, b in zip(degs, bounds)])
    pack = packer.pack
    box_packed = [pack(pt) for pt in box.points]

    f_pows = [MultiPoly.one(k, field)]
    for _ in range(q - 1):
        f_pows.append(f_pows[-1] * f)
    f_pows_packed = [packer.pack_terms(g) for g in f_pows]

    split_cache: dict[int, tuple[int, int]] = {}

    def split(key: int):
        got = split_cache.get(key)
        if got is not None:
            return got
        exp = packer.unpack(key)
        gamma_rank = 0
        for e in exp:
            gamma_rank = gamma_rank * q + e % q
        point = delta_idx.get(pack([e // q for e in exp]))
        if point is None:
            raise AutomatonError("internal error: slice escaped the box")
        split_cache[key] = (gamma_rank, point)
        return gamma_rank, point

    delta_idx = {key: i for i, key in enumerate(box_packed)}
    gamma_count = q**k

    states: list[bytes] = []
    state_index: dict[bytes, int] = {}

    def intern(pat: bytes) -> int:
        idx = state_index.get(pat)
        if idx is None:
            idx = len(states)
            if idx >= state_cap:
                raise StateCapError(f"state cap {state_cap} exceeded")
            state_index[pat] = idx
            states.append(pat)
        return idx

    def pattern_of(poly: MultiPoly) -> bytes:
        arr = bytearray(npoints)
        for exp, c in poly.terms.items():
            arr[box.index[exp]] = c
        return bytes(arr)

    initial = intern(pattern_of(MultiPoly.one(k, field)))
    for g in seeds:
        intern(pattern_of(g))
    zero_pattern = bytes(npoints)

    transitions = [[] for _ in range(q)]
    add_table = field._add
    mul_table = field._mul

    i = 0
    while i < len(states):
        G = states[i]
        support = [(box_packed[j], G[j]) for j in range(npoints) if G[j]]
        for a in built:
            acc: dict[int, int] = {}
            get = acc.get
            for fe, fc in f_pows_packed[a]:
                row = mul_table[fc]
                for base, gval in support:
                    key = base + fe
                    v = row[gval]
                    prev = get(key)
                    acc[key] = v if prev is None else add_table[prev][v]
            children: dict[int, bytearray] = {}
            for key, v in acc.items():
                if v:
                    grank, didx = split(key)
                    arr = children.get(grank)
                    if arr is None:
                        arr = bytearray(npoints)
                        children[grank] = arr
                    arr[didx] = v
            column: dict[int, int] = {}
            for arr in children.values():
                idx = intern(bytes(arr))
                column[idx] = column.get(idx, 0) + 1
            rest = gamma_count - len(children)
            if rest:
                zidx = intern(zero_pattern)
                column[zidx] = column.get(zidx, 0) + rest
            transitions[a].append(sorted(column.items()))
        i += 1

    return DigitAutomaton(field, f, box, states, transitions, initial)
