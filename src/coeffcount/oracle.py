"""Brute-force coefficient counting, kept independent of the fast paths.

Everything here expands products by plain repeated multiplication: no
Frobenius shortcut, no recurrences, no closed forms.  Agreement between
these counts and the optimized modules is what the test suite leans on.

Exponent vectors are packed into single integers by mpoly.ExponentPacker
(fixed bit width per variable, wide enough for the full product) purely to
make dict keys cheap; the arithmetic is still the schoolbook convolution,
written out here rather than shared with MultiPoly.mul.  Over a field with
operation tables (q <= 256) the convolution indexes them inline.
"""

from __future__ import annotations

from collections import Counter

from .ffield import Field
from .mpoly import DEFAULT_TERM_BUDGET, BudgetError, ExponentPacker, MultiPoly


def _mul_packed(acc: dict, factor, ring, budget: int) -> dict:
    out: dict = {}
    get = out.get
    if isinstance(ring, Field) and ring._mul is not None:
        # the field's operation tables, indexed inline: no call per term pair
        add_table = ring._add
        for fe, fc in factor:
            times_fc = ring._mul[fc]
            for ae, ac in acc.items():
                key = ae + fe
                prev = get(key)
                if prev is None:
                    out[key] = times_fc[ac]
                else:
                    out[key] = add_table[prev][times_fc[ac]]
            if len(out) > budget:
                raise BudgetError(f"term budget {budget} exceeded in oracle expansion")
        return {e: c for e, c in out.items() if c}
    radd = ring.add
    rmul = ring.mul
    for fe, fc in factor:
        for ae, ac in acc.items():
            key = ae + fe
            prev = get(key)
            if prev is None:
                out[key] = rmul(ac, fc)
            else:
                out[key] = radd(prev, rmul(ac, fc))
        if len(out) > budget:
            raise BudgetError(f"term budget {budget} exceeded in oracle expansion")
    return {e: c for e, c in out.items() if c}


def _ladder(f: MultiPoly, n: int, budget: int | None):
    """The budget and packed factor of a ladder of n products by f, refused
    before the first product when n * max(|f|, 1) > budget: each product
    visits at least |f| term pairs."""
    if budget is None:
        budget = DEFAULT_TERM_BUDGET
    if n < 0:
        raise ValueError("negative exponent")
    if n * max(f.num_terms, 1) > budget:
        raise BudgetError(
            f"{n} products by {f.num_terms} terms exceed the term budget {budget}")
    if f.is_zero():
        return budget, []
    packer = ExponentPacker([d * max(n, 1) for d in f.var_degrees()])
    return budget, packer.pack_terms(f)


def power_census_series(f: MultiPoly, n_max: int, budget: int | None = None):
    """Censuses of f^0, f^1, ..., f^n_max by one repeated-multiplication ladder."""
    budget, factor = _ladder(f, n_max, budget)
    acc = {0: f.ring.one}
    out = [Counter(acc.values())]
    for _ in range(n_max):
        acc = _mul_packed(acc, factor, f.ring, budget)
        out.append(Counter(acc.values()))
    return out


def brute_power_census(f: MultiPoly, n: int, alpha=None, budget: int | None = None):
    """Number of coefficients of f^n equal to alpha (or the full census).

    Expands f^n by n products into one accumulator.  Over a field, alpha
    is an integer made an encoding by Field.encoding; over ZZ it is a
    plain integer.  With alpha=None the whole census dict is returned.
    """
    budget, factor = _ladder(f, n, budget)
    acc = {0: f.ring.one}
    for _ in range(n):
        acc = _mul_packed(acc, factor, f.ring, budget)
    census = Counter(acc.values())
    if alpha is None:
        return census
    if isinstance(f.ring, Field):
        alpha = f.ring.encoding(alpha)
    return census.get(alpha, 0)


def brute_product_census(factors, budget: int | None = None):
    """Expand a product of polynomials left to right; return (N, census)."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    k = factors[0].k
    ring = factors[0].ring
    for g in factors:
        if g.k != k or g.ring != ring:
            raise ValueError("factors must share variable count and ring")
    if budget is None:
        budget = DEFAULT_TERM_BUDGET
    if any(g.is_zero() for g in factors):
        return 0, {}
    bounds = [0] * k
    for g in factors:
        for i, d in enumerate(g.var_degrees()):
            bounds[i] += d
    packer = ExponentPacker(bounds)
    acc = {0: ring.one}
    for g in factors:
        acc = _mul_packed(acc, packer.pack_terms(g), ring, budget)
    census = Counter(acc.values())
    return len(acc), census
