"""Brute-force coefficient counting, kept independent of the fast paths.

Everything here expands products by plain repeated multiplication: no
Frobenius shortcut, no recurrences, no closed forms.  A power is one
ladder of products by f; a product of factors multiplies adjacent factors
in pairs and runs the pair products left to right, one product per factor
either way.  Agreement between these counts and the optimized modules is
what the test suite leans on.

Exponent vectors are packed into single integers by `_pack_terms` (one bit
field per variable, wide enough for the full product; mpoly's byte fields
made the censuses about 30% slower) purely to make dict keys cheap; the
arithmetic is the schoolbook convolution, not mpoly's kernel.  Over a field with
operation tables (q <= 256) the convolution indexes them inline.  Each
product fills one result dict and deletes its cancelled keys in place, so
at its peak a product holds the accumulator, the factor and that one dict;
the surviving keys keep their insertion order.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

from .ffield import Field
from .mpoly import BudgetError, MultiPoly, current_limits, nonzero_alpha


def _pack_terms(poly: MultiPoly, bounds):
    """The (key, coefficient) pairs of poly, sorted by key, each exponent
    vector packed into one bit field per variable, field i wide enough for
    bounds[i]: adding keys adds the vectors while every sum stays in bounds."""
    shifts = list(accumulate((max(b.bit_length(), 1) for b in bounds), initial=0))
    return sorted((sum(e << sh for e, sh in zip(exp, shifts)), c)
                  for exp, c in poly.terms.items())


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
    else:
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
    # cancelled keys leave the one result dict in place: a filtered copy
    # would hold a second dict of its size while out and acc are alive
    for key in [key for key, c in out.items() if not c]:
        del out[key]
    return out


def _ladder(f: MultiPoly, n: int):
    """Yield the packed terms of f^0, f^1, ..., f^n, one product by f each,
    refused before the first product when n < 0 or n * max(|f|, 1) exceeds
    the term budget: each product visits at least |f| term pairs."""
    budget = current_limits()[0]
    if n < 0:
        raise ValueError("negative exponent")
    if n * max(f.num_terms, 1) > budget:
        raise BudgetError(
            f"{n} products by {f.num_terms} terms exceed the term budget {budget}")
    factor = [] if f.is_zero() else _pack_terms(
        f, [d * max(n, 1) for d in f.var_degrees()])
    acc = {0: f.ring.one}
    yield acc
    for _ in range(n):
        acc = _mul_packed(acc, factor, f.ring, budget)
        yield acc


def power_census_series(f: MultiPoly, n_max: int):
    """Censuses of f^0, f^1, ..., f^n_max by one repeated-multiplication ladder."""
    return [Counter(acc.values()) for acc in _ladder(f, n_max)]


def brute_power_census(f: MultiPoly, n: int, alpha=None):
    """Number of coefficients of f^n equal to alpha (or the full census).

    Expands f^n by n products into one accumulator, the last rung of the
    ladder.  alpha is read by mpoly.nonzero_alpha, before the expansion:
    an encoding over a field, a plain integer over ZZ, and never 0, since
    the census holds nonzero coefficients only.  With alpha=None the whole
    census dict is returned.
    """
    if alpha is not None:
        alpha = nonzero_alpha(f.ring, alpha)
    for acc in _ladder(f, n):
        pass  # each rung replaces the one before it
    census = Counter(acc.values())
    return census if alpha is None else census.get(alpha, 0)


def brute_product_census(factors):
    """Expand a product of polynomials pairs first; return (N, census).

    Factors 2j+1 and 2j+2 are multiplied together, each pair only when the
    chain reaches it, and the pair products are multiplied left to right
    into one accumulator starting from 1; an odd last factor joins as it
    is.  Each factor is still one product, under the term budget.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    k = factors[0].k
    ring = factors[0].ring
    for g in factors:
        if g.k != k or g.ring != ring:
            raise ValueError("factors must share variable count and ring")
    if any(g.is_zero() for g in factors):
        return 0, {}
    bounds = [0] * k
    for g in factors:
        for i, d in enumerate(g.var_degrees()):
            bounds[i] += d
    budget = current_limits()[0]
    acc = {0: ring.one}
    for i in range(0, len(factors), 2):
        factor = _pack_terms(factors[i], bounds)
        if i + 1 < len(factors):
            factor = _mul_packed(dict(factor), _pack_terms(factors[i + 1], bounds),
                                 ring, budget).items()
        acc = _mul_packed(acc, factor, ring, budget)
    census = Counter(acc.values())
    return len(acc), census
