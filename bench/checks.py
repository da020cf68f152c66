"""Checks of every answer, by computations made apart from the program.

Run untimed after the passes.  ``check_all(specs, answers)`` returns the
failures as (query index, message) pairs, none when every answer holds.
Nothing here imports the program:

* digit-counts: a plain dict expansion of f^n over F_p or F_4 for few-digit
  n; for exponents of hundreds of digits made of digit blocks separated by
  long zero runs, the census of f^n is the field-multiplication convolution
  of the blocks' small censuses; repunit generating functions expand to the
  fitted counts, agree with plain expansions at the first repunit exponents
  and have a recurrence order no larger than the state count, which must be
  the same for every query on one polynomial (a variable permutation does
  not change the automaton).
* power-laws: d and mu are known from how g was built; the fitted law must
  give the direct counts past the fitted range and, at every m cheap enough,
  a plain expansion of g^(q^m - c); for primitive g with c = 1 every u(r)
  is d q^(d-1) / (q^d - 1).
* lattice-products: a (position, prefix sum) DP for every ballot sum, the
  staircase closed form through math.comb, set-based monomial counts, the
  coefficient sum of each product at x = 1, the chain-product generating
  function, and lhs == rhs for the matching identity.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

import plain
import workloads

# -- ballot sums by a transfer DP ----------------------------------------------------


def ballot_dp(n: int, total: int, bound, weight) -> int:
    """Sum over k in N^n with k_1 + ... + k_i <= bound(i) (1-based) and
    sum k = total of prod weight(i, k_i), by a DP over (position, prefix sum)."""
    row = {0: 1}
    for i in range(1, n + 1):
        nxt: dict = {}
        cap = min(bound(i), total)
        for s, ways in row.items():
            for k in range(cap - s + 1):
                w = weight(i, k)
                if w:
                    nxt[s + k] = nxt.get(s + k, 0) + ways * w
        row = nxt
    return row.get(total, 0)


def gbinom(a: int, b: int) -> int:
    """a (a-1) ... (a-b+1) / b! for any integer a and b >= 0."""
    num = 1
    for i in range(b):
        num *= a - i
    den = 1
    for i in range(2, b + 1):
        den *= i
    return num // den


def multichoose(a: int, b: int) -> int:
    if b == 0:
        return 1
    return comb(a + b - 1, b) if a > 0 else 0


def dmc_dp(parts) -> int:
    ext = list(parts) + [0]
    drops = [ext[i] - ext[i + 1] for i in range(len(parts))]
    n = len(parts)
    return ballot_dp(n, n, lambda i: i, lambda i, k: multichoose(drops[i - 1], k))


def psf_dp(ts) -> int:
    n = len(ts)

    def weight(i, k):
        return multichoose(ts[i - 1] + (1 if i == n else 0), k)

    return ballot_dp(n, n, lambda i: i, weight)


def nci_dp(ms):
    n = len(ms)
    lhs = ballot_dp(n, n, lambda i: i, lambda i, k: gbinom(
        ms[i - 1] + (0 if i == n else 1), k))
    rhs = ballot_dp(n, n, lambda i: i, lambda i, k: gbinom(ms[i - 1] + k - 1, k))
    return lhs, rhs


def lsum_dp(n, s, t) -> int:
    return ballot_dp(n, t * n - 1, lambda j: t * j - 1,
                     lambda j, k: comb(k + s - 1, k))


def staircase_closed(n, s, t) -> int:
    num = comb((s + t) * n - 2, s * n - 1)
    if num % n:
        raise ArithmeticError("closed form is not an integer")
    return num // n


def staircase_parts(n, s, t):
    parts = [s * n] * (t - 1)
    for j in range(1, n):
        parts.extend([s * (n - j)] * t)
    return parts


# -- supports of products by sets ---------------------------------------------------------


def support_product(factors, nvars):
    """Exponent vectors of a product of 0/1 linear forms over the integers
    (no cancellation), each factor given as a list of variable indices."""
    acc = {(0,) * nvars}
    for factor in factors:
        nxt = set()
        for e in acc:
            for v in factor:
                lst = list(e)
                lst[v] += 1
                nxt.add(tuple(lst))
        acc = nxt
    return acc


def chain_series(p: int, terms: int):
    """Series of (1 + z + ... + z^(p-1)) / (1 - 2z - z^2 - ... - z^p)."""
    den = [1, -2] + [-1] * (p - 1)
    out = []
    for m in range(terms):
        val = 1 if m < p else 0
        for i in range(1, min(m, p) + 1):
            val -= den[i] * out[m - i]
        out.append(val)
    return out


# -- per-workload checks ---------------------------------------------------------------


class Context:
    """Plain expansions shared by the checks of one run."""

    def __init__(self):
        self.fields = {}
        self.powers = {}

    def field(self, q):
        if q not in self.fields:
            self.fields[q] = plain.GF(q)
        return self.fields[q]

    def census_of_power(self, spec, n):
        key = (spec["f"], spec["q"], n)
        if key not in self.powers:
            F = self.field(spec["q"])
            self.powers[key] = plain.census(plain.sparse_power(F, spec["terms"], n))
        return self.powers[key]


def expand_gf(num, den, terms):
    out = []
    for m in range(terms):
        val = num[m] if m < len(num) else 0
        for i in range(1, min(m, len(den) - 1) + 1):
            val -= den[i] * out[m - i]
        out.append(val)
    return out


def _check_digit(spec, ans, ctx: Context, states_by_family: dict):
    errors = []
    q, kind = spec["q"], spec["kind"]
    states = ans[0]
    seen = states_by_family.setdefault(spec["family"], states)
    if seen != states:
        errors.append(f"state count {states} differs from {seen} on the same polynomial")
    if kind == "few":
        want = ctx.census_of_power(spec, spec["n"]).get(spec["alpha"], 0)
        if ans[1] != want:
            errors.append(f"count {ans[1]} != plain expansion {want}")
    elif kind == "all":
        F = ctx.field(q)
        box = plain.degree_box(spec["terms"])
        low = 0
        total = {1: 1}
        for b, pos in spec["blocks"]:
            if any(d * low >= q**pos for d in box):
                errors.append("digit blocks overlap; the census product does not apply")
            total = plain.census_product(F, total, ctx.census_of_power(spec, b))
            low += b * q**pos
        want = tuple(total.get(a, 0) for a in range(1, q))
        if ans[1] != want:
            errors.append(f"counts {ans[1]} != census product {want}")
    else:
        _, order, num, den, seq = ans
        if den[0] != 1:
            errors.append(f"denominator constant term {den[0]} != 1")
        if expand_gf(num, den, len(seq)) != list(seq):
            errors.append("generating function does not expand to the fitted counts")
        if order > states:
            errors.append(f"recurrence order {order} exceeds the state count {states}")
        if order != max(len(den) - 1, len(num)):
            errors.append(f"order {order} does not match the reduced form")
        m = 0
        while True:
            e = (q**m - 1) // (q - 1)
            if m >= len(seq) or workloads.plain_work(spec["terms"], e) > workloads.PLAIN_WORK:
                break
            want = ctx.census_of_power(spec, e).get(spec["alpha"], 0)
            if seq[m] != want:
                errors.append(f"repunit count at m = {m}: {seq[m]} != plain {want}")
            m += 1
        # m = 0 and m = 1 are f^0 = 1 and f itself; a check must reach m = 2
        if m < 3:
            errors.append("no repunit exponent with m >= 2 checked by plain expansion")
    return errors


def _check_qpow(spec, ans, ctx: Context):
    errors = []
    d, mu, l, u, v, far = ans
    q, c = spec["q"], spec["c"]
    if (d, mu, l) != (spec["d"], spec["mu"], spec["l"]):
        errors.append(f"(d, mu, l) = {(d, mu, l)} != built {(spec['d'], spec['mu'], spec['l'])}")
        return errors
    def predict(m):
        return u[m % d] * q**m + v[m % d]

    for m, count in zip(spec["far"], far):
        if predict(m) != count:
            errors.append(f"law gives {predict(m)} at m = {m}, direct count {count}")
    F = ctx.field(q)
    deg = len(spec["g"]) - 1
    checked = 0
    for m in range(l, l + 3 * d):
        n = q**m - c
        if deg * n > 20_000:
            break
        want = plain.dense_power_census(F, spec["g"], n).get(spec["alpha"], 0)
        if predict(m) != want:
            errors.append(f"law gives {predict(m)} at m = {m}, plain expansion {want}")
        checked += 1
    if not checked:
        errors.append("no exponent small enough for a plain expansion")
    if spec["primitive"] and c == 1:
        want = Fraction(d * q ** (d - 1), q**d - 1)
        if any(x != want for x in u):
            errors.append(f"u = {u} for primitive g, expected {want}")
    return errors


def _check_lattice(spec, ans, ctx: Context):
    kind, n = spec["kind"], spec["n"]
    if kind == "dmc":
        want = dmc_dp(spec["parts"])
    elif kind == "psf":
        want = psf_dp(spec["ts"])
    elif kind == "nci":
        lhs, rhs = nci_dp(spec["ms"])
        if lhs != rhs:
            return [f"DP sides differ: {lhs} != {rhs}"]
        want = (lhs, rhs, True)
        if ans != want or ans[2] is not True:
            return [f"{ans} != {want}"]
        return []
    elif kind in ("lsum", "ksum"):
        s, t = spec["s"], spec["t"]
        want = staircase_closed(n, s, t)
        other = lsum_dp(n, s, t) if kind == "lsum" else dmc_dp(staircase_parts(n, s, t))
        if other != want:
            return [f"DP {other} != closed form {want}"]
    elif kind == "nsp":
        parts = spec["parts"]
        want = (dmc_dp(parts), prod(parts))
        if n <= 8:
            size = len(support_product([range(p) for p in parts], max(parts)))
            if size != want[0]:
                return [f"set-based count {size} != DP {want[0]}"]
    elif kind == "wpp":
        k, m = spec["k"], spec["m"]
        factors = [range(i, i + k + 1) for i in range(n) for _ in range(m)]
        want = (len(support_product(factors, n + k)), (k + 1) ** (n * m))
    elif kind == "trv":
        j, k = spec["j"], spec["k"]
        factors = [range(i * j, i * j + k) for i in range(n)]
        want = (len(support_product(factors, (n - 1) * j + k)), k**n)
    else:
        p = spec["p"]
        F = ctx.field(p)
        factors = []
        for i in range(n):
            zero = [0] * (n + 1)
            a, b = list(zero), list(zero)
            a[i] = 1
            b[i + 1] = 1
            factors.append({tuple(zero): 1, tuple(a): 1, tuple(b): 1})
        poly = {(0,) * (n + 1): 1}
        for f in factors:
            poly = plain.sparse_mul(F, poly, f)
        series = chain_series(p, n + 1)[n]
        if len(poly) != series:
            return [f"plain expansion {len(poly)} terms != chain series {series}"]
        want = (series, tuple(sorted(plain.census(poly).items())))
    if ans != want:
        return [f"{ans} != {want}"]
    return []


def check_all(specs, answers, ctx: Context | None = None):
    """Failure messages for every query, as (query index, message)."""
    ctx = ctx or Context()
    states_by_family: dict = {}
    failures = []
    for i, (spec, ans) in enumerate(zip(specs, answers)):
        if ans is None:
            continue  # the call failed; counted in "failed", not checked
        if spec["workload"] == "digit-counts":
            errors = _check_digit(spec, ans, ctx, states_by_family)
        elif spec["workload"] == "power-laws":
            errors = _check_qpow(spec, ans, ctx)
        else:
            errors = _check_lattice(spec, ans, ctx)
        failures.extend((i, e) for e in errors)
    return failures
