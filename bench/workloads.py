"""The three workloads: inputs made from a seed, the calls into coeffcount,
and the compact answers the checks read.

A workload is a fixed list of queries.  ``generate(workload, seed)`` makes
the query specs with the standard library alone; ``bind(spec, cc)`` turns
one spec into a zero-argument call into the program (this is where input
polynomials are parsed); ``answer(spec, raw)`` reduces the call's result,
outside the timed region, to nested tuples of integers.

Every call reaches the program through a module attribute looked up at
call time (``cc.automaton.build_automaton``, ...), so the tracer can wrap
those attributes from outside.

Per-pass cost must not depend on the seed, or runs with different seeds
would disagree.  Each workload is therefore a fixed list of slots (which
polynomial family, how many digits, how long a ballot sequence); the seed
picks what fills each slot: variable order, exponents, alpha, the
irreducible factors, the part sizes.
"""

from __future__ import annotations

import math
import random

import plain

WORKLOADS = ("digit-counts", "power-laws", "lattice-products")

# A plain expansion f^n is used by the checks only while this many
# coefficient-pair products suffice.
PLAIN_WORK = 200_000

# -- digit-counts ----------------------------------------------------------------

# (q, k, f).  "Large" polynomials have automata of about 45-400 states and
# get a few-digit count and an every-alpha count at 300 digits; "small"
# ones (8-40 states) also get a repunit generating-function fit, whose
# exact Krylov/Berlekamp-Massey cost grows steeply with the state count.
DIGIT_LARGE = [
    (2, 1, "1+x^2+x^4+x^5+x^7"), (2, 1, "1+x+x^4+x^5+x^7"),
    (2, 1, "1+x^2+x^3+x^4+x^6"),
    (2, 2, "1+x1^2*x2+x1^2*x2^3+x1^3+x1^3*x2^2"),
    (2, 2, "1+x1*x2^3+x1^2*x2+x1^3*x2+x1^3*x2^3"),
    (2, 2, "1+x1*x2^3+x1^2+x1^2*x2^3+x1^3*x2^2"),
    (2, 2, "1+x2^3+x1^2*x2+x1^3+x1^4*x2"),
    (2, 2, "1+x1*x2+x1^2+x1^3*x2^3+x1^4*x2^3"),
    (2, 2, "1+x2+x1*x2+x1*x2^3+x1^3*x2^2"),
    (2, 3, "1+x3^3+x1^2*x3^3+x1^3*x3^2+x1^3*x2^2*x3^3"),
    (3, 1, "1+2*x+2*x^4+2*x^5"), (3, 1, "2+2*x+2*x^2+2*x^4"),
    (3, 1, "1+2*x^2+x^4+x^5"), (3, 1, "1+x^2+2*x^3+2*x^5"),
    (3, 2, "1+2*x2+x1*x2^2+x1^2"), (3, 2, "2+x1*x2^2+x1^2*x2+x1^2*x2^2"),
    (3, 2, "2+2*x2+x1+x1^2+2*x1^2*x2^2"), (3, 2, "1+x2^2+x1*x2+x1*x2^2+x1^2*x2"),
    (4, 1, "3+x+3*x^2+2*x^3"), (4, 1, "2+2*x+x^2+2*x^3"),
    (4, 2, "1+x2^2+3*x1+x1^2*x2"),
    (5, 1, "1+3*x+x^2+2*x^3"), (5, 1, "2+3*x+2*x^2+4*x^3"),
    (5, 1, "3+4*x+x^2+x^3"),
]
DIGIT_SMALL = [
    (2, 1, "1+x^2+x^3+x^4+x^5"), (2, 1, "1+x+x^2+x^4"), (2, 1, "1+x+x^3+x^4"),
    (2, 2, "1+x2^2+x1^2+x1^2*x2+x1^3*x2^2"), (2, 2, "1+x2+x2^2+x1*x2^3+x1^2*x2^2"),
    (2, 2, "1+x2^2+x1*x2^2+x1^2*x2"),
    (2, 3, "1+x2*x3+x1*x2^2*x3+x1^2*x3^2+x1^2*x2"),
    (2, 3, "1+x2^2+x2^2*x3+x1*x2^3*x3+x1^3*x3^2"),
    (2, 3, "1+x3+x1^2+x1^2*x2^2*x3^2+x1^3"),
    (2, 3, "1+x2*x3^2+x2^2+x1*x2^2*x3+x1^2*x2"),
    (3, 1, "1+x+x^3"), (3, 1, "1+2*x+2*x^2+2*x^3"), (3, 1, "2+x^2+2*x^3+x^4"),
    (3, 2, "2+2*x2+x2^2+x1*x2^2+x1^2*x2^2"), (3, 2, "2+x2^2+2*x1^2+2*x1^2*x2"),
    (3, 2, "1+2*x2^2+x1+2*x1*x2^2+2*x1^2"),
    (3, 3, "1+x3+2*x1*x2^2*x3^2+2*x1^2*x2^2*x3"),
    (3, 3, "1+2*x2^2+2*x1*x3^2+2*x1^2*x2"),
    (4, 1, "1+x+2*x^2+2*x^3"), (4, 1, "1+x+2*x^2"),
    (4, 2, "3+3*x2^2+x1+2*x1^2*x2"), (4, 2, "1+x2+2*x2^2+2*x1^2"),
    (4, 2, "2+3*x1^2+x1^2*x2+x1^2*x2^2"),
    (5, 1, "2+x+x^2"), (5, 1, "1+4*x+x^2"),
    (5, 2, "4+4*x2^2+x1+2*x1*x2"), (5, 2, "2+x1*x2+3*x1^2+x1^2*x2^2"),
    (5, 3, "3+3*x2+2*x1*x3"),
]
BIG_DIGITS = 300  # base-q digits of the every-alpha exponents
BLOCKS = 4  # nonzero digit blocks in those exponents


def parse_terms(text: str, k: int) -> dict:
    """The catalogue's restricted syntax: c*x1^a*x2^b + ... (c optional)."""
    poly = {}
    for term in text.split("+"):
        coeff = 1
        exp = [0] * k
        for factor in term.split("*"):
            if factor[0].isdigit():
                coeff = int(factor)
                continue
            name, _, power = factor.partition("^")
            idx = int(name[1:]) - 1 if len(name) > 1 else 0
            exp[idx] += int(power) if power else 1
        poly[tuple(exp)] = coeff
    return poly


def to_text(poly: dict) -> str:
    k = len(next(iter(poly)))
    parts = []
    for exp, c in sorted(poly.items()):
        factors = [] if c == 1 and any(exp) else [str(c)]
        for i, e in enumerate(exp):
            if e:
                var = "x" if k == 1 else f"x{i + 1}"
                factors.append(var if e == 1 else f"{var}^{e}")
        parts.append("*".join(factors))
    return "+".join(parts)


def plain_work(f: dict, n: int) -> int:
    """Coefficient-pair products the plain expansion f^n needs, bounded above."""
    box = plain.degree_box(f)
    work = 0
    for j in range(n):
        size = 1
        for d in box:
            size *= d * j + 1
        work += size * len(f)
    return work


def max_plain_exponent(f: dict, cap: int) -> int:
    n = 1
    while n < cap and plain_work(f, n + 1) <= PLAIN_WORK:
        n += 1
    return n


def base_digits(n: int, q: int) -> int:
    count = 0
    while n:
        n //= q
        count += 1
    return count


def _digit_specs(rng: random.Random):
    specs = []
    entries = [(e, False) for e in DIGIT_LARGE] + [(e, True) for e in DIGIT_SMALL]
    for family, ((q, k, text), small) in enumerate(entries):
        base = parse_terms(text, k)
        kinds = ("few", "all", "gf") if small else ("few", "all")
        for kind in kinds:
            perm = list(range(k))
            rng.shuffle(perm)
            f = {tuple(e[perm[i]] for i in range(k)): c for e, c in base.items()}
            spec = {"workload": "digit-counts", "kind": kind, "family": family,
                    "q": q, "k": k, "f": to_text(f), "terms": f}
            if kind == "few":
                spec["n"] = rng.randint(2, max_plain_exponent(f, q**4 - 1))
                spec["alpha"] = rng.randrange(1, q)
            elif kind == "all":
                bmax = max_plain_exponent(f, q**2 - 1)
                blocks = [rng.randint(1, bmax) for _ in range(BLOCKS)]
                widths = [base_digits(b, q) for b in blocks]
                # the top block ends at digit BIG_DIGITS; the others sit at
                # random places below it, at least 4 zero digits apart
                top = BIG_DIGITS - widths[-1]
                free = top - sum(widths[:-1]) - 4 * (BLOCKS - 1)
                cuts = sorted(rng.randrange(free + 1) for _ in range(BLOCKS - 1))
                positions = [cut + sum(widths[:j]) + 4 * j
                             for j, cut in enumerate(cuts)] + [top]
                spec["blocks"] = list(zip(blocks, positions))
                spec["n"] = sum(b * q**p for b, p in zip(blocks, positions))
            else:
                spec["alpha"] = rng.randrange(1, q)
            specs.append(spec)
    return specs


# -- power-laws ------------------------------------------------------------------

# (q, factor degrees, multiplicities, c); g is a product of distinct monic
# irreducibles of those degrees, so d = lcm(degrees), mu = max(mults).
QPOW_STRATA = [
    (2, (3,), (1,), 1), (2, (4,), (1,), 1), (2, (1, 3), (2, 1), 1),
    (2, (1, 4), (2, 1), 3), (2, (1, 2), (3, 1), 1),
    (3, (2,), (1,), 1), (3, (3,), (1,), 1), (3, (1, 2), (2, 1), 2),
    (3, (1, 1), (1, 3), 1), (3, (1, 3), (1, 1), 2),
    (5, (2,), (1,), 1), (5, (1, 2), (1, 1), 1), (5, (1, 1), (2, 1), 3),
    (5, (1, 2), (2, 1), 1), (5, (1,), (2,), 2),
    (7, (1,), (1,), 1), (7, (2,), (1,), 1), (7, (1, 1), (1, 2), 2),
    (7, (1, 2), (1, 1), 1), (7, (1,), (3,), 1),
    (4, (1,), (1,), 1), (4, (2,), (1,), 1), (4, (1, 1), (1, 2), 1),
    (4, (1,), (2,), 1), (4, (1, 1), (1, 1), 2),
]
QPOW_PER_STRATUM = 5
# Direct counts past the fitted range, one per residue class while g^(q^m - c)
# has at most this many coefficients (F_4 runs on sparse products, hence its
# smaller figure); the first m past the range is always counted.
QPOW_FAR_CAP = {2: 1_000_000, 3: 1_000_000, 5: 1_000_000, 7: 1_000_000, 4: 5_000}


def _irreducibles(F: plain.GF, d: int):
    """Monic irreducibles of degree d with g(0) != 0, in a fixed order."""
    return [g for g in plain.monic_polys(F, d) if g[0] and plain.is_irreducible(F, g)]


def qpow_range(q, deg, d, mu, c):
    """(l, far m): the fitted range ends at l + 3d - 1."""
    l = 0
    while q**l < mu * c:
        l += 1
    first = l + 3 * d
    far = [m for m in range(first, first + d) if deg * q**m <= QPOW_FAR_CAP[q]]
    return l, far or [first]


def _qpow_specs(rng: random.Random):
    specs = []
    seen = set()
    pools = {}
    for q, degs, mults, c in QPOW_STRATA:
        F = plain.GF(q)
        for d in degs:
            if (q, d) not in pools:
                pools[q, d] = _irreducibles(F, d)
        for _ in range(QPOW_PER_STRATUM):
            # a few redraws for a g and alpha not drawn before; F_2 strata
            # have fewer distinct choices than queries
            for _ in range(20):
                chosen = {d: rng.sample(pools[q, d], degs.count(d)) for d in set(degs)}
                factors = [chosen[d].pop() for d in degs]
                g = [1]
                for h, m in zip(factors, mults):
                    for _ in range(m):
                        g = plain.dense_mul(F, g, h)
                scale = rng.randrange(1, q)
                g = [F.mul[scale][x] for x in g]
                alpha = rng.randrange(1, q)
                if (tuple(g), alpha) not in seen:
                    break
            seen.add((tuple(g), alpha))
            d = math.lcm(*degs)
            mu = max(mults)
            l, far = qpow_range(q, len(g) - 1, d, mu, c)
            primitive = (len(factors) == 1 and mults == (1,)
                         and plain.is_primitive(F, factors[0]))
            specs.append({
                "workload": "power-laws", "kind": "qpow", "q": q, "g": g,
                "text": to_text({(i,): x for i, x in enumerate(g) if x}),
                "c": c, "alpha": alpha, "d": d, "mu": mu, "l": l, "far": far,
                "primitive": primitive,
            })
    return specs


# -- lattice-products --------------------------------------------------------------

# Ballot-sum slots: (kind, sequence length n[, t]).  The seed draws the
# weights, and only weights that never vanish, so that no ballot sum stops
# early on a zero product and its cost stays that of the enumeration.
BALLOT_SLOTS = (
    [("dmc", n) for n in (7, 8, 8, 8, 9, 9, 9, 9, 9, 9)] * 2
    + [("psf", n) for n in (7, 8, 8, 8, 9, 9, 9, 9, 9, 9)] * 2
    + [("nci", n) for n in (7, 7, 8, 8, 8, 9, 9, 9, 9, 10)] * 2
    + [("lsum", n, t) for n, t in ((3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2))]
    # the staircase has t*n - 1 parts
    + [("ksum", n, t) for n, t in ((2, 4), (3, 3), (3, 3), (4, 2), (4, 2), (5, 2))]
)
# Sparse-product slots, fixed: the cost of these products moves by a factor
# of ten with their shapes, so a seed-drawn shape would make the pass cost
# depend on the seed.
PRODUCT_SLOTS = (
    [("nsp", len(parts), parts) for parts in (
        (6, 5, 4, 3, 2, 1, 1, 1), (5, 5, 4, 4, 3, 2, 2, 1), (7, 5, 4, 3, 3, 2, 1, 1, 1),
        (6, 6, 5, 4, 3, 2, 1, 1, 1), (7, 6, 5, 4, 3, 2, 2, 1, 1, 1),
        (6, 5, 5, 4, 3, 3, 2, 2, 1, 1), (7, 7, 6, 4, 3, 2, 2, 1, 1, 1),
        (5, 5, 5, 4, 4, 3, 3, 2, 2, 1))]
    + [("trv", n, j, k) for j, k, n in (
        (1, 3, 8), (2, 3, 8), (1, 4, 7), (2, 4, 7), (1, 2, 12), (3, 4, 6),
        (1, 3, 9), (2, 2, 12), (3, 3, 8), (3, 5, 6), (1, 4, 8), (2, 3, 9),
        (2, 4, 8), (1, 2, 14))]
    + [("wpp", n, k, m) for n, k, m in (
        (3, 2, 2), (4, 2, 2), (3, 3, 2), (5, 1, 3), (4, 1, 4), (6, 2, 1),
        (5, 2, 2), (6, 1, 3), (4, 3, 2), (5, 1, 4), (7, 1, 2), (4, 2, 3),
        (6, 2, 2))]
    + [("bpc", n, p) for p, n in (
        (2, 10), (3, 8), (3, 10), (5, 8), (2, 11), (3, 11), (5, 9), (5, 10),
        (7, 9), (2, 12), (3, 12))]
)


def _strict_partition(rng, n):
    """n distinct parts from 1 .. n + 4, largest first: every drop is >= 1."""
    return sorted(rng.sample(range(1, n + 5), n), reverse=True)


def _lattice_specs(rng: random.Random):
    specs = []
    for kind, n, *params in BALLOT_SLOTS + PRODUCT_SLOTS:
        spec = {"workload": "lattice-products", "kind": kind, "n": n}
        if kind == "dmc":
            spec["parts"] = _strict_partition(rng, n)
        elif kind == "nsp":
            spec["parts"] = list(params[0])
        elif kind == "psf":
            spec["ts"] = [rng.randint(1, 4) for _ in range(n)]
        elif kind == "nci":
            # negative entries at fixed places, so the cost does not vary
            spec["ms"] = [-rng.randint(1, 3) if i % 3 == 2 else rng.randint(0, 6)
                          for i in range(n)]
        elif kind in ("lsum", "ksum"):
            spec["t"], spec["s"] = params[0], rng.randint(1, 4)
        elif kind == "trv":
            spec["j"], spec["k"] = params
        elif kind == "wpp":
            spec["k"], spec["m"] = params
        else:
            spec["p"] = params[0]
        specs.append(spec)
    return specs


def generate(workload: str, seed: int):
    rng = random.Random(seed * 1_000_003 + WORKLOADS.index(workload))
    if workload == "digit-counts":
        return _digit_specs(rng)
    if workload == "power-laws":
        return _qpow_specs(rng)
    return _lattice_specs(rng)


# -- calls into the program ----------------------------------------------------------

_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1)}


def bind(spec, cc, fields: dict):
    """The zero-argument call for one query; parses its inputs first."""
    kind = spec["kind"]
    if spec["workload"] == "digit-counts":
        q = spec["q"]
        field = fields.setdefault(q, cc.ffield.Field(*_FIELDS[q]))
        f = cc.mpoly.parse_poly(spec["f"], spec["k"], field)
        n = spec.get("n")
        alpha = spec.get("alpha")
        if kind == "few":
            def call():
                a = cc.automaton.build_automaton(f)
                return a, a.count(n, alpha)
        elif kind == "all":
            def call():
                a = cc.automaton.build_automaton(f)
                return a, [a.count(n, x) for x in range(1, q)]
        else:
            def call():
                a = cc.automaton.build_automaton(f)
                return a, cc.ratgen.fit_repunit_genfun(a, alpha)
        return call
    if spec["workload"] == "power-laws":
        q = spec["q"]
        field = fields.setdefault(q, cc.ffield.Field(*_FIELDS[q]))
        g = cc.mpoly.parse_poly(spec["text"], 1, field)
        c, alpha, far = spec["c"], spec["alpha"], spec["far"]

        def call():
            prof = cc.qpow.fit_qpow_profile(g, field, c, alpha)
            return prof, [cc.qpow.count_qpow(g, field, c, alpha, m) for m in far]
        return call
    lat, trav = cc.lattice, cc.traveling
    n = spec["n"]
    if kind == "dmc":
        parts = spec["parts"]
        return lambda: lat.distinct_monomial_count(parts)
    if kind == "psf":
        ts = spec["ts"]
        return lambda: lat.ps_points_formula(ts)
    if kind == "nci":
        ms = spec["ms"]
        return lambda: lat.noncrossing_identity(ms)
    if kind in ("lsum", "ksum"):
        s, t, mode = spec["s"], spec["t"], kind[0].upper() + kind[1:]
        return lambda: lat.shifted_path_count(n, s, t, mode)
    if kind == "nsp":
        parts = spec["parts"]
        return lambda: lat.nested_sum_product(parts)
    if kind == "wpp":
        k, m = spec["k"], spec["m"]
        return lambda: trav.window_power_poly(n, k, m)
    if kind == "trv":
        j, k = spec["j"], spec["k"]
        return lambda: trav.traveling_poly(j, k, n)
    p = spec["p"]
    field = fields.setdefault(p, cc.ffield.Field(p))
    names = [f"x{i}" for i in range(1, n + 2)]
    factors = [cc.mpoly.parse_poly(f"1+{names[i]}+{names[i + 1]}", n + 1, field)
               for i in range(n)]
    return lambda: cc.oracle.brute_product_census(factors)


def answer(spec, raw):
    """Nested tuples of integers (and Fractions): what the checks compare."""
    kind = spec["kind"]
    if spec["workload"] == "digit-counts":
        a, out = raw
        if kind == "few":
            return (a.state_count, out)
        if kind == "all":
            return (a.state_count, tuple(out))
        seq, rec, gf = out
        return (a.state_count, rec.order, tuple(gf.num), tuple(gf.den), tuple(seq))
    if spec["workload"] == "power-laws":
        prof, far = raw
        return (prof.d, prof.mu, prof.l, tuple(prof.u), tuple(prof.v), tuple(far))
    if kind == "nci":
        return raw
    if kind in ("nsp", "wpp", "trv"):
        return (raw.num_terms, sum(raw.terms.values()))
    if kind == "bpc":
        total, cen = raw
        return (total, tuple(sorted(cen.items())))
    return raw
