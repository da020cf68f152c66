"""Lattice-path, polytope, and distinct-monomial counting.

The central objects: ballot-bounded integer sequences K_n (partial sums
k_1 + ... + k_i <= i, total n, |K_n| = Catalan), the distinct-monomial
count of products of nested variable sums prod (x_1 + ... + x_{part_i}),
the prefix-sum polytope with bounds t_n + ... + t_{n-i+1}, and the path
counts under periodically shifting staircase boundaries.  All counts are
exact integers, cross-checkable against the brute-force oracle.  The
product polynomials (nested sums, ascending, Fuss and staircase powers)
are products of linear forms, expanded by `mpoly.linear_product`.

Every weighted sum over ballot-bounded sequences is evaluated by one
transfer DP over (position, prefix sum), `_ballot_sum`, which takes each
position's whole weight row from `combinat.binomial_row` or
`combinat.multichoose_row` (exact recurrences, no per-entry binomial
calls); the enumerators
`draconian_sequences` and `lpath_sequences` list the sequences themselves
and are the independent check of those sums.  They and the direct
polytope counts (`ps_points_direct`, `ps_interior_direct`,
`weighted_polytope_sum`) all walk one prefix generator, `_prefixes`.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import mul

from .combinat import binomial_row, catalan, multichoose_row
from .mpoly import ZZ, MultiPoly, linear_product

DEFAULT_ENUM_CAP = 15
# Most (row entry, next row entry) pairs, plus the last weight row's
# entries, one ballot sum may visit, checked before the first row exists;
# it also bounds the row length.  K_n needs (n-1) n (n+1) / 3 + n + 1, so
# n <= 391 passes (the enumeration cap is 15), and every L_{n,t} of at
# most 10^7 sequences (the scale of Catalan(15)) needs at most 1.34e7.
BALLOT_WORK_CAP = 2 * 10**7
# Most nodes (prefixes and last-level points) one `_prefixes` walk may visit,
# each level's nodes counted before they are made.  K_13 takes 1 033 410
# visits and the polytope of t = (1, ..., 7) 862 212; C7 needs at most
# 290 510 (K_12).
MAX_WALK_VISITS = 1 << 20


class LatticeError(ValueError):
    pass


# -- ballot-bounded sequences ---------------------------------------------------


def _prefixes(caps, low: int = 0):
    """(y, caps[-1] - sum(y)) for every y in Z^(len(caps) - 1) with entries
    >= low and y_1 + ... + y_j <= caps[j-1], in lexicographic order: the one
    polytope walk here, depth first with an explicit stack, smallest child
    on top, the last level yielded in place.  caps must not be empty.
    Raises LatticeError once the walk would pass MAX_WALK_VISITS nodes."""
    last, top = len(caps) - 1, caps[-1]
    if not last:
        yield (), top
        return
    stack = [((), 0)]
    visits = 0
    while stack:
        prefix, psum = stack.pop()
        j = len(prefix)
        values = range(low, caps[j] - psum + 1)
        visits += len(values)
        if visits > MAX_WALK_VISITS:
            raise LatticeError(f"a polytope walk over {last} coordinates exceeds "
                               f"{MAX_WALK_VISITS} visits")
        if j == last - 1:
            for v in values:
                yield prefix + (v,), top - psum - v
        else:
            stack.extend([(prefix + (v,), psum + v) for v in reversed(values)])


def _bounded_sequences(caps, total: int):
    """All k in N^len(caps) with k_1 + ... + k_j <= caps[j-1] and sum k =
    total, in lexicographic order; the last cap must equal total, so the
    last entry is whatever the prefix leaves of total."""
    if not caps:
        return [()] if total == 0 else []
    return [y + (rest,) for y, rest in _prefixes([min(cap, total) for cap in caps])]


def _ballot_sum(caps, total: int, rows) -> int:
    """Sum over k in N^n, n = len(caps), with k_1 + ... + k_j <= caps[j-1]
    and sum k = total, of prod_j w_j(k_j), where rows(j, top) returns
    position j's weights [w_j(0), ..., w_j(top)] (j is 1-based).

    A transfer DP over prefix sums (Stanley, EC1, 4.7): row[s] is the
    weighted count of the prefixes k_1..k_j that sum to s, and position j+1
    turns it into the next row by a convolution with its weight row,
    truncated at the cap.  The last entry is forced to total - s, so the
    last step is one dot product.  Every entry is kept whatever its sign,
    so negative weights are summed exactly.  Raises LatticeError before the
    first row is built if the DP would visit more than BALLOT_WORK_CAP
    pairs of entries and last-row entries (at most n (total + 1)^2).
    """
    n = len(caps)
    if total < 0:
        return 0
    if n == 0:
        return 1 if total == 0 else 0
    if caps[-1] < total:
        return 0
    work, width = total + 1, 1  # the last weight row has total + 1 entries
    for cap in caps[:-1]:
        if work > BALLOT_WORK_CAP:
            break
        if cap < 0:
            return 0
        nxt = min(cap, total) + 1
        work += width * nxt
        width = nxt
    if work > BALLOT_WORK_CAP:
        raise LatticeError(
            f"a ballot sum over {n} positions with total {total} exceeds "
            f"the work cap {BALLOT_WORK_CAP}")
    row = [1]
    for j, cap in enumerate(caps[:-1], 1):
        top = min(cap, total)
        rev = rows(j, top)[::-1]
        # entry s = top - i reads rev[i:] = w_j(s), w_j(s-1), ..., as far as row goes
        width = len(row)
        row = [sum(map(mul, row, rev[i:i + width])) for i in range(top, -1, -1)]
    return sum(map(mul, row, reversed(rows(n, total))))


def draconian_sequences(n: int):
    """All k in N^n with k_1 + ... + k_i <= i and sum k = n, lexicographic.

    There are Catalan(n) of them.
    """
    _check_enumerable(n)
    return _bounded_sequences(list(range(1, n + 1)), n)


def draconian_count(n: int) -> int:
    """len(draconian_sequences(n)), which is Catalan(n), without listing the
    sequences.  It answers up to DEFAULT_ENUM_CAP (15), while the listing is
    stopped from n = 14 on by the polytope walk's MAX_WALK_VISITS."""
    _check_enumerable(n)
    return catalan(n)


def _check_enumerable(n: int):
    if n < 0:
        raise LatticeError("n must be nonnegative")
    if n > DEFAULT_ENUM_CAP:
        raise LatticeError(f"n = {n} exceeds the enumeration cap {DEFAULT_ENUM_CAP}")


def lpath_sequences(n: int, t: int):
    """The set L_{n,t}: k in N^n with k_1+...+k_j <= t*j - 1 and sum = t*n - 1."""
    if n < 1 or t < 1:
        raise LatticeError("need n, t >= 1")
    return _bounded_sequences([t * j - 1 for j in range(1, n + 1)], t * n - 1)


# -- distinct monomials of nested-sum products ------------------------------------


def nested_sum_product(parts) -> MultiPoly:
    """The polynomial prod_i (x_1 + ... + x_{parts_i}) over the integers.

    The sums are multiplied narrowest first, whatever the order of parts,
    so that the partial products stay small.
    """
    parts = sorted(parts)
    if any(lam < 0 for lam in parts):
        raise LatticeError("parts must be nonnegative")
    k = max(parts) if parts else 1
    if 0 in parts:
        return MultiPoly.zero(k, ZZ)
    return linear_product(k, ZZ, (dict.fromkeys(range(lam), 1) for lam in parts))


def distinct_monomial_count(parts) -> int:
    """Number of distinct monomials in prod (x_1 + ... + x_{parts_i}).

    parts must be weakly decreasing (a partition shape).  Evaluates the
    closed sum over ballot sequences: for each k in K_n the product of
    multichoose(parts_i - parts_{i+1}, k_i), by the prefix-sum DP
    `_ballot_sum`; enumerating K_n is the independent check.
    """
    parts = list(parts)
    n = len(parts)
    if any(parts[i] < parts[i + 1] for i in range(n - 1)):
        raise LatticeError("parts must be weakly decreasing")
    if any(p < 0 for p in parts):
        raise LatticeError("parts must be nonnegative")
    ext = parts + [0]
    drops = [ext[i] - ext[i + 1] for i in range(n)]
    return _ballot_sum(range(1, n + 1), n,
                       lambda j, top: multichoose_row(drops[j - 1], top))


def catalan_inversion(n: int) -> int:
    """Alternating-sum inversion sum_{j=1}^{n} (-1)^(j+1) C(n+2-j, j) Catalan(n-j).

    Equals Catalan(n) for n >= 2 (direct evaluation shows the identity
    fails at n = 1, where it yields 2).
    """
    if n < 1:
        raise LatticeError("n must be >= 1")
    return sum((-1) ** (j + 1) * comb(n + 2 - j, j) * catalan(n - j)
               for j in range(1, n + 1))


# -- the prefix-sum polytope ---------------------------------------------------


def _prefix_bounds(ts):
    """bounds_i = t_n + ... + t_{n-i+1} (reversed partial sums)."""
    return list(accumulate(reversed(ts)))


def ps_points_direct(ts) -> int:
    """Count integer points y >= 0 with y_1 + ... + y_i <= t_n + ... + t_{n-i+1}.

    Walks y_1..y_{n-1} with `_prefixes` and counts the last coordinate's
    admissible values 0..slack at once.
    """
    if not ts:
        return 1
    return sum(max(slack + 1, 0) for _, slack in _prefixes(_prefix_bounds(ts)))


def ps_interior_direct(ts) -> int:
    """Count integer points with y_i >= 1 and strict prefix-sum inequalities,
    walked as in ps_points_direct."""
    if not ts:
        return 1
    bounds = [b - 1 for b in _prefix_bounds(ts)]
    return sum(max(slack, 0) for _, slack in _prefixes(bounds, 1))


def ps_points_formula(ts) -> int:
    """The ballot-sum formula: sum over K_n of multichoose(t_n + 1, k_n)
    times prod_{i<n} multichoose(t_i, k_i), evaluated by the prefix-sum DP
    `_ballot_sum`; ps_points_direct and enumerating K_n are the checks."""
    ts = list(ts)
    n = len(ts)
    if n == 0:
        return 1
    if any(t < 0 for t in ts):
        raise LatticeError("t entries must be nonnegative")
    return _ballot_sum(range(1, n + 1), n,
                       lambda j, top: multichoose_row(ts[j - 1] + (j == n), top))


def ps_interior_transform(ms):
    """The t-vector whose polytope counts the interior points of Pi_n(m).

    Shifting y by 1 and tightening the inequalities turns the interior of
    Pi_n(m_1, ..., m_n) into Pi_n(m_1 - 1, ..., m_{n-1} - 1, m_n - 2).
    """
    ms = list(ms)
    if not ms:
        return []
    return [m - 1 for m in ms[:-1]] + [ms[-1] - 2]


# -- staircase-boundary path counts ----------------------------------------------


def staircase_parts(n: int, s: int, t: int):
    """The partition encoding the shifted product: t-1 parts of s*n, then
    t parts of s*(n-j) for j = 1..n-1."""
    parts = [s * n] * (t - 1)
    for j in range(1, n):
        parts.extend([s * (n - j)] * t)
    return parts


def shifted_path_count(n: int, s: int, t: int, mode: str = "closed") -> int:
    """Paths to (sn-1, tn-1) weakly beneath the shifted staircase boundary.

    closed: C((s+t)n - 2, sn - 1) / n  (symmetric in s and t since the
            complementary index is tn - 1).
    Lsum:   sum over L_{n,t} of prod C(k_i + s - 1, k_i).
    Ksum:   distinct monomials of the staircase partition product.
    Both sums are evaluated by the prefix-sum DP `_ballot_sum`.  All three
    agree for every n >= 1, and equal the direct path count under the
    boundary (path_count_under_boundary).
    """
    if n < 1 or s < 1 or t < 1:
        raise LatticeError("need n, s, t >= 1")
    if mode == "closed":
        num = comb((s + t) * n - 2, s * n - 1)
        assert num % n == 0
        return num // n
    if mode == "Lsum":
        return _ballot_sum(range(t - 1, t * n, t), t * n - 1,
                           lambda j, top: multichoose_row(s, top))
    if mode == "Ksum":
        return distinct_monomial_count(staircase_parts(n, s, t))
    raise LatticeError(f"unknown mode {mode!r}")


def path_count_under_boundary(n: int, s: int, t: int) -> int:
    """Direct DP count of monotone paths to (sn-1, tn-1) weakly beneath
    U^(t-1) (R^s U^t)^(n-1) R^(s-1); the independent check of the closed form."""
    width, height = s * n - 1, t * n - 1
    # maximum height the boundary attains at each x coordinate
    bound = [0] * (width + 1)
    x = y = 0
    for step in "U" * (t - 1) + ("R" * s + "U" * t) * (n - 1) + "R" * (s - 1):
        if step == "U":
            y += 1
        else:
            bound[x] = y
            x += 1
    bound[width] = y
    col = [0] * (height + 1)
    for yy in range(min(bound[0], height) + 1):
        col[yy] = 1
    for xx in range(1, width + 1):
        new = [0] * (height + 1)
        for yy in range(min(bound[xx], height) + 1):
            new[yy] = col[yy] + (new[yy - 1] if yy else 0)
        col = new
    return col[height]


# -- polynomial identity over ballot sequences -------------------------------------


def noncrossing_identity(ms):
    """Evaluate both sides of the matching identity over K_n.

    lhs = sum_{k in K_n} C(m_n, k_n) prod_{i<n} C(m_i + 1, k_i)
    rhs = sum_{k in K_n} prod_i C(m_i + k_i - 1, k_i)
    Returns (lhs, rhs, lhs == rhs); the identity holds as a polynomial
    identity, so equality is expected for arbitrary integer vectors.  Both
    sides are evaluated by the prefix-sum DP `_ballot_sum`, whose weights
    here may be negative.
    """
    ms = list(ms)
    n = len(ms)
    caps = range(1, n + 1)
    lhs = _ballot_sum(caps, n, lambda j, top: binomial_row(ms[j - 1] + (j < n), top))
    rhs = _ballot_sum(caps, n, lambda j, top: multichoose_row(ms[j - 1], top))
    return lhs, rhs, lhs == rhs


# -- special product families -----------------------------------------------------


def ascending_product_poly(n: int, m: int) -> MultiPoly:
    """prod_{j=1}^{n-1} (x_0 + x_1 + ... + x_{j+m}), variables x_0..x_{n-1+m}."""
    return linear_product(n + m, ZZ, (dict.fromkeys(range(j + m + 1), 1)
                                      for j in range(1, n)))


def ascending_product_count(n: int, m: int) -> int:
    """Distinct monomials of ascending_product_poly: (m+2)/(2n+m) C(2n+m, n+m+1).

    Also the number of standard Young tableaux of shape (n+m, n-1).
    """
    if n < m or m < 0:
        raise LatticeError("need n >= m >= 0")
    num = (m + 2) * comb(2 * n + m, n + m + 1)
    assert num % (2 * n + m) == 0
    return num // (2 * n + m)


def fuss_catalan(n: int, k: int) -> int:
    """C((k+1)n, n) / (kn + 1)."""
    num = comb((k + 1) * n, n)
    assert num % (k * n + 1) == 0
    return num // (k * n + 1)


def fuss_product_poly(n: int, k: int) -> MultiPoly:
    """prod_{j=1}^{n-1} (x_0 + ... + x_j)^k, variables x_0..x_{n-1}."""
    return linear_product(max(n, 1), ZZ, (dict.fromkeys(range(j + 1), 1)
                                          for j in range(1, n) for _ in range(k)))


def staircase_power_poly(n: int, k: int) -> MultiPoly:
    """prod_{j=1}^{n-1} (x_0 + ... + x_j)^(j+k), variables x_0..x_{n-1}."""
    return linear_product(max(n, 1), ZZ, (dict.fromkeys(range(j + 1), 1)
                                          for j in range(1, n) for _ in range(j + k)))


def _triangle_matrix(size: int, shift: int):
    """Lower-triangular matrix with entries C(C(i,2)-C(j,2)+i-j+shift, i-j)."""
    return [
        [
            comb(comb(i, 2) - comb(j, 2) + i - j + shift, i - j) if j <= i else 0
            for j in range(size)
        ]
        for i in range(size)
    ]


def ratio_matrix(size: int):
    """R = M N^{-1} for the two lower-triangular binomial matrices M (shift 3)
    and N (shift 2), as integers.

    N is unitriangular, so each row of R solves R N = M by integer back
    substitution: R[i][j] = M[i][j] - sum_{t > j} R[i][t] N[t][j].
    """
    M = _triangle_matrix(size, 3)
    N = _triangle_matrix(size, 2)
    R = [[0] * size for _ in range(size)]
    for i in range(size):
        row = R[i]
        for j in range(i, -1, -1):
            row[j] = M[i][j] - sum(row[t] * N[t][j] for t in range(j + 1, i + 1))
    return R


def weighted_polytope_sum(n: int, k: int) -> int:
    """sum over Pi_{n-1}(t_1 - 1, t_2, ..., t_{n-1}) of (1 + y_{n-1}),
    with t_i = k + n - i; the polytope-side count for the staircase powers."""
    if n < 2:
        return 1
    ts = [k + n - i for i in range(1, n)]
    ts[0] -= 1
    # sum of 1 + y over y = 0 .. slack
    return sum((slack + 1) * (slack + 2) // 2
               for _, slack in _prefixes(_prefix_bounds(ts)) if slack >= 0)


def staircase_grid_report(n_max: int, k_max: int):
    """Rows (n, k, oracle, R(n,k), R(n+k,k), weighted sum) for the staircase
    powers.

    The printed recipe leaves the index origins open; empirically the
    oracle count N(S_{n,k}) equals the ratio-matrix entry R(n+k, k)
    (0-indexed), while the literal R(n,k) and the weighted polytope sum
    under the direct reading do not line up.  The grid is reported so the
    correspondence stays visible.
    """
    R = ratio_matrix(n_max + k_max + 2)
    rows = []
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            count = staircase_power_poly(n, k).num_terms
            rows.append(
                (n, k, count, str(R[n][k]), str(R[n + k][k]),
                 weighted_polytope_sum(n, k))
            )
    return rows
