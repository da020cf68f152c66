"""Integer answers computed modulo 61-bit primes and certified over Z.

A problem whose answer is a list of integers (a linear relation, a
recurrence) is solved modulo one prime at a time.  The residues are
combined by the Chinese remainder theorem and lifted to the symmetric
range (-M/2, M/2], and the lifted integers are accepted only once an
exact check over Z holds, so a prime that reduces the problem badly can
cost time but never changes the answer.  See von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 5 and 6, for the lifting and its bounds.
One such problem is the Krylov order of a matrix walk (`certified_order`;
Wiedemann, "Solving sparse linear equations over finite fields", 1986).
"""

from __future__ import annotations

import itertools

from .ffield import is_prime

TOP_PRIME = (1 << 61) - 1


def primes():
    """Primes from 2^61 - 1 downward, each found only when asked for."""
    yield TOP_PRIME  # a Mersenne prime
    n = TOP_PRIME - 2
    while n > 2:
        if is_prime(n):
            yield n
        n -= 2


def certified_lift(solve, holds, base: int, limit: int):
    """(order, integers) of a problem solved modulo primes, checked over Z.

    solve(p) returns (order, residues mod p).  The caller guarantees three
    things: the order found modulo any prime is at most the true order;
    every prime that finds the true order returns the reductions of the
    one true integer solution; and that solution's entries are at most
    base**order in absolute value.  holds(order, integers) is the exact
    check over Z, true only for the true solution.

    Primes that find less than the largest order seen so far are skipped.
    Once the primes of the largest order multiply past twice the bound and
    the check still fails, that order is too small and its primes are
    dropped; only finitely many primes find a wrong order, so the loop
    ends.  Raises ArithmeticError if even `limit`, the largest order
    possible, fails so.
    """
    floor = 0  # every order below this is proven too small
    best = -1
    for p in primes():
        order, residues = solve(p)
        if order < max(best, floor):
            continue
        if order > best:
            best, modulus, acc = order, 1, [0] * len(residues)
        inv = pow(modulus, -1, p)
        acc = [a + modulus * ((r - a) * inv % p) for a, r in zip(acc, residues)]
        modulus *= p
        half = modulus // 2
        lifted = [a - modulus if a > half else a for a in acc]
        if holds(order, lifted):
            return order, lifted
        if modulus > 2 * base**order:
            if order >= limit:
                raise ArithmeticError(f"no integer solution of order {order} lifts")
            floor, best = order + 1, -1
    raise ArithmeticError("ran out of primes")


def certified_order(walk, column_sum: int, limit: int):
    """(D, c, [v_0 .. v_D]): the first linear dependence v_D = sum c_i v_i.

    walk yields integer vectors v_0 and v_(i+1) = T v_i on at most limit
    coordinates, T nonnegative with column sums at most column_sum; a vector
    may be longer than earlier ones, whose missing entries read as 0.  D is
    the dimension they span, so every scalar sequence s read off them has
    s_(m+D) = sum c_i s_(m+i).  The list holds exactly the vectors drawn.

    Elimination mod p stops at the first dependence r (_first_relation_mod);
    independence mod p implies it over Q, so r <= D.  The relation
    v_r = sum c_i v_i, lifted to integers, is checked exactly, which proves
    D <= r.  The minimal polynomial of v_0 is a monic integer divisor of the
    characteristic polynomial of T (Gauss's lemma), and its roots are
    eigenvalues of T, at most its largest column sum in absolute value, so
    the relation has entries at most (1 + column_sum)^D.  A failed check adds
    primes until the lift is proven (see certified_lift).
    """
    iterates = [next(walk)]

    def solve(p):
        return _first_relation_mod(iterates, walk, p, limit)

    def holds(r, coeffs):
        acc = [0] * len(iterates[r])
        for c, v in zip(coeffs, iterates):
            acc[:len(v)] = [a + c * x for a, x in zip(acc, v)]
        return acc == iterates[r]

    return (*certified_lift(solve, holds, 1 + column_sum, limit), iterates)


def _first_relation_mod(iterates, walk, p: int, limit: int):
    """(r, c): the first iterate with v_r = sum_{i<r} c_i v_i modulo p.

    Eliminates the iterates in order, drawing more from walk onto the
    list iterates when it runs out.  Row u_j is v_j reduced by the earlier
    rows and scaled to 1 at its pivot; the multipliers of each reduction
    rebuild the relation in terms of the v_i by back substitution.

    A row is packed into one int, one little-endian field per entry, so a
    row operation is one big-int multiply-add: adding c times the packed
    residues of -u_j.  A field holds its residue plus one product below
    p^2 per earlier row (at most limit) without carrying into the next
    field; a row is read at its own length, reduced mod p.
    """
    width = (2 * p.bit_length() + limit.bit_length()) // 8 + 1
    bits = 8 * width
    mask = (1 << bits) - 1

    def pack(entries):
        return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in entries),
                              "little")

    pivots = []  # (pivot position, -u_j packed, scale s_j, multipliers of u_0..u_{j-1})
    for m in itertools.count():
        if m == len(iterates):
            iterates.append(next(walk))
        n = len(iterates[m])
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
