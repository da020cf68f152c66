"""Integer answers computed modulo 61-bit primes and certified over Z.

A problem whose answer is a list of integers (a linear relation, a
recurrence) is solved modulo one prime at a time.  The residues are
combined by the Chinese remainder theorem and lifted to the symmetric
range (-M/2, M/2], and the lifted integers are accepted only once an
exact check over Z holds, so a prime that reduces the problem badly can
cost time but never changes the answer.  See von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 5 and 6, for the lifting and its bounds.
"""

from __future__ import annotations

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
