"""Exact combinatorial primitives: binomials and their rows, Catalan-family numbers, partitions."""

from __future__ import annotations

from math import comb, factorial


def gbinom(a: int, b: int) -> int:
    """Generalized binomial C(a, b) for any integer a and b >= 0.

    C(a, b) = a(a-1)...(a-b+1)/b!, so gbinom(-1, 0) = 1 and gbinom(-2, 3) = -4.
    A negative b gives 0.
    """
    if b < 0:
        return 0
    if a >= 0:
        return comb(a, b)
    num = 1
    for i in range(b):
        num *= a - i
    return num // factorial(b)


def multichoose(a: int, b: int) -> int:
    """Number of b-multisets drawn from a types: C(a+b-1, b).

    The degenerate cases follow the empty-product convention:
    multichoose(0, 0) = 1 and multichoose(0, b) = 0 for b > 0.
    """
    if a < 0 or b < 0:
        raise ValueError("multichoose needs nonnegative arguments")
    return gbinom(a + b - 1, b)


def binomial_row(x: int, top: int) -> list:
    """[C(x, 0), ..., C(x, top)] for any integer x, by the recurrence
    C(x, k) = C(x, k-1) (x-k+1) / k, each quotient exact: the row of gbinom."""
    row, c = [1], 1
    for k in range(1, top + 1):
        c = c * (x - k + 1) // k
        row.append(c)
    return row


def multichoose_row(x: int, top: int) -> list:
    """[C(x-1, 0), ..., C(x+top-1, top)] for any integer x, by the recurrence
    C(x+k-1, k) = C(x+k-2, k-1) (x+k-1) / k, each quotient exact: the row of
    multichoose for x >= 0, and of gbinom(x+k-1, k) for every x."""
    row, c = [1], 1
    for k in range(1, top + 1):
        c = c * (x + k - 1) // k
        row.append(c)
    return row


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def narayana(n: int, j: int) -> int:
    """Number of Dyck paths on 2n steps with exactly j peaks."""
    if j == 0:
        return 1 if n == 0 else 0
    return comb(n, j - 1) * comb(n - 1, j - 1) // j


def fibonacci(n: int) -> int:
    """F(n) with F(1) = F(2) = 1 and F(0) = 0."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def partitions(n: int):
    """Yield all partitions of n as weakly decreasing tuples (n >= 0)."""

    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for part in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - part, part):
                yield (part,) + tail

    yield from gen(n, n)
