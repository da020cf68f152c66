"""Fixed reference kernels that normalize every time the benchmark reports.

On a shared machine the speed available to one process drifts by tens of
percent within a minute, and CPU time drifts with wall time, so neither
fastest-of timings nor longer runs cancel it.  Each timed call into the
program is therefore bracketed by a short, fixed, program-free reference
kernel, and its time is reported at the reference's nominal speed:

    normalized = t * R0 / mean(reference time before, reference time after)

The kernel of each workload mixes standard-library loops of the kinds of
work that workload does.  R0 is the nominal time of that mix (its median
on a 2-vCPU x86-64 container, Python 3.11), fixed here once; a
normalized figure is the time the call would take on a machine where the
mix takes R0.  Cyclic GC is paused while the kernel runs.
"""

from __future__ import annotations

import gc
import time

# -- kernels --------------------------------------------------------------------


def small_int_dict(rounds: int) -> int:
    """Interpreter loop updating a dict of small ints (automaton build,
    unipoly, ballot recursion)."""
    d: dict = {}
    get = d.get
    x = 1
    for i in range(rounds):
        x = (x * 5 + i) & 1023
        d[x] = get(x, 0) + (i & 7)
    return len(d)


_BIG = [(7**200 + 13 * j) ** 2 for j in range(48)]


def bigint_madd(rounds: int) -> int:
    """Multiply-add of big ints over lists (digit products, exact
    Berlekamp-Massey, bitmask powers)."""
    out = [0] * len(_BIG)
    for r in range(rounds):
        m = 3 * r + 1
        for j, x in enumerate(_BIG):
            out[j] += m * x
    return out[-1] & 1


_KEYS = [(i % 5, (i // 5) % 4, i // 20) for i in range(60)]
_STEP = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]


def tuple_dict(rounds: int) -> int:
    """Build a dict keyed by exponent tuples (sparse products, also the F_4
    fallback of the q-power census)."""
    total = 0
    for _ in range(rounds):
        out: dict = {}
        for e2 in _STEP:
            for e1 in _KEYS:
                key = tuple(map(sum, zip(e1, e2)))
                out[key] = out.get(key, 0) + 1
        total += len(out)
    return total


class MemoryPass:
    """Copies of a 2 MiB buffer into another (dense numpy kernels).  The
    buffers are made only for the workload that uses this kernel, so they
    add nothing to the other workloads' peak RSS."""

    def __init__(self):
        self.src = bytes(range(256)) * (2 * 4096)
        self.dst = bytearray(len(self.src))

    def __call__(self, rounds: int) -> int:
        for _ in range(rounds):
            self.dst[:] = self.src
        return self.dst[-1]


# -- per-workload mixes -------------------------------------------------------------

# (kernel, rounds) per workload, and R0: the mix's nominal time in seconds.
MIXES = {
    "digit-counts": ([(small_int_dict, 2000), (bigint_madd, 45)], 1.00e-3),
    "power-laws": ([(small_int_dict, 1000), (tuple_dict, 1), (MemoryPass, 1),
                    (bigint_madd, 20)], 1.20e-3),
    "lattice-products": ([(tuple_dict, 2), (small_int_dict, 2000)], 1.20e-3),
}


class Reference:
    """The reference kernel of one workload, and the conversion it gives."""

    def __init__(self, workload: str):
        parts, self.r0 = MIXES[workload]
        self.parts = [(kernel() if isinstance(kernel, type) else kernel, rounds)
                      for kernel, rounds in parts]

    def run(self) -> float:
        """One run of the mix; returns its wall time in seconds."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for kernel, rounds in self.parts:
                kernel(rounds)
            return time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()

    def run_median(self, times: int) -> float:
        runs = sorted(self.run() for _ in range(times))
        return runs[len(runs) // 2]

    def factor(self, before: float, after: float) -> float:
        """What a time measured between these two reference runs is multiplied by."""
        return self.r0 / ((before + after) / 2)
