"""The benchmark's tracer (bench/tracing.py) wraps library functions by name.

A refactor that renames or drops one of them would only show in a traced
benchmark run; these tests load the tracer read-only and make the same
lookups and calls it makes.
"""

import importlib.util
from pathlib import Path

import coeffcount
from coeffcount import (  # noqa: F401  (targets() reads these package attributes)
    automaton, lattice, mpoly, oracle, qpow, ratgen, traveling, unipoly,
)
from coeffcount.ffield import Field

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    for owner, attr, metric, _ in tracing.targets(coeffcount):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
        assert metric in tracing.TIME_METRICS


def _traced(tracing, call, metric="automaton.digit_steps"):
    tracer = tracing.Tracer(coeffcount)
    tracer.install()
    try:
        call()
        tracer.end_call(1.0)
    finally:
        tracer.uninstall()
    return tracer.take()[metric]


def test_traced_evaluations_walk_each_digit_once():
    tracing = _tracing()
    F2, F3 = Field(2), Field(3)
    # one digit product per census, whatever the field size
    assert _traced(tracing, lambda: qpow.power_census([1, 1], F3, 3**5 - 1)) == 5
    # one walk reads all 3d = 12 counts N(0..11) of g^(2^m - 1)
    assert _traced(
        tracing, lambda: qpow.fit_qpow_profile([1, 1, 1, 1, 1], F2, 1, 1)) == 11
    assert _traced(tracing, lambda: qpow.count_qpow([1, 1, 1], F2, 1, 1, 7)) == 7
    A = automaton.build_automaton(mpoly.parse_poly("1+x1+x2", 2, F2))
    assert _traced(tracing, lambda: A.repunit_counts(1, 6)) == 5
    # the eight zero digits of 2^9 + 1 stop changing the vector off the
    # zero state after one product, so the rest of the run is jumped
    assert _traced(tracing, lambda: A.count(2**9 + 1, 1)) == 3
    # a run with no fixed point still takes one product per digit
    assert _traced(tracing, lambda: A.count(2**10 - 1, 1)) == 10
    assert _traced(tracing, A.krylov_order) == A.krylov_order()


def test_traced_builders_count_one_product_per_factor():
    # a builder that bypassed MultiPoly.mul would read 0 products here, and
    # mpoly.mul_ms would read 0 on the benchmark's product slots; the term
    # pairs and output terms pin the product order: each factor is one
    # product, adjacent factors are multiplied in pairs before the running
    # product, and nested sums go narrowest first
    tracing = _tracing()
    for call, pairs, terms_out in (
            (lambda: traveling.traveling_poly(1, 3, 8), 3564, 3056),
            (lambda: traveling.window_power_poly(4, 2, 2), 942, 678),
            (lambda: lattice.nested_sum_product([6, 5, 4, 3, 2, 1, 1, 1]), 346, 181)):
        assert _traced(tracing, call, "mpoly.mul_calls") == 8
        assert _traced(tracing, call, "mpoly.term_pairs") == pairs
        assert _traced(tracing, call, "mpoly.terms_out") == terms_out
