"""Per-layer spans and counters, recorded by wrapping the program's public
functions from outside.

``Tracer.install`` replaces module and class attributes of coeffcount with
wrappers and ``uninstall`` puts the originals back; the program itself is
never edited.  A span's self time is its duration minus the time its child
spans cover.  Self times collect per call and are converted with that
call's reference factor when the call ends, so per-layer times are
normalized exactly like the end-to-end ones.
"""

from __future__ import annotations

import functools
import time

TIME_METRICS = (
    "automaton.build_ms", "automaton.apply_digit_ms", "automaton.krylov_ms",
    "ratgen.fit_ms", "qpow.census_ms", "qpow.fit_ms", "unipoly.factor_ms",
    "lattice.ballot_ms", "lattice.enum_ms", "mpoly.mul_ms", "mpoly.parse_ms",
    "traveling.ms", "oracle.ms",
)
COUNT_METRICS = (
    "automaton.states", "automaton.transitions", "automaton.digit_steps",
    "automaton.krylov_order", "ratgen.terms", "qpow.census_calls",
    "qpow.dense_coeffs", "lattice.ballot_sequences", "mpoly.mul_calls",
    "mpoly.term_pairs", "mpoly.terms_out", "oracle.peak_terms",
)


def _count_build(c, args, result):
    c["automaton.states"] += result.state_count
    c["automaton.transitions"] += sum(
        len(col) for cols in result.transitions for col in cols)


def _count_step(c, args, result):
    c["automaton.digit_steps"] += 1


def _count_krylov(c, args, result):
    c["automaton.krylov_order"] += result


def _count_fit(c, args, result):
    c["ratgen.terms"] += len(args[0])


def _count_census(c, args, result):
    g, n = args[0], args[2]
    deg = len(g) - 1 if isinstance(g, list) else max(e[0] for e in g.terms)
    c["qpow.census_calls"] += 1
    c["qpow.dense_coeffs"] += deg * n + 1


def _count_enum(c, args, result):
    c["lattice.ballot_sequences"] += len(result)


def _count_mul(c, args, result):
    c["mpoly.mul_calls"] += 1
    c["mpoly.term_pairs"] += len(args[0].terms) * len(args[1].terms)
    c["mpoly.terms_out"] += len(result.terms)


def _count_oracle(c, args, result):
    c["oracle.peak_terms"] = max(c["oracle.peak_terms"], result[0])


def targets(cc):
    """(owner, attribute, time metric, counter) for every wrapped function."""
    a, r, q, u = cc.automaton, cc.ratgen, cc.qpow, cc.unipoly
    lat, m = cc.lattice, cc.mpoly
    auto = a.DigitAutomaton
    return [
        (a, "build_automaton", "automaton.build_ms", _count_build),
        (auto, "apply_digit", "automaton.apply_digit_ms", _count_step),
        (auto, "count", "automaton.apply_digit_ms", None),
        (auto, "repunit_counts", "automaton.apply_digit_ms", None),
        (auto, "krylov_order", "automaton.krylov_ms", _count_krylov),
        (r, "fit_repunit_genfun", "ratgen.fit_ms", None),
        (r, "fit_recurrence", "ratgen.fit_ms", _count_fit),
        (r, "seq_to_genfun", "ratgen.fit_ms", None),
        (q, "count_qpow", "qpow.census_ms", None),
        (q, "power_census", "qpow.census_ms", _count_census),
        (q, "fit_qpow_profile", "qpow.fit_ms", None),
        (q, "splitting_degree", "qpow.fit_ms", None),
        (q, "max_multiplicity", "qpow.fit_ms", None),
        (u, "squarefree_decomposition", "unipoly.factor_ms", None),
        (u, "distinct_degrees", "unipoly.factor_ms", None),
        (u, "radical", "unipoly.factor_ms", None),
        (lat, "distinct_monomial_count", "lattice.ballot_ms", None),
        (lat, "ps_points_formula", "lattice.ballot_ms", None),
        (lat, "shifted_path_count", "lattice.ballot_ms", None),
        (lat, "noncrossing_identity", "lattice.ballot_ms", None),
        (lat, "draconian_sequences", "lattice.enum_ms", _count_enum),
        (lat, "lpath_sequences", "lattice.enum_ms", _count_enum),
        (m.MultiPoly, "mul", "mpoly.mul_ms", _count_mul),
        (m, "parse_poly", "mpoly.parse_ms", None),
        (cc.traveling, "traveling_poly", "traveling.ms", None),
        (cc.traveling, "window_power_poly", "traveling.ms", None),
        (cc.oracle, "brute_product_census", "oracle.ms", _count_oracle),
    ]


class Tracer:
    def __init__(self, cc):
        self.targets = targets(cc)
        self.originals = []
        self.spans = []  # (name, start, end, parent span index, call index)
        self.keep_spans = True
        self.call_index = -1
        self._stack = []  # [span index, time covered by children]
        self._pending = dict.fromkeys(TIME_METRICS, 0.0)  # raw self seconds
        self.times = dict.fromkeys(TIME_METRICS, 0.0)  # normalized ms
        self.counts = dict.fromkeys(COUNT_METRICS, 0)

    def install(self):
        for owner, attr, metric, counter in self.targets:
            fn = getattr(owner, attr)
            self.originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, f"{owner.__name__}.{attr}",
                                            metric, counter))

    def uninstall(self):
        for owner, attr, fn in reversed(self.originals):
            setattr(owner, attr, fn)
        self.originals = []

    def _wrap(self, fn, name, metric, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0.0]
            if tracer.keep_spans:
                tracer.spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer._pending[metric] += duration - frame[1]
                if tracer.keep_spans:
                    tracer.spans[frame[0]] = (name, start, end, parent,
                                              tracer.call_index)
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return wrapper

    def begin_call(self, index: int):
        self.call_index = index

    def end_call(self, factor: float):
        """Fold the call's self times into the totals, at its reference factor."""
        for metric, seconds in self._pending.items():
            if seconds:
                self.times[metric] += seconds * factor * 1e3
                self._pending[metric] = 0.0

    def take(self):
        """Totals since the last take, then reset them."""
        out = dict(self.times)
        out.update(self.counts)
        self.times = dict.fromkeys(TIME_METRICS, 0.0)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        return out
