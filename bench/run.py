#!/usr/bin/env python3
"""Benchmark of the coeffcount library: one workload, one seed, one JSON line.

    python3 bench/run.py --workload digit-counts --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ./src.  One
process, one caller, a closed loop: each pass replays the workload's fixed
query list (made from --seed), one call at a time.  Passes repeat until
--seconds have gone (at least MIN_PASSES of them).  Every call's time is
normalized through the reference kernel timed right before and right after
it (see reference.py).  After the passes, untimed, every answer is checked
by computations made apart from the program (checks.py), and later passes
must have returned the same answers as the first.

--trace 0 prints the end-to-end metrics:
  setup_s         median over SETUP_SPAWNS fresh processes of the time from
                  spawn until the first query could run (import, input
                  generation, parsing)
  batch_s         one pass, each query counted at the median of its passes
  latency_p50_ms, latency_p90_ms   over those per-query medians
  peak_rss_mb     peak RSS of this process at the end of the passes
--trace 1 runs half of the time untraced and half with every layer's public
functions wrapped from outside (tracing.py), and prints the per-layer
metrics: per-pass sums (medians over the traced passes), setup.import_ms and
setup.numpy_ms from `python -X importtime`, and trace.overhead_ms (traced
batch_s minus untraced).

Raw and normalized times, reference times and the first traced pass's
spans go to bench/results/<workload>-<seed>-<trace>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

import checks  # noqa: E402  (bench modules sit next to this file)
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS = 9
SETUP_REFERENCE_RUNS = 9
REFERENCE_WARMUP = 30  # reference runs before any is used: the first are slow
MIN_PASSES = 3
MODULES = ("ffield", "mpoly", "unipoly", "automaton", "ratgen", "qpow",
           "lattice", "traveling", "oracle")


class SetupError(RuntimeError):
    pass


def load_program():
    """The coeffcount modules from this checkout's src, never another copy."""
    if not (SRC / "coeffcount" / "__init__.py").is_file():
        raise SetupError(f"no coeffcount package under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"coeffcount.{name}") for name in MODULES}
    origin = Path(mods["ffield"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"coeffcount was imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def prepare(workload, seed, cc):
    """Inputs from the seed, parsed into the program's objects."""
    specs = workloads.generate(workload, seed)
    fields: dict = {}
    return specs, [workloads.bind(spec, cc, fields) for spec in specs]


# -- set-up time -------------------------------------------------------------------


@contextlib.contextmanager
def one_cpu():
    """Run this process, and what it spawns, on one CPU.

    On two CPUs the reference runs in this process and a spawned process
    often ran at different speeds, so the reference did not track the
    spawn; sharing one CPU makes it do so.  The timed passes are not pinned.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def measure_setup(args, ref):
    """Spawn fresh processes that stop once the first query could run; each
    spawn is bracketed by reference runs (medians of SETUP_REFERENCE_RUNS)."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    with one_cpu():
        raw, norm, refs = [], [], [ref.run_median(SETUP_REFERENCE_RUNS)]
        for _ in range(SETUP_SPAWNS):
            start = time.perf_counter()
            with subprocess.Popen(probe, stdout=subprocess.PIPE, cwd=ROOT) as proc:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
                if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
                    raise SetupError("set-up probe failed")
            refs.append(ref.run_median(SETUP_REFERENCE_RUNS))
            raw.append(elapsed)
            norm.append(elapsed * ref.factor(refs[-2], refs[-1]))
    return raw, norm, refs


def measure_importtime(ref):
    """Cumulative import times of coeffcount and numpy in a fresh process, ms."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import coeffcount"
    with one_cpu():
        before = ref.run_median(SETUP_REFERENCE_RUNS)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              capture_output=True, cwd=ROOT, timeout=120, check=True)
        after = ref.run_median(SETUP_REFERENCE_RUNS)
    found = {}
    for line in proc.stderr.decode().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("coeffcount", "numpy"):
            found[parts[2].strip()] = int(parts[1]) / 1e3
    return {
        "setup.import_ms": found["coeffcount"] * ref.factor(before, after),
        "setup.numpy_ms": found.get("numpy", 0.0) * ref.factor(before, after),
    }


# -- timed passes --------------------------------------------------------------------


class Passes:
    """Closed-loop passes over the query list, with their times and answers.

    Answers must equal those of the first pass (or of ``first`` when given).
    """

    def __init__(self, specs, calls, ref, first=None):
        self.specs, self.calls, self.ref = specs, calls, ref
        self.raw = []  # per pass, per query: raw seconds
        self.norm = []  # per pass, per query: normalized seconds
        self.refs = []  # per pass: reference seconds, one more than queries
        self.first = first
        self.mismatches = set()
        self.failed = 0
        self.errors = []

    def run(self, seconds, tracer=None):
        """Whole passes until `seconds` have gone, at least MIN_PASSES; with a
        tracer, the per-layer totals of each pass."""
        start = time.perf_counter()
        totals = []
        while len(self.raw) < MIN_PASSES or time.perf_counter() - start < seconds:
            self.one_pass(tracer)
            if tracer is not None:
                tracer.keep_spans = False  # spans of the first pass only
                totals.append(tracer.take())
        return totals

    def one_pass(self, tracer=None):
        # every pass starts from the same heap: garbage left in reference
        # cycles by earlier passes would otherwise make peak RSS depend on
        # how many passes fit in the run
        gc.collect()
        raw, norm, answers = [], [], []
        refs = [self.ref.run()]
        for i, (spec, call) in enumerate(zip(self.specs, self.calls)):
            if tracer is not None:
                tracer.begin_call(i)
            failure = None
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # a failed query is counted, not fatal
                failure = exc
            t1 = time.perf_counter()
            refs.append(self.ref.run())
            factor = self.ref.factor(refs[-2], refs[-1])
            if tracer is not None:
                tracer.end_call(factor)
            raw.append(t1 - t0)
            norm.append((t1 - t0) * factor)
            if failure is None:
                answers.append(workloads.answer(spec, result))
                del result
            else:
                answers.append(None)
                self.failed += 1
                self.errors.append(f"query {i}: {type(failure).__name__}: {failure}")
        self.raw.append(raw)
        self.norm.append(norm)
        self.refs.append(refs)
        if self.first is None:
            self.first = answers
        else:
            self.mismatches.update(
                i for i, (a, b) in enumerate(zip(self.first, answers)) if a != b)

    def per_query_medians(self):
        return [statistics.median(col) for col in zip(*self.norm)]

    def batch_s(self):
        return sum(self.per_query_medians())

    def record(self):
        return {"raw_s": self.raw, "norm_s": self.norm, "refs_s": self.refs}


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- one run --------------------------------------------------------------------------


def run(args):
    if not (SRC / "coeffcount" / "__init__.py").is_file():
        raise SetupError(f"no coeffcount package under {SRC}")
    ref = reference.Reference(args.workload)
    ref.run_median(REFERENCE_WARMUP)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "r0_s": ref.r0}
    if args.trace:
        layer = measure_importtime(ref)
    else:
        (record["setup_raw_s"], record["setup_norm_s"],
         record["setup_refs_s"]) = measure_setup(args, ref)
    cc = load_program()
    tracer = tracing.Tracer(cc) if args.trace else None
    if tracer is not None:
        tracer.install()
    before = ref.run_median(3)
    t0 = time.perf_counter()
    specs, calls = prepare(args.workload, args.seed, cc)
    record["setup_in_process_raw_s"] = time.perf_counter() - t0
    after = ref.run_median(3)
    if tracer is not None:
        tracer.end_call(ref.factor(before, after))
        parse_ms = tracer.take()["mpoly.parse_ms"]
        tracer.uninstall()

    passes = Passes(specs, calls, ref)
    runs = [passes]
    if tracer is None:
        passes.run(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        meds = passes.per_query_medians()
        metrics = {
            "setup_s": (statistics.median(record["setup_norm_s"]), "s"),
            "batch_s": (sum(meds), "s"),
            "latency_p50_ms": (percentile(meds, 50) * 1e3, "ms"),
            "latency_p90_ms": (percentile(meds, 90) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        passes.run(args.seconds / 2)
        traced = Passes(specs, calls, ref, first=passes.first)
        runs.append(traced)
        tracer.install()
        try:
            per_pass = traced.run(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = {name: (statistics.median(p[name] for p in per_pass), "ms")
                   for name in tracing.TIME_METRICS}
        metrics.update({name: (statistics.median(p[name] for p in per_pass), "count")
                        for name in tracing.COUNT_METRICS})
        metrics["mpoly.parse_ms"] = (parse_ms, "ms")
        metrics.update({name: (value, "ms") for name, value in layer.items()})
        overhead = traced.batch_s() - passes.batch_s()
        metrics["trace.overhead_ms"] = (overhead * 1e3, "ms")
        record["spans"] = tracer.spans

    failures = checks.check_all(specs, passes.first)
    mismatches = sorted(set().union(*(p.mismatches for p in runs)))
    errors = [e for p in runs for e in p.errors]
    result = {
        "correct": not failures and not mismatches,
        "attempted": sum(len(p.raw) for p in runs) * len(specs),
        "failed": sum(p.failed for p in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record.update({
        "queries": len(specs),
        "passes": [dict(p.record(), traced=p is not passes) for p in runs],
        "check_failures": [f"query {i}: {msg}" for i, msg in failures],
        "mismatched_queries": mismatches,
        "errors": errors,
        "result": result,
    })
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-{args.seed}-{args.trace}.json"
    out.write_text(json.dumps(record))
    for line in record["check_failures"][:20] + errors[:20]:
        print(line, file=sys.stderr)
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print 'ready' and exit")
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            prepare(args.workload, args.seed, load_program())
            print("ready", flush=True)
            return 0
        run(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
