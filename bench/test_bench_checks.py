"""Tests of the benchmark's own checks, inputs and tracer.

Each check must accept the program's real answers and report a failure
when any single number in an answer is off by one.  Runs under pytest from
the repository root (the library is imported from ./src).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from fractions import Fraction

import checks
import run
import tracing
import workloads

CC = run.load_program()


def _answers(specs):
    fields = {}
    return [workloads.answer(s, workloads.bind(s, CC, fields)()) for s in specs]


def _off_by_one(ans):
    """Every copy of ans with exactly one number increased by one."""
    if isinstance(ans, (bool, int, Fraction)):
        yield ans + 1
        return
    for i, item in enumerate(ans):
        for changed in _off_by_one(item):
            yield ans[:i] + (changed,) + ans[i + 1:]


def _assert_checks_catch_off_by_one(specs):
    answers = _answers(specs)
    ctx = checks.Context()
    assert checks.check_all(specs, answers, ctx) == []
    for i, ans in enumerate(answers):
        variants = 0
        for wrong in _off_by_one(ans):
            broken = answers[:i] + [wrong] + answers[i + 1:]
            assert checks.check_all(specs, broken, ctx), (specs[i]["kind"], ans, wrong)
            variants += 1
        assert variants > 0


def test_digit_count_checks_catch_off_by_one():
    specs = workloads.generate("digit-counts", 5)
    # every query of two small families: one over F_4 with k = 1, one over F_5
    wanted = {len(workloads.DIGIT_LARGE) + 19, len(workloads.DIGIT_LARGE) + 23}
    picked = [s for s in specs if s["family"] in wanted]
    assert {s["kind"] for s in picked} == {"few", "all", "gf"}
    _assert_checks_catch_off_by_one(picked)


def test_a_fit_right_only_up_to_f_itself_is_refused(monkeypatch):
    specs = workloads.generate("digit-counts", 5)
    spec = next(s for s in specs if s["kind"] == "gf")
    states, _, _, _, seq = _answers([spec])[0]
    assert seq[2] != 0
    # a polynomial "fit" that matches 1 and f (m = 0, 1) and gives 0 from m = 2 on
    wrong = (states, 2, (seq[0], seq[1]), (1,), (seq[0], seq[1]) + (0,) * (len(seq) - 2))
    errors = checks.check_all([spec], [wrong], checks.Context())
    assert any("repunit count at m = 2" in msg for _, msg in errors), errors
    # when the plain expansion can only reach f itself, the guard must refuse it
    monkeypatch.setattr(workloads, "PLAIN_WORK", workloads.plain_work(spec["terms"], 1))
    errors = checks.check_all([spec], [wrong], checks.Context())
    assert [msg for _, msg in errors] == [
        "no repunit exponent with m >= 2 checked by plain expansion"]


def test_power_law_checks_catch_off_by_one():
    specs = workloads.generate("power-laws", 5)
    picked = [s for s in specs if s["q"] in (2, 7)][::4]
    picked += [s for s in specs if s["q"] == 4][:2]
    assert any(s["primitive"] for s in picked)
    _assert_checks_catch_off_by_one(picked)


def test_lattice_checks_catch_off_by_one():
    specs = workloads.generate("lattice-products", 5)
    picked = {}
    for s in specs:
        if s["kind"] not in picked or s["n"] < picked[s["kind"]]["n"]:
            picked[s["kind"]] = s
    _assert_checks_catch_off_by_one(list(picked.values()))


def test_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        a = workloads.generate(w, 7)
        assert a == workloads.generate(w, 7)
        assert a != workloads.generate(w, 8)
        assert len(a) >= 100


def test_tracer_restores_the_program_and_counts_products():
    mul = CC.mpoly.MultiPoly.mul
    tracer = tracing.Tracer(CC)
    tracer.install()
    try:
        CC.lattice.nested_sum_product([2, 1])
        tracer.end_call(1.0)
    finally:
        tracer.uninstall()
    assert CC.mpoly.MultiPoly.mul is mul
    totals = tracer.take()
    assert totals["mpoly.mul_calls"] == 2
    assert totals["mpoly.term_pairs"] == 1 * 2 + 2 * 1
    assert totals["mpoly.mul_ms"] > 0
    assert all(span is not None for span in tracer.spans)


def test_run_refuses_a_tree_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "power-laws", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / "bench" / "results").exists() or not any(
        (tmp_path / "bench" / "results").iterdir())


def test_a_pass_that_answers_differently_is_caught():
    specs = workloads.generate("lattice-products", 3)[:3]
    fields = {}
    calls = [workloads.bind(s, CC, fields) for s in specs]
    passes = run.Passes(specs, calls, run.reference.Reference("lattice-products"))
    passes.run(0)
    assert not passes.mismatches and passes.failed == 0
    assert len(passes.raw) == run.MIN_PASSES

    answers = iter(range(100))
    calls[1] = lambda: next(answers)
    passes = run.Passes(specs, calls, run.reference.Reference("lattice-products"))
    passes.run(0)
    assert passes.mismatches == {1}
