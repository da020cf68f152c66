"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a PASS/FAIL line for its criterion.  Two printed
reference values are refuted by the exact computations.  They are kept
verbatim, and their own clearly named tests assert exactly where the
certified counts refute them:

  * test_c3_printed_gf_of_family_viii -- the printed cubic generating
    function first differs from the repunit counts at index 6
    (2736 printed, 2728 computed).
  * test_c5_doubling_functional_equation -- the doubling identity fails
    for the trinomial odd-count series at exactly the odd indices and
    holds for the binomial row counts.
"""

from coeffcount import acceptance


def _run(key: str, clauses):
    assert clauses, f"{key}: no clauses selected"
    failed = [(c, d) for c, ok, d in clauses if not ok]
    status = "FAIL" if failed else "PASS"
    descs = {k: d for k, d, _ in acceptance.CRITERIA}
    desc = descs.get(key.split("(")[0], "")
    print(f"ACCEPTANCE {key} {status}: {desc} "
          f"({len(clauses) - len(failed)}/{len(clauses)} clauses)")
    assert not failed, failed


def test_c1_automaton_vs_oracle():
    _run("C1", acceptance.check_c1())


def test_c2_binomial_repunit_powers():
    _run("C2", acceptance.check_c2())


def test_c3_repunit_generating_functions():
    _run("C3", acceptance.check_c3())


def test_c3_printed_gf_of_family_viii():
    """Exact refutation of the printed cubic form of viii at index 6.

    viii = 1+x1^2+x2^2+x1*x2^3 over F_2.  Its repunit counts are 1, 4, 16,
    60, 216, 768, 2728, 9704, 34552, confirmed by the automaton, the
    oracle ladder (n <= 64 covers 2^6 - 1) and a plain GF(2) set
    expansion.  The printed cubic [1,-2,4]/[1,-6,12,-12] expands to
    ..., 768, 2736, 9792: it agrees at indices 0-5 and first differs at
    index 6.  The certified minimal form has order 4,
    [1,-1,2,2]/[1,-5,6,-2,-4].  The clause fails if the printed entry is
    replaced by the fitted form or if any of these counts changes.

    Open: the repository holds only the paper's abstract, so it cannot
    settle whether the paper or its transcription here is wrong;
    agreement on six terms makes a mis-copied polynomial unlikely.
    """
    clauses = [c for c in acceptance.check_c3()
               if c[0] == acceptance.C3_VIII_CLAUSE]
    _run("C3(viii)", clauses)


def test_c3_operator_that_does_not_fit_fails_its_clause(monkeypatch):
    # a wrong printed operator reads FAIL in its own clause; the rest of
    # the criterion still runs
    monkeypatch.setitem(acceptance.C3_OPERATORS, "iv", [1, -6, 8])
    clauses = {c: ok for c, ok, _ in acceptance.check_c3()}
    assert not clauses["fitted GF of iv satisfies the printed operator"]
    assert clauses["fitted GF of v satisfies the printed operator"]
    assert clauses["repunit counts of v4 match the closed form"]


def test_c4_qpow_profiles():
    _run("C4", acceptance.check_c4())


def test_c5_digit_closed_forms():
    _run("C5", acceptance.check_c5())


def test_c5_doubling_functional_equation():
    """Exact refutation of L(z) = (1+2z) L(z^2) for the trinomial series.

    For the odd-coefficient counts of (1+x+x^2)^n the identity fails at
    exactly the odd indices through order 128, starting with
    count(1) = 3 != 2 * count(0): appending a low 1-bit multiplies the
    run product by a factor that depends on the run it extends.  The
    even part count(2m) = count(m) holds.  On the binomial row counts
    2^s(m), taken from the oracle census of (1+x)^m over F_2, the
    identity holds at every index below 128.

    Open: nothing in the repository settles whether the paper states the
    identity for the binomial series or for a different trinomial series.
    """
    clauses = [c for c in acceptance.check_c5()
               if c[0] == acceptance.C5_DOUBLING_CLAUSE]
    _run("C5(doubling)", clauses)


def test_c6_chain_products():
    _run("C6", acceptance.check_c6())


def test_c7_lattice_counts():
    _run("C7", acceptance.check_c7())


def test_c8_traveling_products():
    _run("C8", acceptance.check_c8())


def test_c9_automaton_invariants():
    _run("C9", acceptance.check_c9())


def test_clause_reports_the_first_four_failures():
    # the one failure report of the loop clauses: the first four failing
    # cases, or the clause's own detail when none failed
    assert acceptance._clause("label", []) == ("label", True, "ok")
    assert acceptance._clause("label", [], "9 terms") == ("label", True, "9 terms")
    assert (acceptance._clause("label", [(1, 2), 3, 4, 5, 6], "9 terms")
            == ("label", False, "failed at [(1, 2), 3, 4, 5]"))
