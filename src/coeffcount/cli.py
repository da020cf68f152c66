"""Command-line interface.

Every subcommand prints a single JSON object on stdout (keys sorted, big
integers as decimal strings) so identical inputs give byte-identical
output.  Exit codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import closed_forms, lattice, qpow, traveling
from .automaton import DEFAULT_STATE_CAP, AutomatonError, build_automaton
from .ffield import Field, FieldError
from .mpoly import (
    DEFAULT_TERM_BUDGET,
    BudgetError,
    ParseError,
    ZZ,
    dense_coeffs,
    parse_poly,
)
from .oracle import brute_power_census, brute_product_census
from .ratgen import (
    RecurrenceError,
    fit_recurrence,
    fit_repunit_genfun,
    seq_to_genfun,
)

# bound on m in rep:m, the length of a decimal --n and --verify-upto M,
# checked before q^m is formed or a digit walked
MAX_EXPONENT_DIGITS = 20_000


def parse_field(text: str) -> Field:
    """Parse `p` or `p^r[:c0,c1,...,1]` (modulus digits, constant first)."""
    body = text
    modulus = None
    if ":" in body:
        body, mod_text = body.split(":", 1)
        modulus = [int(c) for c in mod_text.split(",")]
    if "^" in body:
        p_text, r_text = body.split("^", 1)
        p, r = int(p_text), int(r_text)
    else:
        p, r = int(body), 1
    return Field(p, r, modulus)


def _json_int(x) -> str:
    return str(int(x))


def _json_gf(gf) -> dict:
    return {"numerator": [str(c) for c in gf.num],
            "denominator": [str(c) for c in gf.den]}


def emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(", ", ": ")))


def _parse_exponent(text: str, q: int) -> int:
    if len(text) > MAX_EXPONENT_DIGITS:
        raise ValueError(f"exponent longer than {MAX_EXPONENT_DIGITS} characters")
    if text.startswith("rep:"):
        m = int(text[4:])
        if m < 0:
            raise ValueError(f"rep:m needs m >= 0, got {m}")
        if m > MAX_EXPONENT_DIGITS:
            raise ValueError(f"rep:m needs m <= {MAX_EXPONENT_DIGITS}, got {m}")
        return (q**m - 1) // (q - 1)
    return int(text)


def cmd_automaton(args) -> int:
    field = parse_field(args.field)
    f = parse_poly(args.poly, args.k, field)
    n = None if args.n is None else _parse_exponent(args.n, field.q)
    prefix = parse_poly(args.prefix, args.k, field) if args.prefix else None
    seeds = [] if prefix is None else [prefix]
    A = build_automaton(f, state_cap=args.state_cap, seeds=seeds)
    out = {"states": A.state_count}
    if n is not None:
        out["n"] = _json_int(n)
        out["count"] = _json_int(A.count(n, args.alpha, prefix=prefix))
    if args.dump_states:
        out["automaton"] = A.to_json_dict()
    emit(out)
    return 0


def cmd_genfun(args) -> int:
    if args.seq:
        seq = [int(v) for v in args.seq.split(",")]
        max_order = (len(seq) - 1) // 2 if args.max_order is None else args.max_order
        rec = fit_recurrence(seq, max_order)
        gf = seq_to_genfun(seq, rec)
    elif args.from_automaton:
        field = parse_field(args.field)
        f = parse_poly(args.from_automaton, args.k, field)
        A = build_automaton(f, state_cap=args.state_cap)
        seq, rec, gf = fit_repunit_genfun(A, args.alpha)
    else:
        raise ValueError("need --seq or --from-automaton")
    emit({
        **_json_gf(gf),
        "recurrence": [str(c) for c in rec.coeffs],
        "order": rec.order,
        "terms": [str(v) for v in seq],
    })
    return 0


def cmd_qpow(args) -> int:
    if (args.verify_upto or 0) > MAX_EXPONENT_DIGITS:
        raise ValueError(f"--verify-upto needs M <= {MAX_EXPONENT_DIGITS}")
    field = parse_field(args.field)
    g = dense_coeffs(parse_poly(args.g, 1, field))
    prof = qpow.fit_qpow_profile(g, field, args.c, args.alpha, args.state_cap)
    out = {
        "d": prof.d,
        "mu": prof.mu,
        "l": prof.l,
        "u": [str(x) for x in prof.u],
        "v": [str(x) for x in prof.v],
    }
    if args.verify_upto is not None:
        counts = qpow.qpow_counts(g, field, args.c, args.alpha, prof.l,
                                  args.verify_upto, args.state_cap)
        out["verified"] = {
            str(m): {"count": _json_int(actual), "matches": prof.predict(m) == actual}
            for m, actual in enumerate(counts, prof.l)
        }
    emit(out)
    return 0


def cmd_closed_form(args) -> int:
    kind = args.kind
    if kind == "lucas":
        emit({"value": closed_forms.lucas_binomial(args.n, args.m, args.p)})
    elif kind == "binom-census":
        census, total = closed_forms.binomial_row_census(args.n, args.p)
        emit({"census": {str(k): _json_int(v) for k, v in sorted(census.items())},
              "total": _json_int(total)})
    elif kind == "prop23":
        out = {"count": _json_int(closed_forms.all_ones_power_count(args.n, args.p))}
        if args.m is not None:
            out["coeff"] = closed_forms.all_ones_power_coeff(args.n, args.m, args.p)
        emit(out)
    elif kind == "omega":
        emit({"runs": closed_forms.run_lengths(args.n),
              "count": _json_int(closed_forms.trinomial_odd_count(args.n))})
    elif kind == "family22":
        m = 2 if args.m is None else args.m
        emit({"count": _json_int(closed_forms.family_count(m, args.n))})
    else:
        raise ValueError(f"unknown closed form {kind!r}")
    return 0


def cmd_lattice(args) -> int:
    kind = args.kind
    if kind == "draconian":
        # the Catalan(n) tuples are built only when they are printed
        emit({"count": _json_int(lattice.draconian_count(args.n)),
              "sequences": ([list(s) for s in lattice.draconian_sequences(args.n)]
                            if args.n <= 6 else "omitted")})
    elif kind == "omega":
        parts = [int(v) for v in args.parts.split(",")]
        emit({"count": _json_int(lattice.distinct_monomial_count(parts))})
    elif kind == "ps":
        ts = [int(v) for v in args.t.split(",")]
        emit({"direct": _json_int(lattice.ps_points_direct(ts)),
              "formula": _json_int(lattice.ps_points_formula(ts))})
    elif kind == "paths":
        emit({mode: _json_int(lattice.shifted_path_count(args.n, args.s, args.tt, mode))
              for mode in ("closed", "Lsum", "Ksum")})
    elif kind == "mrsk":
        ms = [int(v) for v in args.m_vec.split(",")]
        lhs, rhs, eq = lattice.noncrossing_identity(ms)
        emit({"lhs": _json_int(lhs), "rhs": _json_int(rhs), "equal": eq})
    elif kind == "ex433":
        rows = lattice.staircase_grid_report(args.n, args.s)
        emit({"grid": [
            {"n": r[0], "k": r[1], "oracle": _json_int(r[2]),
             "R(n,k)": r[3], "R(n+k,k)": r[4], "weighted": _json_int(r[5])}
            for r in rows
        ]})
    else:
        raise ValueError(f"unknown lattice subcommand {kind!r}")
    return 0


def cmd_traveling(args) -> int:
    kind = args.kind
    if kind == "genfun":
        emit(_json_gf(traveling.traveling_genfun(args.j, args.k)))
    elif kind == "seq":
        emit({"terms": [str(v)
                        for v in traveling.traveling_seq(args.j, args.k, args.terms)]})
    elif kind == "theta":
        emit({"charpoly": [str(c) for c in traveling.theta_charpoly(args.k, args.m)],
              "determinant_path": [
                  str(c) for c in traveling.charpoly(
                      traveling.connectivity_matrix(args.k, args.m))]})
    elif kind == "v-genfun":
        emit(_json_gf(traveling.window_power_genfun(args.k, args.m)))
    elif kind == "d-counts":
        out = {"schroeder": _json_int(traveling.schroeder_sum(args.n))}
        if args.k == 0:
            out["oracle"] = _json_int(traveling.d_count(args.n + 1, 0))
        else:
            out["table"] = [
                {"n": r[0], "nu": _json_int(r[1]), "half": str(r[2]),
                 "direct_index": "None" if r[3] is None else _json_int(r[3]),
                 "shifted_index": "None" if r[4] is None else _json_int(r[4])}
                for r in traveling.duplication_report(args.n)
            ]
        emit(out)
    elif kind == "h-seq":
        emit({"terms": [str(v) for v in traveling.h_seq(args.p, args.terms)]})
    else:
        raise ValueError(f"unknown traveling subcommand {kind!r}")
    return 0


def cmd_oracle(args) -> int:
    ring = parse_field(args.field) if args.field else ZZ
    if args.poly:
        f = parse_poly(args.poly, args.k, ring)
        if not isinstance(ring, Field):
            brute = brute_power_census(f, int(args.n), args.alpha,
                                       budget=args.budget_terms)
            emit({"oracle": _json_int(brute)})
            return 0
        n = _parse_exponent(args.n, ring.q)
        # the automaton refuses a field or an alpha it cannot count with at
        # once, so it counts first, before the slow expansion
        fast = build_automaton(f, state_cap=args.state_cap).count(n, args.alpha)
        brute = brute_power_census(f, n, args.alpha, budget=args.budget_terms)
        verdict = "PASS" if fast == brute else "FAIL"
        print(f"oracle={brute} automaton={fast} {verdict}", file=sys.stderr)
        emit({"oracle": _json_int(brute), "automaton": _json_int(fast),
              "verdict": verdict})
        return 0 if verdict == "PASS" else 1
    if args.factors:
        factors = [parse_poly(t, args.k, ring) for t in args.factors.split(";")]
        N, census = brute_product_census(factors, budget=args.budget_terms)
        emit({"distinct": _json_int(N),
              "census": {str(k): _json_int(v) for k, v in sorted(census.items())}})
        return 0
    raise ValueError("need --poly or --factors")


def cmd_verify(args) -> int:
    from .acceptance import run_suite

    results, ok = run_suite(args.suite)
    for key, clause, cok, detail in results:
        status = "PASS" if cok else "FAIL"
        line = f"{status} [{key}] {clause}"
        if detail and (not cok or args.verbose):
            line += f" -- {detail}"
        print(line, file=sys.stderr)
    emit({"suite": args.suite,
          "passed": sum(1 for r in results if r[2]),
          "failed": sum(1 for r in results if not r[2]),
          "ok": ok})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="coeffcount",
        description="Exact coefficient statistics of polynomial families.",
    )
    top.add_argument("--budget-terms", type=int, default=DEFAULT_TERM_BUDGET,
                     help="sparse term budget for expansions")
    top.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                     help="reachable-state cap for automata")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("automaton", help="digit-automaton coefficient counts")
    p.add_argument("--field", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--k", type=int, default=1, help="number of variables")
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--n", help="exponent, decimal or rep:m")
    p.add_argument("--prefix", help="optional prefix polynomial")
    p.add_argument("--dump-states", action="store_true")
    p.set_defaults(func=cmd_automaton)

    p = sub.add_parser("genfun", help="fit a rational generating function")
    p.add_argument("--seq", help="comma-separated integers; write "
                   "--seq=-1,2,... when the first is negative")
    p.add_argument("--max-order", type=int)
    p.add_argument("--from-automaton", help="polynomial text")
    p.add_argument("--field", default="2")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alpha", type=int, default=1)
    p.set_defaults(func=cmd_genfun)

    p = sub.add_parser("qpow", help="periodic-plus-exponential power profiles")
    p.add_argument("--field", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--verify-upto", type=int)
    p.set_defaults(func=cmd_qpow)

    p = sub.add_parser("closed-form", help="digit-based closed forms")
    p.add_argument("kind", choices=["lucas", "binom-census", "prop23",
                                    "omega", "family22"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=int, default=2)
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("lattice", help="lattice-path and polytope counts")
    p.add_argument("kind", choices=["draconian", "omega", "ps", "paths",
                                    "mrsk", "ex433"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--t", dest="tt", type=int, default=1)
    p.add_argument("--parts", default="")
    p.add_argument("--t-vec", dest="t", default="")
    p.add_argument("--m-vec", default="")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("traveling", help="shifting-block product counts")
    p.add_argument("kind", choices=["genfun", "seq", "theta", "v-genfun",
                                    "d-counts", "h-seq"])
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--terms", type=int, default=10)
    p.set_defaults(func=cmd_traveling)

    p = sub.add_parser("oracle", help="brute-force cross checks")
    p.add_argument("--field", default="")
    p.add_argument("--poly")
    p.add_argument("--factors", help="semicolon-separated factor polynomials")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alpha", type=int, default=1)
    p.add_argument("--n", default="1")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", choices=["minimal", "full"], default="minimal")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_verify)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    digit_cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_cap:  # exact integers: lift Python's int <-> str digit cap
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (FieldError, ParseError, BudgetError, AutomatonError,
            RecurrenceError, qpow.QPowError, lattice.LatticeError,
            traveling.TravelingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if digit_cap:
            sys.set_int_max_str_digits(digit_cap)


if __name__ == "__main__":
    sys.exit(main())
