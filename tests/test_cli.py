import decimal
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import coeffcount
from coeffcount import cli, lattice, oracle, traveling
from coeffcount.cli import MAX_EXPONENT_DIGITS, main, parse_field
from coeffcount.ffield import DEFAULT_MAX_Q


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_field():
    f = parse_field("2")
    assert (f.p, f.r) == (2, 1)
    f = parse_field("2^2")
    assert f.q == 4 and f.modulus == (1, 1, 1)
    f = parse_field("2^3:1,1,0,1")
    assert f.modulus == (1, 1, 0, 1)
    with pytest.raises(Exception):
        parse_field("2^2:1,1,1,1")


def test_automaton_command(capsys):
    code, out, err = run_cli(
        capsys, "automaton", "--field", "2", "--poly", "1+x", "--alpha", "1",
        "--n", "11",
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == "8"


def test_automaton_repunit_and_dump(capsys):
    code, out, _ = run_cli(
        capsys, "automaton", "--field", "2", "--poly", "1+x",
        "--n", "rep:5", "--dump-states",
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == "32"
    assert data["automaton"]["state_count"] == 2
    cols = data["automaton"]["transitions"]
    assert all(sum(m for _, m in col) == 2 for digit in cols for col in digit)


def test_qpow_command(capsys):
    code, out, _ = run_cli(
        capsys, "qpow", "--field", "2", "--g", "1+x^2+x^5", "--c", "1",
        "--alpha", "1", "--verify-upto", "8",
    )
    assert code == 0
    data = json.loads(out)
    assert data["u"] == ["80/31"] * 5
    assert data["v"] == ["-49/31", "-67/31", "-41/31", "11/31", "-9/31"]
    assert all(entry["matches"] for entry in data["verified"].values())


def test_genfun_command(capsys):
    code, out, _ = run_cli(capsys, "genfun", "--seq", "1,3,8,21,55,144,377")
    data = json.loads(out)
    assert code == 0
    assert data["denominator"] == ["1", "-3", "1"]

    code, out, _ = run_cli(
        capsys, "genfun", "--from-automaton", "1+x1+x2+x2^2", "--k", "2",
        "--field", "2",
    )
    data = json.loads(out)
    assert code == 0
    assert data["numerator"] == ["1", "2"]
    assert data["denominator"] == ["1", "-2", "-4"]

    code, out, err = run_cli(capsys, "genfun", "--seq=-1,-2,0,-2,1")
    assert code == 1 and out == ""
    assert err == "error: recurrence coefficient -1/2 is not an integer\n"

    # a first term below zero needs the '=' form: argparse reads a separate
    # value that starts with '-' as an option
    code, out, _ = run_cli(capsys, "genfun", "--seq=-1,-3,-8,-21,-55,-144,-377")
    data = json.loads(out)
    assert code == 0
    assert (data["numerator"], data["denominator"]) == (["-1"], ["1", "-3", "1"])
    with pytest.raises(SystemExit) as exc:
        main(["genfun", "--seq", "-1,-3,-8,-21,-55,-144,-377"])
    assert exc.value.code == 2


def test_oracle_command_pass_and_fail_line(capsys):
    code, out, err = run_cli(
        capsys, "oracle", "--field", "2", "--poly", "1+x1+x2+x1*x2^2",
        "--k", "2", "--n", "7", "--alpha", "1",
    )
    assert code == 0
    assert "PASS" in err
    data = json.loads(out)
    assert data["oracle"] == data["automaton"] == "46"


def test_oracle_refuses_a_ladder_past_the_budget(capsys, monkeypatch):
    # 10^8 products by 1+x exceed the default term budget: refused before
    # the first product, so the command returns at once
    def never(*args, **kwargs):
        raise AssertionError("the ladder started")

    monkeypatch.setattr(oracle, "_mul_packed", never)
    code, out, err = run_cli(capsys, "oracle", "--field", "2", "--poly", "1+x",
                             "--n", "100000000")
    assert (code, out) == (1, "")
    assert err == ("error: 100000000 products by 2 terms exceed the term "
                   "budget 10000000\n")


def test_traveling_k_defaults(capsys):
    # d-counts reads k = 2 when --k is omitted, every other kind k = 3
    for kind in ("genfun", "seq", "v-genfun", "d-counts"):
        k = "2" if kind == "d-counts" else "3"
        _, out, _ = run_cli(capsys, "traveling", kind)
        assert run_cli(capsys, "traveling", kind, "--k", k) == (0, out, "")


@pytest.mark.parametrize("argv, budget", [
    ("traveling d-counts --n 30 --k 2", 1000),
    # d_poly(10, 2) has 27 466 terms
    ("traveling d-counts --n 12 --k 2", 1000),
    ("traveling d-counts --n 12 --k 0", 100),
], ids=["n30", "n12", "k0"])
def test_d_counts_expansions_keep_the_term_budget(capsys, argv, budget):
    code, out, err = run_cli(capsys, "--budget-terms", str(budget), *argv.split())
    assert (code, out) == (1, "")
    assert err == f"error: term budget {budget} exceeded in multiplication\n"


@pytest.mark.parametrize("argv, budget", [
    # the expansions of 1 + x1 + ... + x4 hold at most 5 keys
    ("automaton --field 2 --k 4 --poly 1+x1+x2+x3+x4 --n 5", 3),
    ("lattice ex433 --n 3 --s 2", 10),
    ("verify --suite minimal", 5),
], ids=["automaton", "ex433", "verify"])
def test_every_path_keeps_the_term_budget(capsys, argv, budget):
    code, out, err = run_cli(capsys, "--budget-terms", str(budget), *argv.split())
    assert (code, out) == (1, "")
    assert err == f"error: term budget {budget} exceeded in multiplication\n"


def test_automaton_prefix_past_the_budget_is_refused_by_its_digit_one_product(capsys):
    # digit 0 slices a prefix with no product; the closure's digit-1
    # product of the 12-term prefix still passes a budget of 5
    prefix = "+".join(f"x^{e}" for e in range(12))
    code, out, err = run_cli(capsys, "--budget-terms", "5", "automaton", "--field", "2",
                             "--poly", "1+x", "--prefix", prefix, "--n", "3")
    assert (code, out, err) == (1, "", "error: term budget 5 exceeded in multiplication\n")


@pytest.mark.parametrize("argv", [
    "automaton --field 2 --poly 1 --k -1 --n 2",
    "genfun --from-automaton 1 --k -1",
    "oracle --field 2 --poly 1 --k -1 --n 2",
    "oracle --poly 1 --k -1 --n 2",
    "oracle --factors 1;1 --k -1",
])
def test_negative_k_is_refused(capsys, argv):
    assert run_cli(capsys, *argv.split()) == (
        1, "", "error: k must be nonnegative, got -1\n")


def test_polytope_walk_past_its_cap_is_refused(capsys):
    # t = (1, ..., 12) gives 2.05e14 points; the walk stops at the visit cap
    code, out, err = run_cli(capsys, "lattice", "ps", "--t-vec",
                             ",".join(map(str, range(1, 13))))
    assert (code, out) == (1, "")
    assert err == ("error: a polytope walk over 11 coordinates exceeds "
                   f"{lattice.MAX_WALK_VISITS} visits\n")


@pytest.mark.parametrize("argv, message", [
    (["--field", "257", "--poly", "1+x+x^2", "--n", "4000"],
     "error: automaton supports q <= 256\n"),
    (["--field", "2", "--poly", "1+x1+x2+x1*x2^2", "--k", "2", "--n", "2000",
      "--alpha", "0"],
     "error: alpha must be nonzero; zero-coefficient counts follow from "
     "N + N_0 = number of coefficient slots\n"),
], ids=["q257", "alpha0"])
def test_oracle_refuses_what_the_automaton_refuses_before_the_expansion(
        capsys, monkeypatch, argv, message):
    def never(*args, **kwargs):
        raise AssertionError("the expansion started")

    monkeypatch.setattr(cli, "brute_power_census", never)
    code, out, err = run_cli(capsys, "oracle", *argv)
    assert (code, out, err) == (1, "", message)


def test_oracle_refuses_alpha_zero_over_the_integers(capsys):
    # the census holds nonzero coefficients only, so alpha = 0 read 0 here
    # although 1 + x^2 has a zero coefficient at x
    code, out, err = run_cli(capsys, "oracle", "--poly", "1+x^2", "--n", "1",
                             "--alpha", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: alpha must be nonzero")


def test_oracle_refuses_a_negative_exponent(capsys):
    # over ZZ the exponent is a plain int; f^-1 is refused, not read off f^0
    code, out, err = run_cli(capsys, "oracle", "--poly", "1+x", "--n", "-1")
    assert (code, out, err) == (1, "", "error: negative exponent\n")


def test_oracle_product(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "--factors", "x1;x1+x2;x1+x2+x3", "--k", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["distinct"] == "5"


def test_closed_form_commands(capsys):
    code, out, _ = run_cli(capsys, "closed-form", "omega", "--n", "6039")
    assert code == 0 and json.loads(out)["count"] == "2079"
    code, out, _ = run_cli(capsys, "closed-form", "lucas", "--n", "11",
                           "--m", "5", "--p", "2")
    assert code == 0 and json.loads(out)["value"] == 0
    code, out, _ = run_cli(capsys, "closed-form", "binom-census", "--n", "31",
                           "--p", "2")
    assert json.loads(out)["census"] == {"1": "32"}


def test_lattice_commands(capsys):
    code, out, _ = run_cli(capsys, "lattice", "draconian", "--n", "3")
    assert code == 0 and json.loads(out)["count"] == "5"
    # the count alone, without building the 9.7e6 sequences
    code, out, _ = run_cli(capsys, "lattice", "draconian", "--n", "15")
    assert code == 0 and json.loads(out) == {"count": "9694845",
                                             "sequences": "omitted"}
    code, _, err = run_cli(capsys, "lattice", "draconian", "--n", "16")
    assert code == 1 and "enumeration cap" in err
    code, out, _ = run_cli(capsys, "lattice", "omega", "--parts", "3,2,1")
    assert json.loads(out)["count"] == "5"
    code, out, _ = run_cli(capsys, "lattice", "ps", "--t-vec", "1,1,1")
    data = json.loads(out)
    assert data["direct"] == data["formula"] == "14"
    code, out, _ = run_cli(capsys, "lattice", "mrsk", "--m-vec", "1,2")
    assert json.loads(out)["equal"] is True
    code, out, _ = run_cli(capsys, "lattice", "ex433", "--n", "3", "--s", "2")
    grid = json.loads(out)["grid"]
    assert code == 0 and [(r["n"], r["k"]) for r in grid] == [
        (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
    assert [r["oracle"] for r in grid] == ["1", "1", "3", "4", "18", "30"]
    assert [r["R(n+k,k)"] for r in grid] == [r["oracle"] for r in grid]
    assert [r["R(n,k)"] for r in grid] == ["1", "0", "1", "1", "3", "1"]
    assert [r["weighted"] for r in grid] == ["1", "1", "3", "6", "31", "74"]


def test_traveling_commands(capsys):
    code, out, _ = run_cli(capsys, "traveling", "seq", "--j", "1", "--k", "3",
                           "--terms", "5")
    assert json.loads(out)["terms"] == ["1", "3", "8", "21", "55"]
    code, out, _ = run_cli(capsys, "traveling", "theta", "--k", "2", "--m", "2")
    data = json.loads(out)
    assert data["charpoly"] == data["determinant_path"]
    code, out, _ = run_cli(capsys, "traveling", "v-genfun", "--k", "2", "--m", "2")
    data = json.loads(out)
    assert data["numerator"] == ["1", "1"]
    assert data["denominator"] == ["1", "-5", "3"]
    code, out, _ = run_cli(capsys, "traveling", "d-counts", "--n", "10", "--k", "2")
    data = json.loads(out)
    assert code == 0 and data["schroeder"] == "1037718"
    table = data["table"]
    assert [r["n"] for r in table] == list(range(3, 11))
    assert [r["nu"] for r in table] == ["2", "6", "22", "92", "420", "2042",
                                        "10404", "54954"]
    assert [r["half"] for r in table] == ["1", "3", "11", "46", "210", "1021",
                                          "5202", "27477"]
    assert [r["direct_index"] for r in table] == ["3", "11", "46", "210", "1021",
                                                  "5202", "27466", "149089"]
    assert [r["shifted_index"] for r in table] == ["1", "3", "11", "46", "210",
                                                   "1021", "5202", "27466"]


def test_verify_minimal(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "minimal")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["failed"] == 0
    assert err.count("PASS") == data["passed"]


def test_zero_values_are_not_replaced_by_defaults(capsys):
    code, out, err = run_cli(capsys, "closed-form", "family22", "--n", "3",
                             "--m", "0")
    assert (code, out) == (1, "") and "need k >= 1 and n >= 0" in err
    code, out, err = run_cli(capsys, "genfun", "--seq", "1,3,8,21,55,144,377",
                             "--max-order", "0")
    assert (code, out) == (1, "") and "no recurrence of order <= 0 fits" in err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("automaton_f2_k2_rep6_dump",
     "automaton --field 2 --poly 1+x1+x2+x2^2 --k 2 --n rep:6 --dump-states"),
    ("automaton_f3_n100_alpha2_dump",
     "automaton --field 3 --poly 2+x+x^2 --n 100 --alpha 2 --dump-states"),
    # P * f^n: the prefix's pattern is state 1, right after the pattern of 1
    ("automaton_f3_k2_prefix_n100_alpha2_dump",
     "automaton --field 3 --k 2 --poly 1+x1+2*x2^2 --prefix 1+x2+x1^2 --n 100 "
     "--alpha 2 --dump-states"),
    ("genfun_from_automaton_f2_k2",
     "genfun --from-automaton 1+x1+x2+x2^2 --k 2 --field 2"),
    # 111 states, Krylov order 96, recurrence order 54: the certified
    # modular fit, byte for byte
    ("genfun_from_automaton_f2_k2_111",
     "genfun --from-automaton 1+x1*x2^3+x1^2+x1^2*x2^3+x1^3*x2^2 --k 2 --field 2"),
    ("qpow_f2_quintic_verify10", "qpow --field 2 --g 1+x^2+x^5 --verify-upto 10"),
    # the one prefix walk behind the lattice enumerators, byte for byte
    ("lattice_draconian_n6", "lattice draconian --n 6"),
    ("lattice_ps_0213", "lattice ps --t-vec 0,2,1,3"),
    ("lattice_ex433_n3_s2", "lattice ex433 --n 3 --s 2"),
    # the halves nu_n / 2 as text, the Fraction recurrence of a BM fit over Q,
    # and the oracle's census
    ("traveling_d_counts_n10_k2", "traveling d-counts --n 10 --k 2"),
    ("genfun_seq_fibonacci_bisection", "genfun --seq 1,3,8,21,55,144,377"),
    ("oracle_f3_k3_three_factors",
     "oracle --field 3 --factors 1+x1+x2;1+x2+x3;2+x1*x3 --k 3"),
    # a field past the table limit, on the slow add and mul paths
    ("oracle_f257_two_factors", "oracle --field 257 --factors 1+x;1+2*x"),
    # the largest tabled extension fields, on their discrete-log tables
    ("automaton_f256_n1000", "automaton --field 2^8 --poly 1+x+x^3 --n 1000"),
    ("automaton_f243_n1000", "automaton --field 3^5 --poly 1+x+x^3 --n 1000"),
])
def test_golden_stdout(capsys, name, argv):
    # the state order of a closed automaton, the q-power read-off and the
    # lattice enumerations, byte for byte
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_qpow_honours_state_cap(capsys):
    code, out, err = run_cli(capsys, "--state-cap", "5", "qpow", "--field", "2",
                             "--g", "1+x^2+x^5")
    assert (code, out) == (1, "") and "state cap 5 exceeded" in err


def _random_f2_poly(degree, seed):
    """The text of a random g over F_2 of the given degree with g(0) = 1."""
    rng = random.Random(seed)
    coeffs = [1] + [rng.randrange(2) for _ in range(degree - 1)] + [1]
    return "+".join("1" if e == 0 else f"x^{e}" for e, c in enumerate(coeffs) if c)


@pytest.mark.parametrize("argv, message", [
    # a random degree-200 g splits in degree d = 426 972; its fit ran for
    # minutes in the factoring and the walk
    (["--field", "2", "--g", _random_f2_poly(200, 1)],
     "g of degree 200 exceeds the factoring cap of degree 64"),
    (["--field", "2", "--g", "1+x^65"],
     "g of degree 65 exceeds the factoring cap of degree 64"),
    # no automaton counts over F_257, so factoring g would be wasted
    (["--field", "257", "--g", "1+x+x^3"], "automaton supports q <= 256"),
])
def test_qpow_refuses_before_it_factors(capsys, monkeypatch, argv, message):
    def never(*args, **kwargs):
        raise AssertionError("g was factored")

    monkeypatch.setattr(cli.qpow.unipoly, "squarefree_decomposition", never)
    assert run_cli(capsys, "qpow", *argv) == (1, "", f"error: {message}\n")


def test_qpow_refuses_a_long_walk_before_it_starts(capsys, monkeypatch):
    # the fit of this random degree-50 g used to walk until the state cap stopped it
    def never(*args, **kwargs):
        raise AssertionError("the walk started")

    monkeypatch.setattr(cli.qpow.automaton, "DigitAutomaton", never)
    code, out, err = run_cli(capsys, "qpow", "--field", "2", "--g", _random_f2_poly(50, 1))
    assert (code, out) == (1, "")
    assert err == ("error: the fit would walk 8693 digits (splitting degree d = 2898), "
                   "past the cap of 1000\n")


def test_qpow_caps_admit_their_bounds(capsys, monkeypatch):
    # degree 64 is factored; 1 + x + x^3 walks m = 0 .. 8, so a cap of 8
    # digits admits it and a cap of 7 refuses it
    code, out, _ = run_cli(capsys, "qpow", "--field", "2", "--g", "1+x^64")
    assert code == 0 and json.loads(out)["d"] == 1
    monkeypatch.setattr(cli.qpow, "MAX_FIT_DIGITS", 8)
    code, out, _ = run_cli(capsys, "qpow", "--field", "2", "--g", "1+x+x^3")
    assert code == 0 and json.loads(out)["d"] == 3
    monkeypatch.setattr(cli.qpow, "MAX_FIT_DIGITS", 7)
    assert run_cli(capsys, "qpow", "--field", "2", "--g", "1+x+x^3") == (
        1, "", "error: the fit would walk 8 digits (splitting degree d = 3), "
        "past the cap of 7\n")


def test_oracle_state_cap_bounds_only_the_states_its_count_reaches(capsys):
    # the closure of 1 + x + x^3 over F_2 has 8 states; the walk for n = 5
    # discovers 3, so only the command that prints the closure refuses the cap
    argv = ["--field", "2", "--poly", "1+x+x^3", "--n", "5"]
    code, out, _ = run_cli(capsys, "--state-cap", "3", "oracle", *argv)
    assert code == 0 and json.loads(out)["automaton"] == "9"
    code, out, err = run_cli(capsys, "--state-cap", "3", "automaton", *argv)
    assert (code, out) == (1, "") and "state cap 3 exceeded" in err


def test_genfun_state_cap_bounds_only_the_states_its_fit_reaches(capsys):
    # the closure of this F_3 polynomial has 45 states; the fit's digit-1
    # walk discovers 3 of them
    argv = ["genfun", "--field", "3", "--k", "2",
            "--from-automaton", "2+x1*x2^2+x1^2*x2+x1^2*x2^2"]
    code, out, _ = run_cli(capsys, "--state-cap", "10", *argv)
    data = json.loads(out)
    assert code == 0 and (data["numerator"], data["denominator"]) == (
        ["1", "-3"], ["1", "-6", "8"])
    code, out, err = run_cli(capsys, "--state-cap", "2", *argv)
    assert (code, out, err) == (1, "", "error: state cap 2 exceeded\n")


@pytest.mark.parametrize("argv, points", [
    (["--poly", "1+x^100000000"], 100_000_001),
    (["--k", "2", "--poly", "1+x1^3000*x2^3000"], 3001**2),
])
def test_automaton_refuses_a_box_past_the_cap_before_building_it(capsys, argv, points):
    code, out, err = run_cli(capsys, "automaton", "--field", "2", *argv, "--n", "3")
    assert (code, out) == (1, "")
    assert err == f"error: automaton box of {points} points exceeds 1048576\n"


def test_automaton_refuses_patterns_past_the_byte_cap():
    # the box of 1 + x^1048575 is at the cap and its closure has 2^20 + 1
    # patterns of 1 MiB: the 257th is refused before it is stored.  Without
    # the cap, the child's own address-space limit ends the run with "out of
    # memory" after about 26 s, not a run that takes the machine's memory
    src = os.path.dirname(os.path.dirname(coeffcount.__file__))
    code = ("import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            "from coeffcount.cli import main; "
            "sys.exit(main(['automaton', '--field', '2', '--poly', '1+x^1048575', "
            "'--n', '3']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == ("error: 257 states of 1048576 box points exceed the "
                          "pattern cap of 268435456 bytes\n")


def test_memory_error_is_an_error_line_not_a_traceback(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build_automaton", exhausted)
    code, out, err = run_cli(capsys, "automaton", "--field", "2", "--poly", "1+x")
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "qpow", "--field", "2", "--g", "1+x^2+x^5")
    _, out2, _ = run_cli(capsys, "qpow", "--field", "2", "--g", "1+x^2+x^5")
    assert out1 == out2


def test_usage_error_exit_2():
    for argv in (["automaton"],  # missing required flags
                 # argparse choices refuse an unknown kind before any dispatch
                 ["closed-form", "bogus", "--n", "1"],
                 ["lattice", "bogus"],
                 ["traveling", "bogus"],
                 # genfun and oracle take exactly one of their two inputs
                 ["genfun"],
                 ["genfun", "--seq", "1,2", "--from-automaton", "1+x"],
                 ["oracle"],
                 ["oracle", "--poly", "1+x", "--factors", "1+x;x"],
                 # a product of factors has no exponent and no alpha
                 ["oracle", "--field", "3", "--factors", "1+x;1+2*x", "--n", "7"],
                 ["oracle", "--field", "3", "--factors", "1+x;1+2*x", "--alpha", "2"],
                 # lucas reads --m, which the other closed forms may omit
                 ["closed-form", "lucas", "--n", "5"],
                 # d-counts has a k = 0 and a k = 2 table, nothing else
                 ["traveling", "d-counts", "--k", "3"],
                 ["traveling", "d-counts", "--k", "1"],
                 ["traveling", "d-counts", "--k", "5"],
                 ["traveling", "d-counts", "--k", "-2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("argv, message", [
    (["genfun", "--seq", "1,x"], "--seq entry 2 is not an integer: 'x'"),
    (["genfun", "--seq="], "--seq entry 1 is not an integer: ''"),
    (["lattice", "omega"], "--parts entry 1 is not an integer: ''"),
    (["lattice", "ps", "--t-vec", "1,1.5"], "--t-vec entry 2 is not an integer: '1.5'"),
    (["lattice", "mrsk", "--m-vec", "1,2,a"], "--m-vec entry 3 is not an integer: 'a'"),
    (["automaton", "--field", "2^2:1,x,1", "--poly", "1+x"],
     "--field modulus entry 2 is not an integer: 'x'"),
], ids=["seq", "empty-seq", "parts", "t-vec", "m-vec", "modulus"])
def test_bad_list_entry_named(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_computation_error_exit_1(capsys):
    code, out, err = run_cli(
        capsys, "qpow", "--field", "2", "--g", "x+x^2"
    )
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", ["automaton", "oracle"])
def test_negative_repunit_length_refused(capsys, command):
    # q^m for m < 0 is a float; it is refused before any count starts
    code, out, err = run_cli(capsys, command, "--field", "2", "--poly", "1+x",
                             "--n", "rep:-3")
    assert (code, out) == (1, "")
    assert "rep:m needs m >= 0, got -3" in err


def test_exact_integers_past_the_decimal_digit_cap(capsys):
    # 2^15000 has 4516 decimal digits, past Python's default 4300-digit cap
    # on int <-> str; for f = 1 + x the count is 2^(digit sum of n)
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run_cli(capsys, "automaton", "--field", "2", "--poly", "1+x",
                           "--n", "rep:15000")
    assert code == 0
    with decimal.localcontext() as ctx:
        ctx.prec = 5000
        assert json.loads(out)["count"] == str(decimal.Decimal(2) ** 15000)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


@pytest.mark.parametrize("argv, message", [
    (["automaton", "--field", "2", "--poly", "1+x", "--n",
      f"rep:{MAX_EXPONENT_DIGITS + 1}"], f"rep:m needs m <= {MAX_EXPONENT_DIGITS}"),
    (["automaton", "--field", "2", "--poly", "1+x", "--n",
      "9" * (MAX_EXPONENT_DIGITS + 1)], "exponent longer than"),
    (["qpow", "--field", "2", "--g", "1+x+x^3", "--verify-upto",
      str(10**9)], f"--verify-upto needs M <= {MAX_EXPONENT_DIGITS}"),
    (["qpow", "--field", "2", "--g", "1+x+x^3", "--c",
      "0" * MAX_EXPONENT_DIGITS + "1"], f"--c longer than {MAX_EXPONENT_DIGITS}"),
    # over the integers --n is read by the same bounded parser
    (["oracle", "--poly", "1+x", "--n", "9" * (MAX_EXPONENT_DIGITS + 1)],
     "exponent longer than"),
    (["oracle", "--poly", "1+x", "--n", "rep:3"],
     "--n rep:m needs a field; give --field"),
    (["oracle", "--poly", "1+x", "--n", "3.0"],
     "--n is not an integer or rep:m: '3.0'"),
    (["automaton", "--field", "2", "--poly", "1+x", "--n", "rep:x"],
     "--n is not an integer or rep:m: 'rep:x'"),
])
def test_long_exponents_refused_up_front(capsys, monkeypatch, argv, message):
    # refused before any automaton is built, q-power profile fitted or
    # power expanded
    def never(*args, **kwargs):
        raise AssertionError("the refusal came too late")

    monkeypatch.setattr(cli, "build_automaton", never)
    monkeypatch.setattr(cli.qpow, "fit_qpow_profile", never)
    monkeypatch.setattr(cli, "brute_power_census", never)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and message in err


def test_lattice_paths_refused_before_the_closed_binomial(capsys, monkeypatch):
    # the ballot sums refuse n = 2 * 10^6 under their work cap at once; the
    # closed binomial of that n alone takes seconds
    real = lattice.shifted_path_count

    def sums_first(n, s, t, mode):
        if mode == "closed":
            raise AssertionError("the closed binomial came before the work cap")
        return real(n, s, t, mode)

    monkeypatch.setattr(lattice, "shifted_path_count", sums_first)
    code, out, err = run_cli(capsys, "lattice", "paths", "--n", "2000000")
    assert (code, out) == (1, "")
    assert f"exceeds the work cap {lattice.BALLOT_WORK_CAP}" in err


CAP = traveling.MAX_SEQ_TERMS


@pytest.mark.parametrize("argv, message", [
    (["seq", "--terms", str(CAP + 1)], f"{CAP + 1} terms exceed the cap {CAP}"),
    (["h-seq", "--terms", str(CAP + 1)], f"{CAP + 1} terms exceed the cap {CAP}"),
    (["h-seq", "--p", "100000007"], f"p = 100000007 exceeds the cap {DEFAULT_MAX_Q}"),
])
def test_traveling_sequences_refused_before_they_expand(capsys, monkeypatch, argv,
                                                         message):
    def never(*args):
        raise AssertionError("the refusal came too late")

    for name in ("traveling_genfun", "is_prime"):
        monkeypatch.setattr(traveling, name, never)
    code, out, err = run_cli(capsys, "traveling", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    monkeypatch.undo()
    assert len(traveling.traveling_seq(1, 3, CAP)) == len(traveling.h_seq(2, CAP)) == CAP


def test_h_seq_at_the_largest_p(capsys):
    # the uncleared series takes 3 products a term whatever p is
    code, out, _ = run_cli(capsys, "traveling", "h-seq", "--p", "65521", "--terms",
                           str(CAP))
    terms = json.loads(out)["terms"]
    assert code == 0 and len(terms) == CAP
    assert terms[:9] == [str(v) for v in traveling.h_genfun(65521).expand(9)]


@pytest.mark.parametrize("kind", ["theta", "v-genfun"])
def test_window_matrix_refused_past_its_cap(capsys, monkeypatch, kind):
    def never(*args):
        raise AssertionError("the refusal came too late")

    monkeypatch.setattr(traveling, "theta_charpoly", never)
    code, out, err = run_cli(capsys, "traveling", kind, "--k", "100000", "--m", "3")
    assert (code, out, err) == (
        1, "", f"error: k = 100000 exceeds the cap {traveling.MAX_WINDOW_K}\n")
    monkeypatch.undo()
    k = traveling.MAX_WINDOW_K
    assert len(traveling.connectivity_matrix(k, 3)) == k + 1
    with pytest.raises(traveling.TravelingError, match="exceeds the cap"):
        traveling.connectivity_matrix(k + 1, 3)


@pytest.mark.parametrize("kind", ["theta", "v-genfun"])
def test_window_entries_refused_past_their_bits(capsys, monkeypatch, kind):
    def never(*args):
        raise AssertionError("the refusal came too late")

    monkeypatch.setattr(traveling, "theta_charpoly", never)
    code, out, err = run_cli(capsys, "traveling", kind, "--k", "50", "--m", str(10**30))
    assert (code, out, err) == (
        1, "", "error: entries of up to 5000 bits (k * bitlen(m + k)) "
        f"exceed the cap {traveling.MAX_WINDOW_BITS}\n")
    monkeypatch.undo()
    # the cap admits m + k < 2^(cap // k): m = 10^6 still builds at k = 50
    k = 50
    top = 2**(traveling.MAX_WINDOW_BITS // k) - k - 1
    assert top >= 10**6
    assert len(traveling.connectivity_matrix(k, top)) == k + 1
    with pytest.raises(traveling.TravelingError, match="exceed the cap"):
        traveling.connectivity_matrix(k, top + 1)


def test_qpow_c_at_the_length_bound(capsys):
    # MAX_EXPONENT_DIGITS characters are read; leading zeros keep c = 1 cheap
    code, out, _ = run_cli(capsys, "qpow", "--field", "2", "--g", "1+x+x^3", "--c",
                           "0" * (MAX_EXPONENT_DIGITS - 1) + "1")
    assert code == 0 and json.loads(out)["l"] == 0
    code, out, err = run_cli(capsys, "qpow", "--field", "2", "--g", "1+x+x^3",
                             "--c", "1.5")
    assert (code, out) == (1, "") and "--c is not an integer: '1.5'" in err


def _power_mod(base, n, p):
    """Dense coefficients of base(x)^n mod p, by n schoolbook products."""
    out = [1]
    for _ in range(n):
        prod = [0] * (len(out) + len(base) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(base):
                prod[i + j] = (prod[i + j] + a * b) % p
        out = prod
    return out


def _chain_count(n, p):
    """Nonzero coefficients of prod_{i<=n} (1 + x_i + x_{i+1}) over F_p."""
    terms = {(0,) * (n + 1): 1}
    for i in range(n):
        prod = {}
        for e, c in terms.items():
            for var in (None, i, i + 1):
                e2 = e if var is None else e[:var] + (e[var] + 1,) + e[var + 1:]
                prod[e2] = (prod.get(e2, 0) + c) % p
        terms = prod
    return sum(1 for c in terms.values() if c)


def _schroeder(n):
    """Large Schroeder numbers by S(m) = S(m-1) + sum_k S(k) S(m-1-k)."""
    s = [1]
    for m in range(1, n + 1):
        s.append(s[m - 1] + sum(s[k] * s[m - 1 - k] for k in range(m)))
    return s[n]


def _series(num, den, terms):
    """The first terms of num / den as a power series, den[0] = 1."""
    out = []
    for i in range(terms):
        c = (num[i] if i < len(num) else 0) - sum(
            den[j] * out[i - j] for j in range(1, min(i, len(den) - 1) + 1))
        out.append(c)
    return out


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("argv, check", [
    # the nonzero coefficients of (1 + x + x^2)^5 mod 3, and its x^4 one
    ("closed-form prop23 --n 5 --p 3",
     lambda out, err: out == {"count": str(sum(map(bool, _power_mod([1, 1, 1], 5, 3))))}),
    ("closed-form prop23 --n 5 --m 4 --p 3",
     lambda out, err: out["coeff"] == _power_mod([1, 1, 1], 5, 3)[4]),
    # paths to (5, 2) under the staircase with columns 2 and 4 for the
    # first and second up step: the up steps' columns, enumerated
    ("lattice paths --n 3 --s 2 --t 1",
     lambda out, err: set(out.values()) == {str(sum(
         1 for xs in itertools.combinations_with_replacement(range(6), 2)
         if xs[0] >= 2 and xs[1] >= 4))}),
    # the (1, 3) traveling counts are F(2n + 2)
    ("traveling genfun --j 1 --k 3",
     lambda out, err: _series([int(c) for c in out["numerator"]],
                              [int(c) for c in out["denominator"]], 8)
     == [_fibonacci(2 * n + 2) for n in range(8)]),
    ("traveling h-seq --p 3 --terms 6",
     lambda out, err: out["terms"] == [str(_chain_count(n, 3)) for n in range(6)]),
    ("traveling d-counts --n 5 --k 0",
     lambda out, err: out == {"schroeder": str(_schroeder(5)),
                              "oracle": str(_schroeder(5))}),
    # over the integers: the multinomial coefficients of (1 + x1 + x2)^3 equal to 3
    ("oracle --poly 1+x1+x2 --k 2 --n 3 --alpha 3",
     lambda out, err: out["oracle"] == str(sum(
         1 for a in range(4) for b in range(4 - a)
         if math.factorial(3) // (math.factorial(a) * math.factorial(b)
                                  * math.factorial(3 - a - b)) == 3))),
    # the worked example 1 + x over F_2 has the patterns of 1 and of 0
    ("verify --suite full --verbose",
     lambda out, err: out["passed"] == err.count("PASS ") and
     "PASS [C1] automaton = oracle for w (n <= 64, all alpha) -- 2 states\n" in err),
], ids=["prop23", "prop23-m", "paths", "traveling-genfun", "h-seq",
        "d-counts-k0", "oracle-integers", "verify-verbose"])
def test_remaining_cli_branches(capsys, argv, check):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0
    assert check(json.loads(out), err)


LONG_N = "9" * (MAX_EXPONENT_DIGITS + 1)


@pytest.mark.parametrize("argv, message", [
    ("binom-census --n " + LONG_N, f"--n longer than {MAX_EXPONENT_DIGITS} characters"),
    ("lucas --n 5 --m " + LONG_N, f"--m longer than {MAX_EXPONENT_DIGITS} characters"),
    ("omega --n 1.5", "--n is not an integer: '1.5'"),
    ("prop23 --n 5 --m x", "--m is not an integer: 'x'"),
    (f"family22 --n {MAX_EXPONENT_DIGITS + 1}",
     f"family22 needs --n and --m <= {MAX_EXPONENT_DIGITS}"),
    (f"family22 --n 3 --m {MAX_EXPONENT_DIGITS + 1}",
     f"family22 needs --n and --m <= {MAX_EXPONENT_DIGITS}"),
], ids=["long-n", "long-m", "non-integer-n", "non-integer-m", "family-n", "family-k"])
def test_closed_form_bounds_its_integers_before_computing(capsys, monkeypatch, argv,
                                                          message):
    # the digit loops grow as the square of the length of n, and
    # k (k + 1)^n has about n log k digits: each is refused before it runs
    def never(*args):
        raise AssertionError("the closed form ran")

    for name in ("lucas_binomial", "binomial_row_census", "all_ones_power_count",
                 "all_ones_power_coeff", "run_lengths", "trinomial_odd_count",
                 "family_count"):
        monkeypatch.setattr(cli.closed_forms, name, never)
    code, out, err = run_cli(capsys, "closed-form", *argv.split())
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_closed_form_answers_at_the_longest_n(capsys):
    # a 20 000-digit n; its base-p digits take seconds only for a small p
    digits, p = MAX_EXPONENT_DIGITS, 1000003
    code, out, _ = run_cli(capsys, "closed-form", "lucas", "--n", "9" * digits,
                           "--m", "5", "--p", str(p))
    assert code == 0 and json.loads(out) == {"value": math.comb(10**digits - 1, 5) % p}
    # family22 at the largest n: 2 * 3^n - 2^n has 9543 digits
    code, out, _ = run_cli(capsys, "closed-form", "family22", "--n", str(digits))
    assert code == 0
    with decimal.localcontext() as ctx:
        ctx.prec = 10_000
        want = 2 * decimal.Decimal(3) ** digits - decimal.Decimal(2) ** digits
        assert json.loads(out) == {"count": str(want)}


@pytest.mark.parametrize("k", ["0", "2"])
def test_d_counts_expand_before_the_closed_sums(capsys, monkeypatch, k):
    # the expansions refuse n = 8000 under a 100-term budget at once; the
    # Schroeder sum and nu of that n alone take seconds
    def never(*args):
        raise AssertionError("a closed sum ran before the expansions")

    monkeypatch.setattr(traveling, "schroeder_sum", never)
    monkeypatch.setattr(traveling, "nu_sequence", never)
    code, out, err = run_cli(capsys, "--budget-terms", "100", "traveling", "d-counts",
                             "--k", k, "--n", "8000")
    assert (code, out) == (1, "")
    assert err == "error: term budget 100 exceeded in multiplication\n"
