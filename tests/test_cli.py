import decimal
import json
import sys
from pathlib import Path

import pytest

from coeffcount import cli, oracle
from coeffcount.cli import MAX_EXPONENT_DIGITS, main, parse_field


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


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "qpow", "--field", "2", "--g", "1+x^2+x^5")
    _, out2, _ = run_cli(capsys, "qpow", "--field", "2", "--g", "1+x^2+x^5")
    assert out1 == out2


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["automaton"])  # missing required flags
    assert exc.value.code == 2


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
])
def test_long_exponents_refused_up_front(capsys, monkeypatch, argv, message):
    # refused before any automaton is built or q-power profile fitted
    def never(*args, **kwargs):
        raise AssertionError("the refusal came too late")

    monkeypatch.setattr(cli, "build_automaton", never)
    monkeypatch.setattr(cli.qpow, "fit_qpow_profile", never)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "") and message in err
