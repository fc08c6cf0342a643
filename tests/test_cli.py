import dataclasses
import hashlib
import json
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import uqtail
from uqtail import (Model, UnstableParameters, __version__, asymptotics, characteristic_roots,
                    cli, make_params, params_from_dict, qbd, simulate, stationary_table, verify)
from uqtail.cli import build_parser, main

from reference import FULL_RANGE_DIGITS, R_DOWN_DOWN_ONE, model1, relative_error

A_FLAGS = ["--lambda", "10", "--mu", "11", "--alpha", "0.1", "--beta", "10"]
T2_FLAGS = ["--lambda", "10", "--mu", "30", "--alpha", "0.1", "--beta", "10"]


def test_analyze_report(tmp_path, capsys):
    code = main(["analyze", *A_FLAGS, "--model", "model1", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "analyze.json").read_text())
    assert abs(report["spectral"]["gamma_p"] - 0.919060) < 1e-6
    assert report["stability"]["stable"] is True
    assert report["meta"]["params"]["lambda"] == 10
    assert report["tail"]["provenance"] == "closed-form"
    # floats carry 17 significant digits
    raw = (tmp_path / "analyze.json").read_text()
    assert "0.91905976022190983" in raw


def test_analyze_model2_exact_eta(tmp_path):
    code = main(["analyze", "--lambda", "1", "--mu", "50", "--alpha", "1.9",
                 "--beta", "0.6", "--model", "model2", "--out", str(tmp_path)])
    assert code == 0
    tail = json.loads((tmp_path / "analyze.json").read_text())["tail"]
    assert tail["provenance"] == "closed-form+qbd"
    assert abs(tail["eta"] / 0.0376655319 - 1) <= 1e-6


@pytest.mark.parametrize("rates,message", [
    # every weight in the gate's window is clipped to 0: say so, not "ratios []"
    (("1", "50", "1e-6", "0.6"), "no positive weight at y = 51..59"),
    # weights at the solve's noise floor rise again (T2)
    (("10", "30", "0.1", "10"), "not decreasing geometrically: ratios [1.0068"),
], ids=["all-zero-window", "rising-window"])
def test_analyze_model2_eta_gate_message(tmp_path, capsys, rates, message):
    flags = [v for pair in zip(["--lambda", "--mu", "--alpha", "--beta"], rates) for v in pair]
    assert main(["analyze", *flags, "--model", "model2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "ratios []" not in err


def test_analyze_with_limits(tmp_path):
    code = main(["analyze", *A_FLAGS, "--limits", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "analyze.json").read_text())
    assert report["alpha_limits"]["case"] == "service_below_lam_beta"
    limits = report["alpha_limits"]
    assert limits["alpha_eval"] == 1e-6
    assert limits["prefactor_up_at_eval"] > 0.0
    assert 0.0 <= limits["prefactor_up_limit_gap"] <= 1e-5


def test_params_file_input(tmp_path):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"lambda": 10, "mu": 11, "alpha": 0.1,
                               "beta": 10, "model": "model1"}))
    code = main(["analyze", "--params", str(cfg), "--out", str(tmp_path)])
    assert code == 0


def test_validation_error_exit_code(capsys):
    code = main(["analyze", "--lambda", "-5", "--mu", "11", "--alpha", "0.1",
                 "--beta", "10"])
    assert code == 1
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("content,message", [
    (None, "cannot read --params file"),
    ('{"lambda": 10 "mu": 11}', "malformed parameter JSON: Expecting ',' delimiter"),
    ('{"lambda": 10, "mu": 11, "alpha": 0.1}', "missing parameter(s): beta"),
    ('{"mu": 11, "alpha": 0.1, "beta": 10}', "missing parameter(s): lambda"),
    ("[10, 11, 0.1, 10]", "parameters must be a JSON object, got list"),
    ('{"lambda": 10, "mu": "11", "alpha": 0.1, "beta": 10}', "mu must be a number"),
    ('{"lambda": 10, "mu": 11, "alpha": 0.1, "beta": 10, "model": "m3"}', "model must be one of"),
], ids=["missing-file", "malformed-json", "missing-key", "missing-lambda", "json-list",
        "string-rate", "unknown-model"])
def test_params_file_errors_are_validation_errors(tmp_path, capsys, content, message):
    cfg = tmp_path / "params.json"
    if content is not None:
        cfg.write_text(content)
    assert main(["analyze", "--params", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and message in err


@pytest.mark.parametrize("flag,value", [
    ("--lambda", "inf"), ("--mu", "inf"), ("--alpha", "inf"), ("--beta", "inf"),
    ("--C", "inf"), ("--C", "nan")])
def test_non_finite_inputs_are_validation_errors(tmp_path, capsys, flag, value):
    flags = dict(zip(A_FLAGS[::2], A_FLAGS[1::2])) | {flag: value}
    argv = [v for pair in flags.items() for v in pair]
    for verb in ("analyze", "compare-mm1"):
        assert main([verb, *argv, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and "must be finite" in err


@pytest.mark.parametrize("verb,flags", [
    ("analyze", []), ("compare-mm1", []), ("simulate", ["--steps", "100"]),
    ("tailfit", ["--kmin", "0", "--kmax", "10"])])
def test_c_far_below_tiny_rates_is_a_validation_error(tmp_path, capsys, verb, flags):
    # C is 60 times below the rate sum 6e-300: the bound is relative to the sum
    argv = [verb, *_rate_flags("1e-300", "3e-300", "1e-300", "1e-300"), "--C", "1e-301", *flags]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        "validation error: C below lambda+mu+alpha+beta: 1e-301 < 6e-300\n"
    assert not (tmp_path / "out").exists()


def _rate_flags(lam, mu, alpha, beta):
    return ["--lambda", lam, "--mu", mu, "--alpha", alpha, "--beta", beta]


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-finite token {token}")
    return json.loads(text, parse_constant=refuse)


ROOTS_AT_5E_324 = ("the larger root t1 overflows at lambda = 5e-324, so the smaller root t2 "
                   "underflows to 0")


@pytest.mark.parametrize("argv,message", [
    # RS-RD off stability: lambda/(mu p) overflows
    (["analyze", *_rate_flags("1e150", "1e-300", "1", "1"), "--model", "rsrd"],
     "product_form_rate is inf"),
    # lambda = 5e-324 overflows t1, and t2 = mu p (lam + beta) / (lam (lam t1)) with it
    (["compare-mm1", *_rate_flags("5e-324", "10", "3", "3")], ROOTS_AT_5E_324),
    (["analyze", *_rate_flags("5e-324", "10", "3", "3"), "--model", "model2", "--p", "0.5"],
     ROOTS_AT_5E_324),
], ids=["rsrd-rate", "compare-gamma", "tandem-root"])
def test_non_finite_results_are_refused_by_name(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"verification failure: {message}\n"
    assert captured.out == "" and not out.exists()


def test_light_load_tandem_refuses_overflowing_eta_weights_before_the_solve(tmp_path, capsys,
                                                                           monkeypatch):
    # t2 = 9.4e300 here, so h(0, y, sigma) = t2^y (times a weight) overflows from y = 2
    def no_solve(*args, **kwargs):
        raise AssertionError("the truncated solve ran")

    monkeypatch.setattr(asymptotics, "truncated_stationary", no_solve)
    out = tmp_path / "out"
    argv = ["analyze", *_rate_flags("1e-300", "11", "0.1", "10"), "--model", "model2"]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "verification failure: eta's boundary weights: h(0, y, sigma), a multiple of t2^y, "
        "overflows from y = 2, t2 = 9.408728778948666e+300\n")
    assert "(34" not in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("rates,y,t2", [
    (("1e-5", "30", "0.1", "10"), 52, "995038.1219877049"),   # t2^y overflows
    (("1e-5", "1e5", "1e-300", "1e-5"), 12, "1.9999999999999996"),   # t2^y times w does
], ids=["power", "down-weight"])
def test_overflowing_eta_weights_are_refused_by_one_line(tmp_path, capsys, rates, y, t2):
    out = tmp_path / "out"
    assert main(["analyze", *_rate_flags(*rates), "--model", "model2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "verification failure: eta's boundary weights: h(0, y, sigma), a multiple of t2^y, "
        f"overflows from y = {y}, t2 = {t2}\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # mu p (lambda + beta) overflows, so t2 is inf and 1 / t2 would read gamma_1 = 0
    ["compare-mm1", *_rate_flags("0.5", "1e300", "0.5", "1e300")],
    ["analyze", *_rate_flags("0.5", "1e300", "0.5", "1e300")],
    # SuperLU finds the truncated lattice singular and returns NaN
    ["tailfit", *_rate_flags("5e-324", "1e-300", "1e-160", "1e-160"), "--model", "model2",
     "--p", "0.5", "--kmin", "20", "--kmax", "35", "--xmax", "40"],
    ["analyze", *_rate_flags("0.1", "10", "1e150", "1e150"), "--model", "model2"],
    # h(0, y, Down) = t2^y times the Down weight is inf from y = 12
    ["analyze", *_rate_flags("1e-5", "1e5", "1e-300", "1e-5"), "--model", "model2"],
    # den underflows to 3e-323, so the Down weight 2 beta / den is inf
    ["analyze", *_rate_flags("1", "2", "5e-324", "0.5")],
    ["analyze", *_rate_flags("1", "2", "5e-324", "0.5"), "--model", "model2"],
], ids=["compare-t2-inf", "analyze-t2-inf", "tailfit-singular", "eta-singular",
        "eta-h-inf", "model1-down-weight", "tandem-down-weight"])
def test_extreme_rates_are_reported_or_refused_by_name(tmp_path, capsys, argv):
    code = main([*argv, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    if code == 0:
        assert _strict_json(captured.out).get("comparison", {}).get("gamma_1") != 0
    else:
        line, *rest = captured.err.splitlines()
        assert not rest and "nan" not in line
        assert line.startswith(("validation error: ", "verification failure: ",
                                "non-convergence: "))


def test_full_range_rates_never_end_in_the_raw_overflow_text(tmp_path, capsys):
    # stable sets with rates log-uniform on [1e-300, 1e300]: the roots' square of a float
    # raised OverflowError, printed as "(34, 'Numerical result out of range')"
    rates = 10.0 ** np.random.default_rng(1).uniform(-300.0, 300.0, (400, 4))
    lam, mu, alpha, beta = rates.T
    lines = []
    for row in rates[lam < beta / (alpha + beta) * mu].tolist():
        for verb in ("analyze", "compare-mm1"):
            main([verb, *_rate_flags(*map(repr, row)), "--out", str(tmp_path)])
            lines += capsys.readouterr().err.splitlines()
    assert not [line for line in lines if "Numerical result out of range" in line]
    # a float's / 0.0 raised ZeroDivisionError, and np.linalg.solve a singular I - R
    assert not [line for line in lines
                if "float division by zero" in line or "Singular matrix" in line]
    assert any(line.startswith("verification failure: the larger root t1 overflows at lambda = ")
               for line in lines)


def test_compare_mm1_reads_gamma_1_where_g_constant_divides_by_zero(tmp_path, capsys):
    # den underflows to 0, so g = den / 2 + 2 alpha beta / den is NaN; compare-mm1 does not
    # read it
    argv = ["compare-mm1", *_rate_flags("1e-10", "1", "1e-320", "1e-10")]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert _strict_json(capsys.readouterr().out)["comparison"]["gamma_1"] == 0.5


@pytest.mark.parametrize("verb", ["analyze", "compare-mm1"])
def test_all_tiny_rates_are_refused_by_the_t2_line(tmp_path, capsys, verb):
    # mu p (lambda + beta) underflows to 0 and so does lambda (lambda t1): t2 = 0 / 0
    out = tmp_path / "out"
    argv = [verb, *_rate_flags("1e-300", "3e-300", "1e-300", "1e-300"), "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ("verification failure: the smaller root t2 is not finite at "
                            "lambda = 1e-300\n")
    assert captured.out == "" and not out.exists()


def test_a_gamma_1_that_rounds_to_one_is_refused_by_name(tmp_path, capsys):
    # corpus [-12, 12]'s one refusal: t2 rounds to 1, where the first-passage gate read row
    # sums of 1; 1 - gamma_1 comes from the margin, the reference's 1.2705209461904292936e-19
    # correctly rounded
    out = tmp_path / "out"
    rates = ("1889625955.757112", "75854362631.67838", "2.1946771549898966e-11",
             "2.406416243864212e-10")
    assert main(["analyze", *_rate_flags(*rates), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("verification failure: the decay rate gamma_1 = 1/t2 rounds to 1.0: "
                            "1 - gamma_1 = (t2 - 1)/t2 = 1.2705209461904292e-19\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("rates, line", [
    (("1889625955.757112", "75854362631.67838", "2.1946771549898966e-11",
      "2.406416243864212e-10"), "rounds to 1.0: 1 - gamma_1 = (t2 - 1)/t2 = 1.2705209461904292e-19"),
    (("2.954180677686959e+71", "1.9836669038071927e+72", "1.8382526609313418e-39",
      "9.424290740222482e-26"),
     "rounds to 1.0000000000000002: 1 - gamma_1 = (t2 - 1)/t2 = 3.190153808602326e-97"),
], ids=["rounds-to-1", "rounds-above-1"])
def test_compare_mm1_refuses_a_gamma_1_that_rounds_to_one_as_analyze_does(tmp_path, capsys,
                                                                          rates, line):
    # compare-mm1 printed "gamma_1": 1.0000000000000002 on the second set of the seed-1
    # full-range corpus, a decay rate above 1, and exited 0
    for verb in ("compare-mm1", "analyze"):
        out = tmp_path / verb
        assert main([verb, *_rate_flags(*rates), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"verification failure: the decay rate gamma_1 = 1/t2 {line}\n"
        assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("rates", R_DOWN_DOWN_ONE, ids=["rdd-1", "rdd-2", "rdd-3"])
def test_an_r_whose_down_down_entry_rounds_to_one_is_analyzed(tmp_path, capsys, rates):
    # R's Down->Down entry rounds to 1: np.linalg.solve raised "Singular matrix" on the first
    # set, and pi0 came out negative on the other two; phi(Up) underflows on the first
    assert main(["analyze", *_rate_flags(*map(repr, rates)), "--out", str(tmp_path)]) == 0
    report = _strict_json(capsys.readouterr().out)
    ref = model1(*rates, report["meta"]["params"]["C"], digits=FULL_RANGE_DIGITS)
    tail, twist = report["tail"], report["twist"]
    fields = [(report["spectral"]["t1"], ref["t1"]), (report["spectral"]["t2"], ref["t2"]),
              (tail["gamma"], ref["gamma1"]), (tail["secondary_gamma"], ref["gamma2"]),
              (tail["eta"], ref["eta"]), (twist["drift"]["value"], ref["drift"]),
              (twist["harmonic"]["down_weight"], ref["w"]),
              *zip(twist["phi"], ref["phi"]), *zip((tail["escape_up"], tail["escape_down"]),
                                                   ref["escape"]),
              *zip((tail["prefactor_up"], tail["prefactor_down"]), ref["prefactor"])]
    # a value below the doubles' range is right as its rounding, 0
    assert [value == float(exact) or relative_error(value, exact) <= Decimal("1e-13")
            for value, exact in fields] == [True] * len(fields)


@pytest.mark.parametrize("key", ["lambda", "C"])
def test_a_json_integer_past_the_double_range_is_a_validation_error(tmp_path, capsys, key):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"lambda": 10, "mu": 11, "alpha": 0.1, "beta": 10,
                               key: 10 ** 400}))
    for verb in ("analyze", "compare-mm1"):
        assert main([verb, "--params", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (f"validation error: {key} must be finite, got an "
                                           "integer too large for a double\n")


# A, B, the g_constant and all-tiny sets above, an R whose Down->Down entry rounds to 1 and a
# Down weight 2 beta / den that overflows
PARITY_SETS = [(10.0, 11.0, 0.1, 10.0), (20.0, 60.0, 0.01, 1.0), (1e-10, 1.0, 1e-320, 1e-10),
               (1e-300, 3e-300, 1e-300, 1e-300),
               (413144996.53554803, 3.122865155414661e+147, 1.7913480599226823e-151,
                4.335403015718224e-98), (1.0, 2.0, 5e-324, 0.5)]


@pytest.mark.parametrize("rates", PARITY_SETS, ids=["A", "B", "g-constant", "all-tiny",
                                                    "singular-r", "down-weight"])
def test_a_set_gives_one_outcome_from_floats_and_numpy_floats(rates):
    def outcomes(number):
        params = make_params(*map(number, rates))
        for call in (asymptotics.prefactors, asymptotics.mm1_comparison):
            try:
                yield cli._dump(call(params))
            except ArithmeticError as exc:
                yield type(exc).__name__, str(exc)

    assert list(outcomes(float)) == list(outcomes(np.float64))


@pytest.mark.parametrize("argv", [
    ["analyze", *_rate_flags("3", "1e150", "0.1", "10"), "--model", "model2"],
    ["tailfit", *_rate_flags("3", "1e150", "0.1", "10"), "--model", "model2", "--p", "0.5",
     "--kmin", "20", "--kmax", "35", "--xmax", "40"],
], ids=["analyze", "tailfit"])
def test_lattice_refuses_a_self_loop_that_rounds_to_one(tmp_path, capsys, argv):
    # lambda/C and alpha/C are below 1's rounding at C = 2e150: 122 states of analyze's
    # 60 x 60 lattice and 82 of tailfit's 40 x 40 keep a self-loop of exactly 1, whose
    # outflow P^T - I cannot see
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "verification failure: lattice state (0, 0, 0) keeps a self-loop of exactly 1: its "
        "exit mass 1.55e-150 (its other moves, summed) is lost against 1 at C = 2e+150\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", *A_FLAGS],
    ["analyze", *A_FLAGS, "--limits"],
    ["analyze", *_rate_flags("20", "60", "0.01", "1")],
    ["analyze", *T2_FLAGS, "--model", "model2", "--p", "0.5"],
    ["analyze", *T2_FLAGS, "--model", "rsrd", "--p", "0.5"],
    # b - sqrt(s) is 0 in floats here: the twist's den_minus needs its identity
    ["analyze", *_rate_flags("3", "1e150", "0.1", "10")],
    ["compare-mm1", *A_FLAGS],
    ["compare-mm1", *T2_FLAGS, "--model", "model2", "--p", "0.5"],
    # lam^2 is 0 in floats here: t2 reads lam (lam t1) instead
    ["analyze", *_rate_flags("1e-300", "11", "0.1", "10")],
], ids=["A", "A-limits", "B", "T2-p0.5", "rsrd", "mu-1e150", "compare-A", "compare-T2",
        "lambda-1e-300"])
def test_reports_are_strict_json(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    written = next(tmp_path.glob("*.json")).read_text()
    assert _strict_json(written) == _strict_json(capsys.readouterr().out)


def test_dump_names_the_path_of_a_non_finite_float():
    report = {"tail": {"ratios": (0.5, np.float64("-inf"))}}
    with pytest.raises(ArithmeticError, match=r"^tail\.ratios\[1\] is -inf$"):
        cli._dump(report)
    text = cli._dump({"gamma": np.float32(0.5), "n": np.int64(3), "model": Model.RSRD,
                      "empty": {}, "ks": np.arange(2)})
    assert text.splitlines() == ['{', '  "gamma": 0.5,', '  "n": 3,', '  "model": "rsrd",',
                                 '  "empty": {},', '  "ks": [', '    0,', '    1', '  ]', '}']


@pytest.mark.parametrize("argv,message", [
    (["simulate", *A_FLAGS, "--steps", "100", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["ldpath", *A_FLAGS, "--steps", "100", "--level", "5", "--seed", "-1"],
     "seed must be >= 0, got -1"),
    (["ldpath", *A_FLAGS, "--steps", "100", "--level", "5", "--base-level", "-1"],
     "base_level must be >= 0"),
    (["verify", "--grid", "20", "--seed", "-1"], "seed must be >= 0, got -1"),
], ids=["simulate-seed", "ldpath-seed", "ldpath-base-level", "verify-seed"])
def test_negative_seed_and_base_level_are_validation_errors(tmp_path, capsys, argv, message):
    out = [] if argv[0] == "verify" else ["--out", str(tmp_path)]
    assert main([*argv, *out]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error: ") and message in captured.err
    assert "PASS" not in captured.out and not list(tmp_path.iterdir())


UNSTABLE_HALF = ["--lambda", "20", "--mu", "30", "--alpha", "0.1", "--beta", "10",
                 "--model", "model2", "--p", "0.5"]
UNSTABLE_ONE = ["--lambda", "12", "--mu", "11", "--alpha", "0.1", "--beta", "10"]
UNSTABLE_RSRD = ["--lambda", "16", "--mu", "30", "--alpha", "0.1", "--beta", "10",
                 "--model", "rsrd", "--p", "0.5"]
FIT = ["--kmin", "20", "--kmax", "35", "--xmax", "40"]


@pytest.mark.parametrize("argv", [
    ["analyze", *UNSTABLE_HALF],
    ["compare-mm1", *UNSTABLE_HALF],
    ["compare-mm1", "--lambda", "20", *A_FLAGS[2:]],
    ["tailfit", *UNSTABLE_HALF, *FIT],
    ["tailfit", *UNSTABLE_ONE, *FIT],
    ["tailfit", *UNSTABLE_ONE, "--model", "model2", *FIT],
    ["tailfit", *UNSTABLE_RSRD, *FIT],
], ids=["analyze-p0.5", "compare-mm1-p0.5", "compare-mm1-model1", "tailfit-p0.5",
        "tailfit-model1", "tailfit-p1", "tailfit-rsrd"])
def test_unstable_sets_are_validation_errors(tmp_path, capsys, monkeypatch, argv):
    # (20, 30, 0.1, 10) with p = 0.5, (20, 11, 0.1, 10) and (12, 11, 0.1, 10) have
    # load above 1, and RS-RD's (16, 30, 0.1, 10) has lambda > mu p: no shape-only
    # tail, no matched M/M/1 law (its pi0 would be negative), no stationary table
    solved = []
    monkeypatch.setattr(qbd, "truncated_stationary", lambda *a, **k: solved.append(a))
    assert main([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "requires a stable parameter set" in err
    assert not solved and not list(tmp_path.iterdir())


@pytest.mark.parametrize("rates,mass", [
    (("10", "11", "0.1", "10"), "0.0842"),
    (("20", "60", "0.01", "1"), "0.0632"),
    (("10", "11", "1e-12", "10"), "0.0169"),
], ids=["A", "B", "tiny-alpha"])
def test_tandem_eta_names_its_fixed_table_instead_of_advising_a_larger_one(tmp_path, capsys,
                                                                          rates, mass):
    # analyze has no flag to enlarge the 60 x 60 table eta builds, so the error
    # names the fixed size instead of advising a larger lattice
    out = tmp_path / "out"
    argv = ["analyze", *_rate_flags(*rates), "--model", "model2"]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("verification failure: eta's truncated table has the fixed size "
                            f"60 x 60, and its estimated tail mass {mass} exceeds 0.01\n")
    assert captured.out == "" and not out.exists()


def test_tandem_eta_tail_gate_names_its_fixed_table(tmp_path, capsys):
    # default T2: the boundary weights rise again at the solve's noise floor, and
    # the table that would have to grow is eta's own 60 x 60 one
    out = tmp_path / "out"
    argv = ["analyze", *_rate_flags("10", "30", "0.1", "10"), "--model", "model2"]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "verification failure: boundary sum tail is not decreasing geometrically: ratios "
        "[1.0068, 1.1334, 1.2217, 1.2633, 1.2688, 1.2512, 1.2194, 1.1846, 1.3128] at y = "
        "[52, 53, 54, 55, 56, 57, 58, 59, 60], first >= 1 at y = 52; eta's truncated table "
        "has the fixed size 60 x 60\n")
    assert captured.out == "" and not out.exists()


def test_tailfit_keeps_its_advice_to_enlarge_the_lattice(tmp_path, capsys):
    # tailfit's --xmax sets its lattice, so there the advice can be followed
    argv = ["tailfit", *_rate_flags("10", "30", "0.1", "10"), "--model", "model2", "--p", "0.5",
            "--kmin", "1", "--kmax", "6", "--xmax", "8"]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("verification failure: estimated tail mass 0.0824 "
                                       "exceeds 0.01; enlarge the lattice\n")


@pytest.mark.parametrize("model,message", [
    ("model1", "the twist requires a stable parameter set, "
               "lambda < beta/(alpha+beta) mu p; got lambda = 1e+150"),
    ("model2", "the twist requires a stable parameter set, "
               "lambda < beta/(alpha+beta) mu p; got lambda = 1e+150"),
    ("model2 --p 0.5", "the shape-only tail requires a stable parameter set, "
                       "lambda < beta/(alpha+beta) mu p; got lambda = 1e+150"),
], ids=["model1", "tandem-p1", "tandem-p0.5"])
def test_underflowing_roots_of_an_unstable_set_are_a_validation_error(tmp_path, capsys,
                                                                      model, message):
    # load 2e450: t2 underflows to 0, so the tail refuses the set before its roots
    out = tmp_path / "out"
    argv = ["analyze", *_rate_flags("1e150", "1e-300", "1", "1"), "--model", *model.split()]
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"validation error: {message}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["simulate", *A_FLAGS, "--steps", "1000", "--burn-in", "1000"],
     "burn_in must fall inside the trajectory"),
    (["ldpath", *A_FLAGS, "--steps", "1000", "--level", "2"], "level_k must exceed base_level"),
], ids=["simulate-burn-in", "ldpath-level"])
def test_bad_values_are_rejected_before_sampling(tmp_path, capsys, monkeypatch, argv, message):
    sampled = []
    monkeypatch.setattr(cli, "simulate", lambda *a, **k: sampled.append(a) or simulate(*a, **k))
    assert main([*argv, "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error: ") and message in captured.err
    assert not sampled and not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,message", [
    (["simulate", *A_FLAGS, "--steps", "0"], "steps must be positive"),
    (["ldpath", *A_FLAGS, "--steps", "0", "--level", "30"], "steps must be positive"),
    (["analyze", "--lambda", "10", "--mu", "11", "--alpha", "0.1"],
     "provide --lambda --mu --alpha --beta or --params FILE"),
], ids=["simulate-steps", "ldpath-steps", "analyze-no-beta"])
def test_refusals_name_the_input_in_one_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"validation error: {message}\n"
    assert captured.out == "" and not out.exists()


def test_simulate_notes_a_transient_path(tmp_path, capsys):
    # load 1.1: the first queue grows, and simulate still writes its files
    argv = ["simulate", "--lambda", "30", "--mu", "11", "--alpha", "0.1", "--beta", "10",
            "--steps", "20000", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ("note: first-queue mean keeps growing; "
                                       "the path looks transient\n")


def test_simulate_outputs(tmp_path, capsys):
    code = main(["simulate", *A_FLAGS, "--steps", "2000", "--seed", "5",
                 "--out", str(tmp_path)])
    assert code == 0
    traj = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert traj[0].startswith("# version=")
    assert "# rng=numpy.random.Generator(PCG64)" in traj
    emp = (tmp_path / "empirical.csv").read_text().splitlines()
    assert any(line.startswith("x,status,frequency") for line in emp)


def test_ldpath_verdict(tmp_path, capsys):
    code = main(["ldpath", "--lambda", "20", "--mu", "60", "--alpha", "0.01",
                 "--beta", "1", "--steps", "70000", "--level", "30",
                 "--seed", "11", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "predicted=DownDominated" in out
    assert "observed=DownDominated" in out
    lines = (tmp_path / "excursions.csv").read_text().splitlines()
    assert "start,end,peak,down_fraction,slope" in lines


# SHA-256 of tailfit.csv from A's Model 1 window 100..300 and the 40 x 40 windows 20..35
# of the p = 1 tandem and of RS-RD at p = 0.5, as the closed-form fit writes them
TAILFIT_DIGESTS = {
    (*A_FLAGS, "--kmin", "100", "--kmax", "300"):
        "4f3440d3cf8f04a991532b2ea9b6d93e2e51ae387bc1cd82f7079fb8d9d7fd85",
    (*T2_FLAGS, "--model", "model2", "--kmin", "20", "--kmax", "35", "--xmax", "40"):
        "d87e5c9c620e95e2497170bfabdd0afb9d74ea1c6a339b59fcea54157ef27ea4",
    (*T2_FLAGS, "--model", "rsrd", "--p", "0.5", "--kmin", "20", "--kmax", "35", "--xmax", "40"):
        "a9d45dcb92319737a433a235b539f09fb6d4a783fe011050797c8e21f99de691",
}


@pytest.mark.parametrize("flags", list(TAILFIT_DIGESTS), ids=["A", "T2", "rsrd"])
def test_tailfit_csv_is_pinned(flags, tmp_path, capsys):
    assert main(["tailfit", *flags, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "tailfit.csv").read_bytes()).hexdigest()
    assert digest == TAILFIT_DIGESTS[flags]


# SHA-256 of analyze.json: A and B, plain and with --limits, A at alpha = 1e-12, the light
# load (1e-300, 11, 0.1, 10) and mu = 1e150 for Model 1, the p = 1 tandem (1, 50, 1.9, 0.6),
# T2's shape-only tail at p = 0.5, RS-RD at p = 0.5, and two Model 1 sets whose margin
# 1 - gamma_1 is below a double's rounding of 1: slow switching (1.5e-17, C(Up) was 3.7
# times off) and an R whose Down->Down entry rounds to 1 (phi(Up) underflows there)
ANALYZE_DIGESTS = {
    tuple(A_FLAGS): "8c1b5938cb6adfc6b7208510b3b0194a1508f6a5d20f8e8c36c6232333238c79",
    (*A_FLAGS, "--limits"): "104b79d370d838bc362e3d27ee2266ada35e2819735e9634f451621260146224",
    tuple(_rate_flags("20", "60", "0.01", "1")):
        "ff19f79f6e616f440fd23ff9cd801f9f8381ca0d7a6e7f5d083022b8ec487334",
    (*_rate_flags("20", "60", "0.01", "1"), "--limits"):
        "b08c17a4ca28a7d3b346e4a134f1026aaeb7c65cda4304a645562455a5acb895",
    tuple(_rate_flags("10", "11", "1e-12", "10")):
        "4542407e83aa7d18a785d738cc8c12f4a5a71e14b44d6a5f2d3b622539f55009",
    tuple(_rate_flags("1e-300", "11", "0.1", "10")):
        "b19d446646bc2da5e211e3d2626250a7b9a44dcbc98c04c3284b99dc91dd7fe3",
    tuple(_rate_flags("3", "1e150", "0.1", "10")):
        "9bc71bcef9c642c7df1e44d77221972a3c09e97d27e7c2af3ec36cadb6849a49",
    (*_rate_flags("1", "50", "1.9", "0.6"), "--model", "model2"):
        "62ccccb9d5312d57e8690045afd8ce639c9a338af5435cdcccdce96f536533b8",
    (*T2_FLAGS, "--model", "model2", "--p", "0.5"):
        "f32c4b7f10e01f58e6a4feccd0b7e4019ef77bcef59764dc5b01ec2eac1182f3",
    (*T2_FLAGS, "--model", "rsrd", "--p", "0.5"):
        "fbe3d6ff443bd93b806d9aa931a2e4886bb1a68236d091ef710c9fa1c00f914e",
    tuple(_rate_flags("527962.3175368304", "50406465.24787929", "5.786599240714527e-11",
                      "8.634334099278625e-12")):
        "a0cfa2b8a562f3715dfecdb464e8c75f7fbc23085b9c343c2e3e487c0e6dae53",
    tuple(_rate_flags("413144996.53554803", "3.122865155414661e+147", "1.7913480599226823e-151",
                      "4.335403015718224e-98")):
        "a9a6dd001cbe941c0f798fb70448e16e30acc084a7e1bd451cfb09d9beb70add",
}


@pytest.mark.parametrize("flags", list(ANALYZE_DIGESTS), ids=[
    "A", "A-limits", "B", "B-limits", "A-alpha-1e-12", "lambda-1e-300", "mu-1e150",
    "tandem-1-50", "T2-p0.5", "rsrd", "slow-switching", "r-down-down-one"])
def test_analyze_json_is_pinned(flags, tmp_path, capsys):
    assert main(["analyze", *flags, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "analyze.json").read_bytes()).hexdigest()
    assert digest == ANALYZE_DIGESTS[flags]


# SHA-256 of compare_mm1.json: A and B, T2 at p = 0.5, RS-RD at p = 0.5 (its product-form rate
# lambda/(mu p)), and (1e-10, 1, 1e-320, 1e-10), whose den is 0 and gamma_1 is 0.5
COMPARE_DIGESTS = {
    tuple(A_FLAGS): "65955580c577e245efb16ff2607e6b546ec53be0585ff35b1ad62f074c12752b",
    tuple(_rate_flags("20", "60", "0.01", "1")):
        "5261382a416afdd0f126944a93324943e14307b44c3eb872d795525f102d2e3f",
    (*T2_FLAGS, "--model", "model2", "--p", "0.5"):
        "570c18821d6ee476d6e55ab75d4298e1a1401c07587209e08fbeeb07e44d669e",
    (*T2_FLAGS, "--model", "rsrd", "--p", "0.5"):
        "b64d9ae1b8162bf53e69acc89a2f6d5de43ef528f44864e0af5e1992b702f432",
    tuple(_rate_flags("1e-10", "1", "1e-320", "1e-10")):
        "697da32560222350c30e0b857676d40946d8c83c95865aa84a229d0e54e6cabb",
}


@pytest.mark.parametrize("flags", list(COMPARE_DIGESTS),
                         ids=["A", "B", "T2-p0.5", "rsrd", "den-zero"])
def test_compare_mm1_json_is_pinned(flags, tmp_path, capsys):
    assert main(["compare-mm1", *flags, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "compare_mm1.json").read_bytes()).hexdigest()
    assert digest == COMPARE_DIGESTS[flags]


def test_tailfit_csv(tmp_path, capsys):
    code = main(["tailfit", *A_FLAGS, "--kmin", "100", "--kmax", "160",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "gamma_est=0.919" in capsys.readouterr().out
    lines = (tmp_path / "tailfit.csv").read_text().splitlines()
    assert "k,pi,model_prediction,relative_error" in lines


@pytest.mark.parametrize("model,p", [("model2", "1"), ("rsrd", "0.5")])
def test_tailfit_rejects_window_beyond_lattice(tmp_path, capsys, model, p):
    flags = [*T2_FLAGS, "--model", model, "--p", p, "--kmin", "20"]
    code = main(["tailfit", *flags, "--kmax", "41", "--xmax", "40", "--out", str(tmp_path)])
    assert code == 1
    assert "--kmax 41 exceeds the lattice's --xmax 40" in capsys.readouterr().err
    assert not (tmp_path / "tailfit.csv").exists()
    assert main(["tailfit", *flags, "--kmax", "40", "--xmax", "40",
                 "--out", str(tmp_path)]) == 0


SHORT_WINDOW = "needs kmin >= 0 and at least 5 levels"


@pytest.mark.parametrize("model,flags,message", [
    *[(model, window, SHORT_WINDOW) for model in ("model1", "model2", "rsrd")
      for window in (["--kmin", "30", "--kmax", "20"], ["--kmin", "20", "--kmax", "23"],
                     ["--kmin", "-1", "--kmax", "10"])],
    *[(model, ["--kmin", "20", "--kmax", "30", "--y", y], f"--y {y} lies outside")
      for model in ("model2", "rsrd") for y in ("50", "41", "-1")],
    *[("model1", ["--kmin", "20", "--kmax", "30", "--y", y],
       f"--y {y} given, but Model 1 states have no y") for y in ("50", "0")],
])
def test_tailfit_rejects_bad_window(tmp_path, capsys, model, flags, message):
    code = main(["tailfit", *T2_FLAGS, "--model", model, *flags, "--xmax", "40",
                 "--out", str(tmp_path)])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "tailfit.csv").exists()


@pytest.mark.parametrize("model,p", [("model2", "1"), ("rsrd", "0.5")])
def test_tailfit_rejects_empty_lattice(tmp_path, capsys, model, p):
    code = main(["tailfit", *T2_FLAGS, "--model", model, "--p", p, "--kmin", "0",
                 "--kmax", "0", "--xmax", "0", "--out", str(tmp_path)])
    assert code == 1
    assert "x_max >= 1 and y_max >= 1" in capsys.readouterr().err


def test_compare_mm1(tmp_path):
    code = main(["compare-mm1", *A_FLAGS, "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "compare_mm1.json").read_text())
    assert report["comparison"]["dominance"] is True
    assert abs(report["comparison"]["mm1_ratio"] - 0.918182) < 1e-6


def test_compare_mm1_tandem_with_feedback(tmp_path):
    code = main(["compare-mm1", *T2_FLAGS, "--model", "model2", "--p", "0.5",
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "compare_mm1.json").read_text())
    assert report["meta"]["model"] == "model2"
    comparison = report["comparison"]
    assert comparison["mu0"] == pytest.approx(10 / 10.1 * 30 * 0.5, rel=1e-15)
    assert comparison["mm1_ratio"] == pytest.approx(10.1 / 10 * 10 / 15, rel=1e-15)
    assert comparison["dominance"] is True


@pytest.mark.parametrize("lam", ["14.9", "15.1"])
def test_rsrd_verdict_is_whether_its_product_form_exists(tmp_path, lam):
    # RS-RD's product form needs lambda < mu p = 15; 14.9 is above the tandem's
    # bound beta/(alpha+beta) mu p = 14.85
    flags = ["--lambda", lam, "--mu", "30", "--alpha", "0.1", "--beta", "10",
             "--model", "rsrd", "--p", "0.5"]
    assert main(["analyze", *flags, "--out", str(tmp_path)]) == 0
    stability = json.loads((tmp_path / "analyze.json").read_text())["stability"]
    assert stability == {"stable": lam == "14.9", "effective_rate": 30, "if_and_only_if": True}
    params = make_params(float(lam), 30, 0.1, 10, p=0.5, model=Model.RSRD)
    if stability["stable"]:
        assert stationary_table(params, x_max=40, y_max=40).residual < 1e-15
    else:
        with pytest.raises(UnstableParameters, match="lambda < mu p"):
            stationary_table(params, x_max=40, y_max=40)


@pytest.mark.parametrize("lam", ["10", "14.9"])
def test_rsrd_analyze_reports_the_product_form_rate(tmp_path, lam):
    # RS-RD decays at lambda/(mu p) in x and y; the tandem's roots are not its own
    flags = ["--lambda", lam, "--mu", "30", "--alpha", "0.1", "--beta", "10",
             "--model", "rsrd", "--p", "0.5"]
    assert main(["analyze", *flags, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "analyze.json").read_text()
    report = json.loads(text)
    assert list(report) == ["meta", "product_form_rate", "stability"]
    assert report["product_form_rate"] == float(lam) / 15
    assert "gamma_p" not in text and report["stability"]["stable"]


def test_compare_mm1_gives_rsrd_its_product_form_rate(tmp_path):
    # the matched queue decays at 0.6733, more slowly than RS-RD's 2/3
    flags = ["--lambda", "10", "--mu", "30", "--alpha", "0.1", "--beta", "10",
             "--model", "rsrd", "--p", "0.5"]
    assert main(["compare-mm1", *flags, "--out", str(tmp_path)]) == 0
    comparison = json.loads((tmp_path / "compare_mm1.json").read_text())["comparison"]
    assert comparison["gamma_1"] == 10 / 15
    assert comparison["mm1_ratio"] == pytest.approx(10.1 / 10 * 10 / 15, rel=1e-15)
    assert comparison["dominance"] is False


def test_rsrd_has_no_vanishing_breakdown_limits(tmp_path, capsys):
    flags = ["--lambda", "10", "--mu", "30", "--alpha", "0.1", "--beta", "10",
             "--model", "rsrd", "--p", "0.5"]
    assert main(["analyze", *flags, "--limits", "--out", str(tmp_path)]) == 1
    assert "defined for Model 1 and the tandem only" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_compare_mm1_refuses_rsrd_above_the_matched_load(tmp_path, capsys):
    # stable RS-RD set whose matched queue (service 14.85) has load above 1
    flags = ["--lambda", "14.9", "--mu", "30", "--alpha", "0.1", "--beta", "10",
             "--model", "rsrd", "--p", "0.5"]
    assert main(["compare-mm1", *flags, "--out", str(tmp_path)]) == 1
    assert "matched queue has load below 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rates", [
    ("5.7044345792981864e+29", "3.431373127790715e-284", "1.2819326382081938e+152",
     "7.691090675299943e+22"),
    ("2.1954820977704256e+201", "1.3387405515545478e-131", "1.3517621996884554e-171",
     "3.97034311557689e+83"),
], ids=["divide-by-zero", "overflow"])
def test_compare_mm1_refuses_an_overloaded_matched_queue_in_one_line(tmp_path, capsys, rates):
    # the matched service rate underflows to 0 (first set), or lambda over it overflows
    # (second): numpy warned on the load in the refusal's text, two lines before it
    out = tmp_path / "out"
    assert main(["compare-mm1", *_rate_flags(*rates), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("validation error: the M/M/1 comparison requires a stable parameter "
                            "set whose matched queue has load below 1, got inf\n")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_verify_rejects_empty_grid(capsys, grid):
    assert main(["verify", "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert f"grid must be >= 1, got {grid}" in captured.err
    assert "PASS" not in captured.out


VERIFY_CHECKS = ["kernel-rows-stochastic", "free-kernel-harmonicity", "twisted-rows-stochastic",
                 "characteristic-roots", "tilted-perron-root-one", "rate-matrix-consistency",
                 "stability-equivalences", "twisted-drift-positive", "closed-prefactor-tail",
                 "prefactor-exact-coefficient", "eta-in-range", "escape-closed-form",
                 "product-form-summability", "rs-rd-global-balance"]


def test_verify_small_grid(capsys):
    code = main(["verify", "--grid", "24", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    # the whole suite, in order: a dropped or renamed check fails here
    assert [line.split(":")[0] for line in out.splitlines()] == \
        [f"PASS {name}" for name in VERIFY_CHECKS]


def test_verify_prints_fail_and_exits_2(monkeypatch, capsys):
    # a root t2 off by one part in 1e9 fails the two checks that read it
    roots = verify.characteristic_roots
    monkeypatch.setattr(verify, "characteristic_roots", lambda params: dataclasses.replace(
        roots(params), t2=roots(params).t2 * (1.0 + 1e-9)))
    code = main(["verify", "--grid", "24", "--seed", "7"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    failing = ("characteristic-roots", "tilted-perron-root-one")
    assert [line.split(":")[0] for line in lines] == \
        [f"{'FAIL' if name in failing else 'PASS'} {name}" for name in VERIFY_CHECKS]


PARAM_KEYS = ["mu", "alpha", "beta", "p", "C", "lambda", "model"]


def test_analyze_meta_params_key_order(tmp_path):
    assert main(["analyze", *A_FLAGS, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "analyze.json").read_text())["meta"]
    assert list(meta) == ["version", "rng", "params", "model"]
    assert list(meta["params"]) == PARAM_KEYS
    assert meta["params"]["model"] == meta["model"] == "model1"


def _header(path):
    return [line for line in path.read_text().splitlines() if line.startswith("# ")]


def test_csv_header_lines(tmp_path):
    tandem = [*T2_FLAGS, "--model", "model2", "--out", str(tmp_path)]
    assert main(["simulate", *tandem, "--steps", "100", "--seed", "4"]) == 0
    assert main(["tailfit", *tandem, "--kmin", "20", "--kmax", "30", "--xmax", "40"]) == 0
    start = [f"# version={__version__}", "# rng=numpy.random.Generator(PCG64)"]
    # every file prints the parameters with 17 significant digits
    params = ["# mu=30", "# alpha=0.10000000000000001", "# beta=10", "# p=1",
              "# C=80.099999999999994", "# lambda=10", "# model=model2"]
    assert _header(tmp_path / "trajectory.csv") == start + params + ["# seed=4"]
    assert _header(tmp_path / "empirical.csv") == start + params + [
        "# seed=4", "# burn_in=10", "# steps=100"]
    tailfit = _header(tmp_path / "tailfit.csv")
    assert tailfit[:9] == start + params
    assert [line.split("=")[0] for line in tailfit[9:]] == [
        "# gamma_est", "# log_prefactor_est", "# k_min", "# k_max", "# residual",
        "# tail_mass_bound"]
    # every chain's table states its balance residual and the mass outside it
    for flags in (T2_FLAGS, [*T2_FLAGS, "--model", "model2", "--p", "0.5"],
                  [*T2_FLAGS, "--model", "rsrd", "--p", "0.5"]):
        assert main(["tailfit", *flags, "--kmin", "20", "--kmax", "30", "--xmax", "40",
                     "--out", str(tmp_path)]) == 0
        values = dict(line[2:].split("=") for line in _header(tmp_path / "tailfit.csv"))
        assert 0.0 <= float(values["residual"]) <= 1e-14, flags
        assert 0.0 <= float(values["tail_mass_bound"]) <= 1e-6, flags


def test_tandem_tailfit_reads_the_product_form(tmp_path, capsys):
    # the 120 x 120 lattice read 0.53656 here; the product form has no cut
    code = main(["tailfit", *T2_FLAGS, "--model", "model2", "--kmin", "20", "--kmax", "60",
                 "--xmax", "120", "--out", str(tmp_path)])
    assert code == 0
    fields = dict(item.split("=") for item in capsys.readouterr().out.split())
    gamma_1 = characteristic_roots(make_params(10, 30, 0.1, 10, model=Model.MODEL2)).gamma_p
    assert abs(float(fields["gamma_est"]) - gamma_1) <= 1e-4


def test_params_file_round_trip_keeps_the_model(tmp_path):
    params = make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2, C=90.0)
    cfg = tmp_path / "params.json"
    cfg.write_text(params.to_json())
    assert main(["analyze", "--params", str(cfg), "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "analyze.json").read_text())["meta"]
    assert meta["model"] == "model2"
    assert params_from_dict(meta["params"]) == params


def test_params_file_rejects_unknown_keys(tmp_path, capsys):
    # "P" for p would otherwise run the tandem at the default p = 1
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"lambda": 10, "mu": 30, "alpha": 0.1, "beta": 10,
                               "model": "model2", "P": 0.5}))
    assert main(["compare-mm1", "--params", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: unknown parameter(s): P; accepted: lambda, lam,")
    assert [path.name for path in tmp_path.iterdir()] == ["params.json"]
    # the lam alias and every key to_json writes are accepted
    cfg.write_text(json.dumps({"lam": 10, "mu": 11, "alpha": 0.1, "beta": 10}))
    assert main(["compare-mm1", "--params", str(cfg), "--out", str(tmp_path)]) == 0
    params = make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2)
    assert params_from_dict(json.loads(params.to_json())) == params


def test_params_file_rejects_lambda_and_lam(tmp_path, capsys):
    # with both, the file used to run at lambda = 10 and ignore lam
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"lambda": 10, "lam": 12, "mu": 11, "alpha": 0.1, "beta": 10}))
    assert main(["analyze", "--params", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "validation error: both lambda and lam given")
    assert [path.name for path in tmp_path.iterdir()] == ["params.json"]


# Runs in a fresh interpreter: argv is the source root, then the output directory.
SCIPY_FREE_VERBS = """
import sys
sys.path.insert(0, sys.argv[1])
from uqtail import conditioned_excursion_slope, make_params
from uqtail.cli import main
A = ["--lambda", "10", "--mu", "11", "--alpha", "0.1", "--beta", "10", "--out", sys.argv[2]]
T2 = ["--lambda", "10", "--mu", "30", "--alpha", "0.1", "--beta", "10", "--out", sys.argv[2]]
for argv in (["analyze", *A], ["analyze", *T2, "--model", "model2", "--p", "0.5"],
             ["simulate", *A, "--steps", "2000"],
             ["simulate", *T2, "--model", "model2", "--steps", "20000"],
             ["simulate", *T2, "--model", "model2", "--p", "0.5", "--steps", "20000"],
             ["ldpath", *A, "--steps", "2000", "--level", "5"],
             ["tailfit", *A, "--kmin", "20", "--kmax", "30"], ["compare-mm1", *A],
             ["tailfit", *T2, "--model", "rsrd", "--p", "0.5", "--kmin", "20", "--kmax", "35",
              "--xmax", "40"],
             ["tailfit", *T2, "--model", "model2", "--kmin", "20", "--kmax", "35",
              "--xmax", "40"],
             ["verify", "--grid", "20"]):
    assert main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
conditioned_excursion_slope(make_params(10, 11, 0.1, 10), level_k=30)
assert "scipy" not in sys.modules
assert main(["tailfit", *T2, "--model", "model2", "--p", "0.5", "--kmin", "20",
             "--kmax", "35", "--xmax", "40"]) == 0
assert "scipy.sparse.linalg" in sys.modules
"""


def test_verbs_without_a_sparse_solve_never_load_scipy(tmp_path):
    src = str(Path(uqtail.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE_VERBS, src, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _exit(parse, capsys):
    with pytest.raises(SystemExit) as exc:
        parse()
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["nope"], ["--version"], ["-h"], ["analyze", "-h"], ["analyze", "--bogus", "1"],
    ["analyze", *A_FLAGS, "extra"], ["tailfit", *A_FLAGS],
], ids=["empty", "unknown-verb", "version", "help", "verb-help", "unknown-flag", "extra",
        "missing-window"])
def test_verb_dispatch_exits_as_the_top_level_parser(capsys, argv):
    # main parses a verb's arguments with the verb's parser alone
    assert _exit(lambda: main(argv), capsys) == _exit(lambda: build_parser().parse_args(argv),
                                                     capsys)


@pytest.mark.parametrize("argv", [
    ["tailfit", *A_FLAGS, "--kmin", "20", "--kmax", "30", "--y", "2", "--sigma", "down"],
    ["analyze", *T2_FLAGS, "--model", "rsrd", "--p", "0.5", "--limits"],
    ["verify", "--grid", "20"],
], ids=["tailfit", "analyze", "verify"])
def test_verb_parser_reads_the_top_level_namespace(argv):
    args, rest = cli._parsers()[1][argv[0]].parse_known_args(argv[1:])
    assert rest == []
    assert {**vars(args), "verb": argv[0]} == vars(build_parser().parse_args(argv))


def test_one_parser_per_process(tmp_path):
    assert build_parser() is build_parser()
    # a flag given in one call does not leak into the next
    assert main(["analyze", *A_FLAGS, "--limits", "--out", str(tmp_path)]) == 0
    assert main(["analyze", *A_FLAGS, "--out", str(tmp_path)]) == 0
    assert "alpha_limits" not in json.loads((tmp_path / "analyze.json").read_text())
    # neither does an argparse error
    with pytest.raises(SystemExit) as exc:
        main(["analyze", *A_FLAGS, "--steps", "5"])
    assert exc.value.code == 2
    assert main(["compare-mm1", *A_FLAGS, "--out", str(tmp_path)]) == 0
