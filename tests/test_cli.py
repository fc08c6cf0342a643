import dataclasses
import enum
import json
import math
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pins
import uqtail
from uqtail import (Model, UnstableParameters, __version__, asymptotics, characteristic_roots,
                    cli, make_params, params_from_dict, qbd, simulate, stationary_table, verify)
from uqtail.cli import build_parser, main

from reference import FULL_RANGE_DIGITS, R_DOWN_DOWN_ONE, model1, relative_error
from test_pins import ROWS, TABLE, pinned, refused

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


def _rate_flags(lam, mu, alpha, beta):
    return ["--lambda", lam, "--mu", mu, "--alpha", alpha, "--beta", beta]


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-finite token {token}")
    return json.loads(text, parse_constant=refuse)


def test_light_load_tandem_refuses_overflowing_eta_weights_before_the_solve(tmp_path,
                                                                           monkeypatch):
    # t2 = 9.4e300 here, so h(0, y, sigma) = t2^y (times a weight) overflows from y = 2
    def no_solve(*args, **kwargs):
        raise AssertionError("the truncated solve ran")

    monkeypatch.setattr(asymptotics, "truncated_stationary", no_solve)
    assert pins.check(ROWS["eta-weights-y2"], tmp_path, TABLE) == []


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
        # the lambda line is the row's, which reads its file through --params
        line = ROWS["params-integer-too-large"]["stderr"].replace("lambda", key, 1)
        assert capsys.readouterr().err == line + "\n"


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
    escape = asymptotics.EscapeProbs(up=0.5, down=float("nan"), residual=0.0)
    with pytest.raises(ArithmeticError, match=r"^tail\[0\]\.escape\.down is nan$"):
        cli._dump({"tail": [{"escape": escape}]})
    # a field declared repr=False is not written, so its inf is not read
    phi = uqtail.twist.ProductFormPhi(ratio=0.5, B=0.5, up_share=1.0, down_share=math.inf)
    assert json.loads(cli._dump([phi])) == [{"ratio": 0.5, "B": 0.5, "up_share": 1}]


class _Colour(enum.Enum):
    RED = "red"
    ONE = 1


@dataclasses.dataclass(frozen=True)
class _Pair:
    first: object
    hidden: object = dataclasses.field(repr=False)   # never written
    second: object = None


_EXTREME_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
_TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é ü", '"\\\n\t', "\U0001f600"])
_NO_FLOAT_LEAVES = (st.integers() | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
                    | st.booleans() | st.booleans().map(np.bool_) | st.none() | _TEXT
                    | st.sampled_from([*_Colour, *Model]))
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EXTREME_FLOATS)
_FLOAT_LEAVES = (_FLOATS | _FLOATS.map(np.float64)
                 | st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32))


def _nested(leaves):
    return st.recursive(leaves, lambda children: (
        st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_TEXT, children, max_size=4)
        | st.builds(_Pair, children, children, children)), max_leaves=16)


def _plain(x):
    """x as json.dumps would read it: a dataclass as the dict of its reported fields."""
    if isinstance(x, dict):
        return {key: _plain(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(value) for value in x]
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x) if f.repr}
    if isinstance(x, enum.Enum):
        return _plain(x.value)
    return x.item() if isinstance(x, np.generic) else x


def _assert_exact(parsed, plain):
    if isinstance(plain, float):
        assert type(parsed) in (int, float) and float(parsed) == plain
        assert math.copysign(1.0, parsed) == math.copysign(1.0, plain)
    elif isinstance(plain, (dict, list)):
        assert type(parsed) is type(plain) and len(parsed) == len(plain)
        for key in plain if isinstance(plain, dict) else range(len(plain)):
            _assert_exact(parsed[key], plain[key])
    else:
        assert type(parsed) is type(plain) and parsed == plain


def _leaf_paths(x, path=()):
    if isinstance(x, dict):
        items = x.items()
    elif isinstance(x, (list, tuple)):
        items = enumerate(x)
    elif dataclasses.is_dataclass(x):
        items = [(f.name, getattr(x, f.name)) for f in dataclasses.fields(x) if f.repr]
    else:
        yield path
        return
    for key, value in items:
        yield from _leaf_paths(value, (*path, key))


def _replaced(x, path, leaf):
    if not path:
        return leaf
    key, rest = path[0], path[1:]
    if isinstance(x, dict):
        return {**x, key: _replaced(x[key], rest, leaf)}
    if isinstance(x, (list, tuple)):
        return type(x)([*x[:key], _replaced(x[key], rest, leaf), *x[key + 1:]])
    return dataclasses.replace(x, **{key: _replaced(getattr(x, key), rest, leaf)})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_nested(_NO_FLOAT_LEAVES))
def test_the_report_walk_writes_what_json_dumps_writes(x):
    assert cli._dump(x) == json.dumps(_plain(x), indent=2)


def _refuse_constant(token):
    raise ValueError(f"non-finite token {token}")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_nested(_NO_FLOAT_LEAVES | _FLOAT_LEAVES))
def test_the_report_walk_writes_strict_json_with_every_float_exact(x):
    # .17g writes -0.0 as -0, which json reads as the int 0: read it back as the float
    parsed = json.loads(cli._dump(x), parse_constant=_refuse_constant,
                        parse_int=lambda text: -0.0 if text == "-0" else int(text))
    _assert_exact(parsed, _plain(x))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_nested(_NO_FLOAT_LEAVES | _FLOAT_LEAVES), st.data())
def test_the_report_walk_names_the_path_of_a_non_finite_leaf(x, data):
    paths = list(_leaf_paths(x))
    assume(paths)
    path = data.draw(st.sampled_from(paths))
    bad = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]).flatmap(
        lambda value: st.sampled_from([value, np.float64(value), np.float32(value)])))
    where = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)
    with pytest.raises(ArithmeticError) as caught:
        cli._dump(_replaced(x, path, bad))
    assert str(caught.value) == f"{where.removeprefix('.')} is {float(bad)}"


OUT_VERBS = {"analyze": A_FLAGS, "compare-mm1": A_FLAGS,
             "tailfit": [*A_FLAGS, "--kmin", "20", "--kmax", "30"],
             "simulate": [*A_FLAGS, "--steps", "100"],
             "ldpath": [*A_FLAGS, "--steps", "100", "--level", "5"]}


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("verb", list(OUT_VERBS))
def test_an_unwritable_out_is_a_one_line_refusal(tmp_path, capsys, verb, under):
    blocker = tmp_path / "afile"
    blocker.write_text("kept\n")
    out = blocker / "sub" if under else blocker
    assert main([verb, *OUT_VERBS[verb], "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(rf"validation error: cannot write --out {re.escape(str(out))}: [^\n]+\n",
                        captured.err)
    assert captured.out == ""
    assert blocker.read_text() == "kept\n"


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


# each verb's report, byte for byte, as tests/pins.json pins it
test_tailfit_csv_is_pinned = pinned("tailfit")
test_analyze_json_is_pinned = pinned("analyze")
test_compare_mm1_json_is_pinned = pinned("compare-mm1")
# each refusal, its exit code and its one stderr line, as tests/pins.json pins it: a row that
# a test has always run stays a case of that test, and test_refusal_is_pinned runs the rest
test_c_far_below_tiny_rates_is_a_validation_error = refused({
    "analyze-flags0": "C-below-sum-analyze", "compare-mm1-flags1": "C-below-sum-compare-mm1",
    "simulate-flags2": "C-below-sum-simulate", "tailfit-flags3": "C-below-sum-tailfit"})
test_non_finite_results_are_refused_by_name = refused({
    "rsrd-rate": "rsrd-rate-inf", "compare-gamma": "t1-overflow-compare-mm1",
    "tandem-root": "t1-overflow-tandem-p0.5"})
test_overflowing_eta_weights_are_refused_by_one_line = refused({
    "power": "eta-weights-power", "down-weight": "eta-weights-down-weight"})
test_all_tiny_rates_are_refused_by_the_t2_line = refused({
    "analyze": "t2-0-over-0-analyze", "compare-mm1": "t2-0-over-0-compare-mm1"})
test_a_gamma_1_that_rounds_to_one_is_refused_by_name = refused("gamma-1-rounds-to-1-analyze")
test_compare_mm1_refuses_a_gamma_1_that_rounds_to_one_as_analyze_does = refused({
    "rounds-to-1": "gamma-1-rounds-to-1-compare-mm1",
    "rounds-above-1": "gamma-1-above-1-compare-mm1"})
test_lattice_refuses_a_self_loop_that_rounds_to_one = refused({
    "analyze": "self-loop-analyze", "tailfit": "self-loop-tailfit"})
test_tandem_eta_names_its_fixed_table_instead_of_advising_a_larger_one = refused({
    "A": "eta-fixed-table-A", "B": "eta-fixed-table-B",
    "tiny-alpha": "eta-fixed-table-tiny-alpha"})
test_tandem_eta_tail_gate_names_its_fixed_table = refused("eta-tail-gate-T2")
test_analyze_model2_eta_gate_message = refused({
    "all-zero-window": "eta-tail-gate-zero-window", "rising-window": "eta-tail-gate-T2"})
test_tailfit_keeps_its_advice_to_enlarge_the_lattice = refused("tailfit-enlarge-lattice")
test_underflowing_roots_of_an_unstable_set_are_a_validation_error = refused({
    "model1": "unstable-underflow-model1", "tandem-p1": "unstable-underflow-tandem-p1",
    "tandem-p0.5": "unstable-underflow-tandem-p0.5"})
test_refusals_name_the_input_in_one_line = refused({
    "simulate-steps": "steps-0-simulate", "ldpath-steps": "steps-0-ldpath",
    "analyze-no-beta": "no-beta-analyze"})
test_compare_mm1_refuses_an_overloaded_matched_queue_in_one_line = refused({
    "divide-by-zero": "matched-load-inf-divide-by-zero",
    "overflow": "matched-load-inf-overflow"})
test_validation_error_exit_code = refused("lambda-negative")
test_non_finite_inputs_are_validation_errors = refused({
    f"{flag}-{value}": f"{flag[2:]}-{value}-compare-mm1"
    for flag, value in (("--lambda", "inf"), ("--mu", "inf"), ("--alpha", "inf"),
                        ("--beta", "inf"), ("--C", "inf"), ("--C", "nan"))})
test_extreme_rates_are_reported_or_refused_by_name = refused({
    "compare-t2-inf": "t2-inf-compare-mm1", "analyze-t2-inf": "t2-inf-analyze",
    "tailfit-singular": "lost-outflow-tailfit", "eta-singular": "lost-outflow-analyze",
    "eta-h-inf": "eta-weights-down-weight", "model1-down-weight": "down-weight-den-model1",
    "tandem-down-weight": "down-weight-den-tandem"})
test_negative_seed_and_base_level_are_validation_errors = refused({
    "simulate-seed": "seed-negative-simulate", "ldpath-seed": "seed-negative-ldpath",
    "ldpath-base-level": "base-level-negative-ldpath", "verify-seed": "seed-negative-verify"})
test_verify_rejects_empty_grid = refused({"0": "grid-zero-verify", "-3": "grid-negative-verify"})
test_rsrd_has_no_vanishing_breakdown_limits = refused("rsrd-limits")
test_compare_mm1_refuses_rsrd_above_the_matched_load = refused("matched-load-rsrd")
# the ids its cases have always carried: model, flags index, message fragment
test_tailfit_rejects_bad_window = refused({
    **{f"{model}-flags{3 * i + j}-needs kmin >= 0 and at least 5 levels": f"window-{window}-{model}"
       for i, model in enumerate(("model1", "model2", "rsrd"))
       for j, window in enumerate(("reversed", "short", "kmin-negative"))},
    **{f"{model}-flags{9 + 3 * i + j}---y {y} lies outside": f"y-{y.replace('-', 'minus-')}-{model}"
       for i, model in enumerate(("model2", "rsrd")) for j, y in enumerate(("50", "41", "-1"))},
    **{f"model1-flags{15 + j}---y {y} given, but Model 1 states have no y": f"y-{y}-on-model1"
       for j, y in enumerate(("50", "0"))}})
test_tailfit_rejects_empty_lattice = refused({"model2-1": "lattice-empty-model2",
                                              "rsrd-0.5": "lattice-empty-rsrd"})
# these rows ran here under their own names before the tests above took them
test_refusal_is_pinned = refused(keep={
    "t2-inf-compare-mm1", "t2-inf-analyze", "lost-outflow-analyze", "down-weight-den-model1",
    "down-weight-den-tandem", "seed-negative-simulate", "base-level-negative-ldpath",
    "grid-zero-verify", "rsrd-limits", "matched-load-rsrd"})


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
    # every chain's table states its balance residual and the mass outside it; Model 1's
    # exact table, on A, A at alpha = 1e-12 and T2's rates, ends at kmax
    wide = ["--kmin", "100", "--kmax", "300"]
    window = ["--kmin", "20", "--kmax", "30", "--xmax", "40"]
    for flags in ([*A_FLAGS, *wide], [*_rate_flags("10", "11", "1e-12", "10"), *wide],
                  [*T2_FLAGS, *window],
                  *[[*T2_FLAGS, "--model", model, "--p", p, *window]
                    for model, p in (("model2", "1"), ("model2", "0.5"), ("rsrd", "0.5"))]):
        assert main(["tailfit", *flags, "--out", str(tmp_path)]) == 0
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
