import json

import pytest

from uqtail import Model, __version__, make_params, params_from_dict
from uqtail.cli import main

A_FLAGS = ["--lambda", "10", "--mu", "11", "--alpha", "0.1", "--beta", "10"]


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


def test_tailfit_csv(tmp_path, capsys):
    code = main(["tailfit", *A_FLAGS, "--kmin", "100", "--kmax", "160",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "gamma_est=0.919" in capsys.readouterr().out
    lines = (tmp_path / "tailfit.csv").read_text().splitlines()
    assert "k,pi,model_prediction,relative_error" in lines


T2_FLAGS = ["--lambda", "10", "--mu", "30", "--alpha", "0.1", "--beta", "10"]


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


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_verify_rejects_empty_grid(capsys, grid):
    assert main(["verify", "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert f"grid must be >= 1, got {grid}" in captured.err
    assert "PASS" not in captured.out


def test_verify_small_grid(capsys):
    code = main(["verify", "--grid", "24", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") >= 10 and "FAIL" not in out


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
    # the trajectory prints the parameters with str(), the other files with 17 digits
    assert _header(tmp_path / "trajectory.csv") == start + [
        "# mu=30.0", "# alpha=0.1", "# beta=10.0", "# p=1.0", "# C=80.1", "# lambda=10.0",
        "# model=model2", "# seed=4"]
    params = ["# mu=30", "# alpha=0.10000000000000001", "# beta=10", "# p=1",
              "# C=80.099999999999994", "# lambda=10", "# model=model2"]
    assert _header(tmp_path / "empirical.csv") == start + params + [
        "# seed=4", "# burn_in=10", "# steps=100"]
    tailfit = _header(tmp_path / "tailfit.csv")
    assert tailfit[:9] == start + params
    assert [line.split("=")[0] for line in tailfit[9:]] == [
        "# gamma_est", "# log_prefactor_est", "# k_min", "# k_max"]


def test_params_file_round_trip_keeps_the_model(tmp_path):
    params = make_params(10, 30, 0.1, 10, p=0.5, model=Model.MODEL2, C=90.0)
    cfg = tmp_path / "params.json"
    cfg.write_text(params.to_json())
    assert main(["analyze", "--params", str(cfg), "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "analyze.json").read_text())["meta"]
    assert meta["model"] == "model2"
    assert params_from_dict(meta["params"]) == params
