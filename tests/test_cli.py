import json

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


def test_compare_mm1(tmp_path):
    code = main(["compare-mm1", *A_FLAGS, "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "compare_mm1.json").read_text())
    assert report["comparison"]["dominance"] is True
    assert abs(report["comparison"]["mm1_ratio"] - 0.918182) < 1e-6


def test_verify_small_grid(capsys):
    code = main(["verify", "--grid", "24", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") >= 10 and "FAIL" not in out
