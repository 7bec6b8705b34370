"""Smoke runs of the study scripts at tiny sizes: each exits 0 and writes
what it promises."""

import importlib.util
from pathlib import Path

import pytest

from branchlab.cli import read_csv_rows
from branchlab.limits import REPORT_COLUMNS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "model, argv",
    [
        ("binary_gw.json", ["--k", "2", "--grid-step", "0.1"]),
        ("two_type_asymmetric.json", ["--k", "2", "--mode", "ultrametric", "--weights", "A=1.4,B=0.6"]),
        ("subcritical.json", ["--k", "1"]),
    ],
)
def test_convergence_study(tmp_path, capsys, model, argv):
    out = tmp_path / "rows.csv"
    argv = ["--model", str(CONFIGS / model), "--n0", "4", "--levels", "2", "--out", str(out)] + argv
    if model == "subcritical.json":
        with pytest.warns(UserWarning, match="not critical"):
            rc = load("convergence_study").main(argv)
    else:
        rc = load("convergence_study").main(argv)
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(REPORT_COLUMNS)
    meta, rows = read_csv_rows(str(out))
    assert meta == {}
    assert [r["n"] for r in rows] == [4, 8]
    printed = capsys.readouterr().out
    assert printed.startswith("# perron=")
    assert ("no limit column" in printed) == (model == "subcritical.json")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--functional", "pair_indicator", "--k", "1"], "pair_indicator needs k >= 2"),
        (["--k", "0"], "k must be at least 1"),
        (["--n0", "0"], "n must be at least 1"),
        (["--weights", "a=x"], "could not convert string to float"),
        (["--R", "inf"], "R must be a finite nonnegative number, got inf"),
        (["--R", "-1"], "R must be a finite nonnegative number, got -1.0"),
        (["--levels", "0"], "levels must be at least 1, got 0"),
        (["--levels", "-3"], "levels must be at least 1, got -3"),
    ],
)
def test_convergence_study_bad_input(capsys, argv, message):
    argv = ["--model", str(CONFIGS / "binary_gw.json")] + argv
    rc = load("convergence_study").main(argv)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_cpp_vs_formula(capsys):
    rc = load("cpp_vs_formula").main(
        ["--k", "2", "--phi", "pair_indicator", "--eps", "0.5", "0.2", "--n-samples", "400", "--n-inner", "2"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# formula=0.25 ")
    assert len(lines) == 5 and "within gate" in lines[-1]


def test_donsker_contour_check(capsys):
    # 200-step walks sit about 20% above the limit: a loose gate passes,
    # a tight one exits 3
    argv = ["--steps", "100", "200", "--n-excursions", "400", "--l-max", "50"]
    script = load("donsker_contour_check")
    assert script.main(argv + ["--rel-gate", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# reference=1 ")
    assert len(lines) == 5 and "within gate" in lines[-1]
    assert script.main(argv + ["--rel-gate", "0.05"]) == 3
    assert capsys.readouterr().err.startswith("FAIL: finest-level rel error")
