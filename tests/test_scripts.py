"""Smoke run of the study script at tiny sizes: it exits 0 and writes
what it promises, and 3 when its gate fails."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
