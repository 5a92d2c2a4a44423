"""The experiment scripts under ``scripts/`` still run on the package API."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()
    return capsys.readouterr().out


def test_scripts_run_and_every_survey_row_is_verified(monkeypatch, capsys):
    growth = run_script("branch_growth", ["--budgets", "10,20,40"],
                        monkeypatch, capsys)
    # the committed color of each family: one edge fewer than the budget
    assert "      40       39" in growth  # unary chain
    assert "      40       38        0" in growth  # sum mod 2
    assert "      40        0        1       37" in growth  # sum mod 3

    survey = run_script("homog_survey", ["--horizon", "20", "--random-cases", "1"],
                        monkeypatch, capsys)
    rows = survey.splitlines()[1:]
    assert len(rows) == 9
    assert all(row.split()[-1] == "True" for row in rows)
    # the known-answer family: class 0 holds all but two branch edges
    assert "dsl(if x < 5 then x + y else 0)" in survey
    assert "H0=4 H1=1 H2=1" in survey
