"""The experiment script under ``scripts/`` still runs on the package API."""

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


def test_branch_growth_prints_the_committed_colors(monkeypatch, capsys):
    growth = run_script("branch_growth", ["--budgets", "10,20,40"],
                        monkeypatch, capsys)
    # the committed color of each family: one edge fewer than the budget
    assert "      40       39" in growth  # unary chain
    assert "      40       38        0" in growth  # sum mod 2
    assert "      40        0        1       37" in growth  # sum mod 3
