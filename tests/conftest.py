from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import pytest

import colorvisit
from colorvisit.colorings import Coloring
from colorvisit.oracles import complete_tree
from colorvisit.trees import FiniteColorTree, OracleColorTree, validate_tree


@dataclass
class CountingTree:
    """Tree wrapper that counts membership probes."""

    inner: object
    probes: int = 0

    @property
    def k(self) -> int:
        return self.inner.k

    @property
    def nodes(self):
        return self.inner.nodes

    def contains(self, w) -> bool:
        self.probes += 1
        return self.inner.contains(w)


@pytest.fixture
def cli_env() -> dict[str, str]:
    """Environment for ``python -m colorvisit.cli`` child processes.

    ``PYTHONPATH`` starts with the absolute directory that holds the
    ``colorvisit`` package this process imported, followed by any inherited
    entries, so a child started in any working directory runs the same code
    as the tests, whether or not the package is installed."""
    src = str(Path(colorvisit.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, inherited]) if inherited else src
    return env


@pytest.fixture
def pair_evaluations(monkeypatch) -> list[int]:
    """One-element list counting the pairs every coloring evaluates, one
    per ``Coloring.__call__`` and ``len(his)`` per ``Coloring.row``; tests
    reset it by assigning ``[0]``."""
    count = [0]
    call, row = Coloring.__call__, Coloring.row

    def counting_call(self, x, y):
        count[0] += 1
        return call(self, x, y)

    def counting_row(self, lo, his):
        count[0] += len(his)
        return row(self, lo, his)

    monkeypatch.setattr(Coloring, "__call__", counting_call)
    monkeypatch.setattr(Coloring, "row", counting_row)
    return count


@pytest.fixture
def binary_depth2() -> FiniteColorTree:
    return complete_tree(2, 2)


@pytest.fixture
def binary_depth1() -> FiniteColorTree:
    return validate_tree([(), (0,), (1,)], 2)


@pytest.fixture
def counting_binary_depth2() -> CountingTree:
    return CountingTree(complete_tree(2, 2))
