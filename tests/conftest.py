from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import strategies as st

import colorvisit
from colorvisit.cli import MAX_MESSAGE
from colorvisit.colorings import Coloring
from colorvisit.corpus import TreeGenParams, complete_tree, random_tree
from colorvisit.dsl import BinOp, If, Lit, Neg, Var
from colorvisit.oracles import tree_to_dict, tree_words
from colorvisit.trees import FiniteColorTree, validate_tree
from colorvisit.visit import Visit, enumerate_visit


@dataclass
class CountingTree:
    """Tree wrapper that counts membership probes: its ``node`` calls."""

    inner: object
    probes: int = 0

    @property
    def k(self) -> int:
        return self.inner.k

    def node(self, w):
        self.probes += 1
        return self.inner.node(w)


class PredicateTree:
    """A possibly infinite word tree given by a pure membership predicate,
    which must accept the root and be closed under prefix.  Its nodes are
    its words, None off the tree, and a step builds the child's word and
    asks the predicate once.  It shares no code with the package's trees,
    so a visit of it is an independent spelling of the same tree."""

    def __init__(self, k: int, membership) -> None:
        self.k = k
        self.membership = membership

    def node(self, w):
        return w if self.membership(w) else None

    def step(self, c: int):
        def step(w):
            return self.node(w + (c,))

        return step


class ProbeLog:
    """Tree wrapper whose steps log every probe ``(node, c)`` in call order;
    the rest of the tree interface (``k`` and ``node``) is the inner
    tree's, unlogged."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.probes: list[tuple[object, int]] = []

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def step(self, c: int):
        inner = self.inner.step(c)

        def step(node):
            self.probes.append((node, c))
            return inner(node)

        return step


def dumps_canonical(obj: object) -> str:
    """The canonical JSON that ``export`` writes without the json module:
    sorted keys, no spaces and a final newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def save_tree(tree: FiniteColorTree, path: str) -> None:
    """Write ``tree`` as a tree file that ``trees.load_tree`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree_to_dict(tree), fh, sort_keys=True)
        fh.write("\n")


# the longest stderr line of an exit 2: the prefix, the message cut to
# ``MAX_MESSAGE`` characters and the mark of the cut
MAX_ERROR_LINE = len("error: ") + MAX_MESSAGE + len("...\n")


# the operators of a BinOp: arithmetic, min and max, and the comparisons
ARITHMETIC = ("+", "-", "*", "/", "%", "min", "max")
COMPARISONS = ("<", "<=", "==", "!=")

# coloring expressions: literals 0-9, x and y under every operator
st_expr = st.recursive(
    st.one_of(
        st.integers(0, 9).map(Lit),
        st.sampled_from(["x", "y"]).map(Var),
    ),
    lambda inner: st.one_of(
        inner.map(Neg),
        st.builds(BinOp, st.sampled_from(ARITHMETIC), inner, inner),
        st.builds(BinOp, st.sampled_from(COMPARISONS), inner, inner),
        st.builds(If, inner, inner, inner),
    ),
    max_leaves=12,
)


@st.composite
def st_visit_cases(draw) -> tuple[FiniteColorTree, tuple, tuple, int]:
    """The tree, priority, root and budget of a visit of a random finite
    tree: k from 1 to 3, a root drawn from the tree, a priority that may be
    empty or list only some colors, and a budget that may cut the visit
    short or leave room to finish it."""
    tree = random_tree(draw(st.builds(
        TreeGenParams,
        k=st.integers(1, 3),
        max_depth=st.integers(0, 5),
        max_nodes=st.integers(1, 30),
        branching=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )))
    root = draw(st.sampled_from(sorted(tree_words(tree))))
    colors = draw(st.permutations(range(tree.k)))
    priority = tuple(colors[: draw(st.integers(0, tree.k))])
    budget = draw(st.integers(1, tree.size + 1))
    return tree, priority, root, budget


def st_visits() -> st.SearchStrategy[Visit]:
    """The visits of ``st_visit_cases``."""
    return st_visit_cases().map(lambda case: enumerate_visit(*case))


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
    per ``Coloring.__call__`` and ``len(his)`` per ``Coloring.split``; tests
    reset it by assigning ``[0]``."""
    count = [0]
    call, split = Coloring.__call__, Coloring.split

    def counting_call(self, x, y):
        count[0] += 1
        return call(self, x, y)

    def counting_split(self, lo, his):
        count[0] += len(his)
        return split(self, lo, his)

    monkeypatch.setattr(Coloring, "__call__", counting_call)
    monkeypatch.setattr(Coloring, "split", counting_split)
    return count


def row_colors(row, lo, his) -> list:
    """The colors ``row(lo, his)`` gives, pair by pair: a row function may
    return one int for a row whose pairs all have that color."""
    colors = row(lo, his)
    return [colors] * len(his) if type(colors) is int else colors


def first_appearance_groups(his, colors) -> dict:
    """``{color: [hi, ...]}`` pairing ``his`` with ``colors``, the colors
    in order of first appearance: what ``Coloring.split`` returns."""
    groups: dict = {}
    for hi, color in zip(his, colors):
        groups.setdefault(color, []).append(hi)
    return groups


@pytest.fixture
def binary_depth2() -> FiniteColorTree:
    return complete_tree(2, 2)


@pytest.fixture
def binary_depth1() -> FiniteColorTree:
    return validate_tree([(), (0,), (1,)], 2)
