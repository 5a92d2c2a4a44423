"""The run path holds no reference code, and a run loads only what it runs.

Every module but ``oracles`` and ``suites`` is on the path of a ``visit``
or ``homog`` run.  Those modules import neither reference module, so the
brute-force checkers stay out of the code they check, and the word-level
references are defined in ``oracles`` alone.

The front end imports each command's modules inside the command, and the
package resolves its exports on first use, so a fresh interpreter running
``visit`` loads no coloring code and neither ``visit`` nor ``homog`` loads
the suites, the oracles, ``dataclasses`` or ``random``.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import colorvisit

PACKAGE = Path(colorvisit.__file__).parent
REFERENCE = {"oracles", "suites"}
RUN_PATH = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in REFERENCE)

# the front end dispatches the ``check`` command to the suites
ALLOWED = {"cli": {"suites"}}

MOVED = {
    "check_visit", "_Checker", "is_color_complete", "is_complete_for",
    "nth_expansion", "EntryNotInTree", "evaluate", "in_restricted",
    "lex_compare", "is_proper_prefix", "branch_census", "check_erdos_property",
}


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def package_imports(tree: ast.Module) -> list[tuple[str, bool]]:
    """Each package module an import statement names, and whether the
    statement sits under ``if TYPE_CHECKING:``."""
    typing_only = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            typing_only.update(id(n) for s in node.body for n in ast.walk(s))
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.ImportFrom) and node.level:
            names = ([node.module.split(".")[0]] if node.module
                     else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        for name in names:
            name = name.removeprefix("colorvisit.")
            found.append((name, id(node) in typing_only))
    return found


def test_run_path_imports_no_reference_module():
    assert "visit" in RUN_PATH and "__init__" in RUN_PATH
    for module in RUN_PATH:
        imported = {name for name, _ in package_imports(parse(module))}
        assert imported & REFERENCE <= ALLOWED.get(module, set()), module


def test_export_imports_erdos_only_for_annotations():
    erdos = [typing_only for name, typing_only in package_imports(parse("export"))
             if name == "erdos"]
    assert erdos and all(erdos)


def test_references_are_defined_only_in_oracles():
    defined = {}
    for path in PACKAGE.glob("*.py"):
        for node in parse(path.stem).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(path.stem, set()).add(node.name)
    assert MOVED <= defined["oracles"]
    for module, names in defined.items():
        if module != "oracles":
            assert not names & MOVED, module
    assert defined["visit"] == {
        "VisitError", "Visit", "lex_order", "visit_nodes", "enumerate_visit"}
    assert not hasattr(colorvisit.Visit, "order")
    assert not MOVED & set(vars(colorvisit))


# runs a command line in a fresh interpreter and prints the modules loaded
# by the end as its last line
FOOTPRINT = """
import sys
from colorvisit.cli import main
code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


def loaded_modules(argv, cwd, env) -> tuple[int, set[str]]:
    """Exit code of ``cli.main(argv)`` in a fresh interpreter, and every
    module loaded once it returns.

    ``-S`` keeps out the modules that ``site`` and ``.pth`` files import
    before any package code runs."""
    run = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT, *argv],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    code, *modules = run.stdout.splitlines()[-1].split()
    return int(code), set(modules)


def package_modules(modules: set[str]) -> set[str]:
    return {m.removeprefix("colorvisit.") for m in modules
            if m.startswith("colorvisit.")}


def test_visit_run_loads_only_the_visit_modules(tmp_path, cli_env):
    code, modules = loaded_modules(
        ["visit", "--tree", "full:2", "--budget", "1", "--out", "v.json"],
        tmp_path, cli_env)
    assert code == 0
    assert package_modules(modules) == {
        "cli", "words", "trees", "visit", "stability", "export"}
    # the trace of a builtin tree is written without the json module
    assert not {"dataclasses", "random", "json"} & modules


def test_homog_run_loads_no_reference_module(tmp_path, cli_env):
    code, modules = loaded_modules(
        ["homog", "--coloring", "x", "--k", "2", "--horizon", "2",
         "--budget", "1", "--out", "h.json"],
        tmp_path, cli_env)
    assert code == 0
    assert package_modules(modules) == {
        "cli", "words", "trees", "visit", "stability", "export",
        "colorings", "dsl", "erdos"}
    assert not {"dataclasses", "random"} & modules


def test_package_exports_resolve_on_first_use():
    assert colorvisit.__version__ == vars(colorvisit)["__version__"] == "0.1.0"
    assert len(set(colorvisit.__all__)) == len(colorvisit.__all__)
    for name in colorvisit.__all__:
        home = importlib.import_module(f"colorvisit.{colorvisit._EXPORTS[name]}")
        assert getattr(colorvisit, name) is getattr(home, name), name
    assert set(colorvisit.__all__) <= set(dir(colorvisit))
    assert "__version__" in dir(colorvisit)
    with pytest.raises(AttributeError, match="no_such_name"):
        colorvisit.no_such_name
    namespace: dict = {}
    exec("from colorvisit import *", namespace)
    for name in colorvisit.__all__:
        assert namespace[name] is getattr(colorvisit, name), name
