"""The run path holds no reference code.

Every module but ``oracles`` and ``suites`` is on the path of a ``visit``
or ``homog`` run.  Those modules import neither reference module, so the
brute-force checkers stay out of the code they check, and the word-level
references are defined in ``oracles`` alone.
"""

import ast
from pathlib import Path

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
