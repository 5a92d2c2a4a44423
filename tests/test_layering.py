"""The run path holds no reference code, and a run loads only what it runs.

Every module but ``oracles``, ``suites`` and ``corpus`` is on the path of
a ``visit`` or ``homog`` run.  Those modules import none of the three, so
the brute-force checkers and the seeded test data stay out of the code
they check, and the word-level references are defined in ``oracles``
alone.

The front end imports each command's modules inside the command, and the
package resolves its exports on first use, so a fresh interpreter running
``visit`` loads no coloring code and neither ``visit`` nor ``homog`` loads
the suites, the oracles, ``dataclasses`` or ``random``.  No package module
imports ``dataclasses``, so ``check`` loads it neither.  Only the readers
of table and tree files import ``json``, inside the reader, so neither a
``homog`` run from an expression nor a ``check`` run loads it.  Only
``trees`` defines a class with a ``step``, so a run has one finite tree,
and only ``trees`` reads that tree's child maps.  The front end reads its
options from tables, so no run loads ``argparse``, or the ``gettext`` and
``locale`` that argparse's messages load.
"""

import ast
import importlib
import itertools
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import colorvisit
from colorvisit.trees import FiniteColorTree

PACKAGE = Path(colorvisit.__file__).parent
REFERENCE = {"oracles", "suites", "corpus"}
RUN_PATH = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in REFERENCE)

# the front end dispatches the ``check`` command to the suites
ALLOWED = {"cli": {"suites"}}

MOVED = {
    "check_visit", "_Checker", "is_complete_for", "nth_expansion",
    "evaluate", "in_restricted", "is_proper_prefix",
    "branch_census", "check_erdos_property", "build_by_insertion",
    "visit_by_definition", "tree_to_dict",
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


def module_level_imports(tree: ast.Module) -> set[str]:
    """The top-level names of every module imported when ``tree`` runs,
    that is outside function bodies."""
    names = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
        pending.extend(ast.iter_child_nodes(node))
    return names


def test_no_module_imports_json_at_module_level():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py"))
    assert "colorings" in modules and "typing" in module_level_imports(
        parse("colorings"))
    for module in modules:
        assert "json" not in module_level_imports(parse(module)), module


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
    assert defined["erdos"] == {
        "ErdosError", "build_erdos", "HomogeneousReport",
        "extract_homogeneous", "homog_pipeline"}
    # the two trees a run builds, and no predicate tree or word-tree base
    assert defined["trees"] == {
        "TreeError", "FiniteColorTree", "FullColorTree", "validate_tree",
        "full_tree", "builtin_tree", "tree_from_dict", "load_tree"}
    assert not hasattr(colorvisit.Visit, "order")
    assert not MOVED & set(vars(colorvisit))


def test_only_trees_defines_a_tree():
    """A class with a ``step`` method is a color tree, and every color tree
    is defined in ``trees``: a second finite tree class does not return.
    A tree answers ``node`` and ``step`` and, if finite, ``size``: no
    second membership query such as ``contains`` returns."""
    with_step = {
        (path.stem, node.name): {f.name for f in node.body
                                 if isinstance(f, ast.FunctionDef)
                                 and not f.name.startswith("_")}
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(parse(path.stem))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "step"
                for f in node.body)}
    assert with_step == {("trees", "FiniteColorTree"): {"size", "node", "step"},
                         ("trees", "FullColorTree"): {"node", "step"}}
    assert isinstance(vars(FiniteColorTree)["size"], property)


def test_only_trees_reads_a_finite_trees_child_maps():
    """``trees`` alone builds and reads the per-color child maps: every
    other module hands a finite tree its ``parent`` and ``edge_color`` and
    reaches children through ``step``."""
    readers = {path.stem for path in PACKAGE.glob("*.py")
               for node in ast.walk(parse(path.stem))
               if isinstance(node, ast.Attribute) and node.attr == "children"}
    assert readers == {"trees"}


def callers(module: str, names: set[str]) -> set[tuple]:
    """``(module, definition, name)`` for each call of one of ``names``
    in ``module``, by the top-level definition that holds it (``None`` for
    a statement outside every definition)."""
    found = set()
    for top in parse(module).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name in names:
                    found.add((module, getattr(top, "name", None), name))
    return found


def test_only_enumerate_visit_runs_the_visit():
    """A run's visit has one entry: no other run-path code drives the frame
    loop or assembles a ``Visit`` of its own.  The suites' budget cuts
    slice a finished visit."""
    visit_calls = {"visit_nodes", "Visit"}
    found = set().union(*(callers(module, visit_calls) for module in RUN_PATH))
    assert found == {("visit", "enumerate_visit", "visit_nodes"),
                     ("visit", "enumerate_visit", "Visit")}
    assert callers("suites", visit_calls) == {("suites", "suite_expansions", "Visit")}


# the package's errors: one a module, and the coloring language's three,
# whose fields build their messages
ERRORS = {
    "trees.TreeError", "colorings.ColoringError", "visit.VisitError",
    "erdos.ErdosError", "words.InvalidPriority", "dsl.DslSyntaxError",
    "dsl.UnknownIdentifier", "dsl.DivisionByZero"}


def test_each_error_class_is_a_config_error():
    """The package defines only the errors in ``ERRORS``, and the front end
    turns each into one ``error:`` line and exit 2."""
    from colorvisit.cli import _CONFIG_ERRORS

    found = {}
    for path in PACKAGE.glob("*.py"):
        module = importlib.import_module(
            "colorvisit" if path.stem == "__init__" else f"colorvisit.{path.stem}")
        for value in vars(module).values():
            if (isinstance(value, type) and issubclass(value, BaseException)
                    and value.__module__ == module.__name__):
                found[f"{path.stem}.{value.__name__}"] = value
    assert set(found) == ERRORS
    for name, error in found.items():
        assert issubclass(error, _CONFIG_ERRORS), name


def parser_tokens(module: str) -> int:
    """The tokens CPython's parser reads from a module: all but comments
    and non-logical newlines."""
    with open(PACKAGE / f"{module}.py", encoding="utf-8") as f:
        return sum(1 for t in tokenize.generate_tokens(f.readline)
                   if t.type not in (tokenize.COMMENT, tokenize.NL))


def test_oracles_stays_below_the_parser_step():
    """CPython 3.11's parser doubles its token array at 4096 tokens, and
    every ``check`` run compiles ``oracles`` on a cold tree.  Taking it
    from 4084 to 4299 tokens once raised the peak memory of
    ``check --suite all --seed 3 --cases 200`` from 15.711 to 15.855 MB
    (medians of 5 cold runs on one CPU)."""
    assert parser_tokens("oracles") < 4096


def test_corpus_stays_below_the_parser_step():
    """The parser's token array starts at 1024 tokens, and every ``check``
    run compiles ``corpus`` on a cold tree.  ``visit.py`` crossing 1024
    (995 -> 1161 tokens) raised the peak memory of compiling it from 369 to
    474 KiB, and check-suites' ``peak_rss_mb`` by 0.12 MB (15.729 -> 15.852
    over 10 perfbench pairs), as recorded in CHANGES.md's FOUND line on
    ``visit.py``."""
    assert parser_tokens("corpus") < 1024


def top_level_names(tree: ast.Module) -> list[str]:
    """The functions, classes and assigned names a module defines at its
    top level, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign):
            names.append(node.target.id)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def exported_keys(tree: ast.Module) -> set[int]:
    """The ids of the string keys of an ``_EXPORTS = {...}`` in ``tree``."""
    return {id(key) for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
            and any(isinstance(t, ast.Name) and t.id == "_EXPORTS"
                    for t in node.targets)
            for key in node.value.keys}


def name_counts(paths) -> Counter:
    """How often each identifier occurs in the files as a name, an
    attribute, a function or class definition, or a string constant that
    spells it (as ``setattr`` does).  The keys of ``_EXPORTS`` do not
    count: exporting a name does not use it, so an export cannot keep dead
    code alive.

    Read from the syntax tree, so a name used only inside an f-string's
    braces counts; a tokenizer reads a whole f-string as one string."""
    counts: Counter = Counter()
    for path in paths:
        tree = ast.parse(Path(path).read_text(encoding="utf-8"))
        exported = exported_keys(tree)
        for node in ast.walk(tree):
            if id(node) in exported:
                continue
            if isinstance(node, ast.Name):
                counts[node.id] += 1
            elif isinstance(node, ast.Attribute):
                counts[node.attr] += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                counts[node.name] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                counts[node.value] += 1
    return counts


def test_every_top_level_name_is_used():
    """A package name that occurs only in its own definition is dead code:
    nothing in the package, the tests or the scripts names it."""
    root = Path(__file__).resolve().parent.parent
    files = [*PACKAGE.glob("*.py"), *root.glob("tests/*.py"), *root.glob("scripts/*.py")]
    counts = name_counts(files)
    defined = Counter(name for path in PACKAGE.glob("*.py")
                      for name in top_level_names(parse(path.stem)))
    assert "FiniteColorTree" in defined
    unused = sorted(n for n, d in defined.items() if counts[n] <= d)
    assert unused == []


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


# what an argparse front end would load
PARSER_MODULES = {"argparse", "gettext", "locale"}


def package_modules(modules: set[str]) -> set[str]:
    return {m.removeprefix("colorvisit.") for m in modules
            if m.startswith("colorvisit.")}


def test_visit_run_loads_only_the_visit_modules(tmp_path, cli_env):
    code, modules = loaded_modules(
        ["visit", "--tree", "full:2", "--budget", "1", "--out", "v.json"],
        tmp_path, cli_env)
    assert code == 0
    assert package_modules(modules) == {
        "cli", "words", "trees", "visit", "export"}
    # the trace of a builtin tree is written without the json module
    assert not {"dataclasses", "random", "json", *PARSER_MODULES} & modules


def test_homog_run_loads_no_reference_module(tmp_path, cli_env):
    # a builtin coloring is compiled from its expression, as --coloring is;
    # the report and the trace are written without the json module
    for emit, source in itertools.product(
            ["json", "dot", "text"], [["--coloring", "x"], ["--builtin", "sum-mod"]]):
        code, modules = loaded_modules(
            ["homog", *source, "--k", "2", "--horizon", "2",
             "--budget", "1", "--emit", emit, "--out", "h.out",
             "--trace-out", "t.json"],
            tmp_path, cli_env)
        assert code == 0
        assert package_modules(modules) == {
            "cli", "words", "trees", "visit", "export", "colorings", "dsl",
            "erdos"}
        assert not {"dataclasses", "random", "json", *PARSER_MODULES} & modules


def test_homog_table_loads_no_dsl(tmp_path, cli_env):
    (tmp_path / "t.json").write_text('{"k": 2, "pairs": [[0, 1, 1]]}')
    code, modules = loaded_modules(
        ["homog", "--table", "t.json", "--horizon", "2", "--budget", "1",
         "--out", "h.json"],
        tmp_path, cli_env)
    assert code == 0
    assert package_modules(modules) == {
        "cli", "words", "trees", "visit", "export", "colorings", "erdos"}
    assert not PARSER_MODULES & modules


def test_check_run_loads_no_dataclasses(tmp_path, cli_env):
    code, modules = loaded_modules(
        ["check", "--suite", "all", "--cases", "1"], tmp_path, cli_env)
    assert code == 0
    assert not {"dataclasses", "json", *PARSER_MODULES} & modules


def test_package_exports_resolve_on_first_use():
    assert colorvisit.__version__ == vars(colorvisit)["__version__"] == "0.1.0"
    assert colorvisit.__all__ == ["Visit", "dsl_coloring", "homog_pipeline"]
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
