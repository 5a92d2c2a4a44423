"""The command-line contract on generated input.

Whatever the text of the options, ``visit`` and ``homog`` end with exit 0,
2 or 3 and ``check`` with exit 0, 1 or 2, never with a traceback; every
exit 2 prints one bounded ``error:`` line on stderr; and the same argv run
twice writes the same bytes.  The commands run in-process through
``cli.main``, each example in its own temporary directory.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from colorvisit.cli import SUITE_NAMES, main
from colorvisit.corpus import TreeGenParams, random_tree
from colorvisit.dsl import to_text
from conftest import MAX_ERROR_LINE, st_expr

# capsys is drained after every run, so one capture serves all examples
CONTRACT = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# option values go after "=", so text that starts with "-" stays a value;
# long text meets the bound on diagnostics
st_junk = st.one_of(st.text(max_size=30), st.text(min_size=200, max_size=300))

class FileText(str):
    """Option text that goes into a file, whose path the option gets."""


# a small tree file, or a file that is no tree
st_tree_file = st.one_of(
    st.builds(
        TreeGenParams,
        k=st.integers(1, 3),
        max_depth=st.integers(0, 4),
        max_nodes=st.integers(1, 20),
        branching=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    ).map(lambda p: json.dumps(
        {"k": p.k, "nodes": sorted(map(list, random_tree(p).nodes))})),
    st.sampled_from(['{"k": 2, "nodes": [[], [5]]}', '{"k": 2}', "[", "{}"]),
).map(FileText)

# wrong values for the options that both visit and homog take
WRONG = {
    "--budget": st.one_of(st.integers(-2, 0).map(str), st_junk),
    "--priority": st.one_of(st.sampled_from(["0", "0,0", "1,0,1", "x", "0,9"]),
                            st_junk),
    "--emit": st_junk,
    # an option no command takes
    "--bogus": st_junk,
}


@st.composite
def st_options(draw, valid: dict, wrong: dict) -> dict:
    """Each option drawn from its valid values; about one time in two, one
    option drawn from its wrong values instead, where None drops a
    required option."""
    options = {name: draw(values) for name, values in valid.items()}
    name = draw(st.one_of(st.none(), st.none(), st.sampled_from(sorted(wrong))))
    if name is not None:
        options[name] = draw(wrong[name])
    return options


def priorities(k: int):
    """No priority, or a permutation of all k colors."""
    return st.one_of(st.none(), st.permutations(range(k)).map(
        lambda p: ",".join(map(str, p))))


@st.composite
def st_homog(draw) -> dict:
    k = draw(st.integers(1, 6))
    source = draw(st.sampled_from(["--builtin", "--coloring", "--table"]))
    builtins = st.one_of(
        st.sampled_from(["sum-mod", "diff-mod"]),
        st.integers(0, k - 1).map("constant:{}".format),
        st.integers(1, 9).map("block:{}".format),
    )
    table = st.builds(
        lambda size, seed: json.dumps({"k": k, "pairs": [
            [x, y, (x * 7 + y * 3 + seed) % k]
            for x in range(size) for y in range(x + 1, size)]}),
        st.integers(0, 40), st.integers(0, 99),
    ).map(FileText)
    valid = {
        source: {"--builtin": builtins, "--coloring": st_expr.map(to_text),
                 "--table": table}[source],
        # a table declares its own k
        "--k": st.one_of(st.none(), st.just(str(k))) if source == "--table"
        else st.just(str(k)),
        "--horizon": st.integers(1, 40).map(str),
        "--budget": st.integers(1, 200).map(str),
        "--priority": priorities(k),
        "--emit": st.sampled_from(["json", "dot", "text"]),
        "--strict": st.booleans(),
    }
    wrong = {
        **WRONG,
        source: st.one_of(st.none(), {
            "--builtin": st.one_of(st.sampled_from(
                [f"constant:{k}", "constant:-1", "block:0", "block:",
                 "table:t.json", "sum-mod "]), st_junk),
            "--coloring": st_junk,
            "--table": st_tree_file,
        }[source]),
        "--k": st.one_of(st.none(), st.integers(-2, 0).map(str),
                         st.just(str(k + 1)), st_junk),
        "--horizon": st.one_of(st.integers(-2, 0).map(str), st_junk),
    }
    return draw(st_options(valid, wrong))


@st.composite
def st_visit(draw) -> dict:
    # a builtin tree of k colors, or a tree file (k None)
    k = draw(st.one_of(st.none(), st.integers(1, 4)))
    tree = (st_tree_file if k is None
            else st.just("unary" if k == 1 else f"full:{k}"))
    valid = {
        "--tree": tree,
        "--root": st.just("") if k is None else st.sampled_from(["", "0"]),
        "--budget": st.integers(1, 200).map(str),
        "--priority": st.none() if k is None else priorities(k),
        "--emit": st.sampled_from(["json", "dot", "text"]),
    }
    wrong = {
        **WRONG,
        "--tree": st.one_of(
            st.sampled_from(["full:0", "full:-1", "full:x"]), st_junk,
            st_junk.map("full:{}".format), st.none()),
        "--root": st.sampled_from(["x", "1,0,5", "-1"]),
    }
    return draw(st_options(valid, wrong))


@st.composite
def st_check(draw) -> dict:
    valid = {
        "--suite": st.sampled_from([*SUITE_NAMES, "all"]),
        "--cases": st.integers(1, 2).map(str),
        "--seed": st.one_of(st.none(), st.integers(-5, 10**6).map(str)),
    }
    wrong = {
        "--suite": st.one_of(st_junk, st.none()),
        "--cases": st.one_of(st.integers(-1, 0).map(str), st_junk),
        "--seed": st_junk,
        "--bogus": st_junk,
    }
    return draw(st_options(valid, wrong))


def run(argv, outdir: Path, capsys):
    """Exit code, stdout, stderr and every file written under ``outdir``."""
    shutil.rmtree(outdir, ignore_errors=True)
    code = main(argv)
    captured = capsys.readouterr()
    files = {}
    if outdir.exists():
        files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    return code, captured.out, captured.err, files


def argv_of(command: str, options: dict, root: Path) -> list[str]:
    """The argv of ``options``: a flag for True, ``name=value`` for text,
    nothing for None and False; file text is written under ``root``."""
    argv = [command]
    for name, value in options.items():
        if isinstance(value, FileText):
            path = root / f"{name.strip('-')}.json"
            path.write_text(value)
            value = path
        if value is True:
            argv.append(name)
        elif value is not None and value is not False:
            argv.append(f"{name}={value}")
    return argv


def check_contract(command: str, options: dict, outputs: list[str], capsys,
                   codes=(0, 2, 3)):
    """Run the command twice in a fresh directory, each output option
    naming a file under ``out/``, and check the contract: an exit code
    in ``codes``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out = root / "out"
        argv = argv_of(command, options, root)
        argv += [f"{name}={out / name.strip('-')}" for name in outputs]
        first = run(argv, out, capsys)
        code, _, err, _ = first
        assert code in codes, (argv, err)
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert err.endswith("\n") and len(err) <= MAX_ERROR_LINE, err
        assert run(argv, out, capsys) == first


@CONTRACT
@given(options=st_homog())
def test_homog_contract(options, capsys):
    check_contract("homog", options, ["--out", "--trace-out"], capsys)


@CONTRACT
@given(options=st_visit())
def test_visit_contract(options, capsys):
    check_contract("visit", options, ["--out"], capsys)


@CONTRACT
@given(options=st_check())
def test_check_contract(options, capsys):
    check_contract("check", options, [], capsys, codes=(0, 1, 2))


@pytest.mark.parametrize("value", ["a\nb", "a\r\nb", "z\u00e9", "\u2028"])
def test_argparse_errors_quote_values_as_given(value, capsys):
    """An invalid choice keeps argparse's own quoting, and an unknown
    option is echoed with only its line breaks escaped."""
    homog = ["homog", "--builtin", "sum-mod", "--k", "2"]
    assert main([*homog, f"--emit={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument --emit: invalid choice: {value!r} ")
    assert err.count("\n") == 1
    assert main([*homog, f"--bogus={value}"]) == 2
    shown = value.replace("\r", "\\r").replace("\n", "\\n")
    assert capsys.readouterr().err == (
        f"error: unrecognized arguments: --bogus={shown}\n"
    )
