"""The option tables read the command line as argparse read it.

``cli.parse_args`` is compared with the argparse parser it replaced
(``argparse_reference.build_parser``) on generated argv: both give the
same values, or both fail with the same one-line message.  Three rules
differ on purpose and are pinned here on their own: option names are
exact, where argparse took any unique prefix; ``--help`` prints a usage
and returns 0, where argparse exited; and ``--name=--`` gives the value
``--``, where argparse gave an empty list that the commands crashed on.
"""

import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from argparse_reference import build_parser
from colorvisit.cli import COMMANDS, HELP, main, parse_args

NAMES = sorted({name for _, options, _ in COMMANDS.values()
                for name in options})

# values that an option after a space takes or refuses: negative numbers
# (Arabic-Indic digits and one final newline included), option look-alikes,
# empty text and text with a space
TRICKY = ["-3", "-.5", "-1.5", "-3.", "-3\n", "-٣", "-x", "-x y", "-",
          "--", "", "a b", "--k", "--emit", "a\nb", "zé"]
VALID = ["1", "json", "dot", "text", "full:2", "sum-mod", "x + y", "all"]

st_value = st.one_of(
    st.sampled_from(VALID),
    st.sampled_from(TRICKY),
    st.text(alphabet="-=.3x \n", max_size=4),
)

# the ways to give a command's required options valid values
REQUIRED = {
    "visit": [["--tree", "full:2"]],
    "homog": [["--coloring", "x"], ["--builtin", "sum-mod"], ["--table", "t"]],
    "check": [["--suite", "all"]],
}


@st.composite
def st_piece(draw, names, values, stray: bool) -> list[str]:
    """One option: ``--name value``, ``--name=value`` or the name alone
    (a flag, or a value missing); or, if ``stray``, a value alone or
    ``--``."""
    name, value = draw(st.sampled_from(names)), draw(values)
    forms = [[name, value], [f"{name}={value}"], [name]]
    return draw(st.sampled_from(forms + [[value], ["--"]] * stray))


@st.composite
def st_argv(draw) -> list[str]:
    """A command (one time in five none, or an unknown one), most times
    its required options, then options: the command's own with valid
    values, its own with any values or stray values, or any command's,
    ``--bogus`` or ``-x`` with any values or stray values."""
    if draw(st.integers(0, 4)):
        command = draw(st.sampled_from(list(COMMANDS)))
        own = list(COMMANDS[command][1])
    else:
        command, own = draw(st.sampled_from([None, "nope", ""])), []
    argv = [] if command is None else [command]
    if command in REQUIRED and draw(st.integers(0, 3)):
        argv += draw(st.sampled_from(REQUIRED[command]))
    mode = draw(st.integers(0, 2)) if own else 2
    piece = st_piece(own if mode < 2 else [*NAMES, "--bogus", "-x"],
                     st.sampled_from(VALID) if mode == 0 else st_value,
                     stray=mode > 0)
    for options in draw(st.lists(piece, max_size=6)):
        argv += options
    return argv


def read_differently(arg: str) -> bool:
    """Whether argparse read ``arg`` by a rule the tables drop: as an
    abbreviated option name, or as ``--name=--``, whose value argparse
    made an empty list."""
    name, _, value = arg.partition("=")
    if name in NAMES:
        return value == "--"
    return arg.startswith("--") and name not in HELP and any(
        n.startswith(name) for n in (*NAMES, *HELP))


def outcome(parse, argv):
    """``("ok", values)`` or ``("error", message)``."""
    try:
        args = parse(argv)
    except ValueError as exc:
        return "error", str(exc)
    values = {k: v for k, v in vars(args).items() if k != "command"}
    return "ok", values


@settings(max_examples=1000, deadline=None)
@given(argv=st_argv())
def test_tables_read_argv_as_argparse_did(argv):
    assume(not any(map(read_differently, argv)))
    expected = outcome(build_parser().parse_args, argv)
    got = outcome(parse_args, argv)
    if argv[:1] and argv[0] in COMMANDS:
        assert got == expected
    else:
        # argparse reports a missing command through whatever it met
        # first; both fail
        assert got[0] == expected[0] == "error"


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["-h", "nope"],
    *([command, "--help"] for command in COMMANDS),
    ["homog", "--k", "2", "-h", "--bogus"],
])
def test_help_prints_the_usage_and_returns_0(argv, capsys):
    """A usage line per command, or for the command given, that names
    every option."""
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    commands = [argv[0]] if argv[0] in COMMANDS else list(COMMANDS)
    assert [line.split()[:3] for line in lines] == [
        ["usage:", "colorvisit", command] for command in commands]
    for command, line in zip(commands, lines):
        words = line.translate(str.maketrans("[]()", "    ")).split()
        assert all(name in words for name in COMMANDS[command][1])


def test_help_after_an_error_is_not_reached(capsys):
    assert main(["visit", "--emit", "bad", "--help"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: argument --emit: invalid choice: 'bad' ")


def test_option_names_are_exact(capsys):
    argv = ["homog", "--builtin", "sum-mod", "--k", "2", "--hor", "5"]
    assert build_parser().parse_args(argv).horizon == "5"
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: unrecognized arguments: --hor 5\n")
    assert main(["homog", "--builtin", "sum-mod", "--k", "2",
                 "--horizon", "5", "--trace=t.json"]) == 2
    assert capsys.readouterr().err == (
        "error: unrecognized arguments: --trace=t.json\n")


def test_equals_dashes_is_the_value_dashes(capsys):
    for command, (_, options, group) in COMMANDS.items():
        for name, default in options.items():
            argv = [command, *REQUIRED[command][0], f"{name}=--"]
            if name in group:  # the one source
                argv[1:3] = []
            if default is False or type(default) is tuple:
                with pytest.raises(ValueError, match=f"argument {name}: "):
                    parse_args(argv)
            else:
                args = vars(parse_args(argv))
                assert args[name[2:].replace("-", "_")] == "--", argv
    assert main(["visit", "--tree=--"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown builtin tree '--', and no file has that name\n")


def test_console_script_reads_sys_argv(tmp_path, monkeypatch, capsys):
    """The ``colorvisit`` script calls ``main()`` with no argv."""
    out = tmp_path / "v.txt"
    monkeypatch.setattr(sys, "argv", [
        "colorvisit", "visit", "--tree", "unary", "--budget", "2",
        "--emit", "text", "--out", str(out)])
    assert main() == 0
    assert capsys.readouterr().out == (
        f"visit: 2 entries, terminated=False, wrote {out}\n")
    assert out.exists()
