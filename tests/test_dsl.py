import itertools
import json
import random
import re
import string
import sys

import pytest
from hypothesis import given, strategies as st

from colorvisit.cli import main
from colorvisit.colorings import (
    Coloring,
    ColoringError,
    builtin_coloring,
    table_coloring,
    table_from_dict,
)
from colorvisit.dsl import (
    BinOp,
    DivisionByZero,
    DslSyntaxError,
    If,
    Lit,
    MAX_DEPTH,
    Neg,
    UnknownIdentifier,
    Var,
    compile_row,
    dsl_coloring,
    fold_rows,
    parse,
    row_source,
    to_text,
)
from colorvisit.oracles import evaluate
from conftest import (
    ARITHMETIC,
    COMPARISONS,
    first_appearance_groups,
    row_colors,
    st_expr,
)


def test_parse_shapes():
    expr = parse("(x + y) % 2")
    assert expr == BinOp("%", BinOp("+", Var("x"), Var("y")), Lit(2))
    cond = parse("if x < y then 0 else 1")
    assert cond == If(BinOp("<", Var("x"), Var("y")), Lit(0), Lit(1))
    assert parse("-x") == Neg(Var("x"))
    assert parse("min(x, y) % 3") == BinOp("%", BinOp("min", Var("x"), Var("y")), Lit(3))


def test_parse_reports_position():
    with pytest.raises(DslSyntaxError) as info:
        parse("x + * y")
    assert info.value.position == 4
    with pytest.raises(DslSyntaxError):
        parse("")
    with pytest.raises(DslSyntaxError):
        parse("1 + if x < y then 0 else 1")


@pytest.mark.parametrize(
    "source, position",
    [("x + \u0663\u0663", 4), ("x + \u00b2", 4), ("x + \uff13", 4), ("x + 1\u0663", 5)],
)
def test_literals_take_ascii_digits_only(source, position):
    # str.isdigit takes Arabic-Indic, superscript and full-width digits too
    with pytest.raises(DslSyntaxError) as info:
        parse(source)
    assert info.value.position == position
    assert parse("x + 0033") == BinOp("+", Var("x"), Lit(33))


def test_literal_past_the_digit_limit_is_a_positioned_syntax_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    with pytest.raises(DslSyntaxError) as info:
        parse("x + " + "9" * (limit + 1))
    assert info.value.position == 4
    assert f"found a number of {limit + 1} digits" in str(info.value)
    assert "set_int_max_str_digits" not in str(info.value)


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as info:
        parse("x + zebra")
    assert info.value.name == "zebra"


def test_precedence_and_associativity():
    assert parse("1 + 2 * 3") == BinOp("+", Lit(1), BinOp("*", Lit(2), Lit(3)))
    assert parse("8 - 3 - 2") == BinOp("-", BinOp("-", Lit(8), Lit(3)), Lit(2))
    assert evaluate(parse("8 - 3 - 2"), 0, 1) == 3
    assert evaluate(parse("8 / 2 / 2"), 0, 1) == 2
    # comparisons do not chain; brackets nest them
    for source, position, expected in (
        ("x < y < 1", 6, "end of input, found <"),
        ("x == y != 1", 7, "end of input, found !="),
        ("if x < y < 1 then 0 else 1", 9, "then, found <"),
    ):
        with pytest.raises(DslSyntaxError) as info:
            parse(source)
        assert info.value.position == position
        assert str(info.value).endswith(f"expected one of {expected}")
    nested = parse("(x < y) < 1")
    assert nested == BinOp("<", BinOp("<", Var("x"), Var("y")), Lit(1))
    assert to_text(nested) == "(x < y) < 1"


def test_eval_examples():
    assert dsl_coloring("(x+y)%2", 2)(3, 4) == 1
    assert dsl_coloring("0", 3)(10, 99) == 0
    assert dsl_coloring("min(x,y)%3", 3)(7, 2) == 2


def test_eval_symmetry_by_canonicalization():
    coloring = dsl_coloring("x", 5)
    assert coloring(2, 9) == coloring(9, 2) == 2


def test_eval_comparison_yields_bit():
    assert evaluate(parse("x < y"), 1, 2) == 1
    assert evaluate(parse("x <= x"), 1, 2) == 1
    assert evaluate(parse("x == y"), 1, 2) == 0
    assert evaluate(parse("x != y"), 1, 2) == 1


def test_division_conventions():
    assert evaluate(parse("x / 0"), 7, 8) == 0
    assert evaluate(parse("x % 0"), 7, 8) == 7
    with pytest.raises(DivisionByZero):
        evaluate(parse("x / 0"), 7, 8, strict=True)
    with pytest.raises(DivisionByZero):
        evaluate(parse("x % 0"), 7, 8, strict=True)
    # floor semantics on negatives
    assert evaluate(parse("-7 / 2"), 0, 1) == -4
    assert evaluate(parse("-7 % 2"), 0, 1) == 1
    # the compiled evaluator keeps every convention, literal divisor or not
    sources = ["x / 0", "x % 0", "x / y", "x % y", "(x + 3) % (y - 1)",
               "-7 / 2", "-7 % 2", "-7 / y", "-7 % y", "x / -(y)"]
    for source in sources:
        for strict in (False, True):
            for x, y in ((7, 0), (7, 1), (7, 2), (0, 3)):
                for k in (2, 5, 10**9):
                    assert compiled_or_error(
                        parse(source), x, y, strict, k
                    ) == reference_or_error(parse(source), x, y, strict, k)


def test_coloring_rejects_equal_endpoints():
    with pytest.raises(ColoringError):
        dsl_coloring("0", 2)(3, 3)


@given(expr=st_expr)
def test_pretty_print_parse_round_trip(expr):
    text = to_text(expr)
    reparsed = parse(text)
    assert to_text(reparsed) == text
    for x, y in ((0, 1), (3, 7), (12, 5)):
        assert evaluate(reparsed, x, y) == evaluate(expr, x, y)


def bracket_pairs(text: str) -> list[tuple[int, int]]:
    """The positions of each matching pair of parentheses in ``text``."""
    pairs, opened = [], []
    for i, ch in enumerate(text):
        if ch == "(":
            opened.append(i)
        elif ch == ")":
            pairs.append((opened.pop(), i))
    return pairs


@given(expr=st_expr)
def test_pretty_print_brackets_are_minimal(expr):
    # without any one pair of brackets that is not a call's, the text no
    # longer parses, or it parses to another tree
    text = to_text(expr)
    for open_, close in bracket_pairs(text):
        if text[open_ - 3:open_] in ("min", "max"):
            continue
        shorter = text[:open_] + text[open_ + 1:close] + text[close + 1:]
        try:
            assert parse(shorter) != expr, shorter
        except DslSyntaxError:
            pass


@given(expr=st_expr, x=st.integers(0, 10**9), y=st.integers(0, 10**9))
def test_eval_is_deterministic_and_total(expr, x, y):
    assert evaluate(expr, x, y) == evaluate(expr, x, y)


@given(
    source=st.text(
        alphabet=string.digits + "xy+-*/%()<=!, minaxfthe", max_size=40
    )
)
def test_parser_totality_fuzz(source):
    try:
        parse(source)
    except (DslSyntaxError, UnknownIdentifier):
        pass


def test_dsl_coloring_symmetry_sample():
    rng = random.Random(0)
    coloring = dsl_coloring("if x < y then x * 2 else y + 1", 4)
    for _ in range(10_000):
        x, y = rng.randrange(10**9), rng.randrange(10**9)
        if x == y:
            continue
        c = coloring(x, y)
        assert c == coloring(y, x)
        assert 0 <= c < 4


def test_builtins():
    assert builtin_coloring("constant:1", 3)(4, 9) == 1
    assert builtin_coloring("sum-mod", 2)(2, 5) == 1
    assert builtin_coloring("diff-mod", 3)(2, 5) == 0
    assert builtin_coloring("block:4", 2)(1, 99) == 0
    assert builtin_coloring("block:4", 2)(5, 99) == 1
    with pytest.raises(ColoringError, match="^unknown builtin coloring 'nosuch'$"):
        builtin_coloring("nosuch", 2)
    with pytest.raises(ColoringError, match="^unknown builtin coloring 'block:x'$"):
        builtin_coloring("block:x", 2)
    for name in ("block:\u0662", "block:1_0", "constant:\u0661", "constant:+1"):
        with pytest.raises(ColoringError) as info:
            builtin_coloring(name, 2)
        assert str(info.value) == f"unknown builtin coloring {name!r}"
    with pytest.raises(ColoringError):
        builtin_coloring("constant:5", 2)
    # names are canonical, and the color count is checked before the name
    assert builtin_coloring("block: 007", 3).name == "block:7"
    assert builtin_coloring("constant:-0", 2).name == "constant:0"
    with pytest.raises(ColoringError, match="block size 0 must be at least 1"):
        builtin_coloring("block:0", 2)
    with pytest.raises(ColoringError, match="constant color -1 outside 0..1"):
        builtin_coloring("constant:-1", 2)
    with pytest.raises(ColoringError, match="k=0 must be at least 1"):
        builtin_coloring("nosuch", 0)


# each builtin against the closed form it had before it was an expression
CLOSED_FORMS = {
    "constant:0": lambda k: lambda lo, hi: 0,
    "constant:{last}": lambda k: lambda lo, hi: k - 1,
    "sum-mod": lambda k: lambda lo, hi: (lo + hi) % k,
    "diff-mod": lambda k: lambda lo, hi: (hi - lo) % k,
    "block:1": lambda k: lambda lo, hi: (lo // 1) % k,
    "block:3": lambda k: lambda lo, hi: (lo // 3) % k,
    "block:7": lambda k: lambda lo, hi: (lo // 7) % k,
}


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_builtins_equal_their_closed_forms(name, k):
    closed = CLOSED_FORMS[name](k)
    coloring = builtin_coloring(name.format(last=k - 1), k)
    assert coloring.name == name.format(last=k - 1)
    for lo in range(25):
        his = list(range(lo + 1, 40))
        expected = [closed(lo, hi) for hi in his]
        assert row_colors(coloring.row, lo, his) == expected
        assert [coloring(lo, hi) for hi in his] == expected
        assert [coloring(hi, lo) for hi in his] == expected
        assert coloring.row(lo, []) == []
    assert row_colors(coloring.row, 10**30, [10**30 + 7]) == [
        closed(10**30, 10**30 + 7)
    ]


def test_table_coloring(tmp_path, capsys):
    data = {"k": 2, "pairs": [[0, 1, 0]]}
    coloring = table_from_dict(data)
    assert coloring(0, 1) == 0 and coloring(1, 0) == 0
    with pytest.raises(ColoringError, match=r"no entry for pair \(0, 2\)$"):
        coloring(0, 2)
    # a table file loads through --table only; it names no builtin
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    assert main(["homog", "--builtin", f"table:{path}", "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown builtin coloring 'table:")
    assert err.count("\n") == 1


def test_table_accepts_json_integers_only():
    for data in (
        {"k": 2.7, "pairs": [[0, 1, 1.9], ["0", 2, True], [1, 2, 0]]},
        {"k": 2.0, "pairs": [[0, 1, 1]]},
        {"k": "2", "pairs": [[0, 1, 1]]},
        {"k": False, "pairs": []},
        {"k": 2, "pairs": [[0, 1, 1.0]]},
        {"k": 2, "pairs": [[0.0, 1, 1]]},
        {"k": 2, "pairs": [[0, "1", 1]]},
        {"k": 2, "pairs": [[0, 1, True]]},
        {"k": 2, "pairs": [[0, 1, None]]},
        {"k": 2, "pairs": [(0, 1, 1)]},
        {"k": 2, "pairs": [[0, 1]]},
        {"k": 2, "pairs": "abc"},
    ):
        with pytest.raises(ColoringError):
            table_from_dict(data)
    for k in (0, -2):
        with pytest.raises(ColoringError, match="must be at least 1"):
            table_from_dict({"k": k, "pairs": [[0, 1, 0]]})
    big = table_from_dict({"k": 3, "pairs": [[0, 2**70, 2]]})
    assert big(2**70, 0) == 2


def test_table_coloring_takes_ints_only():
    # a float, bool or str color is not rounded or read, nor is an endpoint
    for entry in ([0, 1, 1.9], [0, 2, True], [1, 2, "1"], [0.0, 1, 1], [0, 1.5, 0]):
        with pytest.raises(ColoringError, match="must be .x, y, color. of JSON"):
            table_coloring([entry], 2)
    assert table_coloring([[0, 1, 1], [2, 0, 0]], 2).row(0, [1, 2]) == [1, 0]


def test_table_rejects_conflicts_and_bad_colors():
    with pytest.raises(ColoringError):
        table_from_dict({"k": 2, "pairs": [[0, 1, 0], [1, 0, 1]]})
    # the same ordered pair twice is a conflict too; the last entry does
    # not win
    with pytest.raises(ColoringError, match=r"^table colors pair \(0,1\) twice$"):
        table_from_dict({"k": 2, "pairs": [[0, 1, 0], [0, 1, 1]]})
    assert table_from_dict({"k": 2, "pairs": [[0, 1, 1], [0, 1, 1]]})(1, 0) == 1
    with pytest.raises(ColoringError):
        table_from_dict({"k": 2, "pairs": [[0, 1, 5]]})
    with pytest.raises(ColoringError):
        table_from_dict({"k": 2, "pairs": [[1, 1, 0]]})
    with pytest.raises(ColoringError):
        table_from_dict({"pairs": []})


def reference_or_error(expr, x, y, strict, k):
    try:
        return evaluate(expr, x, y, strict) % k
    except DivisionByZero:
        return DivisionByZero


def compiled_or_error(expr, x, y, strict, k):
    try:
        [color] = row_colors(compile_row(expr, strict, k), x, [y])
    except DivisionByZero:
        return DivisionByZero
    assert type(color) is int
    return color


def row_reference_or_error(expr, lo, his, strict, k):
    expected = [reference_or_error(expr, lo, hi, strict, k) for hi in his]
    if DivisionByZero in expected:
        return DivisionByZero
    return expected, first_appearance_groups(his, expected)


def row_or_error(expr, lo, his, strict, k):
    """The row and the split of a compiled coloring, or its error."""
    coloring = dsl_coloring(expr, k, strict)
    try:
        colors = row_colors(coloring.row, lo, his)
        groups = coloring.split(lo, his)
    except DivisionByZero:
        return DivisionByZero
    assert all(type(color) is int for color in colors)
    return colors, groups


def test_depth_limit_counts_nesting_and_chains():
    shapes = [
        lambda d: "x" + "+1" * (d - 1),
        lambda d: "-" * (d - 1) + "x",
        lambda d: "(" * (d - 1) + "x" + ")" * (d - 1),
        lambda d: "if x then " * (d - 1) + "x" + " else y" * (d - 1),
        lambda d: "min(" * (d - 1) + "x" + ", y)" * (d - 1),
        lambda d: "x / (" * (d - 1) + "y" + ")" * (d - 1),
    ]
    for shape in shapes:
        expr = parse(shape(MAX_DEPTH))
        assert parse(to_text(expr)) == expr
        for strict in (False, True):
            for x, y in ((0, 1), (1, 2), (7, 3)):
                assert compiled_or_error(expr, x, y, strict, 3) == reference_or_error(
                    expr, x, y, strict, 3
                )
            for lo, his in ((0, [1, 2, 7]), (3, [4, 9])):
                assert row_or_error(expr, lo, his, strict, 3) == (
                    row_reference_or_error(expr, lo, his, strict, 3)
                )
        with pytest.raises(DslSyntaxError):
            parse(shape(MAX_DEPTH + 1))


# every token row_source may emit around its expressions: ints and
# comprehensions, under hoisted conditions, guarded by ``if ys``; user text
# never reaches the compiler
EXPR_TOKEN = r"(?:\d+|_div|_mod|min|max|if|else|x|y|<=|==|!=|//|[-+*%<(), ])"
COMPREHENSION = rf"\[{EXPR_TOKEN}+ for y in ys\]"
ROW_SOURCE_TOKENS = re.compile(
    rf"lambda x, ys: (?:{EXPR_TOKEN}|{COMPREHENSION})+ if ys else \[\]"
)

st_point = st.one_of(st.just(0), st.integers(0, 10**9))


@given(
    expr=st_expr,
    x=st_point,
    y=st_point,
    strict=st.booleans(),
    k=st.integers(1, 5),
)
def test_compiled_evaluator_agrees_with_reference(expr, x, y, strict, k):
    assert compiled_or_error(expr, x, y, strict, k) == reference_or_error(
        expr, x, y, strict, k
    )
    assert ROW_SOURCE_TOKENS.fullmatch(row_source(expr, k))


st_small_or_large = st.one_of(st.integers(0, 12), st.integers(0, 10**9))


@given(
    expr=st_expr,
    strict=st.booleans(),
    k=st.integers(1, 5),
    lo=st_small_or_large,
    gaps=st.lists(st.one_of(st.integers(1, 3), st.integers(1, 10**9)), max_size=8),
)
def test_row_kernel_agrees_with_reference(expr, strict, k, lo, gaps):
    his = list(itertools.accumulate(gaps, initial=lo))[1:]
    assert row_or_error(expr, lo, his, strict, k) == row_reference_or_error(
        expr, lo, his, strict, k
    )


# expressions rich in what a row's x < y decides: comparisons, min and max
# of x and y, and ifs on them; and ifs on x alone, which a row tests once
st_var = st.sampled_from(["x", "y"]).map(Var)
st_decided = st.one_of(
    st.builds(BinOp, st.sampled_from(COMPARISONS), st_var, st_var),
    st.builds(BinOp, st.sampled_from(["min", "max"]), st_var, st_var),
)
st_of_x = st.recursive(
    st.one_of(st.integers(0, 3).map(Lit), st.just(Var("x"))),
    lambda inner: st.one_of(
        st.builds(BinOp, st.sampled_from(["/", "%"]), inner, inner),
        st.builds(BinOp, st.sampled_from(ARITHMETIC + COMPARISONS), inner, inner),
    ),
    max_leaves=4,
)
st_row_body = st.recursive(
    st.one_of(st.integers(0, 9).map(Lit), st_var, st_decided),
    lambda inner: st.one_of(
        inner.map(Neg),
        st.builds(BinOp, st.sampled_from(ARITHMETIC), inner, inner),
        st.builds(BinOp, st.sampled_from(COMPARISONS), inner, inner),
        st.builds(If, st.one_of(st_decided, st_of_x, inner), inner, inner),
    ),
    max_leaves=12,
)
# and often ifs on x alone at the top, nested in their branches
st_row_expr = st.recursive(
    st_row_body,
    lambda inner: st.builds(If, st_of_x, inner, inner),
    max_leaves=4,
)


@given(
    expr=st_row_expr,
    strict=st.booleans(),
    k=st.integers(1, 5),
    lo=st_small_or_large,
    gaps=st.lists(st.one_of(st.integers(1, 3), st.integers(1, 10**9)), max_size=8),
)
def test_folded_rows_agree_with_reference(expr, strict, k, lo, gaps):
    his = list(itertools.accumulate(gaps, initial=lo))[1:]
    row = dsl_coloring(expr, k, strict).row
    assert ROW_SOURCE_TOKENS.fullmatch(row_source(fold_rows(expr), k))
    assert row(lo, []) == []
    expected = []
    for hi in his:
        try:
            expected.append(evaluate(expr, lo, hi, strict) % k)
        except DivisionByZero as error:
            # the same error, at the same pair: the pairs before it color
            assert row_colors(row, lo, his[: len(expected)]) == expected
            for failing in (his[: len(expected) + 1], his):
                with pytest.raises(DivisionByZero) as info:
                    row(lo, failing)
                assert str(info.value) == str(error)
            return
    assert row_colors(row, lo, his) == expected


class PairByPairForbidden(list):
    """A row that only a slice or ``len`` may read, not a loop over it."""

    def __iter__(self):
        raise AssertionError("row evaluated pair by pair")


def test_rows_without_y_are_one_evaluation():
    # the min-chain, block:b and constant:i fold to expressions without y
    for source in ("if x < y then x else y", "if y <= x then y else min(y, x)",
                   "x / 4", "2"):
        assert "y" not in to_text(fold_rows(parse(source)))
    assert to_text(fold_rows(parse("if y <= x then y else x + y"))) == "x + y"
    his = PairByPairForbidden(range(10, 200))
    for coloring, color in (
        (dsl_coloring("if x < y then x else y", 3), 9 % 3),
        (builtin_coloring("block:4", 3), 9 // 4 % 3),
        (builtin_coloring("constant:2", 3), 2),
    ):
        # one int for the whole row
        row = coloring.row(9, his)
        assert row == color and type(row) is int
        assert coloring.row(9, PairByPairForbidden()) == []
        assert coloring.split(9, his) == {color: his}
    with pytest.raises(AssertionError, match="pair by pair"):
        dsl_coloring("if y <= x then y else x + y", 3).row(9, his)
    # an if on x alone is tested once per row: from x = 5 on, every row is 0
    known = dsl_coloring("if x < 5 then x + y else 0", 3)
    for lo in range(5, 60):
        row = known.row(lo, PairByPairForbidden(range(lo + 1, 70)))
        assert row == 0 and type(row) is int
        assert known.row(lo, PairByPairForbidden()) == []
    with pytest.raises(AssertionError, match="pair by pair"):
        known.row(4, his)
    # the name keeps the expression as written
    assert dsl_coloring("min(y, x)", 3).name == "dsl(min(y, x))"
    strict = dsl_coloring("if x < y then x / 0 else y", 3, strict=True)
    assert strict.row(4, []) == []
    with pytest.raises(DivisionByZero, match="division"):
        strict.row(4, his)
    # a hoisted condition that raises does so at the first pair, with the
    # message the reference gives, and an empty row evaluates nothing
    hoisted = parse("if x / 0 < 1 then y else 0")
    with pytest.raises(DivisionByZero) as reference:
        evaluate(hoisted, 4, 5, strict=True)
    strict = dsl_coloring(hoisted, 3, strict=True)
    assert strict.row(4, []) == []
    with pytest.raises(DivisionByZero) as info:
        strict.row(4, [5])
    assert str(info.value) == str(reference.value) == "division by zero in strict mode"


def test_compiled_evaluator_has_no_builtins():
    fn = compile_row(parse("min(x, y) / (y - x)"), False, 3)
    assert fn.__globals__["__builtins__"] == {}
    assert set(fn.__globals__) == {"__builtins__", "min", "max", "_div", "_mod"}
    assert row_source(parse("x / 2 + y % 0 - 3 / (y - x)"), 4) == (
        "lambda x, ys: [(((x // (2)) + _mod(y, (0))) - _div((3), (y - x))) % (4)"
        " for y in ys] if ys else []"
    )
    assert row_source(parse("if x < 5 then x + y else x / 0"), 3) == (
        "lambda x, ys: ([(x + y) % (3) for y in ys] if (x < (5)) else"
        " _div(x, (0)) % (3)) if ys else []"
    )
    for source in ("min(x, y) / (y - x)", "if x < 5 then x + y else x / 0"):
        kernel = dsl_coloring(source, 3).row
        assert kernel.__globals__["__builtins__"] == {}
        assert set(kernel.__globals__) == set(fn.__globals__)


ROW_COLORINGS = [
    builtin_coloring("constant:1", 3),
    builtin_coloring("sum-mod", 3),
    builtin_coloring("diff-mod", 4),
    builtin_coloring("block:4", 2),
    table_from_dict({"k": 3, "pairs": [[x, y, (x * y + 1) % 3]
                                       for x in range(12) for y in range(x + 1, 12)]}),
    dsl_coloring("if x < y then x / (y - 5) else y", 3),
]


@pytest.mark.parametrize("coloring", ROW_COLORINGS, ids=lambda c: c.name)
def test_row_equals_pairwise_calls(coloring):
    for lo in range(11):
        for start in range(lo + 1, 12):
            his = list(range(start, 12))
            colors = [coloring(lo, hi) for hi in his]
            assert row_colors(coloring.row, lo, his) == colors
            # constant:1 and block:4 rows are one color: one group of all his
            assert coloring.split(lo, his) == first_appearance_groups(his, colors)
            assert coloring.split(lo, his[::3]) == (
                first_appearance_groups(his[::3], colors[::3])
            )
    assert coloring.row(3, []) == []
    assert coloring.split(3, []) == {}


def test_row_errors_match_pairwise_calls():
    table = ROW_COLORINGS[4]
    # the first pair outside the table, in a consecutive row, a row with
    # gaps and a row below 0
    for lo, his, pair in (
        (2, [10, 11, 12, 13], (2, 12)),
        (2, [5, 11, 12, 20], (2, 12)),
        (-1, [0, 1], (-1, 0)),
    ):
        with pytest.raises(ColoringError) as info:
            table.split(lo, his)
        assert str(info.value).endswith(f"pair {pair}")
        with pytest.raises(ColoringError) as single:
            table(*pair)
        assert str(single.value).endswith(f"pair {pair}")
    with pytest.raises(ColoringError, match="must lie above"):
        table.split(5, [5, 6])
    # colors 1, 0, 7, 5 for 1, 2, 3, 4: 7 is the first out of range
    wild = Coloring(2, lambda lo, his: [[1, 0, 7, 5][hi - 1] for hi in his])
    with pytest.raises(ColoringError) as single:
        wild(0, 3)
    with pytest.raises(ColoringError) as row:
        wild.split(0, [1, 2, 3, 4])
    assert str(row.value) == str(single.value) == (
        "coloring produced color 7 outside 0..1"
    )


# rows whose pairs with 2 have color k = 2: one color as an int, one color
# as a list, and a list of several colors
@pytest.mark.parametrize("row", [
    lambda lo, his: 2,
    lambda lo, his: [2] * len(his),
    lambda lo, his: [hi % 3 for hi in his],
])
def test_a_color_equal_to_k_is_out_of_range(row):
    coloring = Coloring(2, row, "edge")
    message = "edge produced color 2 outside 0..1"
    with pytest.raises(ColoringError, match=message):
        coloring(0, 2)
    with pytest.raises(ColoringError, match=message):
        coloring.split(0, [1, 2, 3])
