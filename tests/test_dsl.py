import itertools
import json
import random
import re
import string
import sys

import pytest
from hypothesis import given, strategies as st

from colorvisit.colorings import (
    Coloring,
    ColoringError,
    TableIncomplete,
    UnknownBuiltin,
    builtin_coloring,
    table_from_dict,
)
from colorvisit.dsl import (
    BinOp,
    Cmp,
    DivisionByZero,
    DslSyntaxError,
    If,
    Lit,
    MAX_DEPTH,
    Neg,
    UnknownIdentifier,
    Var,
    compile_expr,
    compile_source,
    dsl_coloring,
    parse,
    row_source,
    to_text,
)
from colorvisit.oracles import evaluate


def test_parse_shapes():
    expr = parse("(x + y) % 2")
    assert expr == BinOp("%", BinOp("+", Var("x"), Var("y")), Lit(2))
    cond = parse("if x < y then 0 else 1")
    assert cond == If(Cmp("<", Var("x"), Var("y")), Lit(0), Lit(1))
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


st_expr = st.recursive(
    st.one_of(
        st.integers(0, 9).map(Lit),
        st.sampled_from(["x", "y"]).map(Var),
    ),
    lambda inner: st.one_of(
        inner.map(Neg),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "%", "min", "max"]),
                  inner, inner),
        st.builds(Cmp, st.sampled_from(["<", "<=", "==", "!="]), inner, inner),
        st.builds(If, inner, inner, inner),
    ),
    max_leaves=12,
)


@given(expr=st_expr)
def test_pretty_print_parse_round_trip(expr):
    text = to_text(expr)
    reparsed = parse(text)
    assert to_text(reparsed) == text
    for x, y in ((0, 1), (3, 7), (12, 5)):
        assert evaluate(reparsed, x, y) == evaluate(expr, x, y)


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
    with pytest.raises(UnknownBuiltin):
        builtin_coloring("nosuch", 2)
    with pytest.raises(UnknownBuiltin):
        builtin_coloring("block:x", 2)
    for name in ("block:\u0662", "block:1_0", "constant:\u0661", "constant:+1"):
        with pytest.raises(UnknownBuiltin):
            builtin_coloring(name, 2)
    with pytest.raises(ColoringError):
        builtin_coloring("constant:5", 2)


def test_table_coloring(tmp_path):
    data = {"k": 2, "pairs": [[0, 1, 0]]}
    coloring = table_from_dict(data)
    assert coloring(0, 1) == 0 and coloring(1, 0) == 0
    with pytest.raises(TableIncomplete):
        coloring(0, 2)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    via_builtin = builtin_coloring(f"table:{path}", 2)
    assert via_builtin(0, 1) == 0
    with pytest.raises(ColoringError):
        builtin_coloring(f"table:{path}", 3)


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


def test_table_rejects_conflicts_and_bad_colors():
    with pytest.raises(ColoringError):
        table_from_dict({"k": 2, "pairs": [[0, 1, 0], [1, 0, 1]]})
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
        color = compile_expr(expr, strict, k)(x, y)
    except DivisionByZero:
        return DivisionByZero
    assert type(color) is int
    return color


def row_reference_or_error(expr, lo, his, strict, k):
    expected = [reference_or_error(expr, lo, hi, strict, k) for hi in his]
    return DivisionByZero if DivisionByZero in expected else expected


def row_or_error(expr, lo, his, strict, k):
    try:
        colors = dsl_coloring(expr, k, strict).row(lo, his)
    except DivisionByZero:
        return DivisionByZero
    assert all(type(color) is int for color in colors)
    return colors


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


# every token compile_source and row_source may emit around their one
# expression; user text never reaches the compiler
EXPR_TOKENS = r"(?:\d+|_div|_mod|min|max|if|else|x|y|<=|==|!=|//|[-+*%<(), ])+"
SOURCE_TOKENS = re.compile(rf"lambda x, y: {EXPR_TOKENS}")
ROW_SOURCE_TOKENS = re.compile(rf"lambda x, ys: \[{EXPR_TOKENS} for y in ys\]")

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
    assert SOURCE_TOKENS.fullmatch(compile_source(expr, k))
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


def test_compiled_evaluator_has_no_builtins():
    fn = compile_expr(parse("min(x, y) / (y - x)"), False, 3)
    assert fn.__globals__["__builtins__"] == {}
    assert set(fn.__globals__) == {"__builtins__", "min", "max", "_div", "_mod"}
    assert compile_source(parse("x / 2 + y % 0 - 3 / (y - x)"), 4) == (
        "lambda x, y: (((x // (2)) + _mod(y, (0))) - _div((3), (y - x))) % (4)"
    )
    kernel = dsl_coloring("min(x, y) / (y - x)", 3).row_kernel
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
            assert coloring.row(lo, his) == [coloring(lo, hi) for hi in his]
    assert coloring.row(3, []) == []


def test_row_errors_match_pairwise_calls():
    table = ROW_COLORINGS[4]
    with pytest.raises(TableIncomplete) as info:
        table.row(2, [5, 11, 12])
    assert info.value.pair == (2, 12)
    with pytest.raises(ColoringError, match="must lie above"):
        table.row(5, [5, 6])
    wild = Coloring(k=2, pair_color=lambda lo, hi: 5)
    with pytest.raises(ColoringError) as single:
        wild(0, 1)
    with pytest.raises(ColoringError) as row:
        wild.row(0, [1, 2])
    assert str(row.value) == str(single.value) == (
        "coloring produced color 5 outside 0..1"
    )
