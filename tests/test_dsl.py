import json
import random
import string

import pytest
from hypothesis import given, strategies as st

from colorvisit.colorings import (
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
    dsl_coloring,
    evaluate,
    parse,
    to_text,
)


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


def test_table_rejects_conflicts_and_bad_colors():
    with pytest.raises(ColoringError):
        table_from_dict({"k": 2, "pairs": [[0, 1, 0], [1, 0, 1]]})
    with pytest.raises(ColoringError):
        table_from_dict({"k": 2, "pairs": [[0, 1, 5]]})
    with pytest.raises(ColoringError):
        table_from_dict({"k": 2, "pairs": [[1, 1, 0]]})
    with pytest.raises(ColoringError):
        table_from_dict({"pairs": []})


def test_depth_limit_counts_nesting_and_chains():
    shapes = [
        lambda d: "x" + "+1" * (d - 1),
        lambda d: "-" * (d - 1) + "x",
        lambda d: "(" * (d - 1) + "x" + ")" * (d - 1),
        lambda d: "if x then " * (d - 1) + "x" + " else y" * (d - 1),
    ]
    for shape in shapes:
        expr = parse(shape(MAX_DEPTH))
        assert parse(to_text(expr)) == expr
        evaluate(expr, 1, 2)
        with pytest.raises(DslSyntaxError):
            parse(shape(MAX_DEPTH + 1))
