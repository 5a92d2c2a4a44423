import sys

import pytest
from hypothesis import given, strategies as st

from colorvisit.oracles import is_proper_prefix
from colorvisit.words import (
    InvalidPriority,
    full_priority,
    parse_int,
    parse_word,
    rotate,
    validate_priority,
)

st_word = st.lists(st.integers(0, 3), max_size=8).map(tuple)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ((), (0,), -1),
        ((0, 1), (1,), -1),
        ((1, 0), (1, 0), 0),
        ((1,), (0, 1), 1),
        ((0, 1), (0,), 1),
    ],
)
def test_lex_compare_examples(a, b, expected):
    # native tuple order is the paper's: a proper prefix sorts first, then
    # the first differing letter decides
    assert (a > b) - (a < b) == expected


@given(a=st_word, b=st_word)
def test_prefix_implies_lex_leq(a, b):
    if is_proper_prefix(a, b):
        assert a < b


def test_priority_accepts_reordered_subsets():
    assert validate_priority([2, 0], 3) == (2, 0)
    assert validate_priority([], 5) == ()
    assert full_priority(3) == (0, 1, 2)


def test_priority_rejects_duplicates_and_range():
    with pytest.raises(InvalidPriority):
        validate_priority([0, 0], 2)
    with pytest.raises(InvalidPriority):
        validate_priority([2], 2)
    with pytest.raises(InvalidPriority):
        validate_priority([-1], 2)


def test_priority_rejects_non_integer_colors():
    for colors in ([0.7, 1], [0, True], [1.0], ["1"], [None]):
        with pytest.raises(InvalidPriority, match="is not an integer"):
            validate_priority(colors, 2)
    assert validate_priority(iter([1, 0]), 2) == (1, 0)


def test_rotate_moves_lowest_to_top():
    assert rotate((0, 1, 2)) == (1, 2, 0)
    assert rotate((1,)) == (1,)
    assert rotate(()) == ()


def test_word_helpers_round_trip():
    assert parse_word("") == ()
    assert parse_word("1,0") == (1, 0)
    with pytest.raises(ValueError):
        parse_word("1,x")


def test_parse_int_reads_ascii_decimal_integers():
    assert parse_int("42") == 42
    assert parse_int("-3") == -3
    assert parse_int(" 7 ") == 7
    assert parse_int("007") == 7


@pytest.mark.parametrize(
    "text", ["\u0661", "1_0", "+1", "\u00b2", "\uff13", "", "-", "--1", "1.0", "0x1"]
)
def test_parse_int_rejects_everything_else(text):
    with pytest.raises(ValueError, match="is not an integer"):
        parse_int(text)


@pytest.mark.parametrize("text", ["\u0661,0", "1,1_0", "+1", "1,\u00b2", "1,,0"])
def test_parse_word_takes_ascii_integers_only(text):
    with pytest.raises(ValueError, match="cannot parse word"):
        parse_word(text)


def test_parse_int_past_the_digit_limit_says_so_in_one_line():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    with pytest.raises(ValueError) as info:
        parse_int("9" * (limit + 1))
    assert str(info.value) == f"an integer of {limit + 1} digits is too long"
