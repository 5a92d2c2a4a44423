import pytest
from hypothesis import given, strategies as st

from colorvisit.oracles import is_proper_prefix, lex_compare
from colorvisit.words import (
    InvalidPriority,
    full_priority,
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
    assert lex_compare(a, b) == expected


@given(a=st_word, b=st_word)
def test_lex_compare_matches_native_tuple_order(a, b):
    native = -1 if a < b else (0 if a == b else 1)
    assert lex_compare(a, b) == native


@given(a=st_word, b=st_word)
def test_lex_compare_antisymmetric(a, b):
    assert lex_compare(a, b) == -lex_compare(b, a)


@given(a=st_word, b=st_word, c=st_word)
def test_lex_compare_transitive(a, b, c):
    x, y, z = sorted([a, b, c])
    assert lex_compare(x, y) <= 0
    assert lex_compare(y, z) <= 0
    assert lex_compare(x, z) <= 0


@given(a=st_word, b=st_word)
def test_prefix_implies_lex_leq(a, b):
    if tuple(b[: len(a)]) == tuple(a):
        assert lex_compare(a, b) <= 0
    if is_proper_prefix(a, b):
        assert lex_compare(a, b) == -1


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
