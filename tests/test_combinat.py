import doctest
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtkey import combinat
from gtkey.combinat import (
    all_reduced_words,
    avoids_pattern,
    canonical_reduced_word,
    catalan,
    is_reduced,
    longest_element,
    multiply,
    perm_length,
    word_to_perm,
)
from oracles import compose_word, inversions


def test_word_to_perm_fixtures():
    # the convention-fixing fixture: everything depends on this one
    assert word_to_perm((3, 2), 4) == (1, 3, 4, 2)
    assert word_to_perm((), 4) == (1, 2, 3, 4)
    assert word_to_perm((1, 2, 1), 3) == (3, 2, 1)


def test_word_to_perm_matches_composition_oracle():
    for n in (2, 3, 4):
        for length in range(5):
            for word in itertools.product(range(1, n), repeat=length):
                assert word_to_perm(word, n) == compose_word(word, n)


def test_word_to_perm_rejects_bad_letters():
    with pytest.raises(ValueError):
        word_to_perm((4,), 4)
    with pytest.raises(ValueError):
        word_to_perm((0,), 3)


def test_perm_length():
    assert perm_length((1, 2, 3, 4)) == 0
    assert perm_length((4, 3, 2, 1)) == 6
    assert perm_length((1, 3, 4, 2)) == 2


def test_is_reduced():
    assert is_reduced((3, 1, 2, 3), 4)
    assert not is_reduced((1, 1), 4)
    assert is_reduced((3, 2), 4)


def test_is_reduced_brute_force_words_over_s4():
    for length in range(7):
        for word in itertools.product((1, 2, 3), repeat=length):
            perm = compose_word(word, 4)
            assert is_reduced(word, 4) == (inversions(perm) == len(word))


def test_canonical_reduced_word():
    assert canonical_reduced_word((1, 2, 3, 4)) == ()
    assert canonical_reduced_word((2, 1, 3)) == (1,)
    word = canonical_reduced_word((3, 2, 1))
    assert len(word) == 3
    assert word_to_perm(word, 3) == (3, 2, 1)


def test_canonical_reduced_word_round_trip_up_to_s6():
    for n in range(1, 7):
        for perm in itertools.permutations(range(1, n + 1)):
            word = canonical_reduced_word(perm)
            assert word_to_perm(word, n) == perm
            assert len(word) == perm_length(perm)
            # the operators act on the smallest parts first: the last letter,
            # applied first, is the largest i with i+1 left of i
            largest = max((i for i in range(1, n) if perm.index(i + 1) < perm.index(i)), default=None)
            assert word[-1:] == (() if largest is None else (largest,)), perm


def test_all_reduced_words():
    words = set(all_reduced_words((1, 3, 4, 2)))
    assert words == {(3, 2)}
    words = set(all_reduced_words((3, 2, 1)))
    assert words == {(1, 2, 1), (2, 1, 2)}
    for word in all_reduced_words((2, 4, 3, 1)):
        assert word_to_perm(word, 4) == (2, 4, 3, 1)
        assert len(word) == perm_length((2, 4, 3, 1))


def test_avoids_pattern():
    assert avoids_pattern((3, 2, 1), (1, 3, 2))
    assert not avoids_pattern((1, 3, 2), (1, 3, 2))
    with pytest.raises(ValueError):
        avoids_pattern((1, 2, 3), (1, 2, 3, 4))


@pytest.mark.parametrize("pattern", [(2, 3, 1), (1, 3, 2)])
def test_pattern_avoidance_is_catalan(pattern):
    for n in range(1, 7):
        count = sum(
            1
            for perm in itertools.permutations(range(1, n + 1))
            if avoids_pattern(perm, pattern)
        )
        assert count == catalan(n)


def test_s4_231_avoiders_count():
    count = sum(
        1
        for perm in itertools.permutations((1, 2, 3, 4))
        if avoids_pattern(perm, (2, 3, 1))
    )
    assert count == 14


def test_longest_element():
    assert longest_element(4) == (4, 3, 2, 1)
    assert longest_element(1) == (1,)
    assert perm_length(longest_element(5)) == 10


def test_multiply_convention():
    # left factor acts first; matches the worked key-polynomial example
    assert multiply(longest_element(4), (2, 4, 3, 1)) == (1, 3, 4, 2)
    assert multiply((2, 1, 3), (2, 1, 3)) == (1, 2, 3)
    # a permutation times its inverse, on either side, is the identity
    assert multiply((2, 4, 5, 1, 3), (4, 1, 5, 2, 3)) == (1, 2, 3, 4, 5)
    assert multiply((4, 1, 5, 2, 3), (2, 4, 5, 1, 3)) == (1, 2, 3, 4, 5)
    assert multiply((3, 1, 2), (2, 3, 1)) == multiply((2, 3, 1), (3, 1, 2)) == (1, 2, 3)


@settings(max_examples=50)
@given(st.permutations(list(range(1, 6))))
def test_inverse_round_trip(perm):
    perm = tuple(perm)
    inv = tuple(sorted(range(1, 6), key=lambda x: perm[x - 1]))  # inv(perm(x)) = x
    assert multiply(perm, inv) == (1, 2, 3, 4, 5)
    assert multiply(inv, perm) == (1, 2, 3, 4, 5)


def test_parsing_round_trips():
    assert combinat.parse_permutation("[2,4,3,1]") == (2, 4, 3, 1)
    assert combinat.format_permutation((2, 4, 3, 1)) == "[2,4,3,1]"
    assert combinat.parse_word("3,1,2,3") == (3, 1, 2, 3)
    assert combinat.parse_word("") == ()
    assert combinat.format_word((3, 2)) == "3,2"
    assert combinat.parse_partition("4,3,3,2") == (4, 3, 3, 2)
    assert combinat.parse_partition("") == ()
    with pytest.raises(ValueError):
        combinat.parse_partition("1,2")
    with pytest.raises(ValueError):
        combinat.parse_permutation("[1,1,2]")


def test_partitions_in_box():
    parts = list(combinat.partitions_in_box((3, 2, 1)))
    assert len(parts) == 14
    assert all(combinat.is_partition(p) for p in parts)
    assert len(set(parts)) == 14


def test_partitions_of():
    parts = list(combinat.partitions_of(6, 4))
    assert len(parts) == 9
    assert all(sum(p) == 6 and len(p) <= 4 for p in parts)


def test_docstring_examples():
    failed, attempted = doctest.testmod(combinat)
    assert failed == 0
    assert attempted >= 7


def test_pad_rejects_a_negative_length():
    assert combinat.pad((2, 1), 3) == (2, 1, 0)
    assert combinat.pad((2, 1, 0), 2) == (2, 1)
    assert combinat.pad((), 0) == ()
    for n in [-1, -3]:
        with pytest.raises(ValueError):
            combinat.pad((2, 1, 0), n)
