"""A third key route: the character of the Demazure crystal B_w(lambda).

The crystal is built in `oracles` from tableaux by Kashiwara's operators,
with no polynomial, face or packed monomial, and its word is the oracle's
own bubble sort of sigma.  So a fault that the operator and face routes
share, such as their common packed layout, shows here although
`key --method both` compares the two routes and finds them equal.
"""

import itertools

import pytest

from gtkey.combinat import partitions_in_box
from gtkey.kogan import key_via_faces
from gtkey.polyops import key_via_operators
from oracles import bubble_word, character, compose_word, demazure_crystal, inversions, kashiwara_f, ssyt_fillings


def mismatches(route, lams, n):
    """The (lambda, sigma) of S_n at which route(lambda, sigma).terms
    differs from the crystal's character."""
    bad = []
    for sigma in itertools.permutations(range(1, n + 1)):
        word = bubble_word(sigma)
        for lam in lams:
            if character(demazure_crystal(lam, word), n) != dict(route(lam, sigma).terms):
                bad.append((lam, sigma))
    return bad


def test_bubble_word_is_a_reduced_word_of_sigma():
    for n in range(1, 6):
        for sigma in itertools.permutations(range(1, n + 1)):
            word = bubble_word(sigma)
            assert compose_word(word, n) == sigma and len(word) == inversions(sigma), sigma
    assert bubble_word((1, 3, 4, 2)) == (3, 2)


def test_kashiwara_f_follows_the_bracket_rule():
    # reading word 2 1 1: the 2 pairs with the first 1, so the last 1 moves
    assert kashiwara_f(((1, 1), (2,)), 1) == ((1, 2), (2,))
    assert kashiwara_f(((1, 2), (2,)), 1) is None  # 2 1 2: no unpaired 1
    assert kashiwara_f(((1,), (2,)), 1) is None  # a column 1, 2 is an sl2 singlet
    assert kashiwara_f(((1, 1, 2),), 1) == ((1, 2, 2),)
    assert kashiwara_f(((1, 1, 2),), 2) == ((1, 1, 3),)
    assert kashiwara_f(((1, 1, 2),), 3) is None


def test_crystal_of_the_identity_is_the_highest_weight_tableau():
    assert demazure_crystal((3, 1, 0), ()) == {((1, 1, 1), (2,))}
    assert character(demazure_crystal((2, 1, 0), (1,)), 3) == {(2, 1, 0): 1, (1, 2, 0): 1}


@pytest.mark.parametrize("n, m", [(3, 3), (4, 2), (5, 2)])
def test_crystal_character_is_the_operators_key(n, m):
    # 120, 360 and 2520 pairs (lambda inside m^n, sigma in S_n)
    assert mismatches(key_via_operators, list(partitions_in_box((m,) * n)), n) == []


def test_crystal_character_is_the_faces_key():
    assert mismatches(key_via_faces, list(partitions_in_box((2,) * 4)), 4) == []
    assert mismatches(key_via_faces, [(2, 1, 1, 0, 0), (2, 2, 1, 0, 0)], 5) == []


def test_crystal_of_the_longest_element_is_every_tableau():
    # B_{w_0}(lambda) is the whole crystal B(lambda), SSYT(lambda) in 1..n
    for n in range(1, 5):
        w0 = bubble_word(tuple(range(n, 0, -1)))
        for lam in partitions_in_box((3,) * n):
            if any(lam):
                assert demazure_crystal(lam, w0) == set(ssyt_fillings(lam, n)), lam
