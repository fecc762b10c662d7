import functools
import itertools
import json
import math

import pytest

from gtkey import cli, kogan, lattice, verify
from gtkey.combinat import avoids_pattern, longest_element, multiply, perm_length
from gtkey.kogan import (
    KoganFace,
    all_cells,
    complex_count,
    complex_points,
    enumerate_reduced_faces,
    face_type,
    face_word,
    key_faces,
    key_via_faces,
    pattern_on_face,
)
from gtkey.polyops import eval_ones, key_via_operators
from oracles import grid_filter_patterns, on_some_face, reduced_cell_subsets

subsets_by_type = functools.lru_cache(maxsize=None)(reduced_cell_subsets)


def test_face_word_examples():
    f = KoganFace(4, frozenset({(2, 2), (3, 1), (3, 2), (3, 3)}))
    assert face_word(f) == (3, 1, 2, 3)
    assert face_type(f) == (4, 1, 3, 2)  # reduced: four letters, four inversions
    assert face_word(KoganFace(4, frozenset())) == ()
    assert face_word(KoganFace(4, frozenset({(1, 1), (3, 2)}))) == (3, 2)


def test_face_type_examples():
    assert face_type(KoganFace(4, frozenset({(2, 2), (3, 2)}))) == (1, 3, 4, 2)
    assert face_type(KoganFace(4, frozenset(all_cells(4)))) == (4, 3, 2, 1)
    # frozen from the word s_2 s_3 composed left to right
    assert face_type(KoganFace(4, frozenset({(2, 1), (2, 2)}))) == (1, 4, 2, 3)
    # non-reduced example: two cells with the same letter
    assert face_type(KoganFace(4, frozenset({(1, 1), (2, 2)}))) is None


def test_face_cell_validation():
    with pytest.raises(ValueError):
        KoganFace(4, frozenset({(4, 1)}))
    with pytest.raises(ValueError):
        KoganFace(4, frozenset({(2, 3)}))


def test_enumerate_faces_of_key_type():
    faces = enumerate_reduced_faces(4, (1, 3, 4, 2))
    assert [sorted(f.cells) for f in faces] == [
        [(1, 1), (2, 1)],
        [(1, 1), (3, 2)],
        [(2, 2), (3, 2)],
    ]


def test_enumerate_faces_identity_and_exhaustive_s4():
    assert [f.cells for f in enumerate_reduced_faces(4, (1, 2, 3, 4))] == [frozenset()]
    # brute-force check over all 64 subsets: enumerate_reduced_faces is
    # exactly the fibers of face_type
    by_type = {}
    for r in range(7):
        for combo in itertools.combinations(all_cells(4), r):
            t = face_type(KoganFace(4, frozenset(combo)))
            if t is not None:
                by_type.setdefault(t, []).append(frozenset(combo))
    for tau in itertools.permutations((1, 2, 3, 4)):
        got = {f.cells for f in enumerate_reduced_faces(4, tau)}
        assert got == set(by_type.get(tau, []))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumerate_faces_match_subset_oracle(n):
    # one pass over all 2^(n(n-1)/2) cell subsets, grouped by type
    groups = subsets_by_type(n)
    assert len(groups) == math.factorial(n)
    for tau in itertools.permutations(range(1, n + 1)):
        faces = enumerate_reduced_faces(n, tau)
        cells = [tuple(f.sorted_cells()) for f in faces]
        assert set(cells) == set(groups[tau]), tau
        assert cells == groups[tau], tau  # itertools.combinations order
        assert all(face_type(f) == tau for f in faces)


def test_faces_cli_lists_every_reduced_subset_n6(capsys):
    assert cli.main(["faces", "--n", "6", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert all(r["reduced"] for r in records)
    assert len(records) == sum(len(g) for g in subsets_by_type(6).values())


def test_reduced_faces_cache_hook():
    # the benchmark reads cache_info() and its tests call cache_clear()
    cached = kogan._reduced_faces
    enumerate_reduced_faces(4, (2, 4, 1, 3))
    before = cached.cache_info()
    assert before.currsize >= 1
    enumerate_reduced_faces(4, (2, 4, 1, 3))
    after = cached.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    cached.cache_clear()
    assert cached.cache_info().currsize == 0


def test_every_type_has_a_face():
    for n in (2, 3, 4):
        for tau in itertools.permutations(range(1, n + 1)):
            assert len(enumerate_reduced_faces(n, tau)) >= 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kempf_types_have_unique_face(n):
    for tau in itertools.permutations(range(1, n + 1)):
        if avoids_pattern(tau, (1, 3, 2)):
            assert len(enumerate_reduced_faces(n, tau)) == 1, tau


def test_depicted_kempf_faces_n4():
    for cells, tau in verify.kempf_fixture_faces():
        faces = enumerate_reduced_faces(4, tau)
        assert len(faces) == 1
        assert faces[0].cells == cells
        assert avoids_pattern(tau, (1, 3, 2))


def test_single_face_of_full_equalities():
    face = KoganFace(4, frozenset(all_cells(4)))
    for lam in [(4, 3, 3, 2), (2, 1, 0, 0)]:
        pts = list(lattice.enumerate_points(lattice.gt_spec(lam, n=face.n, faces=[face.cells])))
        assert len(pts) == 1


def test_face_points_worked_example():
    face = KoganFace(4, frozenset({(2, 2), (3, 1), (3, 2), (3, 3)}))
    spec = lattice.gt_spec((4, 3, 3, 2), n=face.n, faces=[face.cells])
    pts = list(lattice.enumerate_points(spec))
    assert [p.rows for p in pts] == [
        ((3,), (3, 3), (4, 3, 3), (4, 3, 3, 2)),
        ((3,), (4, 3), (4, 3, 3), (4, 3, 3, 2)),
        ((4,), (4, 3), (4, 3, 3), (4, 3, 3, 2)),
    ]
    assert lattice.count_points(spec) == 3


def test_complex_points_gtkey():
    pts = complex_points((2, 1, 0, 0), (2, 4, 3, 1))
    assert len(pts) == 9
    keys = [p.flat() for p in pts]
    assert keys == sorted(keys)


def test_complex_points_whole_polytope_for_w0():
    # sigma = w_0 makes the complex the whole polytope
    pts = complex_points((2, 1, 0, 0), (4, 3, 2, 1))
    assert len(pts) == 20


def test_complex_dilation_consistency():
    lam = (2, 1, 0)
    for sigma in itertools.permutations((1, 2, 3)):
        for k in range(4):
            scaled = tuple(k * x for x in lam)
            a = [p.rows for p in complex_points(lam, sigma, k)]
            b = [p.rows for p in complex_points(scaled, sigma, 1)]
            assert a == b
            assert complex_count(lam, sigma, k) == len(a)


def _assert_complex_matches_oracle(lam, sigmas, ks):
    for k in ks:
        grid = grid_filter_patterns(tuple(k * x for x in lam))
        for sigma in sigmas:
            expected = on_some_face(grid, [f.cells for f in key_faces(len(sigma), sigma)])
            pts = complex_points(lam, sigma, k)
            assert sorted(p.rows for p in pts) == expected, (sigma, k)
            assert complex_count(lam, sigma, k) == len(expected), (sigma, k)


def test_complex_count_matches_enumeration_s4():
    _assert_complex_matches_oracle((2, 1, 1, 0), list(itertools.permutations((1, 2, 3, 4))), (1, 2))


def test_complex_count_matches_oracle_on_14_face_s5_types():
    sigmas = [(3, 4, 5, 2, 1), (3, 4, 5, 1, 2), (2, 3, 4, 5, 1)]
    assert all(len(key_faces(5, sigma)) == 14 for sigma in sigmas)
    _assert_complex_matches_oracle((1, 1, 0, 0, 0), sigmas, (1, 2))
    # here the first union is the whole polytope, the other two are not
    _assert_complex_matches_oracle((2, 1, 0, 0, 0), sigmas, (1,))


def test_complex_count_is_the_key_polynomial_at_ones():
    # the paper's identity, by Demazure operators alone: the key complex of
    # sigma at dilation k has kappa_sigma(k lambda)(1^n) lattice points
    cases = [((1, 1, 0, 0, 0), 5, range(4)), ((2, 1, 1, 0), 4, (1, 2))]
    for lam, n, ks in cases:
        for sigma in itertools.permutations(range(1, n + 1)):
            for k in ks:
                scaled = tuple(k * x for x in lam)
                assert complex_count(lam, sigma, k) == eval_ones(key_via_operators(scaled, sigma)), (lam, sigma, k)


def test_pattern_on_face():
    pts = complex_points((2, 1, 0, 0), (2, 4, 3, 1))
    faces = {f.cells: f for f in key_faces(4, (2, 4, 3, 1))}
    # every union point lies on at least one of the faces
    for p in pts:
        assert any(pattern_on_face(p, f) for f in faces.values())


def test_key_via_faces_examples():
    assert key_via_faces((0, 0, 0), (3, 1, 2)).terms == {(0, 0, 0): 1}
    k_fac = key_via_faces((2, 1, 0), (3, 1, 2))
    k_ops = key_via_operators((2, 1, 0), (3, 1, 2))
    assert k_fac == k_ops
    assert len(k_fac.terms) == 5


def test_key_type_uses_w0_flip():
    sigma = (2, 4, 3, 1)
    tau = multiply(longest_element(4), sigma)
    assert tau == (1, 3, 4, 2)
    assert {f.cells for f in key_faces(4, sigma)} == {
        f.cells for f in enumerate_reduced_faces(4, tau)
    }


def test_face_json_round_trip():
    f = KoganFace(4, frozenset({(3, 1), (2, 2)}))
    assert f.to_json() == {"n": 4, "cells": [[2, 2], [3, 1]]}
    assert KoganFace(**f.to_json()) == f


def test_reduced_face_word_length_is_inversion_count():
    for tau in itertools.permutations((1, 2, 3, 4)):
        for f in enumerate_reduced_faces(4, tau):
            assert len(f.cells) == perm_length(tau)
