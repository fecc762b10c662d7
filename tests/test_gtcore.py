import copy
import itertools
import pickle
from collections import Counter

import pytest

from gtkey import lattice
from gtkey.combinat import partitions_in_box
from gtkey.kogan import KoganFace
from gtkey.gtcore import GTPattern, SkewGTPattern, validate_pattern, weight
from oracles import content, count_rows, skew_ssyt_fillings, ssyt_fillings, triangle

# a six-row pattern and its tableau: the entries at most r fill the shape of
# row r (bottom-up) of the pattern
FIG_PATTERN = GTPattern(
    ((3,), (3, 2), (3, 3, 1), (3, 3, 2, 1), (5, 3, 2, 1, 0), (5, 4, 2, 1, 1, 0))
)
FIG_TABLEAU_ROWS = ((1, 1, 1, 5, 5), (2, 2, 3, 6), (3, 4), (4,), (6,), ())


def test_validate_pattern():
    assert validate_pattern(FIG_PATTERN)
    assert validate_pattern(GTPattern(((0,), (0, 0), (0, 0, 0))))
    assert not validate_pattern(GTPattern(((3,), (2, 0))))  # above the entry above it
    assert not validate_pattern(GTPattern(((0,), (2, 1))))  # below its upper-right neighbour
    assert not validate_pattern(SkewGTPattern(((0, -1), (1, 0))))  # a negative skew entry
    assert validate_pattern(SkewGTPattern(((0, 0), (1, 0))))


def test_malformed_shape_raises():
    with pytest.raises(ValueError):
        GTPattern(((1, 2),))
    with pytest.raises(ValueError):
        SkewGTPattern(((1, 0), (1,)))


def test_weight_fixture():
    for r, row in enumerate(FIG_PATTERN.rows, 1):
        assert tuple(sum(v <= r for v in t_row) for t_row in FIG_TABLEAU_ROWS) == row + (0,) * (6 - r)
    assert weight(FIG_PATTERN) == (3, 2, 2, 2, 2, 2) == content(FIG_TABLEAU_ROWS, 6)


def test_weight_gtkey_point():
    p = GTPattern(((1,), (1, 0), (1, 0, 0), (2, 1, 0, 0)))
    assert weight(p) == (1, 0, 0, 2)


def test_weight_telescopes():
    for pat in lattice.enumerate_points(lattice.gt_spec((3, 1, 0))):
        assert sum(weight(pat)) == 4
    for pat in lattice.enumerate_points(lattice.skew_spec((2, 2, 1), (1,))):
        assert sum(weight(pat)) == 4


def test_weights_are_the_contents_of_the_tableaux():
    # the patterns of GT(lambda), and of GT(lambda/mu) with n rows, are as
    # many as the semistandard tableaux of each content, their weight
    for n in range(1, 5):
        for lam in partitions_in_box((2,) * n):
            patterns = Counter(weight(p) for p in lattice.enumerate_points(lattice.gt_spec(lam, n=n)))
            assert patterns == Counter(content(t, n) for t in ssyt_fillings(lam, n)), lam
    for outer, inner, n in [((2, 2, 1), (1,), 3), ((3, 2, 1), (2, 1), 2), ((3, 1, 0), (1,), 4)]:
        patterns = Counter(weight(p) for p in lattice.enumerate_points(lattice.skew_spec(outer, inner, n=n)))
        assert patterns == Counter(content(t, n) for t in skew_ssyt_fillings(outer, inner, n)), (outer, inner)


def test_bijection_fixture():
    # the fixture tableau is semistandard of the fixture's weight, and its
    # count rows, cut to a triangle, are the fixture pattern
    shape = tuple(len(row) for row in FIG_TABLEAU_ROWS)
    assert FIG_TABLEAU_ROWS[:-1] in ssyt_fillings(shape, 6, content=weight(FIG_PATTERN))
    assert triangle(count_rows(FIG_TABLEAU_ROWS, 6)) == FIG_PATTERN.rows
    assert FIG_PATTERN.top == shape
    assert FIG_PATTERN in lattice.enumerate_points(lattice.gt_spec(shape, weight=weight(FIG_PATTERN)))


def test_single_row_shape():
    p = GTPattern(((4,),))
    assert list(lattice.enumerate_points(lattice.gt_spec((4,)))) == [p]
    assert ssyt_fillings((4,), 1) == [((1, 1, 1, 1),)]
    assert triangle(count_rows(((1, 1, 1, 1),), 1)) == p.rows
    assert weight(p) == (4,)


def test_round_trip_gt_210():
    pts = list(lattice.enumerate_points(lattice.gt_spec((2, 1, 0))))
    assert len(pts) == len(set(pts)) == 8
    assert set(pts) == {GTPattern(triangle(count_rows(t, 3))) for t in ssyt_fillings((2, 1), 3)}


def test_round_trip_small_shapes():
    # the patterns are the count rows of the tableaux, one each, of the
    # tableau's content
    for n in range(1, 5):
        for lam in itertools.combinations_with_replacement(range(3), n):
            lam = tuple(sorted(lam, reverse=True))
            if sum(lam) > 6:
                continue
            fillings = ssyt_fillings(lam, n)
            by_pattern = {GTPattern(triangle(count_rows(t, n))): t for t in fillings}
            pts = list(lattice.enumerate_points(lattice.gt_spec(lam)))
            assert len(pts) == len(by_pattern) == len(fillings), lam
            assert set(pts) == set(by_pattern), lam
            for p in pts:
                assert weight(p) == content(by_pattern[p], n)


def test_strip_counts_against_tableau():
    # x_{r,j} - x_{r-1,j} boxes of content r in row j make a semistandard
    # tableau, a different one for each pattern, and every one is made
    fillings = set(ssyt_fillings((3, 2), 3))
    built = set()
    for p in lattice.enumerate_points(lattice.gt_spec((3, 2, 0))):
        padded = [(0, 0, 0)] + [row + (0,) * (3 - len(row)) for row in p.rows]
        rows = tuple(
            tuple(value for value in range(1, 4) for _ in range(padded[value][j] - padded[value - 1][j]))
            for j in range(3)
        )
        t = tuple(row for row in rows if row)
        assert t in fillings and t not in built, p
        built.add(t)
    assert built == fillings


def test_ssyt_validation():
    # the count rows of a filling are a valid skew pattern over the empty
    # shape exactly when its columns strictly increase
    assert not validate_pattern(SkewGTPattern(count_rows(((1, 2), (1, 3)), 3)))  # column not strict
    assert not validate_pattern(SkewGTPattern(count_rows(((1,), (1,), (2,)), 3)))
    assert validate_pattern(SkewGTPattern(count_rows(((1, 2), (2, 3)), 3)))
    # an entry above n leaves the top count row short of the shape
    spec = lattice.skew_spec((2,), (), n=3)
    assert SkewGTPattern(count_rows(((1, 5),), 3)) not in lattice.enumerate_points(spec)
    assert SkewGTPattern(count_rows(((1, 3),), 3)) in lattice.enumerate_points(spec)


def test_skew_round_trip():
    pts = list(lattice.enumerate_points(lattice.skew_spec((2, 2, 1), (1,))))
    fillings = skew_ssyt_fillings((2, 2, 1), (1,), 3)
    by_pattern = {SkewGTPattern(count_rows(t, 3, (1,))): t for t in fillings}
    assert len(pts) == len(by_pattern) == len(fillings) == 9
    assert set(pts) == set(by_pattern)
    for p in pts:
        assert weight(p) == content(by_pattern[p], 3)


def test_skew_tableau_validation():
    # over the inner cell (1, 1): a 1 below a 1 is a column clash, while a
    # 1 below the inner cell and a 1 beside it is fine
    assert not validate_pattern(SkewGTPattern(count_rows(((1,), (1, 1)), 2, (1,))))
    assert validate_pattern(SkewGTPattern(count_rows(((1,), (1, 2)), 2, (1,))))
    pts = set(lattice.enumerate_points(lattice.skew_spec((2, 2), (1,), n=2)))
    assert pts == {SkewGTPattern(count_rows(t, 2, (1,))) for t in skew_ssyt_fillings((2, 2), (1,), 2)}
    assert SkewGTPattern(count_rows(((1,), (1, 2)), 2, (1,))) in pts


def test_pattern_json_round_trip():
    assert FIG_PATTERN.to_json() == {"rows": [list(r) for r in FIG_PATTERN.rows]}
    assert GTPattern(**FIG_PATTERN.to_json()) == FIG_PATTERN
    sp = next(iter(lattice.enumerate_points(lattice.skew_spec((2, 1), (1,)))))
    assert SkewGTPattern(**sp.to_json()) == sp
    assert SkewGTPattern(((1, 0), (2, 0))).to_json() == {"rows": [[1, 0], [2, 0]]}


def test_pattern_str_top_row_first():
    text = str(FIG_PATTERN)
    first_line = text.splitlines()[0].split()
    assert first_line == ["5", "4", "2", "1", "1", "0"]


@pytest.mark.parametrize("shape", [(1,), (2, 1), (2, 1, 0), (2, 2), (3, 1), (1, 1, 1), (2, 1, 1), (1, 1, 1, 1)])
def test_ssyt_accepts_exactly_the_oracle_fillings(shape):
    # every filling by 0..3 with weakly increasing rows: the 1..3 ones plus
    # some that break positivity.  A filling is accepted when its count rows
    # are a valid pattern from the empty shape (no entry 0) to the shape.
    parts = tuple(length for length in shape if length)
    accepted = set()
    for values in itertools.product(range(4), repeat=sum(parts)):
        rows, start = [], 0
        for length in parts:
            rows.append(values[start:start + length])
            start += length
        if any(list(row) != sorted(row) for row in rows):
            continue
        counts = count_rows(rows, 3)
        if counts[0] == (0,) * len(parts) and counts[-1] == parts and validate_pattern(SkewGTPattern(counts)):
            accepted.add(tuple(rows))
    assert accepted == set(ssyt_fillings(shape, 3))
    pts = set(lattice.enumerate_points(lattice.skew_spec(parts, (), n=3)))
    assert pts == {SkewGTPattern(count_rows(t, 3)) for t in accepted}


def test_triangular_bijection_is_the_skew_one_over_the_empty_shape():
    # GT(lambda) is GT(lambda/0) with its rows cut to a triangle
    tri = set(lattice.enumerate_points(lattice.gt_spec((3, 2, 0))))
    skew = list(lattice.enumerate_points(lattice.skew_spec((3, 2, 0), (), n=3)))
    assert all(p.bottom == (0, 0, 0) for p in skew)
    assert len(skew) == len(tri)
    assert {GTPattern(triangle(p.rows)) for p in skew} == tri


def test_patterns_keep_their_class_in_repr_and_equality():
    p, sp = GTPattern([[1]]), SkewGTPattern([[0], [1]])
    assert repr(p) == "GTPattern(rows=((1,),))"
    assert repr(sp) == "SkewGTPattern(rows=((0,), (1,)))"
    assert p == GTPattern(((1,),)) and hash(p) == hash(GTPattern(((1,),)))
    assert p.__eq__(sp) is NotImplemented and sp.__eq__(p) is NotImplemented


# each value type with raw constructor arguments and the fields they
# normalise to (padding, lists becoming tuples, a list of cells a frozenset)
VALUES = [
    (
        lattice.PolytopeSpec,
        ([3, 1], [1], [2, 1], 2),
        {"top": (3, 1), "bottom": (1, 0), "weight": (2, 1), "n": 2, "faces": None},
    ),
    (KoganFace, (3, [[2, 1], [1, 1]]), {"n": 3, "cells": frozenset({(1, 1), (2, 1)})}),
    (GTPattern, ([[1], [2, 0]],), {"rows": ((1,), (2, 0))}),
    (SkewGTPattern, ([[0, 0], [1, 0], [2, 1]],), {"rows": ((0, 0), (1, 0), (2, 1))}),
]


@pytest.mark.parametrize("cls, raw, fields", VALUES, ids=[case[0].__name__ for case in VALUES])
def test_value_types_are_immutable_and_compare_by_class_and_fields(cls, raw, fields):
    value, by_keyword = cls(*raw), cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert {name: getattr(value, name) for name in fields} == fields
    assert value == by_keyword and hash(value) == hash(by_keyword)
    assert repr(value) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value
