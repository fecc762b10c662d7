import copy
import itertools
import pickle

import pytest

from gtkey import lattice
from gtkey.kogan import KoganFace
from gtkey.gtcore import (
    GTPattern,
    SSYT,
    SkewGTPattern,
    SkewSSYT,
    pattern_to_tableau,
    skew_pattern_to_tableau,
    skew_tableau_to_pattern,
    tableau_to_pattern,
    validate_pattern,
    weight,
)
from oracles import ssyt_fillings

# the six-row pattern/tableau pair used as the master bijection fixture
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
    assert weight(FIG_PATTERN) == (3, 2, 2, 2, 2, 2)


def test_weight_gtkey_point():
    p = GTPattern(((1,), (1, 0), (1, 0, 0), (2, 1, 0, 0)))
    assert weight(p) == (1, 0, 0, 2)


def test_weight_telescopes():
    for pat in lattice.enumerate_points(lattice.gt_spec((3, 1, 0))):
        assert sum(weight(pat)) == 4
    for pat in lattice.enumerate_points(lattice.skew_spec((2, 2, 1), (1,))):
        assert sum(weight(pat)) == 4


def test_bijection_fixture():
    t = pattern_to_tableau(FIG_PATTERN)
    assert t.shape == (5, 4, 2, 1, 1, 0)
    assert t.rows == FIG_TABLEAU_ROWS
    assert tableau_to_pattern(t, 6) == FIG_PATTERN


def test_single_row_shape():
    p = GTPattern(((4,),))
    t = pattern_to_tableau(p)
    assert t.rows == ((1, 1, 1, 1),)
    assert tableau_to_pattern(t, 1) == p


def test_round_trip_gt_210():
    pts = list(lattice.enumerate_points(lattice.gt_spec((2, 1, 0))))
    assert len(pts) == 8
    for p in pts:
        t = pattern_to_tableau(p)
        assert tableau_to_pattern(t, 3) == p


def test_round_trip_small_shapes():
    for n in range(1, 5):
        for lam in itertools.combinations_with_replacement(range(3), n):
            lam = tuple(sorted(lam, reverse=True))
            if sum(lam) > 6:
                continue
            for p in lattice.enumerate_points(lattice.gt_spec(lam + (0,) * (n - len(lam)))):
                t = pattern_to_tableau(p)
                assert tableau_to_pattern(t, n) == p
                assert t.content(n) == weight(p)


def test_strip_counts_against_tableau():
    # x_{r+1,j} - x_{r,j} counts the boxes of content r+1... in row j
    for p in lattice.enumerate_points(lattice.gt_spec((3, 2, 0))):
        t = pattern_to_tableau(p)
        rows = [tuple(r) for r in p.rows]
        rows_padded = [r + (0,) * (p.n - len(r)) for r in rows]
        prev = (0,) * p.n
        for value in range(1, p.n + 1):
            cur = rows_padded[value - 1]
            for j in range(p.n):
                expected = cur[j] - prev[j]
                got = sum(1 for x in t.rows[j] if x == value) if j < len(t.rows) else 0
                assert got == expected
            prev = cur


def test_ssyt_validation():
    with pytest.raises(ValueError):
        SSYT((2, 2), ((1, 2), (1, 3)))  # column not strict
    with pytest.raises(ValueError):
        SSYT((2,), ((2, 1),))  # row decreasing
    with pytest.raises(ValueError):
        tableau_to_pattern(SSYT((2,), ((1, 5),)), 3)  # entry above n


def test_skew_round_trip():
    spec = lattice.skew_spec((2, 2, 1), (1,))
    pts = list(lattice.enumerate_points(spec))
    assert len(pts) == 9
    for p in pts:
        t = skew_pattern_to_tableau(p)
        assert skew_tableau_to_pattern(t, 3) == p
        assert t.content(3) == weight(p)


def test_skew_tableau_validation():
    with pytest.raises(ValueError):
        SkewSSYT((2, 2), (1,), ((1,), (1, 1)))  # column clash at the overlap
    SkewSSYT((2, 2), (1,), ((1,), (1, 2)))  # staggered column is fine


def test_pattern_json_round_trip():
    p = FIG_PATTERN
    assert GTPattern.from_json(p.to_json()) == p
    sp = next(iter(lattice.enumerate_points(lattice.skew_spec((2, 1), (1,)))))
    assert SkewGTPattern.from_json(sp.to_json()) == sp


def test_tableau_json_round_trip():
    t = pattern_to_tableau(FIG_PATTERN)
    assert t.to_json() == {"shape": [5, 4, 2, 1, 1, 0], "rows": [list(r) for r in FIG_TABLEAU_ROWS]}
    assert SSYT.from_json(t.to_json()) == t
    st = SkewSSYT((2, 2), (1,), ((1,), (1, 2)))
    assert st.to_json() == {"outer": [2, 2], "inner": [1, 0], "rows": [[1], [1, 2]]}
    assert SkewSSYT.from_json(st.to_json()) == st


def test_pattern_str_top_row_first():
    text = str(FIG_PATTERN)
    first_line = text.splitlines()[0].split()
    assert first_line == ["5", "4", "2", "1", "1", "0"]


@pytest.mark.parametrize("shape", [(1,), (2, 1), (2, 1, 0), (2, 2), (3, 1), (1, 1, 1), (2, 1, 1), (1, 1, 1, 1)])
def test_ssyt_accepts_exactly_the_oracle_fillings(shape):
    # every filling by 0..3: the 1..3 ones plus some that break positivity
    accepted = set()
    for values in itertools.product(range(4), repeat=sum(shape)):
        rows, start = [], 0
        for length in shape:
            rows.append(values[start:start + length])
            start += length
        try:
            SSYT(shape, tuple(rows))
        except ValueError:
            continue
        accepted.add(tuple(r for r, length in zip(rows, shape) if length))
    assert accepted == set(ssyt_fillings(shape, 3))


def test_triangular_bijection_is_the_skew_one_over_the_empty_shape():
    for p in lattice.enumerate_points(lattice.gt_spec((3, 2, 0))):
        padded = SkewGTPattern(((0, 0, 0),) + tuple(row + (0,) * (3 - len(row)) for row in p.rows))
        skew = skew_pattern_to_tableau(padded)
        assert skew.inner == (0, 0, 0)
        assert pattern_to_tableau(p).rows == skew.rows


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
    (SSYT, ([2, 1], [[1, 1], [2]]), {"shape": (2, 1), "rows": ((1, 1), (2,))}),
    (SkewSSYT, ([2, 1], [1], [[1], [2]]), {"outer": (2, 1), "inner": (1, 0), "rows": ((1,), (2,))}),
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
