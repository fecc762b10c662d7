import itertools
import random

import pytest

from gtkey.ehrhart import compositions, ehrhart_gt_product
from gtkey.gtcore import validate_pattern, weight
from gtkey import lattice
from gtkey.kogan import key_faces
from gtkey.lattice import (
    count_dilations,
    count_points,
    dimension,
    enumerate_points,
    gt_spec,
    skew_spec,
)
from oracles import affine_rank, grid_filter_patterns, reduced_cell_subsets, skew_ssyt_fillings, ssyt_fillings, unpacked_tally


def test_full_polytope_counts():
    assert count_points(gt_spec((2, 1, 0, 0))) == 20
    assert count_points(gt_spec((0, 0, 0))) == 1
    assert count_points(gt_spec((1, 0)), 3) == 4


def test_weight_filtered_count_against_ssyt_oracle():
    assert count_points(gt_spec((2, 1, 0), weight=(1, 1, 1))) == 2
    assert len(ssyt_fillings((2, 1), 3, content=(1, 1, 1))) == 2
    for lam in [(2, 1, 0), (3, 1, 0), (2, 2, 1)]:
        for content in itertools.product(range(4), repeat=3):
            if sum(content) != sum(lam):
                continue
            expected = len(ssyt_fillings(lam, 3, content=content))
            assert count_points(gt_spec(lam, weight=content)) == expected


def test_unfiltered_count_against_ssyt_oracle():
    for lam in [(2, 1, 0), (3, 2, 0), (2, 2, 2)]:
        assert count_points(gt_spec(lam)) == len(ssyt_fillings(lam, 3))


def test_table_row_221_dilation():
    assert count_points(skew_spec((2, 2, 1)), 2) == 6


def test_enumeration_matches_grid_filter_oracle():
    for lam in [(2, 1, 0), (2, 2, 1), (3, 1, 0, 0)]:
        pts = [p.rows for p in enumerate_points(gt_spec(lam))]
        assert sorted(pts) == grid_filter_patterns(lam)
        assert len(set(pts)) == len(pts)


def test_enumeration_canonical_order():
    cases = [
        (gt_spec((2, 1, 0, 0)), 1),
        (skew_spec((2, 2, 1), (1,)), 1),
        (skew_spec((3, 1, 0), (1, 0, 0), n=4), 2),
        (gt_spec((2, 1, 0, 0, 0), faces=[f.cells for f in key_faces(5, (3, 4, 5, 2, 1))]), 2),
        (gt_spec((3, 2, 1, 0), faces=[{(2, 2), (3, 2)}, {(1, 1), (2, 1)}, {(1, 1), (3, 2)}]), 1),
    ]
    for spec, k in cases:
        keys = [p.flat() for p in enumerate_points(spec, k)]
        assert len(keys) > 1
        assert keys == sorted(set(keys)), (spec, k)


def test_enumeration_is_deterministic():
    a = [p.rows for p in enumerate_points(gt_spec((3, 2, 1)))]
    b = [p.rows for p in enumerate_points(gt_spec((3, 2, 1)))]
    assert a == b


def test_all_points_valid_and_counted():
    for spec in [
        gt_spec((3, 2, 0)),
        skew_spec((2, 2, 1), (2, 1)),
        gt_spec((2, 2, 0), weight=(2, 1, 1)),
        skew_spec((2, 1, 0), (1,), weight=(1, 0, 1)),
    ]:
        pts = list(enumerate_points(spec))
        assert all(validate_pattern(p) for p in pts)
        assert len(pts) == count_points(spec)
        if spec.weight is not None:
            assert all(weight(p) == spec.weight for p in pts)


def test_dilation_identity():
    for lam in [(2, 1, 0), (3, 1, 1), (2, 2, 1, 0)]:
        for k in range(4):
            scaled = tuple(k * x for x in lam)
            assert count_points(gt_spec(lam), k) == count_points(gt_spec(scaled))


def test_weight_counts_partition_the_polytope():
    for lam in [(2, 1, 0), (3, 2, 1), (2, 2, 1, 0)]:
        n = len(lam)
        total = count_points(gt_spec(lam))
        swept = unpacked_tally(gt_spec(lam))
        by_weight = 0
        for w in itertools.product(range(sum(lam) + 1), repeat=n):
            if sum(w) == sum(lam):
                filtered = count_points(gt_spec(lam, weight=w))
                assert filtered == swept.get(w, 0), (lam, w)
                by_weight += filtered
        assert by_weight == total == sum(swept.values())


def _tally_weights(spec, k=1):
    """The weight tally of the enumerated points; checks that counting and
    weight counting agree with it, so all three drivers are compared."""
    tally = {}
    points = 0
    for p in enumerate_points(spec, k):
        w = weight(p)
        tally[w] = tally.get(w, 0) + 1
        points += 1
    assert count_points(spec, k) == sum(unpacked_tally(spec, k).values()) == points
    return tally


def test_weight_counts_match_enumerated_tally():
    specs = [
        gt_spec((3, 2, 0)),
        gt_spec((2, 1, 1, 0)),
        gt_spec((3, 1, 0, 0)),
        gt_spec((4,)),  # n = 1
        skew_spec((3, 2, 1), (1,)),  # bottom row (1, 0, 0)
        skew_spec((2, 2), (1,), n=3),  # n > m
        skew_spec((3, 1, 0), (1, 0, 0), n=4),  # both
        skew_spec((2,), (1,), n=1),
        gt_spec((2, 1, 0), weight=(1, 1, 1)),
        gt_spec((3, 1, 0), weight=(1, 2, 1)),
        skew_spec((3, 2, 1), (1,), weight=(2, 1, 2)),
        skew_spec((2, 2), (1,), weight=(1, 0, 2), n=3),
        gt_spec((2, 1, 0), weight=(1, 1, 2)),  # wrong total
        gt_spec((2, 2), weight=(1, 3)),  # right total, infeasible
    ]
    for spec in specs:
        for k in range(4):
            assert unpacked_tally(spec, k) == _tally_weights(spec, k), (spec, k)
    assert unpacked_tally(gt_spec((4,))) == {(4,): 1}
    assert unpacked_tally(gt_spec((3, 1, 0)), 0) == {(0, 0, 0): 1}
    assert unpacked_tally(gt_spec((2, 1, 0), weight=(1, 1, 2))) == {}
    none = gt_spec((2, 1, 0), faces=[])
    for k in range(4):
        assert unpacked_tally(none, k) == _tally_weights(none, k) == {}
    # the 14-face key-complex unions in S5
    sigmas = [(3, 4, 5, 2, 1), (3, 4, 5, 1, 2), (2, 3, 4, 5, 1)]
    for lam in [(1, 1, 0, 0, 0), (2, 1, 0, 0, 0)]:
        for sigma in sigmas:
            spec = gt_spec(lam, faces=[f.cells for f in key_faces(5, sigma)])
            for k in range(4):
                assert unpacked_tally(spec, k) == _tally_weights(spec, k), (lam, sigma, k)
    # unions that are not key complexes, where weight_tally's row-end merge
    # drops faces or lets one stand for another (enumerate_points merges
    # nothing): the cells of {(2, 1)} lie inside another face's, and two
    # faces agree on every cell below row 3; a third face keeps the cells
    # common to all faces, which no step sweeps, empty
    inside = [{(2, 1)}, {(2, 1), (1, 1), (3, 2)}, {(3, 1)}]
    agree = [{(3, 1), (2, 1), (1, 1)}, {(3, 2), (2, 1), (1, 1)}, {(3, 3), (2, 2)}]
    for faces in [inside, inside[::-1], agree, agree[::-1]]:
        for lam in [(3, 2, 1, 0), (3, 1, 1, 0)]:
            spec = gt_spec(lam, faces=faces)
            for k in range(3):
                assert unpacked_tally(spec, k) == _tally_weights(spec, k), (faces, lam, k)
    # a key complex whose faces' cells ahead nest at a row end
    spec = gt_spec((1, 1, 0, 0), faces=[f.cells for f in key_faces(4, (2, 3, 4, 1))])
    for k in range(3):
        assert unpacked_tally(spec, k) == _tally_weights(spec, k), k


def test_empty_weight_filter():
    assert count_points(gt_spec((2, 0), weight=(0, 1))) == 0  # wrong total
    assert count_points(gt_spec((2, 2), weight=(1, 3))) == 0  # infeasible
    assert list(enumerate_points(gt_spec((2, 2), weight=(1, 3)))) == []


def test_skew_requires_containment():
    with pytest.raises(ValueError):
        skew_spec((2, 1), (3,))


def test_skew_counts_match_skew_tableaux():
    # shape (2,2,1)/(2,1): two disconnected boxes, entries <= 3 -> 9 fillings
    assert count_points(skew_spec((2, 2, 1), (2, 1))) == 9
    # skew with mu=0 equals the straight count
    assert count_points(skew_spec((3, 2, 1))) == count_points(gt_spec((3, 2, 1)))


def test_zero_dilation_single_point():
    for spec in [gt_spec((3, 1, 0)), skew_spec((2, 1), (1,)), gt_spec((2, 1, 0), weight=(1, 1, 1))]:
        assert count_points(spec, 0) == 1
        pts = list(enumerate_points(spec, 0))
        assert len(pts) == 1
        assert all(x == 0 for row in pts[0].rows for x in row)


def test_n1_cases():
    assert count_points(gt_spec((5,))) == 1
    assert count_points(skew_spec((3, 2), (3, 1), n=1)) == 1
    assert count_points(skew_spec((3, 2), (1, 0), n=1)) == 0  # needs mu_1 >= lambda_2
    assert [p.rows for p in enumerate_points(skew_spec((3, 2), (3, 1), n=1))] == [((3, 1), (3, 2))]
    assert list(enumerate_points(skew_spec((3, 2), (1, 0), n=1))) == []


def test_skew_with_more_values_than_columns():
    # one-row shape (2), entries <= 3: multichoose = 6 fillings
    assert count_points(skew_spec((2,), (), n=3)) == 6
    assert count_points(skew_spec((2,), (1,), n=3)) == 3


def test_equalities_restrict_enumeration():
    cells = frozenset({(2, 2), (3, 1), (3, 2), (3, 3)})
    spec = gt_spec((4, 3, 3, 2), faces=[cells])
    pts = list(enumerate_points(spec))
    assert [p.rows for p in pts] == [
        ((3,), (3, 3), (4, 3, 3), (4, 3, 3, 2)),
        ((3,), (4, 3), (4, 3, 3), (4, 3, 3, 2)),
        ((4,), (4, 3), (4, 3, 3), (4, 3, 3, 2)),
    ]
    assert count_points(spec) == 3


def test_out_of_range_face_cells_rejected():
    for cell in [(5, 1), (1, 2)]:
        with pytest.raises(ValueError, match=rf"cell \({cell[0]}, {cell[1]}\) out of range for n=3"):
            gt_spec((2, 1, 0), faces=[{cell}])
        with pytest.raises(ValueError, match=rf"cell \({cell[0]}, {cell[1]}\) out of range for n=3"):
            lattice.PolytopeSpec((2, 1, 0), faces=[frozenset(), {cell}])


def test_empty_face_union():
    spec = gt_spec((2, 1, 0), faces=[])
    assert spec.faces == ()
    assert count_points(spec) == 0
    assert list(enumerate_points(spec)) == []


def test_faces_rejected_on_skew():
    for faces in ([{(1, 1)}], []):
        with pytest.raises(ValueError, match="faces only apply to triangular polytopes"):
            lattice.PolytopeSpec((2, 1, 0), (1,), n=3, faces=faces)


def test_weight_filter_on_face_union():
    lam = (3, 2, 1, 0)
    faces = [{(2, 2), (3, 2)}, {(1, 1), (2, 1)}, {(1, 1), (3, 2)}]
    union = list(enumerate_points(gt_spec(lam, faces=faces)))
    for w in itertools.product(range(4), repeat=4):
        if sum(w) != sum(lam):
            continue
        spec = gt_spec(lam, weight=w, faces=faces)
        expected = [p for p in union if weight(p) == w]
        assert list(enumerate_points(spec)) == expected
        assert count_points(spec) == len(expected)


def _box(shape):
    """Partitions inside shape, as tuples of len(shape) parts."""
    return [p for p in itertools.product(*(range(s + 1) for s in shape)) if list(p) == sorted(p, reverse=True)]


def _skew_oracle(lam, mu, n):
    """The patterns (rows bottom-up) and the weight tally of the fillings of
    lam/mu with entries <= n: row l holds mu_i plus the entries <= l of row i."""
    mu = tuple(mu) + (0,) * (len(lam) - len(mu))
    rows, tally = [], {}
    for filling in skew_ssyt_fillings(lam, mu, n):
        rows.append(tuple(
            tuple(mu[i] + sum(v <= level for v in filling[i]) for i in range(len(lam)))
            for level in range(n + 1)
        ))
        w = tuple(sum(v == value for row in filling for v in row) for value in range(1, n + 1))
        tally[w] = tally.get(w, 0) + 1
    return sorted(rows), tally


def test_skew_specs_match_skew_tableaux_oracle():
    # every lam/mu inside (3,3,2) with n = 1..4, including columns longer than n
    for lam in _box((3, 3, 2)):
        for mu in _box(lam):
            for n in range(1, 5):
                spec = skew_spec(lam, mu, n=n)
                rows, tally = _skew_oracle(lam, mu, n)
                assert count_points(spec) == len(rows), (lam, mu, n)
                assert unpacked_tally(spec) == tally, (lam, mu, n)
                assert sorted(p.rows for p in enumerate_points(spec)) == rows, (lam, mu, n)
    assert count_points(skew_spec((1, 1, 1), (), n=2)) == 0
    # the second dilate is the doubled shape
    for lam, mu, n in [((3, 3, 2), (1,), 3), ((2, 2, 1), (1, 1), 2), ((3, 1, 1), (), 2), ((2, 1, 0), (1,), 4)]:
        doubled = tuple(2 * x for x in lam), tuple(2 * x for x in mu)
        rows, tally = _skew_oracle(*doubled, n)
        spec = skew_spec(lam, mu, n=n)
        assert count_points(spec, 2) == len(rows), (lam, mu, n)
        assert unpacked_tally(spec, 2) == tally, (lam, mu, n)
        assert sorted(p.rows for p in enumerate_points(spec, 2)) == rows, (lam, mu, n)


def test_specs_without_rows_are_rejected():
    with pytest.raises(ValueError):
        gt_spec(())
    with pytest.raises(ValueError):
        skew_spec((), ())
    for n in [0, -1]:
        with pytest.raises(ValueError):
            skew_spec((2, 1), (1,), n=n)
        with pytest.raises(ValueError):
            gt_spec((2, 1), n=n)
    assert skew_spec((2, 1), (1,)).n == 2  # n left out: one row per part


def _rank_at_two(spec):
    """The affine rank of the lattice points of the second dilate, None when
    it has none."""
    points = [p.flat() for p in enumerate_points(spec, 2)]
    return affine_rank(points) if points else None


def test_dimension_is_the_affine_rank_of_the_points():
    # a lattice polytope's points span its affine hull, so for every GT and
    # skew GT spec the bound is the rank; a weight cuts out a polytope whose
    # points may span less, so there it only bounds the rank from above
    specs = [gt_spec(lam) for lam in _box((3, 2, 1, 0))]
    weighted = [gt_spec(lam, weight=nu) for lam in _box((3, 2, 1, 0)) for nu in compositions(sum(lam), 4)]
    for lam in _box((3, 2, 1)):
        for mu in _box(lam):
            for n in range(1, 5):
                specs.append(skew_spec(lam, mu, n=n))
                weighted += [skew_spec(lam, mu, weight=nu, n=n) for nu in compositions(sum(lam) - sum(mu), n)]
    for spec in specs:
        rank = _rank_at_two(spec)
        if rank is not None:
            assert dimension(spec) == rank, spec
    for spec in weighted:
        rank = _rank_at_two(spec)
        if rank is not None:
            assert dimension(spec) >= rank, spec
    assert dimension(gt_spec((3, 2, 1, 0))) == 6
    assert dimension(skew_spec((3, 2, 1), (2, 1), n=3)) == 6
    assert dimension(skew_spec((2, 1), (1,), n=2)) == 2
    assert dimension(gt_spec((2, 1, 0), weight=(1, 1, 1))) == 1


def test_face_dimension_is_the_affine_rank_of_the_face():
    # every reduced Kogan face over S3 and S4, and every key complex (all the
    # reduced faces of one type), for lambda in the (3,2,1) and (3,2,1,0)
    # boxes, many with equal parts: a face of the integral polytope GT(lambda)
    # is spanned by its points, so its bound is its rank, and a union's bound
    # is the largest rank among its faces
    for n in (3, 4):
        groups = reduced_cell_subsets(n).values()
        for lam in _box((3, 2, 1, 0)[:n]):
            for faces in groups:
                ranks = [_rank_at_two(gt_spec(lam, faces=[cells])) for cells in faces]
                for cells, rank in zip(faces, ranks):
                    assert dimension(gt_spec(lam, faces=[cells])) == rank, (lam, cells)
                assert dimension(gt_spec(lam, faces=faces)) == max(ranks), (lam, faces)
    # x_{3,2} = lambda_2 = 2 leaves x_{2,1} only [2, lambda_1 = 2]: of the five
    # free entries of GT(2,2,1,0) three stay free, where 6 - 1 cell said 5
    assert dimension(gt_spec((2, 2, 1, 0), faces=[{(3, 2)}])) == 3
    assert dimension(gt_spec((2, 1, 0), faces=[frozenset()])) == dimension(gt_spec((2, 1, 0))) == 3
    assert dimension(gt_spec((2, 1, 0), faces=[])) == 0


# each a spec that cannot have its bound read: all but the weighted face
# union are refused when the spec is built
@pytest.mark.parametrize("build, message", [
    (lambda: lattice.PolytopeSpec((2, 1), (1,), n=2, faces=[frozenset()]), "faces only apply to triangular"),
    (lambda: gt_spec((2, 1, 0), weight=(1, 1, 1), faces=[frozenset()]), "faces only apply to unweighted"),
    (lambda: gt_spec((2, 1, 0), faces=[frozenset({(3, 1)})]), r"cell \(3, 1\) out of range for n=3"),
], ids=["skew", "weighted", "cell-out-of-range"])
def test_dimension_with_faces_rejects_what_it_cannot_bound(build, message):
    with pytest.raises(ValueError, match=message):
        dimension(build())


def _full_rows(spec, pattern):
    """A pattern's rows bottom-up, mu (0...0 for GT(lambda)) first, each
    padded with zeros to the length of the top row."""
    rows = pattern.rows if spec.kind == "skew" else ((),) + pattern.rows
    return [tuple(r) + (0,) * (spec.m - len(r)) for r in rows]


def _interior_by_filter(spec, k):
    """The points of the k-th dilate strictly inside every interlacing
    inequality whose two entries are not both constant.  An entry is
    constant when it takes one value on all points of the second dilate,
    which span the affine hull (test_dimension_is_the_affine_rank_of_the_points)."""
    spread = [_full_rows(spec, p) for p in enumerate_points(spec, 2)]
    n, m = spec.n, spec.m
    fixed = {(l, j): len({rows[l][j] for rows in spread}) <= 1 for l in range(n + 1) for j in range(m)}
    pairs = [((l + 1, j), (l, j)) for l in range(n) for j in range(m)]  # x_{l+1,j} >= x_{l,j}
    pairs += [((l, j), (l + 1, j + 1)) for l in range(n) for j in range(m - 1)]  # x_{l,j} >= x_{l+1,j+1}
    strict = [(a, b) for a, b in pairs if not (fixed[a] and fixed[b])]
    return sum(
        all(rows[a[0]][a[1]] > rows[b[0]][b[1]] for a, b in strict)
        for rows in (_full_rows(spec, p) for p in enumerate_points(spec, k))
    )


def test_interior_count_matches_a_filter_of_the_points():
    # every GT spec in (3,2,1,0) and skew spec in (3,2,1), n = 1..4, k = 1..3,
    # with GT(3,1,1,0), whose interior is not that of GT(k lambda - 2 rho);
    # and skew specs in (2,2,2), n = 3, where an entry pinned by equal parts of
    # mu bounds a free entry of the row above, strictly (e.g. 222/11 at k = 2)
    specs = [gt_spec(lam) for lam in _box((3, 2, 1, 0))]
    specs += [skew_spec(lam, mu, n=n) for lam in _box((3, 2, 1)) for mu in _box(lam) for n in range(1, 5)]
    specs += [skew_spec(lam, mu, n=3) for lam in _box((2, 2, 2)) for mu in _box(lam)]
    for spec in specs:
        for k in (1, 2, 3):
            assert count_points(spec, k, interior=True) == _interior_by_filter(spec, k), (spec, k)
    assert count_points(gt_spec((3, 1, 1, 0)), 3, interior=True) == 20
    assert count_points(gt_spec((3, 1, 1, 0)), 0, interior=True) == 1  # 0P is one point
    assert count_points(skew_spec((1, 1, 1), (), n=2), 2, interior=True) == 0  # empty


def test_interior_count_takes_no_weight_and_no_faces():
    with pytest.raises(ValueError, match="no faces and no weight"):
        count_points(gt_spec((2, 1, 0), weight=(1, 1, 1)), interior=True)
    with pytest.raises(ValueError, match="no faces and no weight"):
        count_points(gt_spec((2, 1, 0), faces=[frozenset()]), interior=True)
    # faces go on the spec: a list passed after k is refused, not read as `interior`
    with pytest.raises(TypeError):
        count_points(gt_spec((2, 1, 0)), 1, [frozenset()])


def _driver_grid():
    """(spec, largest k) over gt, skew (the empty skew_spec((2,2),(0,),n=1)
    too), weighted and face-union specs, and the shapes whose rows have
    entries the sweep does not step through."""
    grid = [(gt_spec(lam), 3) for lam in [(2, 1, 0), (3, 1, 1, 0), (2, 2, 0, 0), (4,)]]
    grid += [
        (skew_spec(lam, mu, n=n), 3)
        for lam, mu, n in [((3, 2, 1), (1,), 3), ((2, 2), (1,), 3), ((3, 1, 0), (1, 0, 0), 4), ((2, 2), (0,), 1)]
    ]
    grid += [
        (gt_spec((3, 1, 0), weight=(1, 2, 1)), 3),
        (skew_spec((3, 2, 1), (1,), weight=(2, 1, 2)), 3),
        (gt_spec((2, 1, 0), weight=(1, 1, 2)), 3),  # wrong total
        (gt_spec((2, 2), weight=(1, 3)), 3),  # right total, infeasible
    ]
    grid += [
        (gt_spec((2, 1, 0, 0), faces=[f.cells for f in key_faces(4, (2, 4, 3, 1))]), 3),
        (gt_spec((3, 2, 1, 0), faces=[{(2, 2), (3, 2)}, {(1, 1), (2, 1)}, {(1, 1), (3, 2)}]), 3),
        (gt_spec((2, 1, 0), faces=[frozenset()]), 3),
        (gt_spec((2, 1, 0), faces=[]), 3),
    ]
    grid += [
        (gt_spec((2, 2, 1, 1, 0, 0)), 2),  # blocks of equal parts, and a zero tail
        (gt_spec((2, 2, 2)), 3),  # every row constant: no step at all
        (skew_spec((1, 1, 0), (), n=2), 3),
        (skew_spec((2, 2, 0), (1, 1, 0), n=2), 3),  # x_{1,1} = 1 under lambda_1 = 2: swept
        (skew_spec((2, 2, 0), (1, 1, 0), n=3), 3),
        # x_{1,0} = x_{2,0} = 1 is not swept; inside, x_{2,1} < 1 follows from x_{2,1} < lambda_1 = 1
        (skew_spec((1, 1, 0), (1, 0, 0), n=3), 3),
        (gt_spec((2, 1, 1, 0), faces=[key_faces(4, (3, 1, 4, 2))[0].cells]), 3),  # one face: every cell common
        (gt_spec((2, 1, 1, 0), faces=[f.cells for f in key_faces(4, (2, 3, 1, 4))]), 3),  # a common row
        (gt_spec((3, 2, 1, 0), faces=[f.cells for f in key_faces(4, (1, 3, 4, 2))]), 3),  # a common column
        (gt_spec((2, 2, 1, 0, 0), weight=(2, 1, 1, 1, 0)), 3),  # a weight and a zero tail
        (gt_spec((2, 2, 2), weight=(2, 2, 2)), 3),
    ]
    return grid


def test_the_three_drivers_agree_in_any_order():
    # every count is first taken alone, each sweep laid out afresh; then all
    # of them again in one shuffled order that mixes specs, faces and k, and
    # every spec's dilations at once, each k twice in a shuffled order:
    # in one pass when no bound but the start row depends on k (GT(lambda)
    # and its face unions at least), else one pass per k (a weight, mu's
    # floors)
    calls = []
    for spec, top in _driver_grid():
        for k in range(top + 1):
            calls.append((spec, k, False))
            if spec.faces is None and spec.weight is None and k:
                calls.append((spec, k, True))
    alone = {}
    for spec, k, interior in calls:
        lattice._layout.cache_clear()
        if interior:
            alone[spec, k, interior] = count_points(spec, k, interior=True)
            assert alone[spec, k, interior] == _interior_by_filter(spec, k), (spec, k)
            continue
        assert unpacked_tally(spec, k) == _tally_weights(spec, k), (spec, k)
        alone[spec, k, interior] = count_points(spec, k)
    for spec, k, interior in random.Random(14).sample(calls, len(calls)):
        assert count_points(spec, k, interior=interior) == alone[spec, k, interior], (spec, k)
    rng = random.Random(27)
    paths = set()
    for spec, top in _driver_grid():
        lay = lattice._layout(spec)
        if spec.weight is None and spec.kind == "triangular":
            assert lay.one_pass, spec
        paths.add((spec.kind, spec.weight is not None, lay.one_pass))
        ks = rng.sample(list(range(top + 1)) * 2, 2 * (top + 1))
        expected = [alone[spec, k, False] for k in ks]
        assert count_dilations(spec, ks) == expected, (spec, ks)
    assert {("triangular", True, False), ("skew", True, False), ("skew", False, False)} <= paths
    assert not any(weighted and one_pass for _, weighted, one_pass in paths)


def test_one_pass_counts_above_32_bits_exactly():
    # GT(2,1,0,0,0) at k = 1..42 reaches 1.67e10 > 2^32: each slot is as
    # wide as its proved bound, so no count carries into the next
    spec = gt_spec((2, 1, 0, 0, 0))
    poly = ehrhart_gt_product(spec.top)
    counts = count_dilations(spec, range(42, 0, -1))
    assert counts == [poly(k) for k in range(42, 0, -1)]
    assert counts[0] == count_points(spec, 42) > 2**32


def test_an_unweighted_gt_spec_sweeps_only_its_free_entries():
    # the constant entries of GT(lambda) are copies of the entry above (equal
    # parts lambda_j = lambda_{j+n-l}, or the zero tail), so the sweep steps
    # through exactly as many entries as the dimension counts; a row of
    # constants alone has no step (GT(2,2,2) has none at all)
    for lam in _box((3, 2, 2, 1, 0)) + [(2, 2, 2), (1, 1, 1, 1), (2, 2, 1, 1, 0, 0)]:
        spec = gt_spec(lam)
        assert sum(map(len, lattice._layout(spec).rows)) == dimension(spec), lam
    # a skew entry is swept when its constant differs from the one above:
    # x_{1,1} = mu_1 = 1 under lambda_1 = 2
    spec = skew_spec((2, 2, 0), (1, 1, 0), n=2)
    assert [[entry[0] for entry in row] for row in lattice._layout(spec).rows] == [[1]]
    assert dimension(spec) == 0


def test_zero_dilation_is_answered_after_validation():
    # 0P is one point even for a weight whose total cannot be met, and a
    # face union holds it when it has a face; the inputs are still checked
    assert count_points(gt_spec((2, 1, 0), weight=(1, 1, 2)), 0) == 1
    assert count_points(gt_spec((2, 1, 0), faces=[frozenset(), {(1, 1)}]), 0) == 1
    with pytest.raises(ValueError, match="no faces and no weight"):
        count_points(gt_spec((2, 1, 0), faces=[frozenset()]), 0, interior=True)
    with pytest.raises(ValueError, match="out of range"):
        gt_spec((2, 1, 0), faces=[{(3, 1)}])


def test_edge_answers_of_the_drivers():
    empty = skew_spec((2, 2), (0,), n=1)  # a column of 2 boxes with n = 1
    assert count_points(empty) == 0
    assert count_points(empty, 0) == count_points(empty, 0, interior=True) == 1
    assert unpacked_tally(empty, 0) == {(0,): 1}
    assert [p.rows for p in enumerate_points(empty, 0)] == [((0, 0), (0, 0))]
    spec = gt_spec((2, 1, 0))
    for k in range(4):
        assert count_points(gt_spec((2, 1, 0), faces=[]), k) == 0
    assert count_dilations(spec, []) == []
    assert count_dilations(gt_spec((2, 1, 0), faces=[]), [3, 0, 1]) == [0, 0, 0]
    for k, error in [(-1, ValueError), (1.5, TypeError)]:
        with pytest.raises(error):
            count_points(spec, k)
        with pytest.raises(error):
            count_dilations(spec, [2, k])
        with pytest.raises(error):
            count_points(spec, k, interior=True)
        with pytest.raises(error):
            unpacked_tally(spec, k)
        with pytest.raises(error):
            list(enumerate_points(spec, k))
