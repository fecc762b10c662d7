"""The lattice drivers fuzzed against a box filter that shares no code with
them (oracles.grid_filter_patterns and on_some_face).

Each example is a small polytope: lambda with at most 4 parts, each at most
3; GT(lambda), optionally cut to a union of random cell sets (not only
Kogan faces), or a skew GT(lambda/mu) with n = 1..4 rows above mu; an
optional weight, mostly of the right total; and dilations k <= 3.  Such
examples reach both paths of count_dilations: one pass for GT(lambda) and
its face unions, one sweep per k for a weight or mu's floors."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtkey import lattice
from gtkey.gtcore import GTPattern, SkewGTPattern, weight
from gtkey.lattice import count_dilations, count_points, dimension, enumerate_points, gt_spec, skew_spec, weight_counts
from oracles import affine_rank, grid_filter_patterns, on_some_face


@st.composite
def polytopes(draw):
    """(spec, the oracle's arguments, the dilations to count)."""
    lam = tuple(sorted(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)), reverse=True))
    mu, faces = None, None
    if draw(st.booleans()):
        n = len(lam)
        if draw(st.booleans()):
            cells = [(i, j) for i in range(1, n) for j in range(1, i + 1)]
            cell_sets = st.frozensets(st.sampled_from(cells), max_size=4) if cells else st.just(frozenset())
            faces = draw(st.lists(cell_sets, max_size=3))
    else:
        mu = []
        for part in lam:
            mu.append(draw(st.integers(0, min([part] + mu[-1:]))))
        mu = tuple(mu)
        n = draw(st.integers(1, 4))
    nu = None
    if draw(st.booleans()):
        total = sum(lam) - sum(mu or ())
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
        nu = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        if draw(st.integers(0, 4)) == 0:  # a wrong total
            nu[draw(st.integers(0, n - 1))] += 1
        nu = tuple(nu)
    if mu is None:
        spec = gt_spec(lam, weight=nu, faces=faces)
    else:
        spec = skew_spec(lam, mu, weight=nu, n=n)
    ks = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    return spec, (lam, mu, n, nu, faces), ks


def _oracle(args, k, interior=False):
    lam, mu, n, nu, faces = args
    points = grid_filter_patterns(lam, mu, n, k, nu, interior)
    if faces is not None:
        points = on_some_face(points, faces)
    return sorted(points, key=lambda rows: [x for row in reversed(rows) for x in row])  # top row first


@settings(max_examples=250, derandomize=True, deadline=None)
@given(polytopes())
# rows shorter than the row above, under row targets: a row target reads the
# sum of the whole packed profile, so the entries a row trims off must be gone
@example(case=(gt_spec((1, 1, 1, 0), weight=(1, 1, 1, 0)), ((1, 1, 1, 0), None, 4, (1, 1, 1, 0), None), [1, 2]))
def test_the_drivers_match_a_filter_of_the_box(case):
    spec, args, ks = case
    lattice._layout.cache_clear()
    points = {k: _oracle(args, k) for k in set(ks)}
    for k in sorted(points):
        expected = points[k]
        assert [p.rows for p in enumerate_points(spec, k)] == expected, k  # the set, in canonical order
        assert count_points(spec, k) == len(expected), k
        tally = {}
        for p in expected:
            w = weight(GTPattern(p) if spec.kind == "triangular" else SkewGTPattern(p))
            tally[w] = tally.get(w, 0) + 1
        assert weight_counts(spec, k) == tally, k
        if spec.faces is None and spec.weight is None:
            assert count_points(spec, k, interior=True) == len(_oracle(args, k, interior=True)), k
    assert count_dilations(spec, ks) == [len(points[k]) for k in ks]
    assert [count_points(spec, k) for k in ks] == [len(points[k]) for k in ks]  # one sweep per k
    if spec.faces is not None and spec.weight is not None:
        return  # no bound is read off a weighted union
    top = max(ks)
    if not top or not points[top]:
        return
    flat = [[x for row in rows for x in row] for rows in points[top]]
    if spec.faces is None:
        assert dimension(spec) >= affine_rank(flat)
        return
    for cells in spec.faces:  # the union's bound is its largest face's
        on = [x for x, rows in zip(flat, points[top]) if on_some_face([rows], [cells])]
        if on:
            assert dimension(spec) >= affine_rank(on), cells


def test_the_fuzzed_polytopes_reach_both_paths_of_count_dilations():
    # the examples above include one-pass layouts and per-k ones
    seen = set()

    @settings(max_examples=250, derandomize=True, deadline=None, database=None)
    @given(polytopes())
    def collect(case):
        spec = case[0]
        seen.add((spec.kind, spec.weight is not None, spec.faces is not None, lattice._layout(spec).one_pass))

    collect()
    assert {(True,), (False,)} <= {key[3:] for key in seen}
    assert {key[:3] for key in seen} >= set(itertools.product(["triangular"], [False, True], [False, True])) | {
        ("skew", False, False), ("skew", True, False)
    }


# Dilations at the edges of the packed fields: B is the bit length of
# k |lambda| (the layout's fields serve every k <= _PACKED_K = 16, wider ones
# are laid out at the sweep), so K = 15, 16 fill the laid-out field of
# lambda = (1, 0, 0) and K = 31, 32 the last of it and a wider one; K |lambda|
# also crosses a power of two at K = 7, 8 for lambda_1 = 1 and K = 5, 6 for
# lambda_1 = 3.
@pytest.mark.parametrize(
    "lam, ks",
    [((1, 0, 0), (7, 8, 15, 16, 31, 32)), ((1, 1, 0), (31, 32)), ((3, 0, 0), (5, 6, 21, 22)), ((2, 1, 0), (21, 22))],
)
def test_the_packed_fields_hold_every_state_at_the_edges_of_their_width(lam, ks):
    lattice._layout.cache_clear()
    spec, args = gt_spec(lam), (lam, None, len(lam), None, None)
    bits = [lattice._sweep(spec, k).bits for k in ks]
    assert bits[-2] < bits[-1] == (ks[-1] * sum(lam)).bit_length()  # the last K fills a wider field
    points = {k: _oracle(args, k) for k in ks}
    assert count_dilations(spec, [0, *ks]) == [1] + [len(points[k]) for k in ks]  # one pass at max(ks)
    weighted = gt_spec(lam, weight=lam[::-1])
    for k in ks:
        expected = points[k]
        assert [p.rows for p in enumerate_points(spec, k)] == expected, k
        assert count_points(spec, k) == len(expected), k
        tally = {}
        for p in expected:
            w = weight(GTPattern(p))
            tally[w] = tally.get(w, 0) + 1
        assert weight_counts(spec, k) == tally, k
        assert count_points(weighted, k) == tally.get(tuple(k * x for x in lam[::-1]), 0), k
        assert count_points(spec, k, interior=True) == len(_oracle(args, k, interior=True)), k
