import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from gtkey import ehrhart, lattice
from gtkey.combinat import avoids_pattern, catalan, longest_element, multiply, partitions_in_box, perm_length
from gtkey.ehrhart import (
    EhrhartResult,
    UniPoly,
    determinant_formula,
    ehrhart_gt_product,
    ehrhart_of,
    faulhaber_face,
    faulhaber_sum,
    flag_match,
    flag_sequences,
    gt_object,
    gt_weight_object,
    interpolate,
    key_complex_object,
    kogan_face_object,
    scan,
    skew_object,
    skew_weight_object,
)
from gtkey.kogan import KoganFace
from oracles import flag_determinant, fraction_horner, fraction_poly_text, lagrange, leibniz_det


def test_unipoly_basics():
    p = UniPoly((1, 2, 1))
    assert p(3) == 16
    assert str(p) == "k^2 + 2*k + 1"
    assert UniPoly((0, 0)).is_zero()
    q = UniPoly((Fraction(1, 2), -1))
    assert str(q) == "-k + 1/2"
    assert UniPoly.from_coeff_strings(p.coeff_strings()) == p
    for k in (Fraction(1, 2), Fraction(4, 2), 0.5):  # a value at integers only
        with pytest.raises(TypeError):
            p(k)


def _random_coeffs(rng):
    """Coefficient lists with zeros, trailing zeros, signs, and integral or
    rational entries, as ints, Fractions or both."""
    pick = rng.choice([
        lambda: 0,
        lambda: rng.randint(-9, 9),
        lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 24)),
        lambda: Fraction(rng.randint(-10**15, 10**15), rng.choice([1, 2, 720, 40320, 10**12 + 39])),
    ])
    coeffs = [pick() for _ in range(rng.randint(0, 8))]
    return coeffs + [0] * rng.randint(0, 2)


def test_unipoly_is_its_fraction_coefficients_in_lowest_terms():
    rng = random.Random(18)
    for _ in range(400):
        coeffs = _random_coeffs(rng)
        fractions = [Fraction(c) for c in coeffs]
        while fractions and fractions[-1] == 0:
            fractions.pop()
        p = UniPoly(coeffs)
        assert p.coeffs == tuple(fractions)
        assert all(type(c) is Fraction for c in p.coeffs)
        assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
        assert p.degree() == len(fractions) - 1
        assert p.is_zero() == (not fractions)
        assert p.nonneg() == all(c >= 0 for c in fractions)
        # built by other routes: Fractions, strings, integer sums
        same = [
            UniPoly(fractions),
            UniPoly.from_coeff_strings(p.coeff_strings()),
            interpolate([(k, fraction_horner(fractions, k)) for k in range(-3, -3 + len(fractions) + 2)]),
        ]
        for q in same:
            assert q == p and hash(q) == hash(p), (coeffs, q)
        assert UniPoly() == UniPoly((0, Fraction(0))) and hash(UniPoly()) == hash(UniPoly((0,)))


def test_unipoly_value_is_the_fraction_horner_value():
    rng = random.Random(181)
    points = [0, 1, 2, 7, -1, -2, -13, 10**9]
    for _ in range(200):
        coeffs = _random_coeffs(rng)
        p = UniPoly(coeffs)
        for k in points:
            value = p(k)
            assert value == fraction_horner(coeffs, k), (coeffs, k)
            # an int exactly when the value is integral
            assert type(value) is (int if fraction_horner(coeffs, k).denominator == 1 else Fraction)


def test_linear_product_is_the_fraction_product_of_its_factors():
    rng = random.Random(20)
    cases = [
        (1, []),
        (Fraction(-3, 4), []),
        (2, [(3, 0), (-1, 0)]),
        (Fraction(1, 6), [(-2, 1), (1, 3), (0, 2)]),
    ]
    for _ in range(200):
        scale = rng.choice([1, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 30))])
        factors = [(rng.randint(-5, 5), rng.choice([0, rng.randint(-4, 4)])) for _ in range(rng.randint(0, 6))]
        cases.append((scale, factors))
    for scale, factors in cases:
        poly = ehrhart.linear_product(scale, factors)
        for k in range(-3, 9):
            assert poly(k) == scale * math.prod(c + a * k for c, a in factors), (scale, factors, k)


def test_unipoly_text_matches_the_fraction_coefficients():
    rng = random.Random(1818)
    for _ in range(400):
        coeffs = _random_coeffs(rng)
        p = UniPoly(coeffs)
        strings, text = fraction_poly_text(coeffs)
        assert p.coeff_strings() == strings
        assert str(p) == text
        assert repr(p) == f"UniPoly({text})"
    fixed = [
        ((), [], "0"),
        ((0, 0), [], "0"),
        ((1, -1), ["1", "-1"], "-k + 1"),
        ((Fraction(-1, 2), 0, Fraction(3, 2), -1, 0), ["-1/2", "0", "3/2", "-1"], "-k^3 + 3/2*k^2 - 1/2"),
        ((0, Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)), ["0", "1/6", "1/2", "1/3"], "1/3*k^3 + 1/2*k^2 + 1/6*k"),
        ((-4, 2, -1), ["-4", "2", "-1"], "-k^2 + 2*k - 4"),
    ]
    for coeffs, strings, text in fixed:
        assert UniPoly(coeffs).coeff_strings() == strings
        assert str(UniPoly(coeffs)) == text


def test_interpolate_stays_exact_on_rational_samples():
    rng = random.Random(8)
    for _ in range(100):
        coeffs = _random_coeffs(rng)
        k0 = rng.randint(-6, 6)
        extra = rng.randint(0, 3)  # samples past the degree add nothing
        samples = [(k, fraction_horner(coeffs, k)) for k in range(k0, k0 + len(coeffs) + 1 + extra)]
        poly = interpolate(samples)
        assert poly == UniPoly(coeffs)
        assert all(poly(k) == v for k, v in samples)
        assert poly.den > 0 and math.gcd(poly.den, *poly.nums) == 1


# Fits as written before coefficients were held over one denominator: each
# object's counts still fit to the same polynomial, and to_json still writes
# every coefficient, sample and check in the same form.
_EARLIER_FITS = [
    (
        lambda: skew_object((3, 2, 1), (2, 1)),
        '{"degree_bound": 6, "empty": false, "nonneg": true, "object": {"family": "skew", "lambda": [3, 2, 1], '
        '"mu": [2, 1, 0], "n": 3}, "poly": ["1", "9/2", "33/4", "63/8", "33/8", "9/8", "1/8"], "poly_str": '
        '"1/8*k^6 + 9/8*k^5 + 33/8*k^4 + 63/8*k^3 + 33/4*k^2 + 9/2*k + 1", "samples": [[0, "1"], [1, "27"], '
        '[2, "216"], [3, "1000"], [4, "3375"], [5, "9261"], [6, "21952"]], "valid": true, "verify_points": '
        '[[1, "27", true], [-1, "0", true], [-2, "0", true]]}',
    ),
    (
        lambda: gt_object((2, 1, 0)),
        '{"degree_bound": 3, "empty": false, "nonneg": true, "object": {"family": "gt", "lambda": [2, 1, 0]}, '
        '"poly": ["1", "3", "3", "1"], "poly_str": "k^3 + 3*k^2 + 3*k + 1", "samples": [[0, "1"], [1, "8"], '
        '[2, "27"], [3, "64"]], "valid": true, "verify_points": [[1, "8", true], [-1, "0", true], [-2, "-1", true]]}',
    ),
    (
        lambda: kogan_face_object((4, 3, 3, 2), KoganFace(4, frozenset({(2, 2), (3, 1), (3, 2), (3, 3)}))),
        '{"degree_bound": 2, "empty": false, "nonneg": true, "object": {"cells": [[2, 2], [3, 1], [3, 2], [3, 3]], '
        '"family": "kogan_face", "lambda": [4, 3, 3, 2]}, "poly": ["1", "3/2", "1/2"], "poly_str": '
        '"1/2*k^2 + 3/2*k + 1", "samples": [[0, "1"], [1, "3"], [2, "6"]], "valid": true, "verify_points": '
        '[[3, "10", true], [4, "15", true]]}',
    ),
    (
        lambda: skew_object((2, 2, 2), (), n=2),
        '{"degree_bound": 0, "empty": true, "nonneg": true, "object": {"family": "skew", "lambda": [2, 2, 2], '
        '"mu": [0, 0, 0], "n": 2}, "poly": [], "poly_str": "0", "samples": [[0, "1"]], "valid": true, '
        '"verify_points": [[1, "0", true], [-1, "0", true], [-2, "0", true]]}',
    ),
]


@pytest.mark.parametrize("make, line", _EARLIER_FITS, ids=["skew", "gt", "kogan-face", "empty-skew"])
def test_a_fit_is_what_an_earlier_version_wrote(make, line):
    assert json.dumps(ehrhart_of(make()).to_json(), sort_keys=True) == line


def test_interpolate_fixtures():
    assert interpolate([(0, 1), (1, 4), (2, 9)]) == UniPoly((1, 2, 1))
    assert interpolate([(0, 1)]) == UniPoly((1,))
    with pytest.raises(ValueError):
        interpolate([(1, 1), (1, 2)])
    with pytest.raises(ValueError):
        interpolate([])
    for samples in ([(0, 1), (2, 9)], [(1, 4), (0, 1)], [(0, 1), (1, 4), (1, 4)]):
        with pytest.raises(ValueError, match="consecutive"):
            interpolate(samples)


@pytest.mark.parametrize("k0, degree", [(0, 0), (-4, 0), (-3, 5), (2, 8), (-11, 21), (0, 21)])
def test_interpolate_matches_lagrange(k0, degree):
    rng = random.Random(100 * k0 + degree)
    ints = [rng.randint(-10**12, 10**12) for _ in range(degree + 1)]
    rationals = [Fraction(rng.randint(-999, 999), rng.randint(1, 99)) for _ in range(degree + 1)]
    for values in (ints, rationals):
        samples = list(zip(range(k0, k0 + degree + 1), values))
        assert list(interpolate(samples).coeffs) == lagrange(samples)


def test_interpolate_recovers_high_degree():
    poly = UniPoly((Fraction(1, 3), 0, -2, 5, Fraction(7, 2)))
    samples = [(k, poly(k)) for k in range(10)]
    assert interpolate(samples) == poly


def test_product_formula():
    assert ehrhart_gt_product((0, 0, 0)) == UniPoly((1,))
    assert ehrhart_gt_product((1, 0)) == UniPoly((1, 1))
    # (a+b,a,0) at a=b=1 gives (k+1)^3
    assert ehrhart_gt_product((2, 1, 0)) == UniPoly((1, 3, 3, 1))


def test_product_formula_matches_interpolation():
    for lam in [(2, 1, 0), (3, 1, 1), (2, 2, 1, 0), (3, 2, 1, 0)]:
        result = ehrhart_of(gt_object(lam))
        assert result.valid
        assert result.poly == ehrhart_gt_product(lam)


@pytest.mark.parametrize("lam, ks", [
    ((4, 3, 2, 1, 0), range(13)),
    ((5, 4, 3, 2, 1, 0), range(6)),
    ((3, 1, 1, 0), range(8)),
])
def test_counts_match_product_formula_at_sampled_dilations(lam, ks):
    # ehrhart samples GT(4,3,2,1,0), of dimension 10, at k = 0..10 and checks
    # it at 1, -1 and -2; both counts are compared well past that.  By reciprocity
    # the interior of kGT(lambda) has (-1)^d P(-k) points, also when constant
    # entries keep it from being GT(k lambda - 2 rho), as for (3,1,1,0)
    spec = lattice.gt_spec(lam)
    poly, sign = ehrhart_gt_product(lam), (-1) ** lattice.dimension(spec)
    for k in ks:
        assert lattice.count_points(spec, k) == poly(k), k
        if k:
            assert lattice.count_points(spec, k, interior=True) == sign * poly(-k), k


def test_skew_fixture_row():
    result = ehrhart_of(skew_object((3, 2, 1), (2, 1)))
    eighth = Fraction(1, 8)
    assert result.poly == UniPoly(
        (1, Fraction(9, 2), Fraction(33, 4), Fraction(63, 8), Fraction(33, 8), Fraction(9, 8), eighth)
    )
    assert result.valid and result.nonneg


def _planted(obj, sample=None, check=None):
    """obj with one count one too high: its sample at k = sample, or its
    check at k = check."""

    def counts(ks, at):
        got, checked = obj.counts(ks, at)
        return [v + (k == sample) for k, v in zip(ks, got)], [v + (k == check) for k, v in zip(at, checked)]

    return obj._replace(counts=counts)


def test_a_sample_wrong_at_one_dilation_is_flagged_at_minus_one():
    # the interpolant moves at k = -1 whichever sample k = 0..D is wrong,
    # also where the check at k = 1 compares nothing wrong
    obj = skew_object((3, 2, 1), (2, 1), n=3)
    assert ehrhart_of(obj).valid
    for wrong in range(obj.bound + 1):
        planted = _planted(obj, sample=wrong)
        result = ehrhart_of(planted)
        assert [(k, ok) for k, _, ok in result.verify_points][1] == (-1, False), wrong


def test_key_complex_object():
    result = ehrhart_of(key_complex_object((3, 2, 0), (2, 1, 3)))
    assert result.poly == UniPoly((1, 1))
    assert result.degree_bound == 1
    result = ehrhart_of(key_complex_object((2, 1, 0), (3, 2, 1)))
    assert result.poly == ehrhart_gt_product((2, 1, 0))


def test_gt_weight_object_interpolation():
    result = ehrhart_of(gt_weight_object((2, 1), (1, 1, 1)))
    assert result.poly == UniPoly((1, 1))
    assert result.samples[0] == (0, 1)
    assert result.valid


def test_skew_weight_object_interpolation():
    # two disconnected boxes with one entry each of two chosen values
    result = ehrhart_of(skew_weight_object((2, 2, 1), (2, 1), (1, 1, 0)))
    assert result.valid and result.nonneg
    assert result.poly(1) == lattice.count_points(
        lattice.skew_spec((2, 2, 1), (2, 1), weight=(1, 1, 0))
    )


def test_kogan_face_object():
    face = KoganFace(4, frozenset({(2, 2), (3, 1), (3, 2), (3, 3)}))
    result = ehrhart_of(kogan_face_object((4, 3, 3, 2), face))
    assert result.valid and result.nonneg
    assert result.poly(1) == 3


_ONE_OF_EACH = {
    "gt": lambda: gt_object((2, 1, 0)),
    "skew": lambda: skew_object((3, 2, 1), (2, 1), n=3),
    "gt_weight": lambda: gt_weight_object((2, 1), (1, 1, 1)),
    "skew_weight": lambda: skew_weight_object((2, 2, 1), (2, 1), (1, 1, 0)),
    "key_complex": lambda: key_complex_object((3, 2, 0), (2, 1, 3)),
    "kogan_face": lambda: kogan_face_object((4, 3, 3, 2), KoganFace(4, frozenset({(2, 2), (3, 1), (3, 2), (3, 3)}))),
}


@pytest.mark.parametrize("above", [None, 2], ids=["own_bound", "bound_plus_2"])
@pytest.mark.parametrize("family", _ONE_OF_EACH)
def test_each_object_states_the_dilations_it_is_checked_at(family, above):
    # gt and skew are checked by the sweep at 1, -1, -2, the others at D+1,
    # D+2 for the degree bound D the fit is given; a wrong count at any
    # check dilation makes the fit invalid
    obj = _ONE_OF_EACH[family]()
    assert obj.desc["family"] == family
    if above is not None:
        obj = obj._replace(bound=obj.bound + above)
    result = ehrhart_of(obj)
    D = result.degree_bound
    checks = (1, -1, -2) if family in ("gt", "skew") else (D + 1, D + 2)
    assert result.valid and not result.empty
    assert [k for k, _ in result.samples] == list(range(D + 1))
    assert tuple(k for k, _, _ in result.verify_points) == checks == obj.checks(D)
    for c in checks:
        planted = _planted(obj, check=c)
        assert not ehrhart_of(planted).valid, c


@pytest.mark.parametrize("above", [None, 2], ids=["own_bound", "bound_plus_2"])
@pytest.mark.parametrize("family", ["key_complex", "kogan_face"])
def test_a_face_union_fit_counts_every_dilation_in_one_call(family, above, monkeypatch):
    # its samples k = 0..D and checks D+1, D+2 are one lattice call, one
    # pass over every k, and no count of a single dilation
    calls = []

    def recorded(name):
        count = getattr(lattice, name)

        def call(spec, k, *args):
            calls.append((name, k if name == "count_points" else list(k)))
            return count(spec, k, *args)

        return call

    for name in ("count_points", "count_dilations"):
        monkeypatch.setattr(lattice, name, recorded(name))
    obj = _ONE_OF_EACH[family]()
    if above is not None:
        obj = obj._replace(bound=obj.bound + above)
    result = ehrhart_of(obj)
    assert result.valid and result.degree_bound == obj.bound
    assert calls == [("count_dilations", list(range(obj.bound + 3)))]


def test_empty_weight_object_reports_zero_poly():
    result = ehrhart_of(gt_weight_object((1, 1), (2, 0)))
    assert result.empty
    assert result.poly.is_zero()
    assert result.valid


def test_constant_term_is_one_for_nonempty():
    objs = [
        gt_object((3, 1, 0)),
        skew_object((2, 2, 1), (1,)),
        gt_weight_object((2, 1, 0), (1, 1, 1)),
        key_complex_object((2, 1, 0), (3, 1, 2)),
    ]
    for obj in objs:
        result = ehrhart_of(obj)
        assert not result.empty
        assert dict(result.samples)[0] == 1
        assert result.poly(0) == 1


def test_det_matches_the_leibniz_sum():
    assert ehrhart._det([]) == 1
    assert ehrhart._det([[0, 1], [1, 0]]) == -1  # a zero pivot swaps rows
    assert ehrhart._det([[0, 2, 1], [0, 3, 4], [5, 6, 7]]) == 25
    assert ehrhart._det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0  # no pivot in the column
    assert ehrhart._det([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 0  # a zero pivot after a step
    rng = random.Random(16)
    for _ in range(400):
        size = rng.randint(1, 5)
        matrix = [[rng.choice((0, 0, 1, -1, rng.randint(-10**6, 10**6))) for _ in range(size)] for _ in range(size)]
        assert ehrhart._det(matrix) == leibniz_det(matrix), matrix


def test_determinant_formula_matches_the_leibniz_sum():
    # every lambda in the (3,...,3) box and every flag, n <= 4: 614 cases
    cases = 0
    for n in range(1, 5):
        for lam in partitions_in_box((3,) * n):
            for b in flag_sequences(n):
                assert list(determinant_formula(lam, b).coeffs) == flag_determinant(lam, b), (lam, b)
                cases += 1
    assert cases == 614


def test_jacobi_trudi_is_the_count_of_the_sweep():
    # every lambda/mu inside (3,3,2) with n = 1..4 rows: m > n, n > m and
    # empty polytopes (a column longer than n), and GT(lambda) padded to n
    specs = [
        lattice.skew_spec(lam if any(lam) else (0,), mu, n=n)
        for n in range(1, 5)
        for lam in partitions_in_box((3, 3, 2))
        for mu in partitions_in_box(lam)
    ]
    specs += [lattice.gt_spec(lam, n=n) for n in range(1, 5) for lam in partitions_in_box((3,) * min(n, 3))]
    assert any(lattice.count_points(spec, 1) == 0 for spec in specs)
    for spec in specs:
        for k in range(4):
            assert ehrhart._jacobi_trudi(spec, k) == lattice.count_points(spec, k), (spec, k)


def test_determinant_trivial_flag():
    for lam in [(2, 1, 0), (3, 2, 0), (4, 2, 1, 0)]:
        assert determinant_formula(lam, tuple(range(1, len(lam) + 1))) == UniPoly((1,))


def test_determinant_flag_validation():
    with pytest.raises(ValueError):
        determinant_formula((2, 1, 0), (2, 1, 3))  # not nondecreasing
    with pytest.raises(ValueError):
        determinant_formula((2, 1, 0), (1, 1, 3))  # b_2 < 2
    with pytest.raises(ValueError):
        determinant_formula((2, 1, 0), (1, 2, 4))  # above n


def test_determinant_flag_errors_name_the_fault():
    cases = [
        ((2, 1, 3, 3), "flag length must equal n"),
        ((2, 1), "flag length must equal n"),
        ((2, 1, 3), "flag (2, 1, 3) out of range"),  # b_2 < 2
        ((1, 2, 4), "flag (1, 2, 4) out of range"),  # above n
        ([3, 2, 3], "flag (3, 2, 3) must be nondecreasing"),
    ]
    for b, message in cases:
        with pytest.raises(ValueError) as info:
            determinant_formula((2, 1, 0), b)
        assert str(info.value) == message, b


def test_flag_sequences_catalan():
    # flag_match returns the first match, so the order is part of the contract
    for n in range(8):
        flags = flag_sequences(n)
        assert len(flags) == catalan(n)
        assert len(set(flags)) == len(flags)
        assert flags == sorted(flags)
        for b in flags:
            assert len(b) == n and all(b[i] <= b[i + 1] for i in range(n - 1)), b
            assert all(n >= x >= i for i, x in enumerate(b, 1)), b


def test_flag_match_s3():
    for lam in [(2, 1, 0), (3, 1, 0), (3, 2, 0)]:
        matches = {}
        for sigma in itertools.permutations((1, 2, 3)):
            if not avoids_pattern(sigma, (2, 3, 1)):
                continue
            flag = flag_match(lam, sigma)
            assert flag is not None
            matches[sigma] = flag
        assert len(matches) == 5
    # flags are distinct whenever the five polynomials are distinct
    for lam in [(3, 1, 0), (3, 2, 0)]:
        flags = [
            flag_match(lam, s)
            for s in itertools.permutations((1, 2, 3))
            if avoids_pattern(s, (2, 3, 1))
        ]
        assert len(set(flags)) == 5


def test_flag_match_rejects_231_containing():
    with pytest.raises(ValueError):
        flag_match((2, 1, 0), (2, 3, 1))


def test_faulhaber():
    assert faulhaber_face(0) == UniPoly((1, 1))
    assert faulhaber_face(1) == UniPoly((1, Fraction(3, 2), Fraction(1, 2)))
    for ell in range(6):
        assert faulhaber_face(ell).nonneg()
    f20 = faulhaber_face(20)
    assert not f20.nonneg()
    for ell in range(21):
        f = faulhaber_face(ell)
        assert all(f(k) == faulhaber_sum(ell, k) for k in range(6))


def test_a_report_starts_empty_and_a_result_is_not_empty_by_default():
    report = ehrhart.ScanReport(family="gt", ranges={"n": 1})
    assert (report.family, report.ranges, report.entries, report.status) == ("gt", {"n": 1}, [], 0)
    assert ehrhart.ScanReport(family="gt", ranges={}).entries is not report.entries
    result = EhrhartResult({"family": "gt"}, 0, [(0, 1)], UniPoly((1,)), [(1, 1, True)])
    assert result.empty is False and result.valid and result.nonneg
    report.entries.append(ehrhart.ScanEntry(result))
    assert report.to_json()["checked"] == 1 and report.status == 0


def test_scan_smoke():
    report = scan("stretched_kostka", {"max_size": 3, "max_rows": 3})
    assert report.status == 0
    assert report.entries
    report = scan("skew_gt", {"max_shape": (2, 1)})
    assert report.status == 0
    report = scan("key_complex", {"n": 3, "max_part": 2})
    assert report.status == 0
    with pytest.raises(ValueError):
        scan("nonsense", {})


def test_degree_bound_override():
    result = ehrhart_of(gt_object((2, 1, 0))._replace(bound=5))
    assert result.poly == ehrhart_gt_product((2, 1, 0))
    with pytest.raises(ValueError, match="^degree bound must be >= 0$"):
        ehrhart_of(gt_object((2, 1, 0))._replace(bound=-1))


def test_underestimated_degree_bound_is_flagged_not_wrong():
    result = ehrhart_of(gt_object((3, 2, 1))._replace(bound=1))
    assert not result.valid


def test_product_formula_full_sweep():
    # interpolation agrees with the closed product for every shape in the
    # (3,...,3) boxes, n <= 4; the longest-element key complex is the same
    from gtkey.combinat import longest_element, partitions_in_box

    for n in range(1, 5):
        for lam in partitions_in_box((3,) * n):
            expected = ehrhart_gt_product(lam)
            assert ehrhart_of(gt_object(lam)).poly == expected
            assert ehrhart_of(key_complex_object(lam, longest_element(n))).poly == expected


def test_key_ehrhart_positive_in_shape_variables():
    # expand the closed forms as polynomials in (a, b, k): every coefficient
    # is non-negative, the variable-positivity refinement of the scan
    from gtkey import verify
    from gtkey.polyops import MultiPoly

    rows = verify._load("key_ehrhart_table_s3.json")["rows"]
    a_var = MultiPoly.variable(1, 3)
    b_var = MultiPoly.variable(2, 3)
    k_var = MultiPoly.variable(3, 3)
    for row in rows:
        poly = MultiPoly.constant(3, Fraction(row["scale"]))
        for f in row["factors"]:
            factor = MultiPoly.constant(3, f["c"]) + (
                (a_var * f["a"] + b_var * f["b"]) * k_var
            )
            poly = poly * factor
        assert all(c > 0 for c in poly.terms.values()), row["sigma"]


@pytest.mark.parametrize("family, keys", [
    ("skew_gt", "max_shape, n"),
    ("skew_kostka", "max_shape, n"),
    ("stretched_kostka", "max_size, max_rows"),
    ("key_complex", "n, max_part"),
])
def test_scan_objects_rejects_keys_the_family_does_not_read(family, keys):
    with pytest.raises(ValueError, match=f"unknown range key\\(s\\) max_prt, size; it reads {keys}$"):
        next(ehrhart.scan_objects(family, {"max_prt": 1, "size": 2}))


def _hand_written_bound(desc):
    """The per-family degree bounds the dimension bound replaced; a key
    complex's was n(n-1)/2 - l(w0 sigma), capped by the dimension of GT(lambda)."""
    n = desc.get("n", len(desc["lambda"]))
    if desc["family"] == "key_complex":
        codim = perm_length(multiply(longest_element(n), desc["sigma"]))
        return min(n * (n - 1) // 2 - codim, lattice.dimension(lattice.gt_spec(desc["lambda"])))
    return {
        "skew": n * len(desc["lambda"]),
        "skew_weight": n * len(desc["lambda"]) - n,
        "gt_weight": n * (n - 1) // 2 - (n - 1),
    }[desc["family"]]


@pytest.mark.parametrize("family, ranges", [
    ("skew_gt", {"max_shape": (3, 2, 1), "n": 3}),
    ("skew_kostka", {"max_shape": (2, 1), "n": 3}),
    ("stretched_kostka", {"max_size": 4, "max_rows": 3}),
    ("key_complex", {"n": 3, "max_part": 2}),
    ("key_complex", {"n": 4, "max_part": 2}),
    ("key_complex", {"n": 5, "max_part": 1}),
])
def test_dimension_bounds_the_degree_of_every_scan_object(family, ranges):
    # unweighted, the bound is the degree; a weight may still leave it above
    for obj in ehrhart.scan_objects(family, ranges):
        result = ehrhart_of(obj)
        assert result.valid, obj.desc
        assert obj.bound >= result.poly.degree(), obj.desc
        if obj.desc["family"] in ("skew", "key_complex") and not result.empty:
            assert obj.bound == result.poly.degree(), obj.desc
        assert obj.bound <= _hand_written_bound(obj.desc), obj.desc


def _recording(obj, calls):
    """obj, appending the k of each of its counts and checks to calls."""
    return obj._replace(counts=lambda ks, at: calls.extend([*ks, *at]) or obj.counts(ks, at))


# Each fit counts its samples and checks in one call, at the dilations of
# its plan and nothing else:
# - skew (3,2,1)/(2,1), n = 3 at its dimension bound 6, not at the old bound
#   n*m = 9;
# - the key complex of (1,1,0), [2,3,1] at its faces' largest dimension 1,
#   not at the old bound 3 - l(w0 sigma) = 2;
# - gt (3,1,1,0) at k = 0..5 and checked at 1, -1, -2: every object was once
#   checked at D+1, D+2, and that plan's samples were these, its checks not;
# - skew (2,1,0)/(1), n = 3 at k = 0..4, 1, -1, -2: gt and skew objects were
#   once sampled at k = -ceil(D/2)..floor(D/2) and checked at the next two,
#   which for D = 4 is every count this plan needs, but as other samples.
@pytest.mark.parametrize("make, ks", [
    (lambda: skew_object((3, 2, 1), (2, 1), n=3), [0, 1, 2, 3, 4, 5, 6, 1, -1, -2]),
    (lambda: key_complex_object((1, 1, 0), (2, 3, 1)), [0, 1, 2, 3]),
    (lambda: gt_object((3, 1, 1, 0)), [0, 1, 2, 3, 4, 5, 1, -1, -2]),
    (lambda: skew_object((2, 1, 0), (1,), n=3), [0, 1, 2, 3, 4, 1, -1, -2]),
], ids=["skew-dimension-bound", "key-complex-face-dimension", "gt-reciprocity-checks", "skew-nonnegative-samples"])
def test_a_fit_counts_exactly_the_dilations_of_its_plan(make, ks):
    obj = make()
    calls = []
    result = ehrhart_of(_recording(obj, calls))
    assert calls == ks
    assert result.valid and result.poly.degree() == result.degree_bound
    assert result.to_json() == ehrhart_of(obj).to_json()
