"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an exact equality of integers, rationals, term maps or
coefficient tuples; there are no tolerances to tune.  Each test prints a
single summary line (visible with pytest -s or in the captured output).
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from gtkey import ehrhart, kogan, polyops, verify
from gtkey.combinat import (
    all_reduced_words,
    avoids_pattern,
    catalan,
    partitions_in_box,
)
from gtkey.ehrhart import ehrhart_of
from gtkey.polyops import MultiPoly, apply_pi_word, key_via_operators, pi_op
from oracles import swap


def _ok(num, message):
    print(f"ACCEPTANCE {num}: PASS - {message}")


def _assert_all_checks(checks):
    failed = [c for c in checks if not c.ok]
    assert not failed, "; ".join(f"{c.name}: {c.detail}" for c in failed)


def test_c01_key_oracle_equivalence():
    pairs = 0
    for a in range(4):
        for b in range(4):
            lam = (a + b, a, 0)
            for sigma in itertools.permutations((1, 2, 3)):
                assert polyops.key_via_operators(lam, sigma) == kogan.key_via_faces(lam, sigma)
                pairs += 1
    for lam in partitions_in_box((3, 2, 1, 0)):
        for sigma in itertools.permutations((1, 2, 3, 4)):
            assert polyops.key_via_operators(lam, sigma) == kogan.key_via_faces(lam, sigma)
            pairs += 1
    _ok(1, f"operator and face key polynomials agree on {pairs} (lambda, sigma) pairs")


def test_c02_gtkey_example_fixture():
    checks = verify.run_suite("example-gtkey")
    _assert_all_checks(checks)
    _ok(2, "worked example reproduced: 3 faces, common word (3,2), 9 points, 9 monomials")


def test_c03_table1_skew_ehrhart():
    checks = verify.run_suite("table1")
    _assert_all_checks(checks)
    _ok(3, "five skew Ehrhart polynomials and their coincidences reproduced with verification")


def test_c04_tables_2_and_3():
    _assert_all_checks(verify.run_suite("table2"))
    _assert_all_checks(verify.run_suite("table3"))
    _ok(4, "S_3 key closed forms and key-complex Ehrhart closed forms match for a,b in 0..3")


def test_c05_weyl_product_formula():
    checks = verify.run_suite("weyl")
    _assert_all_checks(checks)
    _ok(5, "schur(1..1) = point count = product formula for all parts <= 4, n <= 4")


def test_c06_kogan_census():
    # the eleven depicted Kempf faces, each the unique face of its type
    depicted = verify.kempf_fixture_faces()
    assert len(depicted) == 11
    for cells, tau in depicted:
        assert avoids_pattern(tau, (1, 3, 2))
        faces = kogan.enumerate_reduced_faces(4, tau)
        assert len(faces) == 1 and faces[0].cells == cells
    assert len({cells for cells, _ in depicted}) == 11
    # every type has a face; every 132-avoiding type exactly one
    kempf_count = 0
    for tau in itertools.permutations((1, 2, 3, 4)):
        faces = kogan.enumerate_reduced_faces(4, tau)
        assert len(faces) >= 1
        if avoids_pattern(tau, (1, 3, 2)):
            assert len(faces) == 1
            kempf_count += 1
    assert kempf_count == catalan(4)
    assert len(ehrhart.flag_sequences(4)) == 14
    _ok(6, "11 depicted Kempf faces reproduced; >=1 face per type; unique per 132-avoider; 14 flags")


def test_c07_determinant_formula():
    checks = verify.run_suite("determinant")
    _assert_all_checks(checks)
    _ok(7, "binomial determinant matches key-complex Ehrhart for all 231-avoiders, three shapes")


def test_c08_faulhaber_counterexample():
    for ell in range(6):
        assert ehrhart.faulhaber_face(ell).nonneg()
    f20 = ehrhart.faulhaber_face(20)
    negatives = [i for i, c in enumerate(f20.coeffs) if c < 0]
    assert negatives
    for k in range(6):
        assert f20(k) == ehrhart.faulhaber_sum(20, k)
    _ok(8, f"power-sum face: nonneg for l<=5, negative coefficients at k-powers {negatives} for l=20")


def test_c09_conjecture_scans():
    rep1 = ehrhart.scan("skew_gt", {"max_shape": (3, 2, 1), "n": 3})
    assert rep1.status == 0, rep1.to_json()
    rep2 = ehrhart.scan("skew_kostka", {"max_shape": (3, 2, 1), "n": 3})
    assert rep2.status == 0, rep2.to_json()
    rep3 = ehrhart.scan("key_complex", {"n": 4, "max_part": 3})
    assert rep3.status == 0, rep3.to_json()
    # S_3 grid against the bundled closed forms, a,b <= 2
    rows = verify._load("key_ehrhart_table_s3.json")["rows"]
    for row in rows:
        sigma = tuple(row["sigma"])
        for a in range(3):
            for b in range(3):
                result = ehrhart_of(ehrhart.key_complex_object((a + b, a, 0), sigma))
                assert result.valid and result.nonneg
                assert result.poly == verify.key_ehrhart_closed_form(row, a, b)
    _ok(
        9,
        f"zero violations: skew shapes ({len(rep1.entries)}), skew weights ({len(rep2.entries)}), "
        f"S_4 key complexes ({len(rep3.entries)}), S_3 grid matches closed forms",
    )


def test_c10_stretched_kostka_period_collapse():
    report = ehrhart.scan("stretched_kostka", {"max_size": 6, "max_rows": 4})
    assert report.entries
    bad = [e.result for e in report.entries if not e.result.valid]
    assert not bad, [r.object for r in bad]
    nonempty = sum(1 for e in report.entries if not e.result.empty)
    _ok(
        10,
        f"all {len(report.entries)} stretched Kostka families pass both verify points "
        f"({nonempty} nonempty)",
    )


# --- criterion 11: operator law property suite --------------------------------

@st.composite
def _polys(draw, nvars=4, max_terms=5, max_exp=5):
    n_terms = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        terms[exp] = terms.get(exp, 0) + draw(st.integers(-4, 4))
    return MultiPoly(nvars, terms)


@settings(max_examples=100)
@given(_polys())
def test_c11a_operator_laws_random(f):
    for i in (1, 2, 3):
        fi = pi_op(f, i)
        assert pi_op(fi, i) == fi  # idempotence
        assert fi.degree() <= f.degree()  # never raises degree
        d = polyops.divided_difference(f, i)
        assert swap(d.terms, i) == d.terms  # symmetric output
    assert pi_op(pi_op(f, 1), 3) == pi_op(pi_op(f, 3), 1)  # commutation
    for i in (1, 2):
        lhs = pi_op(pi_op(pi_op(f, i), i + 1), i)
        rhs = pi_op(pi_op(pi_op(f, i + 1), i), i + 1)
        assert lhs == rhs  # braid


def test_c11b_word_independence_s4():
    lam = (3, 1, 1, 0)
    start = MultiPoly.monomial(lam)
    total_words = 0
    for sigma in itertools.permutations((1, 2, 3, 4)):
        images = {apply_pi_word(start, w) for w in all_reduced_words(sigma)}
        total_words += sum(1 for _ in all_reduced_words(sigma))
        assert len(images) == 1
    assert total_words > 24


def test_c11c_shift_factorization():
    for m in range(4):
        shift = MultiPoly.monomial((m, m, m))
        for lam in partitions_in_box((3, 3, 3)):
            shifted = tuple(x + m for x in lam)
            for sigma in itertools.permutations((1, 2, 3)):
                assert key_via_operators(shifted, sigma) == shift * key_via_operators(lam, sigma)


def test_c11d_degree_preservation_on_keys():
    for lam in partitions_in_box((3, 2, 1, 0)):
        for sigma in itertools.permutations((1, 2, 3, 4)):
            key = key_via_operators(lam, sigma)
            degrees = {sum(e) for e in key.terms}
            assert degrees == {sum(lam)}


def test_c11_summary():
    _ok(11, "idempotence, commutation, braid, degree, word-independence, shift factorization")
