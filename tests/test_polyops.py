import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtkey import kogan, lattice, polyops
from gtkey.combinat import all_reduced_words, canonical_reduced_word, longest_element, partitions_in_box, perm_length
from gtkey.polyops import (
    MultiPoly,
    apply_pi_word,
    divide_by_difference,
    divided_difference,
    eval_ones,
    key_via_operators,
    kostka,
    pi_op,
    schur,
    skew_schur,
)
from oracles import graded_lex_terms, ssyt_fillings, swap, tuple_product, unpacked_tally


def mono(*exp):
    return MultiPoly.monomial(exp)


# both storage types: ints, and Fractions that may or may not be integral
coeffs = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)


def stored_exactly(f):
    """Each stored coefficient is an int exactly when it is integral."""
    return all(
        type(c) is int if c.denominator == 1 else type(c) is Fraction
        for c in f.terms.values()
    )


@st.composite
def polys(draw, nvars=4, max_terms=5, max_exp=4):
    n_terms = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        coeff = draw(coeffs)
        terms[exp] = terms.get(exp, 0) + coeff
    return MultiPoly(nvars, terms)


def test_swap_vars():
    # s_i f = f - (z_i - z_{i+1}) d_i f, by the library's divided difference
    def swapped(f, i):
        return f - (MultiPoly.variable(i, 4) - MultiPoly.variable(i + 1, 4)) * divided_difference(f, i)

    assert swapped(mono(2, 1, 0, 0), 1) == mono(1, 2, 0, 0)
    sym = mono(1, 1, 0, 0) + mono(2, 2, 0, 0)
    assert swapped(sym, 1) == sym
    assert swapped(mono(0, 5, 3, 0), 2) == mono(0, 3, 5, 0) == MultiPoly(4, swap(mono(0, 5, 3, 0).terms, 2))


def test_divided_difference_worked_example():
    # d_2 (z1^2 z2^5 z3^3 z4) = z1^2 z2^3 z3^3 z4 (z2 + z3)
    got = divided_difference(mono(2, 5, 3, 1), 2)
    expected = mono(2, 4, 3, 1) + mono(2, 3, 4, 1)
    assert got == expected


def test_divided_difference_constant_is_zero():
    assert divided_difference(MultiPoly.constant(3, 7), 1).is_zero()


def test_divided_difference_cubic():
    # d_1(z1^3 z2) = z1 z2 (z1 + z2)
    got = divided_difference(MultiPoly.monomial((3, 1)), 1)
    assert got == MultiPoly.monomial((2, 1)) + MultiPoly.monomial((1, 2))


@settings(max_examples=60)
@given(polys())
def test_divided_difference_definition(f):
    # division-free route agrees with (f - s_i f) = d_i(f) * (z_i - z_{i+1})
    for i in (1, 2, 3):
        d = divided_difference(f, i)
        zi = MultiPoly.variable(i, 4)
        zj = MultiPoly.variable(i + 1, 4)
        assert d * (zi - zj) == f - MultiPoly(4, swap(f.terms, i))


@settings(max_examples=60)
@given(polys())
def test_divided_difference_symmetric(f):
    for i in (1, 2, 3):
        d = divided_difference(f, i)
        assert swap(d.terms, i) == d.terms


def test_pi_op_examples():
    # pi_1(z1^2 z2) = z1^2 z2 + z1 z2^2
    assert pi_op(mono(2, 1, 0, 0), 1) == mono(2, 1, 0, 0) + mono(1, 2, 0, 0)
    # the displayed intermediate of the worked operator computation
    f = MultiPoly(3, {(2, 1, 0): 1, (1, 2, 0): 1})
    expected = MultiPoly(
        3, {(2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1, (1, 0, 2): 1, (1, 1, 1): 1}
    )
    assert pi_op(f, 2) == expected


@settings(max_examples=60)
@given(polys())
def test_pi_fixes_symmetric_input(f):
    for i in (1, 2, 3):
        sym = f + MultiPoly(4, swap(f.terms, i))
        assert pi_op(sym, i) == sym


@settings(max_examples=60)
@given(polys())
def test_pi_idempotent(f):
    for i in (1, 2, 3):
        once = pi_op(f, i)
        assert pi_op(once, i) == once


@settings(max_examples=60)
@given(polys())
def test_pi_commutes_far_apart(f):
    assert pi_op(pi_op(f, 1), 3) == pi_op(pi_op(f, 3), 1)


@settings(max_examples=60)
@given(polys())
def test_pi_braid(f):
    for i in (1, 2):
        lhs = pi_op(pi_op(pi_op(f, i), i + 1), i)
        rhs = pi_op(pi_op(pi_op(f, i + 1), i), i + 1)
        assert lhs == rhs


@settings(max_examples=60)
@given(polys())
def test_pi_never_raises_degree(f):
    for i in (1, 2, 3):
        assert pi_op(f, i).degree() <= f.degree()


@settings(max_examples=40)
@given(polys(max_terms=3))
def test_pi_preserves_degree_of_homogeneous(f):
    for i in (1, 2, 3):
        top = max((sum(e) for e in f.terms), default=0)
        hom = MultiPoly(4, {e: c for e, c in f.terms.items() if sum(e) == top})
        out = pi_op(hom, i)
        if not out.is_zero():
            assert {sum(e) for e in out.terms} == {top}


def test_key_via_operators_fixture():
    key = key_via_operators((2, 1, 0, 0), (2, 4, 3, 1))
    expected_exps = {
        (2, 1, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1),
        (1, 2, 0, 0), (1, 0, 2, 0), (1, 0, 0, 2),
        (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1),
    }
    assert set(key.terms) == expected_exps
    assert all(c == 1 for c in key.terms.values())


def test_key_identity_is_monomial():
    assert key_via_operators((3, 1, 0), (1, 2, 3)) == MultiPoly.monomial((3, 1, 0))


def test_key_word_independence_s4():
    lam = (3, 1, 1, 0)
    start = MultiPoly.monomial(lam)
    for sigma in itertools.permutations((1, 2, 3, 4)):
        results = {apply_pi_word(start, w) for w in all_reduced_words(sigma)}
        assert len(results) == 1


def test_key_longest_element_is_schur():
    for n in (2, 3, 4):
        for lam in partitions_in_box((3,) * n):
            assert key_via_operators(lam, longest_element(n)) == schur(lam, n)


def test_key_shift_factorization():
    for n_shift in range(4):
        for lam in partitions_in_box((3, 3, 3)):
            for sigma in itertools.permutations((1, 2, 3)):
                shifted = tuple(x + n_shift for x in lam)
                expect = key_via_operators(lam, sigma) * MultiPoly.monomial((n_shift,) * 3)
                assert key_via_operators(shifted, sigma) == expect


def test_schur_small():
    assert schur((1, 0), 2) == MultiPoly(2, {(1, 0): 1, (0, 1): 1})
    assert eval_ones(schur((2, 1, 0), 3)) == 8
    # symmetry
    s = schur((3, 1, 0), 3)
    assert swap(s.terms, 1) == s.terms and swap(s.terms, 2) == s.terms


def test_skew_schur_values():
    assert eval_ones(skew_schur((2, 2, 1), (1,), 3)) == 9
    # skew with empty inner shape equals the straight Schur polynomial
    assert skew_schur((2, 1, 0), (), 3) == schur((2, 1, 0), 3)


def test_kostka_values():
    assert kostka((2, 1), (2, 1)) == 1
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 3), (2, 2, 2)) == 1
    # agreement with the Schur coefficient, the dual route
    for lam in [(2, 1, 0), (3, 2, 1), (2, 2, 0)]:
        s = schur(lam, 3)
        for mu in itertools.product(range(4), repeat=3):
            if sum(mu) != sum(lam):
                continue
            assert s.coefficient(mu) == kostka(lam, mu)


def test_kostka_oracle():
    for lam in [(2, 1), (2, 2), (3, 1)]:
        for mu in [(2, 1, 1), (1, 1, 1, 1), (2, 2)]:
            if sum(mu) != sum(lam):
                continue
            n = max(len(lam), len(mu))
            assert kostka(lam, mu) == len(ssyt_fillings(lam, n, content=mu + (0,) * (n - len(mu))))


def test_schur_expansion_consistency():
    # sum over partitions mu of K_{lam,mu} * #rearrangements(mu) = s_lam(1..1)
    for lam in [(2, 1, 0), (3, 1, 0), (2, 2, 1)]:
        n = len(lam)
        total = 0
        seen = set()
        for mu in itertools.product(range(sum(lam) + 1), repeat=n):
            part = tuple(sorted(mu, reverse=True))
            if sum(mu) != sum(lam) or part in seen:
                continue
            seen.add(part)
            rearrangements = len(set(itertools.permutations(part)))
            total += kostka(lam, part) * rearrangements
        assert total == eval_ones(schur(lam, n))


def test_key_coefficients_natural():
    for lam in partitions_in_box((3, 2, 1)):
        for sigma in itertools.permutations((1, 2, 3)):
            key = key_via_operators(lam, sigma)
            assert all(c.denominator == 1 and c > 0 for c in key.terms.values())


def test_multipoly_arithmetic():
    f = mono(1, 0, 0, 0) + mono(0, 1, 0, 0)
    assert f * f == mono(2, 0, 0, 0) + 2 * mono(1, 1, 0, 0) + mono(0, 2, 0, 0)
    assert (f - f).is_zero()
    assert f**3 == f * f * f
    assert f * Fraction(1, 2) + f * Fraction(1, 2) == f


def test_multipoly_str_and_json():
    f = MultiPoly(3, {(2, 1, 0): 1, (0, 0, 3): -2, (0, 0, 0): Fraction(1, 2)})
    assert str(f) == "z1^2*z2 - 2*z3^3 + 1/2"
    assert MultiPoly.from_json(3, f.to_json()) == f


def test_divide_by_difference():
    z1, z2 = MultiPoly.variable(1, 3), MultiPoly.variable(2, 3)
    f = (z1 - z2) * (z1 + z2) * (z1 + z2)
    assert divide_by_difference(f, 1, 2) == (z1 + z2) * (z1 + z2)
    with pytest.raises(ValueError):
        divide_by_difference(z1 + z2, 1, 2)


def test_weight_sum_adopts_what_the_constructor_accepts():
    cases = [
        lattice.gt_spec((3, 2, 0)),
        lattice.gt_spec((2, 1), n=4),
        lattice.skew_spec((3, 2, 1), (1,), n=3),
        lattice.skew_spec((2, 2), (0,), n=1),  # empty
        lattice.gt_spec((2, 1, 0, 0), faces=[f.cells for f in kogan.key_faces(4, (2, 4, 3, 1))]),
        lattice.gt_spec((2, 1, 0), faces=[]),
    ]
    for spec in cases:
        adopted = polyops.weight_sum(spec)
        assert adopted == MultiPoly(spec.n, unpacked_tally(spec, 1)), spec
        assert adopted.nvars == spec.n
        assert all(len(e) == spec.n and all(type(x) is int and x >= 0 for x in e) for e in adopted.terms)
        assert all(type(c) is int and c > 0 for c in adopted.terms.values())
    assert polyops.weight_sum(cases[4]) == kogan.key_via_faces((2, 1, 0, 0), (2, 4, 3, 1))
    assert schur((2, 1), 3) == MultiPoly(3, dict(schur((2, 1), 3).terms))


def test_eval_ones_type():
    assert eval_ones(schur((2, 1), 2)) == 2
    assert isinstance(eval_ones(schur((2, 1), 2)), int)
    assert eval_ones(MultiPoly.constant(2, Fraction(1, 2))) == Fraction(1, 2)


@settings(max_examples=60)
@given(polys(), polys())
def test_operators_keep_coefficients_int_while_integral(f, g):
    assert stored_exactly(f)
    for i in (1, 2, 3):
        for out in (pi_op(f, i), divided_difference(f, i)):
            assert stored_exactly(out)
    for out in (f + g, f - g, -f, f * g, f * Fraction(1, 2), f * Fraction(4, 2), 3 * f):
        assert stored_exactly(out)


def test_integral_fraction_is_stored_as_int():
    whole = MultiPoly(2, {(1, 0): Fraction(2, 1), (0, 1): Fraction(-6, 3)})
    plain = MultiPoly(2, {(1, 0): 2, (0, 1): -2})
    assert whole == plain
    assert hash(whole) == hash(plain)
    assert str(whole) == str(plain) == "2*z1 - 2*z2"
    assert whole.to_json() == plain.to_json()
    assert all(type(c) is int for c in whole.terms.values())
    f = mono(2, 1, 0, 0) + 3 * mono(0, 1, 1, 0)
    half = f * Fraction(1, 2)
    assert all(type(c) is Fraction for c in half.terms.values())
    assert all(type(c) is int for c in (half * 2).terms.values())
    assert half * 2 == f
    assert (f * 0).is_zero() and (f * Fraction(0)).is_zero()
    assert f.coefficient((0, 0, 0, 0)) == 0 and type(f.coefficient((0, 0, 0, 0))) is int


@pytest.mark.parametrize(
    "build",
    [
        lambda: MultiPoly(2, {(1, 0): 1.5}),
        lambda: MultiPoly(2, {(1, 0): 2.0}),
        lambda: MultiPoly(2, {(1.5, 0): 1}),
        lambda: MultiPoly(2, {(1.0, 0): 1}),
        lambda: MultiPoly(2, {(1, -1): 1}),
        lambda: MultiPoly(2, {(1, 0, 0): 1}),
        lambda: MultiPoly(2.0),
        lambda: MultiPoly.monomial((1, 0), 0.5),
        lambda: MultiPoly.monomial((1.0, 0)),
        lambda: MultiPoly.constant(2, 0.5),
        lambda: MultiPoly.from_json(2, [{"coeff": 0.5, "exp": [1, 0]}]),
        lambda: MultiPoly.from_json(2, [{"coeff": "1", "exp": [1.0, 0]}]),
    ],
)
def test_constructors_reject_floats(build):
    with pytest.raises(ValueError):
        build()


def test_from_json_reads_int_and_rational_strings():
    f = MultiPoly.from_json(2, [{"coeff": "3", "exp": [1, 0]}, {"coeff": "-1/2", "exp": [0, 1]}])
    assert f.terms == {(1, 0): 3, (0, 1): Fraction(-1, 2)}
    assert stored_exactly(f)


@pytest.mark.parametrize("i", [0, -1, 4, 10])
def test_variable_index_out_of_range(i):
    with pytest.raises(ValueError):
        MultiPoly.variable(i, 3)


@pytest.mark.parametrize("i, j", [(0, 3), (3, 0), (1, 4), (4, 1), (-2, 1)])
def test_divide_by_difference_index_out_of_range(i, j):
    # i = 0 used to alias j = 3 and loop forever dividing by z3 - z3
    z1, z3 = MultiPoly.variable(1, 3), MultiPoly.variable(3, 3)
    with pytest.raises(ValueError):
        divide_by_difference(z1 - z3, i, j)


@pytest.mark.parametrize(
    "lam, n", [(lam, 4) for lam in partitions_in_box((3, 2, 1, 0))] + [((2, 1, 1, 0, 0), 5)]
)
def test_operator_keys_are_int_and_match_faces(lam, n):
    for sigma in itertools.permutations(range(1, n + 1)):
        key = key_via_operators(lam, sigma)
        assert all(type(c) is int and c > 0 for c in key.terms.values())
        assert key == kogan.key_via_faces(lam, sigma)


@pytest.mark.parametrize("scale", [Fraction(1, 2), -1])
def test_planted_non_natural_coefficient_raises(monkeypatch, scale):
    real = polyops.pi_op
    monkeypatch.setattr(polyops, "pi_op", lambda f, i: real(f, i) * scale)
    with pytest.raises(AssertionError, match="non-natural coefficient"):
        key_via_operators((2, 1, 0), (2, 1, 3))


@pytest.mark.parametrize(
    "lam",
    [(2, 2, 0, 0), (1, 1, 1, 0), (3, 1, 1, 0), (2, 2, 1, 1),
     (2, 2, 2, 0, 0), (1, 1, 0, 0, 0), (3, 1, 1, 0, 0), (2, 2, 1, 1, 0)],
)
def test_the_shortest_equivalent_word_gives_the_key_of_the_full_word(lam):
    start = MultiPoly.monomial(lam)
    for sigma in itertools.permutations(range(1, len(lam) + 1)):
        short = polyops._shortest_equivalent(lam, sigma)
        assert sorted(short) == sorted(sigma) and perm_length(short) <= perm_length(sigma), sigma
        assert key_via_operators(lam, sigma) == apply_pi_word(start, canonical_reduced_word(sigma)), sigma
    # the zero tail and each repeated part are blocks: their values end in order
    assert polyops._shortest_equivalent((2, 2, 1, 0, 0), (5, 2, 4, 1, 3)) == (4, 1, 5, 2, 3)


def _homogeneous(nvars, degree):
    """Every monomial of the degree, each with its own coefficient."""
    exps = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]
    return {e: i + 1 for i, e in enumerate(exps)}


def _same_everywhere(f, terms):
    """f holds exactly `terms`, in canonical fields, however it is rebuilt."""
    rebuilt = MultiPoly(f.nvars, terms)
    assert dict(f.terms) == terms
    assert f.bits == max(1, max(map(sum, terms), default=0).bit_length())
    assert f == rebuilt and hash(f) == hash(rebuilt) and f.packed == rebuilt.packed
    assert f.sorted_terms() == graded_lex_terms(terms)
    assert MultiPoly.from_json(f.nvars, f.to_json()) == f


@pytest.mark.parametrize("degree", [7, 8, 15, 16])
def test_the_packed_fields_hold_every_monomial_at_the_edges_of_their_width(degree):
    # B is the bit length of the largest degree: 3, 4, 4, 5
    terms = _homogeneous(3, degree) | {(0, 0, 0): -1, (0, 1, 0): Fraction(1, 3)}
    f = MultiPoly(3, terms)
    assert f.bits == degree.bit_length() and f.degree() == degree
    _same_everywhere(f, terms)
    for i in (1, 2):
        z_i, z_next = MultiPoly.variable(i, 3), MultiPoly.variable(i + 1, 3)
        assert divided_difference(f, i) * (z_i - z_next) == f - MultiPoly(3, swap(terms, i))
        assert pi_op(pi_op(f, i), i) == pi_op(f, i)


def test_the_fields_widen_and_narrow_with_the_degree():
    z1, z2, z3 = (MultiPoly.variable(i, 3) for i in (1, 2, 3))
    quartic = _homogeneous(3, 4)  # B = 3
    product = MultiPoly(3, quartic) * MultiPoly(3, quartic)  # degree 8: B = 4
    assert product.bits == 4
    _same_everywhere(product, tuple_product(quartic, quartic))
    seventh = MultiPoly(3, _homogeneous(3, 7))
    _same_everywhere(seventh * z2, tuple_product(_homogeneous(3, 7), {(0, 1, 0): 1}))
    assert (z1 ** 8).bits == 4 and z1 ** 8 == MultiPoly.monomial((8, 0, 0))
    # d_1 z1^8 = sum of z1^t z2^(7-t): degree 8 -> 7 narrows B from 4 to 3
    strip = divided_difference(z1 ** 8 + z3, 1)
    assert strip.bits == 3
    _same_everywhere(strip, {(t, 7 - t, 0): 1 for t in range(8)})
    # the top terms cancel: degree 8 -> 3, B from 4 to 2
    cancelled = (z1 ** 8 + z2 ** 3) + (z3 - z1 ** 8)
    assert cancelled.bits == 2
    _same_everywhere(cancelled, {(0, 3, 0): 1, (0, 0, 1): 1})
    _same_everywhere(z1 ** 8 - z1 ** 8, {})
    _same_everywhere(strip * Fraction(1, 2), {(t, 7 - t, 0): Fraction(1, 2) for t in range(8)})


def test_no_variables_and_the_zero_polynomial():
    for nvars in (0, 1, 3):
        zero = MultiPoly.zero(nvars)
        assert zero.is_zero() and zero.bits == 1 and zero.degree() == 0 and str(zero) == "0"
        assert zero == MultiPoly(nvars, {}) == MultiPoly.constant(nvars, 2) * 0 and hash(zero) == hash(MultiPoly(nvars))
        assert zero.to_json() == [] and zero.joined_terms(" ") == []
    six = MultiPoly.constant(0, 2) * MultiPoly.constant(0, 3)
    _same_everywhere(six, {(): 6})
    assert str(six) == "6" and six.to_json() == [{"coeff": "6", "exp": []}] and six.joined_terms(",") == [(6, "")]
    assert six + MultiPoly.constant(0, Fraction(-6)) == MultiPoly.zero(0)
    assert eval_ones(six * Fraction(1, 4)) == Fraction(3, 2)


def test_equal_polynomials_are_equal_by_every_route():
    lam, sigma = (2, 1, 0, 0), (2, 4, 3, 1)
    routes = [
        key_via_operators(lam, sigma),
        kogan.key_via_faces(lam, sigma),
        polyops.weight_sum(kogan.complex_spec(lam, sigma)),
        MultiPoly.from_json(4, key_via_operators(lam, sigma).to_json()),
        MultiPoly(4, dict(key_via_operators(lam, sigma).terms)),
    ]
    assert len(set(routes)) == 1 and all(r.packed == routes[0].packed for r in routes)
    assert len({schur((4, 2, 1, 1), 4), key_via_operators((4, 2, 1, 1), longest_element(4))}) == 1


@settings(max_examples=100)
@given(st.integers(0, 5).flatmap(lambda n: polys(nvars=n, max_terms=8, max_exp=9)))
def test_sorted_and_joined_terms_follow_the_tuple_order(f):
    expected = graded_lex_terms(dict(f.terms))
    assert f.sorted_terms() == expected
    for sep in (" ", ",\n        "):
        assert f.joined_terms(sep) == [(c, sep.join(map(str, e))) for e, c in expected]
