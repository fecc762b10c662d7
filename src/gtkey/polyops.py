"""Exact sparse multivariate polynomials and Demazure operators.

Coefficients are exact: a stored coefficient is an `int` exactly when it is
integral, and a `Fraction` only after a true non-integer operation such as
`f * Fraction(1, 2)`; no floating point enters anywhere.  The divided
difference is computed monomial-wise through the closed geometric-sum
form, so no polynomial division is ever performed, exactness is structural
and an integral polynomial stays in plain `int` through every operator.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from . import lattice
from .combinat import canonical_reduced_word, check_partition, check_permutation, pad

Scalar = Union[int, Fraction]


class MultiPoly:
    """Sparse polynomial in z_1..z_n over the rationals.

    Immutable by convention: operations return fresh instances and the term
    map is never mutated after construction.  The public constructors
    validate and normalise their input; the operators build their results
    through `_of`, as their exponents are valid by construction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        if type(nvars) is not int or nvars < 0:
            raise ValueError(f"bad variable count {nvars!r}")
        self.nvars = nvars
        clean: dict[tuple[int, ...], Scalar] = {}
        if terms:
            for exp, coeff in terms.items():
                if not isinstance(coeff, (int, Fraction)):
                    raise ValueError(f"coefficient {coeff!r} is not an int or a Fraction")
                if coeff == 0:
                    continue
                exp = tuple(exp)
                if len(exp) != nvars or not all(type(e) is int and e >= 0 for e in exp):
                    raise ValueError(f"bad exponent vector {exp!r} for {nvars} variables")
                clean[exp] = coeff.numerator if coeff.denominator == 1 else coeff
        self.terms = clean

    @classmethod
    def _of(cls, nvars: int, terms: dict[tuple[int, ...], Scalar]) -> "MultiPoly":
        """Adopt `terms` unchecked: valid exponents and no zero coefficient,
        as an operator builds them; only integral Fractions become int."""
        for exp, c in terms.items():
            if type(c) is not int and c.denominator == 1:
                terms[exp] = c.numerator
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, exp: Sequence[int], coeff: Scalar = 1) -> "MultiPoly":
        exp = tuple(exp)
        return cls(len(exp), {exp: coeff})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "MultiPoly":
        _check_index(i, 1, nvars, "variable")
        exp = [0] * nvars
        exp[i - 1] = 1
        return cls(nvars, {tuple(exp): 1})

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            _accumulate(terms, exp, c)
        return MultiPoly._of(self.nvars, terms)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly.zero(self.nvars)
            return MultiPoly._of(self.nvars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        out: dict[tuple[int, ...], Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _accumulate(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return MultiPoly._of(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative powers are not defined")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def coefficient(self, exp: Sequence[int]) -> Scalar:
        return self.terms.get(tuple(exp), 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """Graded lexicographic order, z_1 > ... > z_n, largest first."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.sorted_terms():
            factors = [
                f"z{i + 1}" if e == 1 else f"z{i + 1}^{e}"
                for i, e in enumerate(exp)
                if e
            ]
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            elif coeff == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{coeff}*" + "*".join(factors))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    def to_json(self) -> list[dict]:
        return [
            {"coeff": str(c), "exp": list(e)} for e, c in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, nvars: int, items: Iterable[dict]) -> "MultiPoly":
        """Read `to_json` terms back; a coefficient is an int or a "p/q" string."""
        terms = {}
        for t in items:
            coeff = t["coeff"]
            terms[tuple(t["exp"])] = Fraction(coeff) if isinstance(coeff, str) else coeff
        return cls(nvars, terms)


def _accumulate(terms: dict, exp: tuple[int, ...], c: Scalar) -> None:
    """Add c to the coefficient of exp, dropping it when it cancels."""
    new = terms.get(exp, 0) + c
    if new:
        terms[exp] = new
    else:
        del terms[exp]


def _check_index(i: int, lo: int, hi: int, what: str) -> None:
    if type(i) is not int or not lo <= i <= hi:
        raise ValueError(f"{what} index {i!r} out of range {lo}..{hi}")


# --- operators ---------------------------------------------------------------

def swap_vars(f: MultiPoly, i: int) -> MultiPoly:
    """Exchange z_i and z_{i+1}."""
    _check_index(i, 1, f.nvars - 1, "swap")
    out = {}
    for exp, c in f.terms.items():
        out[exp[: i - 1] + (exp[i], exp[i - 1]) + exp[i + 1 :]] = c
    return MultiPoly._of(f.nvars, out)


def _strips(f: MultiPoly, i: int, shift: int) -> MultiPoly:
    """d_i(z_i^shift * f), summed monomial-wise.

    Each monomial m * z_i^a z_{i+1}^b (m free of z_i, z_{i+1}, a counting
    the shift) contributes a geometric strip m * sum z_i^t z_{i+1}^{a+b-1-t}:
    t = b..a-1 when a > b, the negated mirror when a < b, nothing when
    a = b.  The result is symmetric in z_i, z_{i+1}.
    """
    _check_index(i, 1, f.nvars - 1, "operator")
    out: dict[tuple[int, ...], Scalar] = {}
    for exp, c in f.terms.items():
        a, b = exp[i - 1] + shift, exp[i]
        if a == b:
            continue
        if a > b:
            lo, hi = b, a
        else:
            lo, hi, c = a, b, -c
        head, tail, d = exp[: i - 1], exp[i + 1 :], a + b - 1
        for t in range(lo, hi):
            _accumulate(out, head + (t, d - t) + tail, c)
    return MultiPoly._of(f.nvars, out)


def divided_difference(f: MultiPoly, i: int) -> MultiPoly:
    """(f - s_i f) / (z_i - z_{i+1}), exact and division-free."""
    return _strips(f, i, 0)


def pi_op(f: MultiPoly, i: int) -> MultiPoly:
    """Demazure operator: divided_difference(z_i * f, i).  Degree-preserving."""
    return _strips(f, i, 1)


def apply_pi_word(f: MultiPoly, word: Sequence[int]) -> MultiPoly:
    """Compose Demazure operators along a word, rightmost letter first."""
    for letter in reversed(word):
        f = pi_op(f, letter)
    return f


def key_via_operators(lam: Sequence[int], sigma: Sequence[int]) -> MultiPoly:
    """Key polynomial: the word of sigma applied to the monomial z^lambda.

    Every reduced word of sigma gives the same operator pi_sigma, so the
    word is `canonical_reduced_word`'s, which applies the largest letter it
    can first.  lambda is a partition, so a larger letter i acts on the
    smaller parts lambda_i >= lambda_{i+1}: each strip of `_strips` has
    |a - b| terms, and it stays short while the polynomial is still small."""
    sigma = check_permutation(sigma)
    n = len(sigma)
    lam = pad(check_partition(lam), n)
    word = canonical_reduced_word(sigma)
    out = apply_pi_word(MultiPoly.monomial(lam), word)
    if not all(type(c) is int and c > 0 for c in out.terms.values()):
        raise AssertionError("key polynomial produced a non-natural coefficient")
    return out


# --- tableau generating polynomials ------------------------------------------

def weight_sum(spec: lattice.PolytopeSpec) -> MultiPoly:
    """The lattice points of `spec` summed as weight monomials.
    `lattice.weight_counts` maps the weight of a pattern, a tuple of spec.n
    non-negative ints, to its positive int count, in a dict of its own, so
    the terms are adopted unchecked."""
    return MultiPoly._of(spec.n, lattice.weight_counts(spec, 1))


def schur(lam: Sequence[int], n: int) -> MultiPoly:
    """Schur polynomial as the weight generating sum over GT(lambda)."""
    return weight_sum(lattice.gt_spec(lam, n=n))


def skew_schur(lam: Sequence[int], mu: Sequence[int], n: int) -> MultiPoly:
    """Skew Schur polynomial over the parallelogram patterns of GT(lambda/mu)."""
    return weight_sum(lattice.skew_spec(lam, mu, n=n))


def eval_ones(f: MultiPoly) -> int | Fraction:
    """Substitute z_i = 1 for all i; returns an int whenever the value is integral."""
    total = sum(f.terms.values())
    return total.numerator if total.denominator == 1 else total


def kostka(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Number of semistandard tableaux of shape lam and content mu."""
    return lattice.count_points(lattice.gt_spec(lam, weight=mu))


def skew_kostka(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """Number of semistandard tableaux of shape lam/mu and content nu."""
    return lattice.count_points(lattice.skew_spec(lam, mu, weight=nu))


# --- exact division (used by the bundled reference expressions) --------------

def divide_by_difference(f: MultiPoly, i: int, j: int) -> MultiPoly:
    """Exact quotient f / (z_i - z_j); raises if the division is not exact."""
    _check_index(i, 1, f.nvars, "variable")
    _check_index(j, 1, f.nvars, "variable")
    if i == j:
        raise ValueError("need two distinct variables")
    num = dict(f.terms)
    out: dict[tuple[int, ...], Scalar] = {}
    while num:
        exp = max(num, key=lambda e: (e[i - 1], e))
        coeff = num.pop(exp)
        if exp[i - 1] == 0:
            raise ValueError("polynomial is not divisible by the difference")
        q = list(exp)
        q[i - 1] -= 1
        _accumulate(out, tuple(q), coeff)
        q[j - 1] += 1
        _accumulate(num, tuple(q), coeff)
    return MultiPoly._of(f.nvars, out)
