"""Exact sparse multivariate polynomials and Demazure operators.

Coefficients are exact: a stored coefficient is an `int` exactly when it is
integral, and a `Fraction` only after a true non-integer operation such as
`f * Fraction(1, 2)`; no floating point enters anywhere.  The divided
difference is computed monomial-wise through the closed geometric-sum
form, so no polynomial division is ever performed, exactness is structural
and an integral polynomial stays in plain `int` through every operator.

A monomial is one int.  z^e in n variables, of degree d = sum(e), is

    d << B*n  |  e_1 << B*(n-1)  |  ...  |  e_n,

each exponent in a field of B bits, z_1 highest, the degree above them
all.  B = max(1, D.bit_length()) for the polynomial's largest degree D
(`_width`), so it is fixed by the polynomial alone: two equal polynomials
have equal dicts.  Every exponent of a term is at most its degree, at most
D < 2 ** B, so no field overflows into the next, and comparing two keys
compares their degrees first, then e_1, e_2, ...: int order is the graded
lexicographic order, z_1 > ... > z_n, that `sorted_terms` lists.  A
product adds keys, an operator moves a monomial's weight between two
fields with one multiply-add (`_strips`), and the face route's weight
tally (`lattice.weight_tally`) is kept in the same layout.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from . import lattice
from .combinat import canonical_reduced_word, check_partition, check_permutation, pad

Scalar = Union[int, Fraction]


class MultiPoly:
    """Sparse polynomial in z_1..z_n over the rationals.

    `packed` maps each monomial, one int in B-bit fields (`bits`, see the
    module docstring), to its nonzero coefficient; it is the only store.
    `terms` is a read-only view of it keyed by exponent tuples, built on
    each read.  Immutable by convention: operations return fresh instances
    and the map is never mutated after construction.  The public
    constructors validate and normalise their input; the operators build
    their results through `_of`, as their keys are valid by construction.
    """

    __slots__ = ("nvars", "bits", "packed")

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
        self.bits, self.packed = _packed_terms(clean)

    @classmethod
    def _of(cls, nvars: int, bits: int, packed: dict[int, Scalar]) -> "MultiPoly":
        """Adopt `packed`, keys in B-bit fields, unchecked: valid keys and no
        zero coefficient, as an operator builds them.  Only integral
        Fractions become int, and the keys are repacked when the largest
        degree no longer has bit length B (`_width`)."""
        if set(map(type, packed.values())) - {int}:
            for key, c in packed.items():
                if type(c) is not int and c.denominator == 1:
                    packed[key] = c.numerator
        width = _width(max(packed, default=0) >> bits * nvars)
        if width != bits:
            packed, bits = _repacked(packed, nvars, bits, width), width
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.bits = bits
        poly.packed = packed
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
        bits = max(self.bits, other.bits)
        terms = dict(self._at(bits))
        for key, c in other._at(bits).items():
            _accumulate(terms, key, c)
        return MultiPoly._of(self.nvars, bits, terms)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.nvars, self.bits, {key: -c for key, c in self.packed.items()})

    def __mul__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly.zero(self.nvars)
            return MultiPoly._of(self.nvars, self.bits, {key: c * other for key, c in self.packed.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        # a product of monomials is the sum of their keys, in fields wide
        # enough for the product's degree
        bits = _width(self.degree() + other.degree())
        right = other._at(bits).items()
        out: dict[int, Scalar] = {}
        for k1, c1 in self._at(bits).items():
            for k2, c2 in right:
                _accumulate(out, k1 + k2, c1 * c2)
        return MultiPoly._of(self.nvars, bits, out)

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

    def _at(self, bits: int) -> dict[int, Scalar]:
        """The packed terms in B-bit fields, B >= self.bits."""
        return self.packed if bits == self.bits else _repacked(self.packed, self.nvars, self.bits, bits)

    # -- queries -------------------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, ...], Scalar]:
        """The terms keyed by exponent tuples, read-only."""
        unpack = _unpacker(self.nvars, self.bits)
        return MappingProxyType({unpack(key): c for key, c in self.packed.items()})

    def is_zero(self) -> bool:
        return not self.packed

    def degree(self) -> int:
        return max(self.packed, default=0) >> self.bits * self.nvars

    def coefficient(self, exp: Sequence[int]) -> Scalar:
        return self.terms.get(tuple(exp), 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.packed == other.packed
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.packed.items())))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """Graded lexicographic order, z_1 > ... > z_n, largest first: the
        order of the packed keys."""
        unpack, packed = _unpacker(self.nvars, self.bits), self.packed
        return [(unpack(key), packed[key]) for key in sorted(packed, reverse=True)]

    def joined_terms(self, sep: str) -> list[tuple[Scalar, str]]:
        """Each term's coefficient and its exponents joined by `sep`, in the
        order of `sorted_terms`.  The exponents are read off the packed key
        in two halves of the fields, the low one of n // 2 fields, and each
        half's text is written once per call: many terms share a half."""
        n, bits, packed = self.nvars, self.bits, self.packed
        low = n // 2
        cut = bits * low
        high_mask, low_mask = (1 << bits * (n - low)) - 1, (1 << cut) - 1
        high_fields, low_fields = _unpacker(n - low, bits), _unpacker(low, bits)
        high_form = sep.join(["%d"] * (n - low)) + (sep if low else "")
        low_form = sep.join(["%d"] * low)
        high_texts: dict[int, str] = {}
        low_texts: dict[int, str] = {}
        out = []
        for key in sorted(packed, reverse=True):
            high = key >> cut & high_mask
            head = high_texts.get(high)
            if head is None:
                head = high_texts[high] = high_form % high_fields(high)
            tail = low_texts.get(key & low_mask)
            if tail is None:
                tail = low_texts[key & low_mask] = low_form % low_fields(key & low_mask)
            out.append((packed[key], head + tail))
        return out

    def __str__(self) -> str:
        if not self.packed:
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


def _width(degree: int) -> int:
    """The field width B of a polynomial whose largest degree is `degree`."""
    return max(1, degree.bit_length())


def _pack(exp: Sequence[int], bits: int) -> int:
    """z^exp as one int in B-bit fields, its degree above them."""
    key = sum(exp)
    for e in exp:
        key = key << bits | e
    return key


def _unpacker(nvars: int, bits: int):
    """The map of a key in B-bit fields to its exponent tuple."""
    field, shifts = (1 << bits) - 1, range(bits * (nvars - 1), -1, -bits)
    return lambda key: tuple([key >> sh & field for sh in shifts])


def _packed_terms(terms: Mapping[tuple[int, ...], Scalar]) -> tuple[int, dict[int, Scalar]]:
    """The canonical width of valid tuple-keyed terms and the terms packed."""
    bits = _width(max(map(sum, terms), default=0))
    return bits, {_pack(exp, bits): c for exp, c in terms.items()}


def _repacked(packed: dict[int, Scalar], nvars: int, bits: int, width: int) -> dict[int, Scalar]:
    """Keys in B-bit fields moved to fields of `width` bits."""
    unpack = _unpacker(nvars, bits)
    return {_pack(unpack(key), width): c for key, c in packed.items()}


def _accumulate(terms: dict, key, c: Scalar) -> None:
    """Add c to the coefficient of key, dropping it when it cancels."""
    new = terms.get(key, 0) + c
    if new:
        terms[key] = new
    else:
        del terms[key]


def _check_index(i: int, lo: int, hi: int, what: str) -> None:
    if type(i) is not int or not lo <= i <= hi:
        raise ValueError(f"{what} index {i!r} out of range {lo}..{hi}")


# --- operators ---------------------------------------------------------------

def _pair(f: MultiPoly, i: int) -> tuple[int, int, int]:
    """The shifts of the fields of z_{i+1} and z_i in f's keys, and the
    step that moves one unit of exponent from z_{i+1} to z_i."""
    low = f.bits * (f.nvars - i - 1)
    return low, low + f.bits, (1 << low + f.bits) - (1 << low)


def _strips(f: MultiPoly, i: int, shift: int) -> MultiPoly:
    """d_i(z_i^shift * f), summed monomial-wise.

    Each monomial m * z_i^a z_{i+1}^b (m free of z_i, z_{i+1}, a counting
    the shift) contributes a geometric strip m * sum z_i^t z_{i+1}^{a+b-1-t}:
    t = b..a-1 when a > b, the negated mirror when a < b, nothing when
    a = b.  The result is symmetric in z_i, z_{i+1}.

    Packed, with z_i's exponent a0 = a - shift in the key K, the strip's
    term t is base + t * step, step = 2 ** B(n-i) - 2 ** B(n-i-1) (`_pair`)
    and base = K - a0 * step less, for the divided difference (shift 0),
    one unit of z_{i+1} and one of degree: a strip is a range of ints.
    Every exponent of a strip term is at most its degree, which is K's or
    one less, so the terms keep f's fields, and `_of` narrows them when a
    divided difference takes the degree below a power of two."""
    _check_index(i, 1, f.nvars - 1, "operator")
    low, high, step = _pair(f, i)
    field = (1 << f.bits) - 1
    less = 0 if shift else (1 << low) + (1 << f.bits * f.nvars)
    out: dict[int, Scalar] = {}
    get = out.get
    for key, c in f.packed.items():
        a0, b = key >> high & field, key >> low & field
        a = a0 + shift
        if a == b:
            continue
        if a > b:
            lo, hi = b, a
        else:
            lo, hi, c = a, b, -c
        base = key - a0 * step - less
        for term in range(base + lo * step, base + hi * step, step):  # _accumulate, inlined
            new = get(term, 0) + c
            if new:
                out[term] = new
            else:
                del out[term]
    return MultiPoly._of(f.nvars, f.bits, out)


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


def _shortest_equivalent(lam: Sequence[int], sigma: Sequence[int]) -> tuple[int, ...]:
    """sigma with the values of each block of equal parts of lambda put in
    increasing order, in the positions they hold: the shortest sigma' with
    pi_sigma' z^lambda = pi_sigma z^lambda.

    When lambda_i = lambda_{i+1}, pi_i z^lambda = z^lambda (its one strip
    is z^lambda itself).  If the value i+1 stands left of i in sigma,
    swapping the two values gives a sigma'' one inversion shorter, and
    sigma has a reduced word ending in i, a reduced word of sigma''
    followed by i (`canonical_reduced_word`).  Every reduced word gives the
    same operator, so pi_sigma z^lambda = pi_sigma'' pi_i z^lambda =
    pi_sigma'' z^lambda.  Repeating until the values of every block stand
    in increasing order gives sigma', whose length is that of sigma less
    one per swap.  (Sorting the entries at the block's positions instead
    would multiply sigma on the other side, which pi_sigma z^lambda does
    not ignore.)"""
    out = list(sigma)
    where = sorted(range(len(sigma)), key=lambda at: sigma[at])  # where[v - 1]: the position of v
    start = 0
    for end in range(1, len(lam) + 1):
        if end == len(lam) or lam[end] != lam[start]:  # values start+1..end are one block
            for v, at in enumerate(sorted(where[start:end]), start + 1):
                out[at] = v
            start = end
    return tuple(out)


def key_via_operators(lam: Sequence[int], sigma: Sequence[int]) -> MultiPoly:
    """Key polynomial: the word of sigma applied to the monomial z^lambda.

    sigma is first shortened to `_shortest_equivalent`'s sigma', which
    drops every letter that acts on z^lambda as the identity.  Every
    reduced word of sigma' gives the same operator pi_sigma', so the word
    is `canonical_reduced_word`'s, which applies the largest letter it can
    first.  lambda is a partition, so a larger letter i acts on the
    smaller parts lambda_i >= lambda_{i+1}: each strip of `_strips` has
    |a - b| terms, and it stays short while the polynomial is still small."""
    sigma = check_permutation(sigma)
    n = len(sigma)
    lam = pad(check_partition(lam), n)
    word = canonical_reduced_word(_shortest_equivalent(lam, sigma))
    out = apply_pi_word(MultiPoly.monomial(lam), word)
    coeffs = out.packed.values()
    if set(map(type, coeffs)) - {int} or min(coeffs, default=1) <= 0:
        raise AssertionError("key polynomial produced a non-natural coefficient")
    return out


# --- tableau generating polynomials ------------------------------------------

def weight_sum(spec: lattice.PolytopeSpec) -> MultiPoly:
    """The lattice points of `spec` summed as weight monomials.
    `lattice.weight_tally` maps the weight of a pattern, packed as a
    monomial of spec.n variables in fields of its width, to its positive
    int count, in a dict of its own, so the terms are adopted unchecked."""
    return MultiPoly._of(spec.n, *lattice.weight_tally(spec, 1))


def schur(lam: Sequence[int], n: int) -> MultiPoly:
    """Schur polynomial as the weight generating sum over GT(lambda)."""
    return weight_sum(lattice.gt_spec(lam, n=n))


def skew_schur(lam: Sequence[int], mu: Sequence[int], n: int) -> MultiPoly:
    """Skew Schur polynomial over the parallelogram patterns of GT(lambda/mu)."""
    return weight_sum(lattice.skew_spec(lam, mu, n=n))


def eval_ones(f: MultiPoly) -> int | Fraction:
    """Substitute z_i = 1 for all i; returns an int whenever the value is integral."""
    total = sum(f.packed.values())
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
    num = dict(f.terms)  # by exponent tuples: this is not a hot path
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
    return MultiPoly._of(f.nvars, *_packed_terms(out))
