"""Exact Ehrhart polynomials: interpolation, closed formulas, and scans.

Counting functions are sampled at D+1 consecutive dilations for a proved
degree bound D, interpolated exactly from their forward differences
(`interpolate`) into integer numerators over one denominator dividing D!
(`UniPoly`), then re-checked at two more.  D is the bound
`lattice.dimension` reads off the spec: the number of entries whose
interval between the marked rows is not a point, less one per independent
row-sum equation of a weight.  A Kogan face's D is its dimension, the
number of free classes once its cells merge entries, and a key complex's
the largest among its faces (the spec's `faces`); both are the degree.

Each object states its dilations when it is built (`CountedObject`);
every object is sampled at k = 0..D.  A GT or skew GT polytope P is
counted by two independent methods.  Its samples are its Jacobi-Trudi
determinant, s_{k lambda/k mu}(1^n) as an integer determinant
(`_jacobi_trudi`).  Its checks are lattice sweeps: the count at k = 1,
and at k = -1 and -2 the value L(-k) = (-1)^d times the number of
lattice points in the relative interior of kP by Ehrhart-Macdonald
reciprocity (Macdonald 1971; Beck-Robins, Computing the Continuous
Discretely, ch. 4), d the exact dimension.  So its result is valid only
when the two methods agree.  Key complexes, Kogan faces and weighted
objects are counted by the sweep alone and checked at D+1 and D+2, their
samples and checks in one `lattice.count_dilations` call: for key
complexes and Kogan faces that is one pass over k = 0..D+2.  Both
plans check at two consecutive dilations, one even and one odd: a single
extra point cannot distinguish a period-2 quasi-polynomial from an
honest polynomial.  A verification mismatch never raises; it is recorded
on the result and surfaced by scans and the CLI.
"""

from __future__ import annotations

import itertools
import json
import operator
from fractions import Fraction
from math import comb, factorial, gcd, lcm, prod
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import kogan, lattice
from .combinat import (
    avoids_pattern,
    check_partition,
    check_permutation,
    pad,
    partitions_in_box,
    partitions_of,
)


class UniPoly:
    """Dense univariate polynomial over the rationals, low degree first: a
    value with no arithmetic, evaluated at integer k.

    It is held as integer numerators `nums` over one positive common
    denominator `den`, in lowest terms (no prime divides `den` and every
    numerator) and without trailing zeros, so equal polynomials have equal
    fields.  `coeffs` gives the coefficients as Fractions.  It is built from
    its coefficients (`UniPoly(coeffs)`, `from_coeff_strings`), from
    samples (`interpolate`) or from linear factors (`linear_product`)."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._hold([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def _over(cls, nums: list[int], den: int) -> "UniPoly":
        """The polynomial with integer numerators `nums` over `den` > 0."""
        poly = cls.__new__(cls)
        poly._hold(nums, den)
        return poly

    def _hold(self, nums: list[int], den: int) -> None:
        """Keep nums/den, den > 0, without trailing zeros and in lowest
        terms."""
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums)
        self.nums, self.den = tuple(c // g for c in nums), den // g

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        return len(self.nums) - 1

    def __call__(self, k: int) -> int | Fraction:
        """The value at an integer k: Horner's rule on the numerators,
        divided by the denominator once; an int when the value is integral,
        else a Fraction."""
        k = operator.index(k)
        acc = 0
        for c in reversed(self.nums):
            acc = acc * k + c
        whole, rest = divmod(acc, self.den)
        return Fraction(acc, self.den) if rest else whole

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def nonneg(self) -> bool:
        return all(c >= 0 for c in self.nums)

    def _reduced(self) -> Iterator[tuple[int, int]]:
        """Each coefficient in lowest terms, as (numerator, denominator)."""
        den = self.den
        for c in self.nums:
            g = gcd(c, den)
            yield c // g, den // g

    def coeff_strings(self) -> list[str]:
        return [str(a) if b == 1 else f"{a}/{b}" for a, b in self._reduced()]

    @classmethod
    def from_coeff_strings(cls, items: Sequence[str]) -> "UniPoly":
        return cls([Fraction(s) for s in items])

    def __str__(self) -> str:
        parts = []
        for power, (a, b) in reversed(list(enumerate(self._reduced()))):
            if a == 0:
                continue
            mag = str(abs(a)) if b == 1 else f"{abs(a)}/{b}"
            if power == 0:
                term = mag
            else:
                head = "" if mag == "1" else f"{mag}*"
                term = f"{head}k" if power == 1 else f"{head}k^{power}"
            if not parts:
                parts.append(term if a > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if a > 0 else f"- {term}")
        return " ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"UniPoly({self})"


def interpolate(samples: Sequence[tuple[int, int]]) -> UniPoly:
    """The polynomial of degree <= D through D+1 samples at the consecutive
    dilations k0, k0+1, ..., k0+D, given in that order (else ValueError).

    Newton's forward differences: P(k) is the sum over i of the i-th
    difference of the samples at k0 times binom(k - k0, i).  D! binom(k -
    k0, i) is D!/i! times a falling factorial, a polynomial with integer
    coefficients, so integer samples are summed in integers and the sums
    are the numerators over D!.  Rational samples are first put over their
    common denominator s, and the sums are then over s D!.
    """
    if not samples:
        raise ValueError("need at least one sample")
    k0 = samples[0][0]
    if any(k != k0 + i for i, (k, _) in enumerate(samples)):
        raise ValueError("samples must be at consecutive dilations, in order")
    scale = lcm(*(v.denominator for _, v in samples))
    diffs = [v.numerator * (scale // v.denominator) for _, v in samples]
    degree = len(diffs) - 1
    coeffs = [0] * len(diffs)
    basis = [factorial(degree)]  # D!/i! (k - k0)(k - k0 - 1)...(k - k0 - i + 1), low degree first
    for i in range(len(diffs)):
        if i:  # times k - (k0 + i - 1), over i, which divides D!/(i-1)!
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            basis = [(low - (k0 + i - 1) * high) // i for low, high in zip([0] + basis, basis + [0])]
        for j, b in enumerate(basis):
            coeffs[j] += diffs[0] * b
    return UniPoly._over(coeffs, scale * factorial(degree))


def linear_product(scale: Fraction | int, factors: Iterable[tuple[int, int]]) -> UniPoly:
    """scale times the product of the factors c + a*k, given as pairs (c, a),
    expanded coefficient by coefficient in Fractions."""
    coeffs = [Fraction(scale)]
    for c, a in factors:
        coeffs = [c * low + a * high for low, high in zip(coeffs + [0], [0] + coeffs)]
    return UniPoly(coeffs)


def ehrhart_gt_product(lam: Sequence[int]) -> UniPoly:
    """Closed product formula for the Ehrhart polynomial of GT(lambda): the
    product over i < j of (j - i + (lambda_i - lambda_j) k) / (j - i)."""
    lam = check_partition(lam)
    pairs = list(itertools.combinations(range(len(lam)), 2))
    scale = Fraction(1, prod(j - i for i, j in pairs))
    return linear_product(scale, [(j - i, lam[i] - lam[j]) for i, j in pairs])


def _det(matrix: Sequence[Sequence[int]]) -> int:
    """The determinant of a square integer matrix by fraction-free
    elimination (Bareiss 1968): after step c every entry below and right of
    the pivot is a minor of the matrix, so each division is exact.  A zero
    pivot swaps in a row below with a nonzero entry in its column, and
    flips the sign; with none the determinant is 0."""
    a = [list(row) for row in matrix]
    size, sign, prev = len(a), 1, 1
    for c in range(size - 1):
        if not a[c][c]:
            swap = next((r for r in range(c + 1, size) if a[r][c]), None)
            if swap is None:
                return 0
            a[c], a[swap], sign = a[swap], a[c], -sign
        pivot, row = a[c][c], a[c]
        for r in range(c + 1, size):
            below, lead = a[r], a[r][c]
            for j in range(c + 1, size):
                below[j] = (below[j] * pivot - lead * row[j]) // prev
        prev = pivot
    return sign * a[-1][-1] if size else 1


def _jacobi_trudi(spec: lattice.PolytopeSpec, k: int) -> int:
    """The number of lattice points of k.GT(lambda/mu) with n rows above
    mu, for an unweighted spec and k >= 0: s_{k lambda/k mu}(1^n) =
    det[h_{k(lambda_i - mu_j) - i + j}(1^n)] (Jacobi-Trudi; Macdonald,
    Symmetric Functions I.5), where h_r(1^n) = binom(r + n - 1, n - 1) is
    the number of multisets of r elements of n, and 0 for r < 0.  At k = 0
    the matrix is unitriangular, so its determinant 1 is not taken: 0P is
    one point for every spec, empty ones too.  When a column of lambda/mu
    is longer than n the determinant is 0 at every k >= 1, as is the
    polytope's count."""
    if not k:
        return 1
    lam, n = spec.top, spec.n
    mu = spec.bottom or (0,) * len(lam)
    return _det([
        [comb(r + n - 1, n - 1) if r >= 0 else 0 for r in (k * (x - y) - i + j for j, y in enumerate(mu))]
        for i, x in enumerate(lam)
    ])


# --- counted objects ----------------------------------------------------------

class CountedObject(NamedTuple):
    """A lattice-point counting family with a dilation parameter, a proved
    upper bound D = `bound` on the degree of its counting function, and its
    own plan: its fit asks `counts(range(D + 1), checks(D))` once for its
    samples at k = 0..D and its checks at the dilations `checks(D)`, which
    may be negative, and gets back the two lists of counts.  An object
    counts both lists in one call however it likes: one lattice pass over
    every dilation, or two methods.  A fit under another bound is the fit
    of `obj._replace(bound=...)`."""

    desc: dict
    bound: int
    counts: Callable[[Sequence[int], Sequence[int]], tuple[list[int], list[int]]]
    checks: Callable[[int], tuple[int, ...]]

    def key(self) -> str:
        return json.dumps(self.desc, sort_keys=True, separators=(",", ":"))


def _polytope_object(desc: dict, spec: lattice.PolytopeSpec) -> CountedObject:
    """An unweighted spec, counted by two independent methods.  Its samples
    are the Jacobi-Trudi determinant (`_jacobi_trudi`).  Its checks are the
    lattice sweep at k = 1, -1 and -2, giving L(k): the count of kP at
    k >= 0, and (-1)^d times the count of the relative interior of |k|P at
    k < 0 by reciprocity, d the exact dimension `lattice.dimension` proves,
    whatever degree bound the fit is given.  The check at 1 compares the
    two methods at a sample, and those at -1 and -2 the interpolant with
    the sweep's interior counts: a sample wrong at one k, or a degree bound
    below the degree, moves the interpolant at -1.  A wrong determinant
    entry errs at every k, by a polynomial that often vanishes at -1 and
    -2 (an Ehrhart polynomial of a smaller polytope with no interior
    points); at 1 it does not."""
    d = lattice.dimension(spec)

    def sweep(k: int) -> int:
        return lattice.count_points(spec, k) if k >= 0 else (-1) ** d * lattice.count_points(spec, -k, interior=True)

    def counts(samples: Sequence[int], checks: Sequence[int]) -> tuple[list[int], list[int]]:
        return [_jacobi_trudi(spec, k) for k in samples], [sweep(k) for k in checks]

    return CountedObject(desc, d, counts, lambda D: (1, -1, -2))


def gt_object(lam, n: int | None = None) -> CountedObject:
    spec = lattice.gt_spec(lam, n=n)
    return _polytope_object({"family": "gt", "lambda": list(spec.top)}, spec)


def skew_object(lam, mu=(), n: int | None = None) -> CountedObject:
    spec = lattice.skew_spec(lam, mu, n=n)
    return _polytope_object({"family": "skew", "lambda": list(spec.top), "mu": list(spec.bottom), "n": spec.n}, spec)


def gt_weight_object(lam, mu, n: int | None = None) -> CountedObject:
    spec = lattice.gt_spec(lam, weight=mu, n=n)
    return _swept_object({"family": "gt_weight", "lambda": list(spec.top), "mu": list(spec.weight)}, spec)


def skew_weight_object(lam, mu, nu, n: int | None = None) -> CountedObject:
    spec = lattice.skew_spec(lam, mu, weight=nu, n=n)
    return _swept_object(
        {
            "family": "skew_weight",
            "lambda": list(spec.top),
            "mu": list(spec.bottom),
            "nu": list(spec.weight),
            "n": spec.n,
        },
        spec,
    )


def key_complex_object(lam, sigma) -> CountedObject:
    sigma = check_permutation(sigma)
    lam = pad(check_partition(lam), len(sigma))
    desc = {"family": "key_complex", "lambda": list(lam), "sigma": list(sigma)}
    return _swept_object(desc, kogan.complex_spec(lam, sigma))


def kogan_face_object(lam, face: kogan.KoganFace) -> CountedObject:
    lam = pad(check_partition(lam), face.n)
    return _swept_object(
        {"family": "kogan_face", "lambda": list(lam), "cells": [list(c) for c in face.sorted_cells()]},
        lattice.gt_spec(lam, n=face.n, faces=[face.cells]),
    )


def _swept_object(desc: dict, spec: lattice.PolytopeSpec) -> CountedObject:
    """`spec` counted by the lattice sweep alone and checked at D+1 and D+2;
    its bound is `lattice.dimension`, for a union of faces the largest
    dimension of a face, which is the degree.  Its samples and checks are
    one `lattice.count_dilations` call: one pass over k = 0..D+2 for
    GT(lambda) and a union of its faces (key complexes and Kogan faces),
    one pass per k for a weighted spec."""

    def counts(samples: Sequence[int], checks: Sequence[int]) -> tuple[list[int], list[int]]:
        got = lattice.count_dilations(spec, [*samples, *checks])
        return got[: len(samples)], got[len(samples) :]

    return CountedObject(desc, lattice.dimension(spec), counts, lambda D: (D + 1, D + 2))


# --- interpolation with verification ------------------------------------------

class EhrhartResult(NamedTuple):
    """The fit of an object's counts (`ehrhart_of`): its samples (k, L(k)), the
    interpolated polynomial, and its checks (k, L(k), whether the
    polynomial gives L(k)).  `nonneg` and `valid` are read off those."""

    object: dict
    degree_bound: int
    samples: list[tuple[int, int]]
    poly: UniPoly
    verify_points: list[tuple[int, int, bool]]
    empty: bool = False

    @property
    def nonneg(self) -> bool:
        return self.poly.nonneg()

    @property
    def valid(self) -> bool:
        return all(ok for _, _, ok in self.verify_points)

    def to_json(self) -> dict:
        return {
            "object": self.object,
            "degree_bound": self.degree_bound,
            "samples": [[k, str(v)] for k, v in self.samples],
            "poly": self.poly.coeff_strings(),
            "poly_str": str(self.poly),
            "verify_points": [[k, str(v), ok] for k, v, ok in self.verify_points],
            "nonneg": self.nonneg,
            "valid": self.valid,
            "empty": self.empty,
        }


def ehrhart_of(obj: CountedObject) -> EhrhartResult:
    """Interpolate the object's counts at k = 0..D, D = `obj.bound` (a
    negative bound raises ValueError), and compare the polynomial with its
    check counts at `obj.checks(D)`.  Both are asked of the object in one
    `counts` call, so a swept object counts them in one pass.  A check at
    k < 0 is stored as the value L(k) the check gives, so every count is a
    point of the polynomial.

    The k = 0 sample of a dilated specification is always the single zero
    pattern, so an empty polytope would poison the fit; if every sample and
    verification count at k != 0 vanishes the honest answer is the zero
    polynomial and the object is marked empty.
    """
    D = obj.bound
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    ks, at = range(D + 1), obj.checks(D)
    got, checked = obj.counts(ks, at)
    samples, checks = list(zip(ks, got)), list(zip(at, checked))
    empty = all(v == 0 for k, v in samples + checks if k)
    poly = UniPoly() if empty else interpolate(samples)
    return EhrhartResult(
        object=obj.desc,
        degree_bound=D,
        samples=samples,
        poly=poly,
        verify_points=[(k, v, poly(k) == v) for k, v in checks],
        empty=empty,
    )


# --- determinant formula and flag sequences ------------------------------------

def flag_sequences(n: int) -> list[tuple[int, ...]]:
    """Nondecreasing b_1 <= ... <= b_n <= n with b_i >= i, in lexicographic
    order; Catalan many."""
    flags = itertools.combinations_with_replacement(range(1, n + 1), n)
    return [b for b in flags if all(x >= i for i, x in enumerate(b, 1))]


def determinant_formula(lam: Sequence[int], b: Sequence[int]) -> UniPoly:
    """det( binom(k*lam_i + b_i - i, b_i - j) ) as an exact polynomial in k.

    Entry (i, j) is the binomial polynomial of degree b_i - j in k, 0 when
    b_i < j, so every product of the Leibniz sum, and the determinant, has
    degree at most B = sum(b_i - 1).  It is interpolated from its values at
    k = 0..B, each an integer determinant (`_det`).  There the upper
    argument k*lam_i + b_i - i is >= 0, as b_i >= i, and the binomial
    polynomial's value is math.comb, 0 when b_i - j exceeds it.

    b must be a flag sequence of length n = len(lam) (see flag_sequences),
    else ValueError."""
    lam = check_partition(lam)
    n = len(lam)
    b = tuple(b)
    if len(b) != n:
        raise ValueError("flag length must equal n")
    if any(b[i] < i + 1 or b[i] > n for i in range(n)):
        raise ValueError(f"flag {b!r} out of range")
    if any(b[i] > b[i + 1] for i in range(n - 1)):
        raise ValueError(f"flag {b!r} must be nondecreasing")

    def value(k: int) -> int:
        return _det([
            [comb(k * x + c - i, c - j) if c >= j else 0 for j in range(1, n + 1)]
            for i, (x, c) in enumerate(zip(lam, b), 1)
        ])

    return interpolate([(k, value(k)) for k in range(sum(b) - n + 1)])


def flag_match(lam: Sequence[int], sigma: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Search the flag sequences for one whose determinant polynomial equals
    the Ehrhart polynomial of the key complex, counted and interpolated
    afresh; None reports a failed search (which would contradict the
    flagged-Schur correspondence and deserves attention, so callers should
    not swallow it)."""
    sigma = check_permutation(sigma)
    if not avoids_pattern(sigma, (2, 3, 1)):
        raise ValueError("flag matching applies to 231-avoiding permutations")
    lam = pad(check_partition(lam), len(sigma))
    target = ehrhart_of(key_complex_object(lam, sigma)).poly
    for b in flag_sequences(len(sigma)):
        if determinant_formula(lam, b) == target:
            return b
    return None


# --- power-sum face --------------------------------------------------------

def faulhaber_sum(ell: int, k: int) -> int:
    """Direct big-integer power sum 1^ell + 2^ell + ... + (k+1)^ell."""
    return sum(j**ell for j in range(1, k + 2))


def faulhaber_face(ell: int) -> UniPoly:
    """The degree ell+1 polynomial in k equal to the power sum above.

    This is the Ehrhart polynomial of a chain-of-diamonds face of a GT
    polytope; for ell = 20 some coefficient is negative, the classical
    counterexample to coefficient positivity for arbitrary faces.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    samples = [(k, faulhaber_sum(ell, k)) for k in range(ell + 2)]
    return interpolate(samples)


# --- conjecture scans --------------------------------------------------------

class ScanEntry(NamedTuple):
    result: EhrhartResult


class ScanReport:
    def __init__(self, family: str, ranges: dict):
        self.family = family
        self.ranges = ranges
        self.entries: list[ScanEntry] = []

    @property
    def violations(self) -> list[EhrhartResult]:
        return [e.result for e in self.entries if e.result.valid and not e.result.nonneg]

    @property
    def failures(self) -> list[EhrhartResult]:
        return [e.result for e in self.entries if not e.result.valid]

    @property
    def status(self) -> int:
        return 2 if (self.violations or self.failures) else 0

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "ranges": self.ranges,
            "checked": len(self.entries),
            "violations": [r.to_json() for r in self.violations],
            "verification_failures": [r.to_json() for r in self.failures],
            "results": [e.result.to_json() for e in self.entries],
        }


SCAN_RANGE_KEYS = {
    "skew_gt": ("max_shape", "n"),
    "stretched_kostka": ("max_size", "max_rows"),
    "skew_kostka": ("max_shape", "n"),
    "key_complex": ("n", "max_part"),
}


def _max_shape(ranges: dict) -> tuple[int, ...]:
    """The range's max_shape; a single number is a one-part shape."""
    shape = ranges.get("max_shape", (3, 2, 1))
    return (shape,) if isinstance(shape, int) else tuple(shape)


def scan_objects(family: str, ranges: dict) -> Iterator[CountedObject]:
    """Enumerate the counted objects of a scan family over bounded ranges.

    A range key the family does not read raises ValueError, and so does an
    integer key that is not one integer at or above its floor: n >= 1,
    max_size, max_rows and max_part >= 0."""
    keys = SCAN_RANGE_KEYS.get(family)
    if keys is None:
        raise ValueError(f"unknown scan family {family!r}")
    unknown = sorted(set(ranges) - set(keys))
    if unknown:
        raise ValueError(
            f"scan {family}: unknown range key(s) {', '.join(unknown)}; it reads {', '.join(keys)}"
        )

    def integer(key: str, default: int) -> int:
        value = ranges.get(key, default)
        floor = 1 if key == "n" else 0
        if not isinstance(value, int) or value < floor:
            raise ValueError(f"scan {family}: {key} must be one integer >= {floor}, not {value!r}")
        return value

    if family in ("skew_gt", "skew_kostka"):
        shape = _max_shape(ranges)
        n = integer("n", len(shape))
        for lam in partitions_in_box(shape):
            if not any(lam):
                continue
            for mu in partitions_in_box(lam):
                if family == "skew_gt":
                    yield skew_object(pad(lam, n), pad(mu, n), n=n)
                else:
                    for nu in compositions(sum(lam) - sum(mu), n):
                        yield skew_weight_object(pad(lam, n), pad(mu, n), nu, n=n)
    elif family == "stretched_kostka":
        max_size, max_rows = integer("max_size", 6), integer("max_rows", 4)
        for m in range(1, max_size + 1):
            parts = list(partitions_of(m, max_rows))
            for lam in parts:
                for mu in parts:
                    yield gt_weight_object(lam, mu)
    elif family == "key_complex":
        n, max_part = integer("n", 4), integer("max_part", 3)
        for lam in partitions_in_box((max_part,) * n):
            for sigma in itertools.permutations(range(1, n + 1)):
                yield key_complex_object(lam, sigma)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of total into the given number of parts."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def scan(family: str, ranges: dict | None = None) -> ScanReport:
    """Run ehrhart_of over a family grid and report negativity/verification."""
    ranges = dict(ranges or {})
    report = ScanReport(family=family, ranges=ranges)
    for obj in scan_objects(family, ranges):
        result = ehrhart_of(obj)
        report.entries.append(ScanEntry(result))
    return report
