"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and shares no code path with the
library: tableaux are built cell by cell, permutations are composed as
explicit maps, and lattice points are grid-filtered.
"""

from __future__ import annotations

import itertools


def compose_word(word, n):
    """Product of adjacent transpositions, first letter acting first."""

    def s(i):
        def f(x):
            if x == i:
                return i + 1
            if x == i + 1:
                return i
            return x

        return f

    maps = [s(i) for i in word]

    def apply(x):
        for f in maps:
            x = f(x)
        return x

    return tuple(apply(x) for x in range(1, n + 1))


def inversions(perm):
    n = len(perm)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
    )


def ssyt_fillings(shape, n, content=None):
    """All semistandard fillings of a straight shape with entries <= n,
    optionally of fixed content, built cell by cell."""
    shape = tuple(s for s in shape if s > 0)
    cells = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]
    results = []
    grid = {}

    def ok(r, c, v):
        if c > 0 and grid[(r, c - 1)] > v:
            return False
        if r > 0 and (r - 1, c) in grid and grid[(r - 1, c)] >= v:
            return False
        return True

    def rec(idx, counts):
        if idx == len(cells):
            if content is None or tuple(counts) == tuple(content):
                results.append(
                    tuple(
                        tuple(grid[(r, c)] for c in range(shape[r]))
                        for r in range(len(shape))
                    )
                )
            return
        r, c = cells[idx]
        for v in range(1, n + 1):
            if content is not None and counts[v - 1] >= content[v - 1]:
                continue
            if not ok(r, c, v):
                continue
            grid[(r, c)] = v
            counts[v - 1] += 1
            rec(idx + 1, counts)
            counts[v - 1] -= 1
            del grid[(r, c)]

    rec(0, [0] * n)
    return results


def skew_ssyt_fillings(outer, inner, n):
    """All semistandard fillings of the skew shape outer/inner with entries
    1..n, built cell by cell: rows weakly increase to the right, columns
    strictly increase downwards.  A filling is a tuple of its rows' entries,
    one tuple per row of outer (empty where inner covers the row)."""
    outer = tuple(outer)
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    cells = [(r, c) for r in range(len(outer)) for c in range(inner[r], outer[r])]
    results = []
    grid = {}

    def rec(idx):
        if idx == len(cells):
            results.append(
                tuple(tuple(grid[(r, c)] for c in range(inner[r], outer[r])) for r in range(len(outer)))
            )
            return
        r, c = cells[idx]
        low = max(grid.get((r, c - 1), 1), grid.get((r - 1, c), 0) + 1)
        for v in range(low, n + 1):
            grid[(r, c)] = v
            rec(idx + 1)
        grid.pop((r, c), None)

    rec(0)
    return results


def grid_filter_patterns(lam):
    """Integral triangular patterns below lam by filtering the full box."""
    n = len(lam)
    hi = lam[0] if lam else 0
    coords = [(i, j) for i in range(1, n) for j in range(1, i + 1)]
    points = []
    for values in itertools.product(range(hi + 1), repeat=len(coords)):
        entry = dict(zip(coords, values))
        for j in range(1, n + 1):
            entry[(n, j)] = lam[j - 1]
        valid = True
        for i in range(1, n):
            for j in range(1, i + 1):
                if entry[(i + 1, j)] < entry[(i, j)]:
                    valid = False
                if entry[(i, j)] < entry[(i + 1, j + 1)]:
                    valid = False
        if valid:
            rows = tuple(
                tuple(entry[(i, j)] for j in range(1, i + 1)) for i in range(1, n + 1)
            )
            points.append(rows)
    return sorted(points)


def on_some_face(patterns, faces):
    """The patterns (rows bottom-up, as grid_filter_patterns returns them)
    that satisfy every cell of at least one face.  A cell (i, j) asks entry
    j of row i to equal entry j of row i+1, rows counted from 1."""

    def on_face(rows, cells):
        return all(rows[i - 1][j - 1] == rows[i][j - 1] for i, j in cells)

    return [rows for rows in patterns if any(on_face(rows, cells) for cells in faces)]


def reduced_cell_subsets(n):
    """Every subset of the Kogan cells (i, j), 1 <= j <= i <= n-1, whose
    word is reduced, grouped by the word's permutation.

    One pass over all subsets, by size and then in itertools.combinations
    order, so each group lists its subsets (tuples of cells in reading
    order) in that order.  Cell (i, j) carries the letter n - i + j - 1 and
    the word reads the cells in order; it is reduced when its length equals
    the inversion count of its product."""
    cells = [(i, j) for i in range(1, n) for j in range(1, i + 1)]
    groups = {}
    for r in range(len(cells) + 1):
        for combo in itertools.combinations(cells, r):
            perm = compose_word([n - i + j - 1 for i, j in combo], n)
            if inversions(perm) == r:
                groups.setdefault(perm, []).append(combo)
    return groups


def affine_rank(points):
    """The dimension of the affine hull of a non-empty list of integer
    vectors: the rank of their differences from the first, by exact
    elimination over the rationals.  It stops once the rank reaches the
    number of coordinates that vary, which it cannot exceed."""
    from fractions import Fraction

    base = points[0]
    varying = sum(len({p[i] for p in points}) > 1 for i in range(len(base)))
    basis = {}  # pivot column -> a reduced vector with a 1 there
    for p in points[1:]:
        if len(basis) == varying:
            break
        v = [Fraction(x - b) for x, b in zip(p, base)]
        for col, row in basis.items():
            if v[col]:
                v = [x - v[col] * y for x, y in zip(v, row)]
        col = next((i for i, x in enumerate(v) if x), None)
        if col is not None:
            basis[col] = [x / v[col] for x in v]
    return len(basis)


def lagrange(samples):
    """The coefficients, low degree first and without trailing zeros, of the
    polynomial through the samples (k, value) at distinct k: Lagrange's
    formula, each basis polynomial expanded factor by factor in Fractions."""
    from fractions import Fraction

    coeffs = [Fraction(0)] * len(samples)
    for i, (xi, yi) in enumerate(samples):
        term = [Fraction(yi)]
        for j, (xj, _) in enumerate(samples):
            if j != i:  # times (k - xj) / (xi - xj)
                term = [(low - xj * high) / (xi - xj) for low, high in zip([0] + term, term + [0])]
        coeffs = [c + t for c, t in zip(coeffs, term)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def leibniz_det(matrix):
    """The determinant of a square matrix of integers as the sum over all
    permutations p of sign(p) times the product of the entries (i, p(i))."""
    total = 0
    for perm in itertools.permutations(range(len(matrix))):
        term = -1 if inversions(perm) % 2 else 1
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def flag_determinant(lam, b):
    """The coefficients, low degree first and without trailing zeros, of
    det(binom(k lam_i + b_i - i, b_i - j)) as a polynomial in k: the
    Leibniz sum of products of binomial polynomials, each expanded as
    (k lam_i + b_i - i)(k lam_i + b_i - i - 1)... over (b_i - j)!, zero
    when b_i < j, in Fractions."""
    from fractions import Fraction
    from math import factorial

    def times(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    def binomial(i, j):  # rows and columns from 1
        r = b[i - 1] - j
        if r < 0:
            return [Fraction(0)]
        poly = [Fraction(1)]
        for t in range(r):
            poly = times(poly, [Fraction(b[i - 1] - i - t), Fraction(lam[i - 1])])
        return [c / factorial(r) for c in poly]

    n = len(lam)
    coeffs = [Fraction(0)]
    for perm in itertools.permutations(range(1, n + 1)):
        term = [Fraction(-1 if inversions(perm) % 2 else 1)]
        for i, j in enumerate(perm, 1):
            term = times(term, binomial(i, j))
        coeffs = [x + y for x, y in itertools.zip_longest(coeffs, term, fillvalue=0)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def fraction_horner(coeffs, k):
    """The value at k of the polynomial with these coefficients (low degree
    first), by Horner's rule in Fractions."""
    from fractions import Fraction

    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * Fraction(k) + Fraction(c)
    return acc


def fraction_poly_text(coeffs):
    """(coefficient strings, display string) of the polynomial in k with
    these coefficients, low degree first: each coefficient as str() of its
    Fraction, trailing zeros dropped, and the display string highest degree
    first, "c*k^p" terms joined by "+ " and "- ", a unit coefficient
    dropped, "0" for the zero polynomial."""
    from fractions import Fraction

    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    terms = []
    for power in range(len(cs) - 1, -1, -1):
        c = cs[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            term = str(mag)
        else:
            term = ("" if mag == 1 else f"{mag}*") + ("k" if power == 1 else f"k^{power}")
        sign = "" if c > 0 else "-"
        terms.append(f"{sign}{term}" if not terms else f"{'+' if c > 0 else '-'} {term}")
    return [str(c) for c in cs], " ".join(terms) or "0"
