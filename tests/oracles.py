"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and shares no code path with the
library: tableaux are built cell by cell or by Kashiwara's operators,
permutations are composed as explicit maps, and lattice points are
grid-filtered.  The one reader of library output, `unpacked_tally`, reads
`lattice.weight_tally`'s packed keys with its own arithmetic.
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


def content(rows, n):
    """The number of entries equal to 1, ..., n among a filling's rows."""
    return tuple(sum(v == value for row in rows for v in row) for value in range(1, n + 1))


def count_rows(rows, n, inner=()):
    """The n+1 count rows of a filling of outer/inner, bottom-up: entry j of
    row r is inner_j plus the number of entries at most r in the filling's
    row j (one tuple per row of the outer shape, empty where inner covers
    it).  For a semistandard filling with entries 1..n they are the rows of
    its skew GT pattern; a filling with weakly increasing rows is the only
    one with its count rows."""
    inner = tuple(inner) + (0,) * (len(rows) - len(inner))
    return tuple(
        tuple(inner[j] + sum(v <= r for v in row) for j, row in enumerate(rows)) for r in range(n + 1)
    )


def triangle(count_rows_):
    """The triangular GT pattern rows of the count rows of a straight
    filling: row r cut to its first r entries, the bottom row 0 dropped."""
    return tuple((row + (0,) * r)[:r] for r, row in enumerate(count_rows_) if r)


def bubble_word(sigma):
    """A reduced word of sigma by bubble sort: the positions i, read in the
    order the sort swaps them, at which sigma(i) > sigma(i+1).  Undoing the
    swaps from the last rebuilds sigma from the identity, and each swap
    removes one inversion."""
    perm, word = list(sigma), []
    unsorted = True
    while unsorted:
        unsorted = False
        for i in range(len(perm) - 1):
            if perm[i] > perm[i + 1]:
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                word.append(i + 1)
                unsorted = True
    return tuple(word)


def kashiwara_f(tableau, i):
    """Kashiwara's lowering operator f_i on a tableau (a tuple of rows,
    longest first), or None where f_i gives 0.

    The bracket rule on the row reading word, rows from the shortest to the
    longest, each left to right: each i+1 pairs with the first unpaired i
    after it, and the rightmost i left unpaired becomes i+1."""
    opened, unpaired = 0, []
    for r in reversed(range(len(tableau))):
        for c, v in enumerate(tableau[r]):
            if v == i + 1:
                opened += 1
            elif v == i:
                if opened:
                    opened -= 1
                else:
                    unpaired.append((r, c))
    if not unpaired:
        return None
    r, c = unpaired[-1]
    row = tableau[r]
    return tableau[:r] + (row[:c] + (i + 1,) + row[c + 1:],) + tableau[r + 1:]


def demazure_crystal(lam, word):
    """The Demazure crystal B_w(lam) of the word's permutation w, as a set
    of tableaux (tuples of rows, longest first, no empty rows).

    It starts from the highest-weight tableau u_lam, row r filled with r,
    and applies F_i, which adds every f_i^k b of each b in the set, for the
    letters of the word, rightmost first.  For a reduced word its character
    is the key polynomial of lam and w (Kashiwara, Duke Math. J. 1993)."""
    crystal = {tuple((r,) * part for r, part in enumerate(lam, 1) if part)}
    for i in reversed(word):
        grown, frontier = set(crystal), crystal
        while frontier:
            frontier = {t for t in (kashiwara_f(b, i) for b in frontier) if t is not None} - grown
            grown |= frontier
        crystal = grown
    return crystal


def character(tableaux, n):
    """The sum of z^content over the tableaux, as {exponent tuple: count}."""
    out = {}
    for t in tableaux:
        w = content(t, n)
        out[w] = out.get(w, 0) + 1
    return out


def swap(terms, i):
    """A polynomial given as {exponent tuple: coefficient} with z_i and
    z_{i+1} exchanged."""
    return {e[:i - 1] + (e[i], e[i - 1]) + e[i + 1:]: c for e, c in terms.items()}


def unpacked_tally(spec, k=1):
    """`lattice.weight_tally(spec, k)` keyed by weight tuples, read back
    with this module's own arithmetic from the layout that function
    documents: a key is d << B*n | w_1 << B*(n-1) | ... | w_n, n = spec.n.

    Every key must hold in its degree field d the sum of its n exponent
    fields, and B must be max(1, d.bit_length()); every count must be a
    positive int."""
    from gtkey import lattice

    bits, tally = lattice.weight_tally(spec, k)
    base = 2 ** bits
    out = {}
    for key, count in tally.items():
        fields = []
        for _ in range(spec.n):
            key, field = divmod(key, base)
            fields.append(field)
        w = tuple(reversed(fields))
        assert key == sum(w), (spec, k, key, w)
        assert bits == max(1, key.bit_length()), (spec, k, bits, key)
        assert type(count) is int and count > 0, (spec, k, w, count)
        out[w] = count
    return out


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


def grid_filter_patterns(lam, mu=None, n=None, k=1, weight=None, interior=False):
    """Integral patterns of the k-th dilate of GT(lam), or, given mu, of the
    skew GT(lam/mu) with n rows above mu, by filtering the box, sorted.

    A pattern is first an array of n+1 rows of len(lam) entries, each in
    [0, k*lam_1], bottom-up: row 0 is k*mu (0...0 for GT(lam), whose n is
    len(lam)) and row n is k*lam.  The box is filtered by the interlacing
    x_{l+1,j} >= x_{l,j} >= x_{l+1,j+1}, a missing x_{l+1,j+1} being 0,
    one coordinate at a time from the top row down, so a row is only
    extended by values that interlace with it; row 0 is checked last.
    With `weight` only the arrays whose row i sums to k*weight_i more than
    row i-1 are kept.  With `interior` only those strictly inside every
    interlacing inequality that some kept array satisfies strictly: an
    inequality that holds with equality at every lattice point of the
    k-th dilate, k >= 1, is an implicit equality of the polytope, since
    its lowest entries, and those with an up-set raised to their highest,
    are lattice points that span its affine hull; at k = 0 the one point
    is its own interior.  A GT(lam) pattern is returned as its rows 1..n,
    of lengths 1..n; a skew one as all n+1 rows."""
    m = len(lam)
    if mu is None:
        n = m
    bottom = tuple(k * x for x in mu or ()) + (0,) * (m - len(mu or ()))
    top = tuple(k * x for x in lam)
    box = range(top[0] + 1 if top else 1)
    arrays = [(top,)]  # rows top-down
    for _ in range(n - 1):
        arrays = [
            rows + (row,)
            for rows in arrays
            for row in itertools.product(*(
                [v for v in box if rows[-1][j] >= v >= (rows[-1][j + 1] if j + 1 < m else 0)] for j in range(m)
            ))
        ]
    arrays = [
        rows[::-1] for rows in (rows + (bottom,) for rows in arrays)
        if all(rows[-2][j] >= bottom[j] >= (rows[-2][j + 1] if j + 1 < m else 0) for j in range(m))
    ]
    if weight is not None:
        arrays = [rows for rows in arrays if all(sum(rows[i]) - sum(rows[i - 1]) == k * weight[i - 1] for i in range(1, n + 1))]
    if interior and arrays:
        pairs = [((l + 1, j), (l, j)) for l in range(n) for j in range(m)]  # x_{l+1,j} >= x_{l,j}
        pairs += [((l, j), (l + 1, j + 1)) for l in range(n) for j in range(m - 1)]  # x_{l,j} >= x_{l+1,j+1}
        loose = [
            (a, b) for a, b in pairs if any(rows[a[0]][a[1]] > rows[b[0]][b[1]] for rows in arrays)
        ]
        arrays = [rows for rows in arrays if all(rows[a[0]][a[1]] > rows[b[0]][b[1]] for a, b in loose)]
    if mu is None:
        arrays = [tuple(rows[level][:level] for level in range(1, n + 1)) for rows in arrays]
    return sorted(arrays)


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


def graded_lex_terms(terms):
    """The (exponent tuple, coefficient) pairs of a tuple-keyed polynomial,
    largest first in graded lexicographic order, z_1 > ... > z_n."""
    return sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def tuple_product(f, g):
    """The product of two polynomials given as {exponent tuple: coefficient}
    dicts, without zero coefficients."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}
