"""Lattice points of Gelfand-Tsetlin polytopes and their dilations.

Levels number a pattern's rows bottom-up from 0, as gtcore stores them.
Every polytope is swept as the skew GT(lambda/mu) with n rows above mu;
GT(lambda) is the one over mu = 0...0 with n = len(lambda).
Points are built from the top row down one entry at a time, by the
transfer-matrix method with a broken profile (Stanley, EC1 4.7).  A state
is a profile s, the row above with its first j entries replaced by the row
being chosen, so entry j ranges over [s[j+1], s[j]], and a face mask, both
packed in one int: s[i] in the B-bit field [B*i, B*(i+1)), the mask in the
bits above the profile's last field.  B is the bit length of k times the
top row's sum, which holds every entry and the sum of them all.
Every row obeys x_{l,j} >= mu_j, x_{l,j} <= mu_{j-l} and x_{l,j} <=
lambda_j, so row l is 0 from entry min(l + l(mu), l(lambda)) on (l(.) the
number of nonzero parts) and only the entries before are in the profile;
on row 1 those bounds are the interlacing with mu, never swept.  Of those,
the sweep steps only through the entries a point can move: an entry that
every point copies from the entry above (a constant under the same
constant, or a cell every face holds) already stands in the profile, so
its step, v = s[j] in every state, is left out.  The top row is checked
once: no column of lambda/mu is longer than n.  A weight filter fixes each
row sum, bounding an entry by what its row can add.

A triangular spec may restrict its polytope to a union of faces, the
spec's `faces`, each a set of cells (i, j), 1 <= j <= i <= n-1, imposing
x_{i,j} = x_{i+1,j} (rows bottom-up as in gtcore); a point lies in the
union when it satisfies every cell of some face.  The mask has a bit per
face whose cells hold so far.  `faces` None is the whole polytope and ()
the empty set.

A spec is checked once, when it is built, and its polytope is laid out
for the sweep once (`_layout`, a memo keyed by the spec alone), in one
pass over its rows: the row widths, the swept entries, the face bits, the
constant entries, the emptiness checks and the bounds are the same at
every dilation k >= 1, and each bound of the k-th dilate is k times its
value at k = 1, so a dilation only rescales them (`_sweep`).
A count at k = 0 needs no sweep: 0P is the zero point.  The relative
interior is the same rows with shifted bounds, each strict inequality
x < y taken as x <= y - 1, and the same pass lays out those shifts: an
object's counts and interior counts share one layout, read off the one
list of entry intervals (`_intervals`) that `dimension` reads too.  The
same pass lays out each entry's masks on the packed state, for fields wide
enough for every k up to a bound; a larger k that needs wider fields lays
them out again at its sweep.  The layouts are kept in a memo of a few
entries.  One choice
rule (`_choices`) gives the values an entry takes from a state, and three
drivers expand it.  Counting expands each state's choices in a plain loop
(`_tally`) into an integer tally per state of the next step, of the
polytope or of its relative interior (count_points).  The same loop counts
several dilations at once (count_dilations).  Where no bound but the start
row depends on k, every floor being 0, with no row target and every
ceiling at least lambda_1 (GT(lambda) and its face unions), a profile
started at k' lambda never exceeds k' lambda_1, so the rows of the largest
dilation K give each smaller k' its own count: one pass sweeps every start
row, a state's tally holding a W-bit slot per dilation, W the bit length
of (K lambda_1 + 1) ** (number of swept entries), which bounds every slot.
Other polytopes are swept once per k.  Weight counting is the same loop
with weight tallies, each weight one int in the monomial layout of
`polyops.MultiPoly` (`weight_tally`): a row's end moves its sum out of the
pending field into the next one up, one multiply-add on every key of a
tally, and leaves the row above's sum less its own behind.  There, with
two faces or more, it also gives each state a canonical mask: of the live
faces it keeps only those whose cells at the places still to be swept
hold no other live face's, one fixed face standing for each such set of
cells, or `free` when that set is empty.  Whether a completion lies in the
union depends on the mask only through those sets, so states that differ
in nothing else merge and their tallies are swept once (`weight_tally`
has the proofs).
Enumeration chains a lazy generator per entry, a depth-first walk
yielding each point once in canonical order (entries read top row first);
it unpacks a profile only at a row's end, where it records the row.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .combinat import check_partition, contains, pad
from .gtcore import GTPattern, Pattern, SkewGTPattern, Value

# A face: cells (i, j) forcing x_{i,j} = x_{i+1,j}.
Cells = frozenset


class PolytopeSpec(Value):
    """A GT polytope: triangular GT(lambda) when `bottom` is None, else skew
    GT(lambda/mu) with `bottom` mu and n rows above it, optionally cut to
    the patterns of weight `weight` and, when triangular, to the union of
    `faces`.

    gt_spec and skew_spec pick n and pad lambda and the weight; this only
    checks them.  A triangular spec's n is len(top); a skew spec needs
    n >= 1; a weight needs n non-negative entries.  `faces` is None for the
    whole polytope, else kept as a tuple of frozensets of cells in the
    given order, each cell (i, j) with 1 <= j <= i <= n-1."""

    __slots__ = _fields = ("top", "bottom", "weight", "n", "faces")  # n: rows above the bottom

    def __init__(self, top, bottom=None, weight=None, n: int | None = None, faces=None):
        top = check_partition(top)
        if not top:
            raise ValueError("a GT polytope needs a top row with at least one entry")
        if bottom is None:
            n = len(top)
        else:
            bottom = pad(check_partition(bottom), len(top))
            if not contains(top, bottom):
                raise ValueError("bottom row must fit inside the top row")
            if n is None or n < 1:
                raise ValueError(f"a skew GT polytope needs n >= 1, not n={n}")
        if weight is not None:
            weight = tuple(weight)
            if len(weight) != n or any(x < 0 for x in weight):
                raise ValueError(f"weight must be {n} non-negative integers")
        if faces is not None:
            if bottom is not None:
                raise ValueError("faces only apply to triangular polytopes")
            faces = tuple(map(frozenset, faces))
            for cells in faces:
                for i, j in cells:
                    if not 1 <= j <= i <= n - 1:
                        raise ValueError(f"cell {(i, j)} out of range for n={n}")
        self._set(top, bottom, weight, n, faces)

    @property
    def kind(self) -> str:
        return "triangular" if self.bottom is None else "skew"

    @property
    def m(self) -> int:
        return len(self.top)

    def describe(self) -> dict:
        desc = {"kind": self.kind, "top": list(self.top)}
        if self.bottom is not None:
            desc["bottom"] = list(self.bottom)
        if self.weight is not None:
            desc["weight"] = list(self.weight)
        desc["n"] = self.n
        return desc


def gt_spec(lam, weight=None, n: int | None = None, faces=None) -> PolytopeSpec:
    """GT(lambda), cut to the patterns of weight `weight` and to the union of
    `faces` when they are given.

    It has n rows: `n` when given, else the longer of lambda and the
    weight.  Both are padded with zeros to n; dropping a nonzero part
    raises ValueError."""
    lam = check_partition(lam)
    if n is None:
        n = max(len(lam), len(weight or ()))
    return PolytopeSpec(pad(lam, n), weight=None if weight is None else pad(weight, n, "weight"), faces=faces)


def skew_spec(lam, mu=(), weight=None, n: int | None = None) -> PolytopeSpec:
    """GT(lambda/mu), cut to the patterns of weight `weight` when one is given.

    It has n rows above mu: `n` when given, else the length of the weight
    when it has parts and len(lambda) when it has none.  The weight is
    padded with zeros to n (dropping a nonzero part raises ValueError) and
    mu to len(lambda); lambda is kept as given."""
    if n is None:
        n = len(weight) if weight else len(lam)
    return PolytopeSpec(lam, bottom=mu, weight=None if weight is None else pad(weight, n, "weight"), n=n)


@lru_cache(maxsize=4)
def _intervals(
    lam: tuple[int, ...], bottom: Optional[tuple[int, ...]], n: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each row l = 1..n-1 between the marked ones, bottom-up, the
    interval [max(mu_j, lambda_{j+n-l}), min(lambda_j, mu_{j-l})] of each
    entry j, a missing index imposing nothing.  `dimension` and `_layout`
    both read them, so an object's bound and its sweep share one copy.
    They are keyed by a spec's rows alone, not by its weight or faces, so
    the key complexes of one GT(lambda) share them too."""
    mu = bottom or (0,) * len(lam)
    tail = lam + (0,) * n  # lambda_i, and 0 past its end
    # floors max(mu_j, tail_{j+n-l}); ceilings min(lambda_j, mu_{j-l}), lambda_j alone for j < l
    return tuple(
        tuple(zip(map(max, mu, tail[n - level :]), map(min, lam, lam[:level] + mu))) for level in range(1, n)
    )


def dimension(spec: PolytopeSpec) -> int:
    """A proved upper bound on the degree of k -> count_points(spec, k).

    The polytope is a marked order polytope, its top and bottom rows marked
    (Ardila-Bliem-Salazar, JCTA 2011), so each entry of a row between them
    lies in its interval of `_intervals`; it is free when that interval is
    not a point.  Without a weight the bound is the number of free entries,
    the dimension of a non-empty polytope: raising the free entries of an
    up-set from their lower bounds to their upper ones stays inside, so
    only the constant entries are implicit equalities (Pegel, Order 2018).
    A weight subtracts one per row with a free entry: these row sums act on
    disjoint non-empty sets of free entries, so they are independent.

    With `faces` (an unweighted spec only, else ValueError) the bound is
    the largest dimension of a face, 0 for no face, and it is the degree:
    the union's count is by inclusion-exclusion a sum of Ehrhart
    polynomials of faces (intersections of faces are faces), the largest
    faces' leading coefficients are positive, and GT(lambda) is integral.
    Every face holds the pattern x_{i,j} = lambda_j, so none is empty, and
    a face is the marked order polytope of the quotient that merges the
    entries its cells set equal, so its dimension is read off that quotient
    as above (`_face_dimension`)."""
    rows = _intervals(spec.top, spec.bottom, spec.n)
    if spec.faces is None:
        bound = 0
        for row in rows:
            free = sum(lo < hi for lo, hi in row)
            bound += free - (spec.weight is not None and free > 0)
        return bound
    if spec.weight is not None:
        raise ValueError("faces only apply to unweighted triangular polytopes")
    # the triangle's entries, row by row bottom-up to lambda, as `_edges` numbers them
    los = [lo for level, row in enumerate(rows, 1) for lo, _ in row[:level]] + list(spec.top)
    his = [hi for level, row in enumerate(rows, 1) for _, hi in row[:level]] + list(spec.top)
    return max((_face_dimension(spec.n, los, his, cells) for cells in spec.faces), default=0)


def _face_dimension(n: int, los: list[int], his: list[int], cells: Cells) -> int:
    """The dimension of the face of triangular GT(lambda), n rows, on which
    every cell (i, j) sets x_{i,j} = x_{i+1,j}, given each entry's interval
    [los, his] in the numbering of `_edges`: its number of free classes.

    The cells merge entries into classes (a union-find whose classes are
    runs of one column: a cell is vertical).  Every interlacing edge
    x_{l,j} <= x_{l+1,j}, x_{l+1,j+1} <= x_{l,j} keeps or lowers the column,
    so an edge out of a class leaves its column or its run upwards: the
    quotient order has no cycles, and `_edges` lists the edges in a
    topological order of their lower ends.  A class takes the intersection
    of its entries' intervals, which is its top entry's: entry j of row l
    lies in [lambda_{j+n-l}, lambda_j], so floors rise up a column and the
    ceiling is the column's.  The classes are then tightened along the
    edges until nothing changes, which only drops values no point of the
    face takes.  The ceilings already satisfy every edge (an edge never
    moves right, and lambda is non-increasing), so only floors tighten, and
    a floor passed up the edges in topological order is final after one
    pass.  Then the floors form a point of the face, raising the up-set of
    a class whose interval is not a point to its ceilings stays in the
    face, and these moves are independent, so the free classes count the
    dimension."""
    root = list(range(len(los)))  # each class's top entry
    los = los[:]
    for level in range(n - 1, 0, -1):  # top-down: the entry above has its root already
        for j in range(level):
            if (level, j + 1) in cells:
                x = level * (level - 1) // 2 + j
                root[x] = root[x + level]  # entry j of level + 1
    for a, b in _edges(n):  # every floor into a's class is final by now
        a, b = root[a], root[b]
        if los[b] < los[a]:
            los[b] = los[a]
    return sum(los[x] < his[x] for x, r in enumerate(root) if r == x)


@lru_cache(maxsize=None)
def _edges(n: int) -> tuple[tuple[int, int], ...]:
    """The interlacing edges (a, b), x_a <= x_b, of triangular GT with n
    rows, entry j of level l (1 <= l <= n, lambda at level n) numbered
    l(l-1)/2 + j.  They are ordered by a, reading the columns right to
    left and each bottom-up, a topological order of the triangle."""
    at = lambda level, j: level * (level - 1) // 2 + j  # noqa: E731
    edges = []
    for j in range(n - 1, -1, -1):
        for level in range(j + 1, n + 1):
            if level < n:
                edges.append((at(level, j), at(level + 1, j)))  # x_{l,j} <= x_{l+1,j}
            if j:
                edges.append((at(level, j), at(level - 1, j - 1)))  # x_{l,j} <= x_{l-1,j-1}
    return tuple(edges)


# --- the sweep: laid out once per polytope, rescaled per dilation ---------------

class _Layout(NamedTuple):
    """A polytope laid out for the sweep (`_layout`) at k = 1: the top row
    as the starting profile, the bottom row mu, the mask of all the faces,
    whether the polytope is empty at every k >= 1, the width of each row
    between them, top-down, and for each of those rows its swept entries
    left to right, (j, lo, hi, cut, ceil, drop, free, target, width,
    fields), `fields` the entry's masks on the packed state (`_fields`)
    and width the index of the profile's last field.  At k each of lo, hi,
    ceil and target is k times its value here.

    `strict` turns the rows into those of the relative interior: for each
    entry the shifts (raise_lo, lower_hi, below, over, shift), the bounds
    at k being k * lo + raise_lo, k * hi + lower_hi and k * ceil + shift,
    and v >= s[j+1] + below, v <= s[j] - over.  It is None in a layout with
    faces or a weight, which has no interior count.

    `one_pass` holds when no bound depends on k but the start row: the
    polytope is not empty, every floor lo is 0, there is no row target,
    and every hi and ceil is at least lambda_1, which bounds every entry
    (`count_dilations`).  GT(lambda) and its face unions are such.

    `bits` is the field width B of the states of every dilation
    k <= _PACKED_K (`_bits`), which `fields` reads, and `packed` the start
    row in B-bit fields."""

    start: tuple[int, ...]
    mu: tuple[int, ...]
    mask: int
    empty: bool
    widths: tuple[int, ...]
    rows: tuple[tuple[tuple, ...], ...]
    strict: Optional[tuple[tuple[tuple[int, int, int, int, int], ...], ...]]
    one_pass: bool
    bits: int
    packed: int


def _swept(spec: PolytopeSpec, widths: list[int], common: Cells) -> list[list[int]]:
    """The entries j that each row between the marked ones steps through,
    top-down: all but those whose value every point copies from the entry
    above.  Such a step gave v = s[j] in every state, so the profile
    already holds the entry, and leaving the step out changes no count,
    tally or order.  An entry is a copy when every face holds its cell, or
    when its interval of `_intervals` is the point c and the entry above
    is the constant c too.  In the relative interior such an entry x is
    strict only against a free entry y above and right of it, and y < x
    needs no step of x: y is strictly below the entry above it, whose
    ceiling is at most c, as the constant c above x bounds it.  A row of
    copies alone has no step: its profile is the row above's, whose entry
    past the row's width the next step cuts off, and the drivers read the
    row off its first `width` entries.  A weighted row keeps its last
    entry: that step fixes the row sum exactly only when no copy follows."""
    intervals = _intervals(spec.top, spec.bottom, spec.n) + (tuple((x, x) for x in spec.top),)  # the top row is marked
    swept = []
    for level in range(spec.n - 1, 0, -1):
        row, up, width = intervals[level - 1], intervals[level], widths[level]
        copies = {j for j in range(width) if row[j] == up[j] and row[j][0] == row[j][1]}  # c under c
        keep = [j for j in range(width) if j not in copies and (level, j + 1) not in common]
        if spec.weight is not None and width and width - 1 not in keep:
            keep.append(width - 1)
        swept.append(keep)
    return swept


@lru_cache(maxsize=4)
def _layout(spec: PolytopeSpec) -> _Layout:
    """Lay out the sweep of the polytope and of its relative interior, in
    one pass over its rows.

    Nothing here depends on the dilation k >= 1: the row widths, the swept
    entries, the face bits, which entries are constant, the strict shifts
    and the emptiness checks read the same off every dilate, and its bounds
    are k times those of the first.  A row ends where lambda's zero tail or
    mu's begins (x_{l,j} <= lambda_j, x_{l,j} <= mu_{j-l}), and an entry
    that every point copies from the entry above has no step (`_swept`).
    A face's cells on such entries hold at every point of the sweep, so
    face bits go only to the cells on swept entries.  An entry is constant
    when its interval of `_intervals` is a point, and in the interior an
    inequality is strict unless both its entries are constant, so the
    interior is the same rows with shifted bounds.  A cap on s[j+1] that
    only the interior needs is kept in the plain rows too, where it caps
    nothing.  The memo is small: one object's fit uses one layout (its
    counts and its interior counts), and the memo does not keep every
    polytope a process has counted."""
    has_interior = spec.faces is None and spec.weight is None
    faces = (frozenset(),) if spec.faces is None else spec.faces
    n, m = spec.n, spec.m
    mu = spec.bottom or (0,) * m  # GT(lambda) is the skew polytope over 0...0
    widths = [min(level + m - mu.count(0), m - spec.top.count(0)) for level in range(n)]  # before the zero tails
    common = frozenset.intersection(*faces) if faces else frozenset()
    swept = _swept(spec, widths, common)
    order = ((level, j) for level, keep in zip(range(n - 1, 0, -1), swept) for j in keep)
    places = {entry: place for place, entry in enumerate(order)}  # the swept entries' sweep places

    need = [0] * len(places)  # need[place]: the faces forcing that entry = upper[j]
    ends: dict[int, int] = {}  # sweep place -> the faces whose last cell is there
    for f, cells in enumerate(faces):
        held = [places[i, j - 1] for i, j in cells if (i, j - 1) in places]
        for place in held:
            need[place] |= 1 << f
        last = max(held, default=-1)
        ends[last] = ends.get(last, 0) | 1 << f

    # lambda_i > mu_{i-n}: a column of lambda/mu longer than n
    empty = any(spec.top[i] > mu[i - n] for i in range(n, m))
    targets: list[Optional[int]] = [None] * n  # row sums fixed by the weight
    if spec.weight is not None:
        targets = list(accumulate(spec.weight, initial=sum(mu)))
        empty |= targets.pop() != sum(spec.top)  # weight incompatible with the top row

    cap = max(spec.top)
    start = (spec.top + (0,))[: widths[-1] + 1]
    bits = _bits(sum(start), _PACKED_K)
    size = bits * len(start)
    rows, strict, free = [], [], ends.get(-1, 0)
    above = None  # the row above's ceilings and their interior shifts
    up = (True,) * m  # which entries of the row above are constant: the top row is marked
    intervals = _intervals(spec.top, spec.bottom, spec.n)
    for level, keep in zip(range(n - 1, 0, -1), swept):
        width, span = widths[level], range(widths[level])
        his = [mu[j - level] if j >= level else cap for j in span]  # x_{l,j} <= mu_{j-l}; lo is mu_j
        raise_lo = lower_hi = below = over = [0] * width
        if has_interior:
            row = [lo >= hi for lo, hi in intervals[level - 1]]
            # no step sweeps the constant entries below a free entry j: mu under
            # row 1, where x_{0,j} = mu_j and x_{0,j-1} = mu_{j-1} bound it, and
            # the zero tail x_{l-1,j} = 0 = mu_j past the width of row l-1
            raise_lo = [int(not row[j] and (level == 1 or j >= widths[level - 1])) for j in span]
            lower_hi = [-int(not row[j] and level == 1 and j >= 1) for j in span]
            # 1 where v >= s[j+1], v <= s[j] are strict
            below = [int(j + 1 < m and not (row[j] and up[j + 1])) for j in span]
            over = [int(not (row[j] and up[j])) for j in span]
            up = row
        shift = [lower_hi[j] + over[j] for j in range(1, width)] + [0]  # of the cap on s[j+1]
        entries = []
        for at, j in enumerate(keep):
            place = places[level, j]
            free |= ends.get(place, 0)
            ceil = None
            last = at + 1 == len(keep)
            if not last and keep[at + 1] == j + 1 and above:  # the cap on s[j+1], bound by entry j+1 alone
                ceil = his[j + 1]
                top, top_shift = above[j + 1]  # s[j+1] <= k * top + top_shift
                if ceil >= top and ceil + shift[j] >= top + top_shift:
                    ceil = None  # at no k >= 1 below what s[j+1] can be
            cut = (widths[level - 1] if last else width) + 1  # the row's last step trims the profile
            fields = _fields(bits, size, j, cut, width, need[place], free)
            entries.append((j, mu[j], his[j], cut, ceil, need[place], free, targets[level], width, fields))
        rows.append(tuple(entries))
        if has_interior:
            strict.append(tuple((raise_lo[j], lower_hi[j], below[j], over[j], shift[j]) for j in keep))
        above = list(zip(his, lower_hi))
    one_pass = not empty and all(
        lo == 0 and hi >= cap and (ceil is None or ceil >= cap) and target is None
        for row in rows for _, lo, hi, _, ceil, _, _, target, _, _ in row
    )
    return _Layout(
        start, mu, (1 << len(faces)) - 1, empty, tuple(widths[:0:-1]), tuple(rows),
        tuple(strict) if has_interior else None, one_pass, bits, _packed(start, bits),
    )


# a layout's fields hold every dilation up to this one; a larger one that
# needs wider fields has its masks laid out again at its sweep
_PACKED_K = 16


def _bits(total: int, k: int) -> int:
    """The field width B of the packed profiles of the k-th dilate, `total`
    the sum of the start row at k = 1: the bit length of k * total, which
    bounds every entry of a profile and the sum of them all (`_choices`)."""
    return max(1, (k * total).bit_length())


def _packed(row: tuple[int, ...], bits: int) -> int:
    """The row in B-bit fields, row[i] in bits [B*i, B*(i+1))."""
    packed = 0
    for x in reversed(row):
        packed = packed << bits | x
    return packed


@lru_cache(maxsize=1024)
def _fields(bits: int, size: int, j: int, cut: int, width: int, drop: int, free: int) -> tuple:
    """The masks `_choices` reads to choose entry j of a state packed in
    B-bit fields, s[i] in bits [B*i, B*(i+1)) and the face mask from bit
    `size` up: the shifts of s[j], s[j+1] and s[width] (the last entry of
    the row's profile), the mask of the fields a choice keeps, s[:j] and
    s[j+1:cut], and that mask with the face bits, `drop` and `free` on the
    face bits, and the masks of a field, of the profile and of the face
    bits, sum(2 ** (B*i)) over the profile's fields, and the shift of its
    last field."""
    field, profile = (1 << bits) - 1, (1 << size) - 1
    keep = ((1 << bits * cut) - 1) ^ field << bits * j
    return (
        bits * j, bits * (j + 1), bits * width, keep, keep | ~profile, drop << size, free << size,
        field, profile, ~profile, profile // field, size - bits,
    )


class _Dilate(NamedTuple):
    """The k-th dilate set up for the sweep (`_sweep`): k, the mask, the
    layout, the field width B of its packed states, the start row in those
    fields, and lazily its rows of `_choices` entries."""

    k: int
    mask: int
    lay: _Layout
    bits: int
    packed: int
    rows: Iterator[list[tuple]]

    def key(self, k: int) -> int:
        """The start state of the k-th dilate, k <= self.k, packed."""
        return k * self.packed | self.mask << self.bits * len(self.lay.start)


def _sweep(spec: PolytopeSpec, k: int, interior: bool = False) -> _Dilate:
    """The k-th dilate set up for the sweep: `_layout`'s mask, and lazily
    its rows of entries for `_choices`, every bound rescaled to k.  The
    layout's fields hold every k <= _PACKED_K; a larger k that needs wider
    ones lays out their masks again.  With `interior` only the relative
    interior is kept (count_points): at k >= 1 the layout's strict shifts
    are added to the bounds.  Otherwise the shifts added are zero: a plain
    count has none, and 0P is the zero point, where nothing is strict."""
    k = operator.index(k)
    if k < 0:
        raise ValueError("dilation factor must be >= 0")
    lay = _layout(spec)
    if interior and lay.strict is None:
        raise ValueError("an interior count takes no faces and no weight")
    mask = 0 if lay.empty and k else lay.mask
    strict = lay.strict if interior and k else repeat(repeat((0,) * 5))
    bits, packed = lay.bits, lay.packed
    if k > _PACKED_K and _bits(sum(lay.start), k) > bits:
        bits = _bits(sum(lay.start), k)
        size, packed = bits * len(lay.start), _packed(lay.start, bits)
        rows = [
            [(j, lo, hi, cut, ceil, drop, free, target, width, _fields(bits, size, j, cut, width, drop, free))
             for j, lo, hi, cut, ceil, drop, free, target, width, _ in row]
            for row in lay.rows
        ]
    else:
        rows = lay.rows
    dilated = (
        [
            (k * lo + raise_lo, k * hi + lower_hi, below, over,
             None if ceil is None else k * ceil + shift, None if target is None else k * target, fields)
            for (_, lo, hi, _, ceil, _, _, target, _, fields), (raise_lo, lower_hi, below, over, shift)
            in zip(row, shifts)
        ]
        for row, shifts in zip(rows, strict)
    )
    return _Dilate(k, mask, lay, bits, packed, dilated)


def _choices(entry: tuple, states: Iterable[tuple[int, object]]) -> Iterator[tuple[Iterable[int], object]]:
    """Choosing entry j from each state, (key, value), a key packing the
    profile s and the face mask m into one int (`_fields`).  For each state
    this yields, with the state's value, its next keys, one per value v of
    entry j in increasing order: v goes into s[j], and the mask becomes eq
    if v == s[j] else off.

    v lies in [s[j+1] + below, s[j] - over] cut to [lo, hi] and, with a
    row sum `target`, to what the entries after j can add.  The fields
    s[j+1:cut] are kept: a row's last entry keeps a trailing 0 only for a
    row below as long, and `ceil`, if given, caps s[j+1], which now only
    bounds entry j+1, to merge states.  A face in `drop` keeps its bit only
    if v == s[j]; a live face with no cells left puts every completion in
    the union, so the mask becomes `free`.  When no face survives
    v != s[j], the range is cut to v = s[j].

    A field of B bits holds every entry and no field is ever negative, so
    no field borrows from or carries into the next.  At the K-th dilate, or
    from any start k' <= K in one pass (count_dilations), each entry of a
    profile lies in [0, s'[i]], s' the profile before the step, and so
    sum(s) <= sum(s') <= ... <= K |start|, which B holds (`_bits`): a step
    keeps v <= s[j], and v >= its floor k mu_j + raise_lo >= 0; a trim
    zeroes fields; and a cap only lowers s[j+1], to k ceil + shift >= 0,
    as shift is lower_hi + over on entry j+1, and lower_hi is -1 only on a
    free entry, where over is 1.  So one multiply of the profile by
    sum(2 ** (B*i)) leaves sum(s) in its last field, as the row target
    reads it."""
    lo, hi, below, over, ceil, target, fields = entry
    sh, sh1, last, keep, kept, drop, free, field, profile, faces, ones, top = fields
    step = 1 << sh
    for key, value in states:
        up = key >> sh & field
        nxt = key >> sh1 & field
        if target is None:
            a = nxt + below
            b = up - over
        else:  # the entries after j add at most sum(s[j+1:-1]), at least sum(s[j+2:])
            room = target - ((key & profile) * ones >> top & field) + up
            a = room + (key >> last & field)
            b = room + nxt
            if a < nxt:
                a = nxt
            if b > up:
                b = up
        if a < lo:
            a = lo
        if b > hi:
            b = hi
        if a > b:
            continue
        if key & drop:  # v != s[j] drops a live face
            base = key & keep
            if ceil is not None and nxt > ceil:
                base -= nxt - ceil << sh1
            m = key & faces
            off = m & ~drop
            if off and a < up:
                low = base | (free if off & free else off)
                yield range(low + a * step, low + (b + 1 if b < up else up) * step, step), value
            if b == up:
                yield ((base | (free if m & free else m)) + up * step,), value
            continue
        base = (key & keep | free) if key & free else key & kept
        if ceil is not None and nxt > ceil:
            base -= nxt - ceil << sh1
        yield range(base + a * step, base + (b + 1) * step, step), value


def enumerate_points(spec: PolytopeSpec, k: int = 1) -> Iterator[Pattern]:
    """Yield each integral pattern of the k-th dilate exactly once, in
    canonical order."""
    dilate = _sweep(spec, k)
    k, bits = dilate.k, dilate.bits
    field = (1 << bits) - 1

    def chosen(states, entry):  # choosing one entry, lazily
        return ((key, value) for keys, value in _choices(entry, states) for key in keys)

    def complete(states, width, tail):  # each profile is a whole row: record it, zeros after
        whole, seen = (1 << bits * width) - 1, {}  # the rows met so far, by their fields
        for key, rows in states:
            row = seen.get(key & whole)
            if row is None:
                row = seen[key & whole] = tuple([key >> sh & field for sh in range(0, bits * width, bits)]) + tail
            yield key, rows + (row,)

    # the steps chained lazily walk depth-first; values are the rows so far,
    # each as long as the pattern's: level l of a triangular one, else m
    sizes = range(spec.n - 1, 0, -1) if spec.kind == "triangular" else repeat(spec.m)
    start = pad(tuple(k * x for x in dilate.lay.start), spec.m)
    states: Iterable = [(dilate.key(k), (start,))] if dilate.mask else []
    for row, width, size in zip(dilate.rows, dilate.lay.widths, sizes):
        for entry in row:
            states = chosen(states, entry)
        states = complete(states, width, (0,) * (size - width))
    if spec.kind == "triangular":
        yield from (GTPattern(rows[::-1]) for _, rows in states)
    else:  # a skew pattern's rows also hold mu
        mu = tuple(k * x for x in dilate.lay.mu)
        yield from (SkewGTPattern((mu,) + rows[::-1]) for _, rows in states)


def count_points(spec: PolytopeSpec, k: int = 1, *, interior: bool = False) -> int:
    """|k.P intersect Z^d|, P the spec's polytope or its union of faces.

    With `interior`, the lattice points of the relative interior of k.P,
    for a spec without a weight and without faces.  Its only implicit
    equalities are the constant entries (see `dimension`), so the interior
    makes every interlacing inequality strict unless both its entries are
    constant, x < y being x <= y - 1 on integers.  Only the inequalities
    of the polytope count, not the bounds the sweep adds: on row 1 the
    floors mu_j and ceilings mu_{j-1} are the interlacing with mu, but
    elsewhere they are implied, and the 0 after a full row bounds nothing."""
    dilate = _sweep(spec, k, interior)
    k = dilate.k
    if not k:  # 0P is the zero point, in the union when there is a face
        return 1 if dilate.mask else 0
    return _tally({dilate.key(k): 1} if dilate.mask else {}, dilate.rows)


def count_dilations(spec: PolytopeSpec, ks: Iterable[int]) -> list[int]:
    """[count_points(spec, k) for k in ks], in one sweep when the
    layout is `one_pass`, else one sweep per k.

    One pass sweeps the rows of K = max(ks) from the start row k_i lambda
    of every k_i, the count of a state being one int with a W-bit slot per
    dilation: the start of k_i is seeded with 1 << W*i, and the slots are
    read off the total.  Such a layout's floors are 0 and it has no row
    target, and its ceilings and caps, at least lambda_1 at k = 1, are
    implied from any start k' <= K: every entry of a profile started at
    k' lambda is at most k' lambda_1, as a step keeps v <= s[j] and a cap
    only lowers s[j+1].  So each step gives a state the same choices at
    the rows of K as at those of its own k', states may merge across
    dilations, and slot i sums exactly the sweep of k_i.  The fields of
    the packed profiles are those of K, which hold every entry of every
    start k' <= K (`_choices`).  A slot counts the choices of v, each in
    [0, K lambda_1], at the N swept entries that lead to a state, so it
    never exceeds (K lambda_1 + 1) ** N < 2 ** W, and no slot carries into
    the next."""
    ks = [operator.index(k) for k in ks]
    lay = _layout(spec)
    if not lay.one_pass or not ks or min(ks) < 0:  # count_points raises on a negative k
        return [count_points(spec, k) for k in ks]
    top = max(ks)
    dilate = _sweep(spec, top)
    width = ((top * lay.start[0] + 1) ** sum(map(len, lay.rows))).bit_length()
    states: dict = {}
    if dilate.mask:
        for i, k in enumerate(ks):
            state = dilate.key(k)
            states[state] = states.get(state, 0) + (1 << width * i)
    total, slot = _tally(states, dilate.rows), (1 << width) - 1
    return [total >> width * i & slot for i in range(len(ks))]


def _tally(states: dict, rows: Iterable[list[tuple]]) -> int:
    """The counting loop: sweep `states`, each packed state with its count,
    through the rows of entries, and sum the counts at the end.  Each
    state's choices are added into the counts of the states they lead to,
    so states reached along several paths merge."""
    for row in rows:
        for entry in row:
            swept: dict = {}
            get = swept.get
            for keys, count in _choices(entry, states.items()):
                for key in keys:
                    swept[key] = get(key, 0) + count
            states = swept
    return sum(states.values())


def weight_tally(spec: PolytopeSpec, k: int = 1) -> tuple[int, dict[int, int]]:
    """The number of integral patterns of the k-th dilate of each weight
    that occurs, each weight w packed as the monomial z^w of
    `polyops.MultiPoly`: with n = spec.n and d = sum(w), the int
    d << B*n | w_1 << B*(n-1) | ... | w_n, B = max(1, d.bit_length()).
    Returns B and the tally.

    The states are packed as the counting drivers' are (`_choices`); their
    tallies map packed weights to counts.  Number the pattern's rows 0..n
    bottom-up, row 0 the bottom mu (0 for GT(lambda)) and row n the top,
    so w_l = |row l| - |row l-1|; the sweep's row r is row n-1-r.  Before
    it, a tally key holds w_{n-r+1}..w_n in their fields and, in the field
    of w_{n-r}, the pending sum u = |row n-r| - |mu|.  The row that ends
    with t = |row n-1-r| - |mu| splits u into w_{n-r} = u - t and a new
    pending t one field higher: the key gains t * (2 ** B(r+1) - 2 ** Br),
    one multiply-add.  At the row end the row is the profile's first
    `width` fields, whose sum one multiply reads, as `_choices` reads
    sum(s).  The start key d << B*n | d holds the degree, above the fields,
    and the top row's pending sum d = k(|lambda| - |mu|); after the n-1
    row ends the pending sum is w_1, in the top field.
    No field borrows from or carries into the next: every field holds a
    weight component or a pending sum, each at most d < 2 ** B, the field
    that gains t was 0, and u - t = w_{n-r} >= 0, since each entry of row
    n-r is at least the entry below it in its column and row n-1-r has no
    more entries.

    With two faces or more, each row end also replaces a state's mask by a
    canonical one (`_row_end_masks`), so states that differ only in faces
    imposing the same conditions ahead merge, and each tally is swept once.
    Let R(f) be the cells of face f at the sweep places after the row.  A
    completion of the state lies in the union iff it satisfies every cell
    of R(f) for some live face f: `_choices` drops f's bit exactly when an
    entry of R(f) moves off the entry above, a mask never empties, and a
    face with R(f) empty makes the mask `free`, which no later entry drops.
    So the completions counted depend on the mask only through the set of
    its faces' R, and only through the minimal ones under inclusion: a
    completion that satisfies R(f) satisfies every R(g) inside it.  Keeping
    one fixed face for each minimal R, and `free` when R is empty, gives a
    mask with the same completions, and merging states adds tallies that
    the rest of the sweep treats alike.  The counting drivers merge no
    masks: adding two int counts costs one addition, merging two weight
    tallies costs the whole tally."""
    dilate = _sweep(spec, k)
    k, bits, lay = dilate.k, dilate.bits, dilate.lay
    size = bits * len(lay.start)
    field, profile = (1 << bits) - 1, (1 << size) - 1
    ones, top = profile // field, size - bits  # a row's sum, as `_choices` reads sum(s)
    base = k * sum(lay.mu)
    degree = k * sum(lay.start) - base
    width = max(1, degree.bit_length())  # the weights' field width
    states = {dilate.key(k): {degree << width * spec.n | degree: 1}} if dilate.mask else {}
    for r, (row, cols, canonical) in enumerate(zip(dilate.rows, lay.widths, _row_end_masks(lay.rows, dilate.mask))):
        for entry in row:
            swept: dict = {}
            for keys, tally in _choices(entry, states.items()):
                for key in keys:
                    into = swept.get(key)
                    if into is None:  # a copy: later tallies are added into it
                        swept[key] = dict(tally)
                        continue
                    for w, count in tally.items():
                        into[w] = into.get(w, 0) + count
            states = swept
        ended: dict = {}
        for key, tally in states.items():
            key = key & profile | canonical(key >> size) << size
            into = ended.get(key)
            if into is None:
                ended[key] = tally
                continue
            for w, count in tally.items():
                into[w] = into.get(w, 0) + count
        whole = (1 << bits * cols) - 1  # each profile is a whole row
        step = (1 << width * (r + 1)) - (1 << width * r)
        for key, tally in ended.items():
            moved = (((key & whole) * ones >> top & field) - base) * step
            ended[key] = {w + moved: count for w, count in tally.items()}
        states = ended
    total: dict = {}
    for tally in states.values():
        for w, count in tally.items():
            total[w] = total.get(w, 0) + count
    return width, total


def _row_end_masks(rows: tuple[tuple[tuple, ...], ...], mask: int) -> list:
    """For each row of the layout, the map of a mask at its end to the
    canonical mask of `weight_tally`: the faces' R, each the set of later
    sweep places whose entry's `drop` holds the face, as bits; for each
    minimal R among the live faces' the lowest face with that R; and the
    faces whose R is empty, the row's `free`, when a live face has R empty.
    With fewer than two faces every map is the identity, `int`."""
    if not mask & (mask - 1):
        return [int] * len(rows)
    ahead = [0] * mask.bit_length()  # R of each face, one bit per sweep place
    place = sum(map(len, rows))
    maps = []
    for row in reversed(rows):
        groups: dict[int, int] = {}  # R -> the faces with that R
        for f, r in enumerate(ahead):
            groups[r] = groups.get(r, 0) | 1 << f
        maps.append(_canonical_mask(groups))
        for entry in reversed(row):
            place -= 1
            drop = entry[5]
            for f in range(len(ahead)):
                if drop >> f & 1:
                    ahead[f] |= 1 << place
    return maps[::-1]


def _canonical_mask(groups: dict[int, int]):
    """The canonical mask of a row end, memoised per mask: `groups` maps
    each R to its faces."""
    free = groups.get(0, 0)
    memo: dict[int, int] = {}

    def canonical(m: int) -> int:
        out = memo.get(m)
        if out is None:
            if m & free:
                out = free
            else:
                live = [r for r, faces in groups.items() if m & faces]
                out = 0
                for r in live:
                    if not any(q & r == q != r for q in live):  # no live R strictly inside
                        faces = groups[r]
                        out |= faces & -faces
            memo[m] = out
        return out

    return canonical
