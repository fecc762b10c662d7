"""Lattice points of Gelfand-Tsetlin polytopes and their dilations.

Levels number a pattern's rows bottom-up from 0, as gtcore stores them.
One kernel step, `children(level, upper, mask)`, lists the admissible rows
at `level` directly below the row `upper`, in ascending lexicographic
order.  Entry j of the row ranges over [upper[j+1], upper[j]].  A skew
pattern ends at its fixed bottom row mu, which bounds every free row too:
x_{l,j} >= mu_j and x_{l,j} <= mu_{j-l}, so the bottom row itself is just
the one row the kernel admits at level 0.  A weight filter fixes every row
sum, so the sum of a row's other entries fixes its last one.

A triangular polytope may be restricted to a union of faces, each given as
a set of cells (i, j), 1 <= j <= i <= n-1, that imposes x_{i,j} = x_{i+1,j}
(rows numbered bottom-up as in gtcore).  A point belongs to the union when
it satisfies every cell of at least one face.  The mask carried with a row
has one bit per face whose cells hold on all rows chosen so far; rows that
leave no bit set are not listed.  `faces=None` means the whole polytope
and `faces=[]` the empty set.

Three drivers share the kernel.  Enumeration is a depth-first search from
the top row down, yielding each point once in canonical order (entries read
top row first).  Counting memoizes (level, upper, mask), which collapses
the search to its distinct consecutive-row transitions.  Weight counting
sweeps down one level at a time, each (row, mask) state carrying a tally of
the weight components fixed above it, so a Schur or key polynomial needs no
point list.  It keeps only the current level's states: no later level
returns to them, whereas a memo would hold every level's tallies.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional

from .combinat import check_partition, contains, pad
from .gtcore import GTPattern, Pattern, SkewGTPattern

# A face: cells (i, j) forcing x_{i,j} = x_{i+1,j}.
Cells = frozenset


@dataclass(frozen=True)
class PolytopeSpec:
    """A GT polytope: triangular GT(lambda) or skew GT(lambda/mu), with an
    optional weight filter selecting patterns of fixed weight."""

    kind: str  # "triangular" | "skew"
    top: tuple[int, ...]
    bottom: Optional[tuple[int, ...]] = None
    weight: Optional[tuple[int, ...]] = None
    n: int = 0

    def __post_init__(self):
        if self.kind not in ("triangular", "skew"):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "top", check_partition(self.top))
        if self.kind == "triangular":
            if self.bottom is not None:
                raise ValueError("triangular specs take no bottom row")
            object.__setattr__(self, "n", len(self.top))
        else:
            if self.bottom is None:
                raise ValueError("skew specs need a bottom row")
            bottom = pad(check_partition(self.bottom), len(self.top))
            object.__setattr__(self, "bottom", bottom)
            if not contains(self.top, bottom):
                raise ValueError("bottom row must fit inside the top row")
            if self.n <= 0:
                object.__setattr__(self, "n", len(self.top))
        if self.weight is not None:
            w = tuple(self.weight)
            if len(w) != self.n or any(x < 0 for x in w):
                raise ValueError(f"weight must be {self.n} non-negative integers")
            object.__setattr__(self, "weight", w)

    @property
    def m(self) -> int:
        return len(self.top)

    def dilate(self, k: int) -> "PolytopeSpec":
        if k < 0:
            raise ValueError("dilation factor must be >= 0")
        return replace(
            self,
            top=tuple(k * x for x in self.top),
            bottom=None if self.bottom is None else tuple(k * x for x in self.bottom),
            weight=None if self.weight is None else tuple(k * x for x in self.weight),
        )

    def describe(self) -> dict:
        desc = {"kind": self.kind, "top": list(self.top)}
        if self.bottom is not None:
            desc["bottom"] = list(self.bottom)
        if self.weight is not None:
            desc["weight"] = list(self.weight)
        desc["n"] = self.n
        return desc


def gt_spec(lam, weight=None, n: int | None = None) -> PolytopeSpec:
    lam = check_partition(lam)
    if n is not None:
        lam = pad(lam, n)
    return PolytopeSpec("triangular", lam, weight=None if weight is None else tuple(weight))


def skew_spec(lam, mu=(), weight=None, n: int | None = None) -> PolytopeSpec:
    lam = check_partition(lam)
    mu = pad(check_partition(mu), len(lam))
    return PolytopeSpec(
        "skew",
        lam,
        bottom=mu,
        weight=None if weight is None else tuple(weight),
        n=n if n is not None else len(lam),
    )


# --- the row-transfer kernel ---------------------------------------------------

def _kernel(
    spec: PolytopeSpec, k: int, faces: Optional[Iterable[Cells]]
) -> tuple[list[tuple[int, ...]], int, Callable]:
    """The k-th dilate set up for the kernel step.

    Returns the pattern's rows with only the top row filled in, the face
    mask to start from (0 when the set is empty) and `children`, which
    lists (row, mask) pairs.
    """
    d = spec.dilate(k)
    if faces is not None and d.kind != "triangular":
        raise ValueError("faces only apply to triangular polytopes")
    faces = [frozenset()] if faces is None else [frozenset(f) for f in faces]
    skew = d.kind == "skew"
    depth = d.n if skew else d.n - 1  # level of the top row
    width = [d.m if skew else level + 1 for level in range(depth)]
    # bounds from the bottom row; a triangular pattern has none
    cap = max(d.top, default=0)
    if skew:
        floors = [d.bottom] * depth
        ceils = [tuple(d.bottom[j - level] if j >= level else cap for j in range(d.m))
                 for level in range(depth)]
    else:
        floors = [(0,) * w for w in width]
        ceils = [(cap,) * w for w in width]
    tail = (0,) if skew else ()  # the entry right of a skew row's last one

    need = [[0] * w for w in width]  # need[level][j]: faces forcing entry j = upper[j]
    for f, cells in enumerate(faces):
        for i, j in cells:
            if not 1 <= j <= i <= d.n - 1:
                raise ValueError(f"cell {(i, j)} out of range for n={d.n}")
            need[i - 1][j - 1] |= 1 << f

    mask = (1 << len(faces)) - 1
    targets: list[Optional[int]] = [None] * depth
    if d.weight is not None:
        sums = list(itertools.accumulate(d.weight, initial=sum(d.bottom) if skew else 0))
        if sums[-1] != sum(d.top):
            mask = 0  # weight incompatible with the top row
        targets = sums[:-1] if skew else sums[1:-1]

    def children(level: int, upper: tuple[int, ...], mask: int) -> list[tuple[tuple[int, ...], int]]:
        spans = [
            range(max(a, b), min(c, e) + 1)
            for a, b, c, e in zip(upper[1:] + tail, floors[level], upper, ceils[level])
        ]
        target, drops = targets[level], need[level]
        if not any(drops):
            if target is None or not spans:  # an empty row's target is 0
                return [(row, mask) for row in itertools.product(*spans)]
            # the row sum fixes the last entry
            last = spans[-1]
            return [
                (row + (v,), mask)
                for row in itertools.product(*spans[:-1])
                if (v := target - sum(row)) in last
            ]
        partial = [((), mask)]
        for span, up, drop in zip(spans, upper, drops):
            grown = []
            for prefix, m in partial:
                off = m & ~drop
                for v in span:
                    keep = m if v == up else off
                    if keep:
                        grown.append((prefix + (v,), keep))
            partial = grown
        if target is not None:
            partial = [(row, m) for row, m in partial if sum(row) == target]
        return partial

    rows: list[tuple[int, ...]] = [()] * (depth + 1)
    rows[depth] = d.top
    return rows, mask, children


def enumerate_points(
    spec: PolytopeSpec,
    k: int = 1,
    faces: Optional[Iterable[Cells]] = None,
) -> Iterator[Pattern]:
    """Yield each integral pattern of the k-th dilate exactly once, in
    canonical order.  `faces` restricts a triangular polytope to the union
    of those faces."""
    rows, mask, children = _kernel(spec, k, faces)
    make = GTPattern if spec.kind == "triangular" else SkewGTPattern

    def walk(level: int, mask: int) -> Iterator[Pattern]:
        if level < 0:
            yield make(tuple(rows))
            return
        for row, m in children(level, rows[level + 1], mask):
            rows[level] = row
            yield from walk(level - 1, m)

    if mask:
        yield from walk(len(rows) - 2, mask)


def count_points(
    spec: PolytopeSpec,
    k: int = 1,
    faces: Optional[Iterable[Cells]] = None,
) -> int:
    """|k.P intersect Z^d|, or of the union of `faces` in it, by dynamic
    programming over consecutive rows."""
    rows, mask, children = _kernel(spec, k, faces)

    @functools.cache
    def below(level: int, upper: tuple[int, ...], mask: int) -> int:
        # completions of rows level..0 given the row above and live faces
        if level < 0:
            return 1
        return sum(below(level - 1, row, m) for row, m in children(level, upper, mask))

    return below(len(rows) - 2, rows[-1], mask) if mask else 0


def weight_counts(
    spec: PolytopeSpec,
    k: int = 1,
    faces: Optional[Iterable[Cells]] = None,
) -> dict[tuple[int, ...], int]:
    """The number of integral patterns of the k-th dilate, or of the union
    of `faces` in it, of each weight that occurs."""
    rows, mask, children = _kernel(spec, k, faces)
    if not mask:
        return {}
    # (row, mask) -> {weight components fixed by the rows above: count}
    states = {(rows[-1], mask): {(): 1}}
    for level in range(len(rows) - 2, -1, -1):
        swept: dict = {}
        for (upper, live), tally in states.items():
            for row, m in children(level, upper, live):
                c = sum(upper) - sum(row)
                dest = swept.setdefault((row, m), {})
                for w, count in tally.items():
                    dest[(c,) + w] = dest.get((c,) + w, 0) + count
        states = swept
    # a triangular pattern's first component is its bottom row's sum
    out: dict[tuple[int, ...], int] = {}
    for (row, _), tally in states.items():
        head = (sum(row),) if spec.kind == "triangular" else ()
        for w, count in tally.items():
            out[head + w] = out.get(head + w, 0) + count
    return out
