"""Gelfand-Tsetlin patterns, weights, and the bijection with tableaux.

A triangular pattern is stored bottom-to-top: rows[0] is the single bottom
entry and rows[n-1] is the top row (the partition the polytope is attached
to).  Row r (1-based, bottom-up) has r entries x_{r,1} >= ... >= x_{r,r} and
interlaces the row above it:

    x_{r+1,j} >= x_{r,j} >= x_{r+1,j+1}.

A skew pattern has n+1 rows of constant length m, rows[0] being the inner
shape and rows[n] the outer shape, with the same interlacing condition and
all entries non-negative.

The weight of a pattern lists consecutive row-sum differences bottom-up, so
weight(p)[i-1] counts the entries equal to i in the corresponding tableau.
The bijection with tableaux is written once, for skew patterns; a triangular
pattern and a straight tableau are the skew ones over the empty shape.
"""

from __future__ import annotations

from typing import Union

from .combinat import check_partition, pad


class Value:
    """An immutable value with the fields named in `_fields`, one slot each.

    It equals only a value of its own class with equal fields, hashes as the
    tuple of its fields and prints as Class(field=value, ...).  A subclass's
    __init__ takes the fields in order, checks and normalises them and
    stores them with `_set`; assigning to an attribute afterwards raises
    AttributeError.
    """

    __slots__ = ("_values",)  # the fields in order, for equality and hashing
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as assignment is refused
        return type(self), self._values


class _Pattern(Value):
    """Integer rows, bottom-to-top; each subclass checks its own shape."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        self._check_shape(rows)
        self._set(rows)

    @property
    def top(self) -> tuple[int, ...]:
        return self.rows[-1]

    def flat(self) -> tuple[int, ...]:
        """Entries concatenated top row first; the canonical sort key."""
        return tuple(x for row in reversed(self.rows) for x in row)

    def __str__(self) -> str:
        width = max(len(str(x)) for row in self.rows for x in row)
        lines = []
        for depth, row in enumerate(reversed(self.rows)):
            pad_ = " " * (depth * (width + 1) // 2)
            lines.append(pad_ + " ".join(str(x).rjust(width) for x in row))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, obj: dict):
        return cls(tuple(tuple(r) for r in obj["rows"]))


class GTPattern(_Pattern):
    """Triangular integer array, rows bottom-to-top."""

    __slots__ = ()

    @staticmethod
    def _check_shape(rows) -> None:
        if not rows:
            raise ValueError("pattern needs at least one row")
        for i, row in enumerate(rows):
            if len(row) != i + 1:
                raise ValueError(f"row {i + 1} (bottom-up) must have {i + 1} entries")

    @property
    def n(self) -> int:
        return len(self.rows)


class SkewGTPattern(_Pattern):
    """Parallelogram integer array: n+1 rows of equal length, bottom-to-top."""

    __slots__ = ()

    @staticmethod
    def _check_shape(rows) -> None:
        if len(rows) < 2:
            raise ValueError("skew pattern needs at least two rows")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("all rows of a skew pattern must have equal length")

    @property
    def n(self) -> int:
        return len(self.rows) - 1

    @property
    def m(self) -> int:
        return len(self.rows[0])

    @property
    def bottom(self) -> tuple[int, ...]:
        return self.rows[0]


Pattern = Union[GTPattern, SkewGTPattern]


def validate_pattern(p: Pattern) -> bool:
    """True iff every interlacing inequality holds (and rows weakly decrease)."""
    rows = p.rows
    if isinstance(p, SkewGTPattern) and any(x < 0 for row in rows for x in row):
        return False
    for lower, upper in zip(rows, rows[1:]):
        # upper[j] >= lower[j] and lower[j] >= upper[j+1]
        for j, x in enumerate(lower):
            if upper[j] < x:
                return False
            if j + 1 < len(upper) and x < upper[j + 1]:
                return False
    # weak decrease along rows is implied; keep as a redundant safety check
    for row in rows:
        if any(row[j] < row[j + 1] for j in range(len(row) - 1)):
            return False
    return True


def weight(p: Pattern) -> tuple[int, ...]:
    """Consecutive row-sum differences, bottom-up.

    For a triangular pattern the (absent) row 0 counts as empty; for a skew
    pattern the bottom row is row 0.  Component i-1 equals the multiplicity
    of the value i in the associated tableau.
    """
    sums = [sum(r) for r in p.rows]
    if isinstance(p, GTPattern):
        sums = [0] + sums
    return tuple(sums[i + 1] - sums[i] for i in range(len(sums) - 1))


# --- semistandard tableaux --------------------------------------------------

def _check_filling(outer, inner, rows) -> None:
    """Raise ValueError unless rows fill the skew diagram outer/inner (inner
    padded to len(outer)) semistandardly with positive entries: row r holds
    columns inner[r]+1..outer[r], rows weakly increase, columns strictly."""
    if any(i > o for i, o in zip(inner, outer)):
        raise ValueError("inner shape must fit inside outer shape")
    if len(rows) != len(outer) or any(
        len(r) != o - i for r, o, i in zip(rows, outer, inner)
    ):
        raise ValueError("tableau rows do not match shape")
    for r in rows:
        if any(r[j] > r[j + 1] for j in range(len(r) - 1)):
            raise ValueError("tableau rows must weakly increase")
    # column strictness where two consecutive rows overlap
    for i in range(len(rows) - 1):
        for col in range(max(inner[i], inner[i + 1]), outer[i + 1]):
            if rows[i][col - inner[i]] >= rows[i + 1][col - inner[i + 1]]:
                raise ValueError("tableau columns must strictly increase")
    if any(x < 1 for r in rows for x in r):
        raise ValueError("tableau entries must be positive")


class _Filling(Value):
    __slots__ = ()

    def content(self, n: int) -> tuple[int, ...]:
        """Multiplicity of each value 1..n among the entries."""
        counts = [0] * n
        for r in self.rows:
            for x in r:
                counts[x - 1] += 1
        return tuple(counts)


class SSYT(_Filling):
    """Semistandard Young tableau: rows weakly increase, columns strictly."""

    __slots__ = _fields = ("shape", "rows")

    def __init__(self, shape, rows):
        shape = check_partition(shape)
        rows = tuple(tuple(r) for r in rows)
        _check_filling(shape, (0,) * len(shape), rows)
        self._set(shape, rows)

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "SSYT":
        return cls(tuple(obj["shape"]), tuple(tuple(r) for r in obj["rows"]))


class SkewSSYT(_Filling):
    """Semistandard filling of a skew diagram outer/inner; row r holds the
    entries of columns inner_r+1..outer_r."""

    __slots__ = _fields = ("outer", "inner", "rows")

    def __init__(self, outer, inner, rows):
        outer = check_partition(outer)
        inner = pad(check_partition(inner), len(outer))
        rows = tuple(tuple(r) for r in rows)
        _check_filling(outer, inner, rows)
        self._set(outer, inner, rows)

    def to_json(self) -> dict:
        return {
            "outer": list(self.outer),
            "inner": list(self.inner),
            "rows": [list(r) for r in self.rows],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SkewSSYT":
        return cls(
            tuple(obj["outer"]), tuple(obj["inner"]), tuple(tuple(r) for r in obj["rows"])
        )


# --- bijection --------------------------------------------------------------
#
# A triangular pattern becomes a skew one by padding each row with zeros to
# length n and putting a zero row below it.  The way back trims row r of the
# skew pattern to its first r entries; the rest are 0, since every entry of
# tableau row j is at least j.

def pattern_to_tableau(p: GTPattern) -> SSYT:
    """Row r of the pattern is the shape of the entries <= r in the tableau."""
    n = p.n
    skew = SkewGTPattern(((0,) * n,) + tuple(pad(r, n) for r in p.rows))
    return SSYT(p.top, skew_pattern_to_tableau(skew).rows)


def tableau_to_pattern(t: SSYT, n: int) -> GTPattern:
    """Inverse of pattern_to_tableau; entries of t must lie in 1..n."""
    skew = skew_tableau_to_pattern(SkewSSYT(t.shape, (), t.rows), n)
    return GTPattern(tuple(pad(row, r) for r, row in enumerate(skew.rows[1:], 1)))


def skew_pattern_to_tableau(p: SkewGTPattern) -> SkewSSYT:
    """Entries equal to r fill the horizontal strip rows[r] / rows[r-1]."""
    if not validate_pattern(p):
        raise ValueError("invalid pattern")
    outer, inner = p.top, p.bottom
    rows: list[list[int]] = [[] for _ in outer]
    for value in range(1, p.n + 1):
        prev, cur = p.rows[value - 1], p.rows[value]
        for r in range(p.m):
            rows[r].extend([value] * (cur[r] - prev[r]))
    return SkewSSYT(outer, inner, tuple(tuple(r) for r in rows))


def skew_tableau_to_pattern(t: SkewSSYT, n: int) -> SkewGTPattern:
    if any(x > n for row in t.rows for x in row):
        raise ValueError(f"tableau entries exceed {n}")
    m = len(t.outer)
    rows = [t.inner]
    for value in range(1, n + 1):
        rows.append(
            tuple(
                t.inner[r] + sum(1 for x in t.rows[r] if x <= value) for r in range(m)
            )
        )
    return SkewGTPattern(tuple(rows))
