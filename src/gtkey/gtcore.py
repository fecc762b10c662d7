"""Gelfand-Tsetlin patterns and their weights.

A triangular pattern is stored bottom-to-top: rows[0] is the single bottom
entry and rows[n-1] is the top row (the partition the polytope is attached
to).  Row r (1-based, bottom-up) has r entries x_{r,1} >= ... >= x_{r,r} and
interlaces the row above it:

    x_{r+1,j} >= x_{r,j} >= x_{r+1,j+1}.

A skew pattern has n+1 rows of constant length m, rows[0] being the inner
shape and rows[n] the outer shape, with the same interlacing condition and
all entries non-negative.

The weight of a pattern lists consecutive row-sum differences bottom-up, so
weight(p)[i-1] counts the entries equal to i in the semistandard tableau
whose entries at most r fill the shape of row r (less the bottom row, for a
skew pattern).  No tableau is built here: the tests compare the weights
with tableaux built cell by cell.
"""

from __future__ import annotations

from typing import Union


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

