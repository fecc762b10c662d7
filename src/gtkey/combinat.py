"""Partitions, permutations, reduced words and pattern avoidance.

Permutations are tuples in one-line notation with values 1..n.  The product
convention is "left factor acts first": (multiply(a, b))(x) = b(a(x)).  A word
is a tuple of letters in 1..n-1, letter i standing for the adjacent
transposition s_i, and a word multiplies out left to right under the same
convention, so

    word_to_perm((3, 2), 4) == (1, 3, 4, 2)

i.e. the word s_3 s_2.  Everything downstream (Kogan face types, Demazure
operator words) relies on this fixture; do not change it casually.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence


def is_permutation(seq: Sequence[int]) -> bool:
    """True iff seq is a rearrangement of 1..n.

    >>> is_permutation((2, 4, 3, 1))
    True
    >>> is_permutation((1, 1, 2))
    False
    """
    n = len(seq)
    return sorted(seq) == list(range(1, n + 1))


def check_permutation(seq: Sequence[int]) -> tuple[int, ...]:
    perm = tuple(seq)
    if not is_permutation(perm):
        raise ValueError(f"not a permutation of 1..{len(perm)}: {perm!r}")
    return perm


def longest_element(n: int) -> tuple[int, ...]:
    """The order-reversing permutation [n, n-1, ..., 1]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(range(n, 0, -1))


def multiply(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Product where a acts first: result(x) = b(a(x))."""
    if len(a) != len(b):
        raise ValueError("permutations must have equal size")
    return tuple(b[a[x] - 1] for x in range(len(a)))


def perm_length(perm: Sequence[int]) -> int:
    """Number of inversions, which equals the length of any reduced word.

    >>> perm_length((4, 3, 2, 1))
    6
    """
    n = len(perm)
    return sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])


def word_to_perm(word: Sequence[int], n: int) -> tuple[int, ...]:
    """Multiply out a word of simple transpositions, left factor first.

    >>> word_to_perm((3, 2), 4)
    (1, 3, 4, 2)
    >>> word_to_perm((), 4)
    (1, 2, 3, 4)
    """
    perm = list(range(1, n + 1))
    for letter in reversed(word):
        if not 1 <= letter <= n - 1:
            raise ValueError(f"letter {letter} out of range 1..{n - 1}")
        perm[letter - 1], perm[letter] = perm[letter], perm[letter - 1]
    return tuple(perm)


def is_reduced(word: Sequence[int], n: int) -> bool:
    """True iff the word's length equals the inversion count of its product."""
    return perm_length(word_to_perm(word, n)) == len(word)


def descents(perm: Sequence[int]) -> list[int]:
    """Positions i (1-based) with perm(i) > perm(i+1)."""
    return [i + 1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1]]


def canonical_reduced_word(perm: Sequence[int]) -> tuple[int, ...]:
    """Deterministic reduced word whose letters, read from the right, are
    each the largest letter that can come next.

    The last letter is the largest i with i+1 standing left of i in perm.
    Swapping the values i and i+1 removes one inversion, so repeating on
    the rest sorts perm in length(perm) steps, and the letters found, read
    backwards, multiply out to perm (word_to_perm).  apply_pi_word applies
    the rightmost letter first, so on a partition z^lambda the operators
    act on the smallest parts first, while the polynomial is still small.

    >>> canonical_reduced_word((2, 1, 3))
    (1,)
    >>> canonical_reduced_word((2, 4, 3, 1))
    (3, 2, 1, 3)
    """
    perm = check_permutation(perm)
    pos = [0] * (len(perm) + 1)  # pos[v]: where value v stands
    for at, v in enumerate(perm):
        pos[v] = at
    letters = []
    top = i = len(perm) - 1
    while i > 0:
        if pos[i + 1] < pos[i]:
            letters.append(i)
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
            i = min(i + 1, top)  # only the pair (i+1, i+2) above i can have changed
        else:
            i -= 1
    return tuple(reversed(letters))


def all_reduced_words(perm: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Yield every reduced word for perm (no particular order)."""
    perm = tuple(perm)
    if not descents(perm):
        yield ()
        return
    for i in descents(perm):
        rest = list(perm)
        rest[i - 1], rest[i] = rest[i], rest[i - 1]
        for word in all_reduced_words(tuple(rest)):
            yield (i,) + word


def avoids_pattern(perm: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff no triple of entries of perm is order-isomorphic to pattern.

    Only length-3 patterns are supported.
    """
    pattern = check_permutation(pattern)
    if len(pattern) != 3:
        raise ValueError("only length-3 patterns are supported")
    n = len(perm)
    for i, j, k in itertools.combinations(range(n), 3):
        triple = (perm[i], perm[j], perm[k])
        ranks = tuple(sorted(triple).index(v) + 1 for v in triple)
        if ranks == pattern:
            return False
    return True


def catalan(n: int) -> int:
    import math

    return math.comb(2 * n, n) // (n + 1)


# --- partitions -----------------------------------------------------------

def is_partition(seq: Sequence[int]) -> bool:
    """Weakly decreasing non-negative integers; trailing zeros allowed."""
    return all(x >= 0 for x in seq) and all(
        seq[i] >= seq[i + 1] for i in range(len(seq) - 1)
    )


def check_partition(seq: Sequence[int]) -> tuple[int, ...]:
    part = tuple(seq)
    if not is_partition(part):
        raise ValueError(f"not a partition: {part!r}")
    return part


def pad(part: Sequence[int], n: int, what: str = "partition") -> tuple[int, ...]:
    """Pad with trailing zeros to length n (error if n < 0 or if that drops a
    nonzero part; the error names the sequence `what`)."""
    if n < 0:
        raise ValueError(f"cannot pad to negative length {n}")
    part = tuple(part)
    if len(part) > n:
        if any(part[n:]):
            # a partition's nonzero parts come first, a weight's need not
            tail = f"more than {n} nonzero parts" if what == "partition" else f"a nonzero part after its first {n}"
            raise ValueError(f"{what} {part!r} has {tail}")
        return part[:n]
    return part + (0,) * (n - len(part))


def contains(outer: Sequence[int], inner: Sequence[int]) -> bool:
    """Componentwise containment of Young diagrams, after padding."""
    m = max(len(outer), len(inner))
    outer, inner = pad(outer, m), pad(inner, m)
    return all(o >= i for o, i in zip(outer, inner))


def partitions_in_box(shape: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All partitions fitting componentwise inside the given shape."""
    shape = check_partition(shape)
    if not shape:
        yield ()
        return

    def rec(idx: int, prev: int) -> Iterator[tuple[int, ...]]:
        if idx == len(shape):
            yield ()
            return
        for v in range(min(prev, shape[idx]) + 1):
            for rest in rec(idx + 1, v):
                yield (v,) + rest

    yield from rec(0, shape[0])


def partitions_of(m: int, max_parts: int) -> Iterator[tuple[int, ...]]:
    """Partitions of m with at most max_parts parts (no zero padding)."""

    def rec(remaining: int, parts_left: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if parts_left == 0:
            return
        for v in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - v, parts_left - 1, v):
                yield (v,) + rest

    yield from rec(m, max_parts, m)


# --- parsing / printing ----------------------------------------------------

def format_permutation(perm: Sequence[int]) -> str:
    return "[" + ",".join(str(v) for v in perm) + "]"


def parse_permutation(text: str) -> tuple[int, ...]:
    body = text.strip().strip("[]")
    if not body:
        raise ValueError("empty permutation")
    return check_permutation(int(v) for v in body.split(","))


def format_word(word: Sequence[int]) -> str:
    return ",".join(str(v) for v in word)


def parse_word(text: str) -> tuple[int, ...]:
    body = text.strip()
    if not body:
        return ()
    return tuple(int(v) for v in body.split(","))


def parse_partition(text: str) -> tuple[int, ...]:
    body = text.strip()
    if not body:
        return ()
    return check_partition(int(v) for v in body.split(","))
