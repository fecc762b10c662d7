"""Kogan faces of triangular GT polytopes and the key polytopal complex.

A face is a set of cells (i, j) with 1 <= j <= i <= n-1; the cell imposes
the equality x_{i,j} = x_{i+1,j} between consecutive rows (bottom-up
numbering as in gtcore).  Cell (i, j) carries the letter n - i + j - 1, and
the face's word reads the cells bottom row first, left to right.  A face is
reduced when its word is reduced, and its type is then the word's
permutation: `face_type` gives the type, or None for a face that is not
reduced.

The key complex of (lambda, sigma) is the union of all reduced faces whose
type is w_0 * sigma (w_0 acting first, i.e. the reverse of sigma's one-line
notation).  Its lattice points, summed by weight monomials, give the key
polynomial; this is the combinatorial counterpart of the Demazure operator
construction in polyops and the two are cross-checked in the test suite.
"""

from __future__ import annotations

from functools import lru_cache

from . import lattice
from .combinat import (
    check_permutation,
    longest_element,
    multiply,
    perm_length,
    word_to_perm,
)
from .gtcore import GTPattern, Value
from .polyops import MultiPoly, weight_sum


class KoganFace(Value):
    __slots__ = _fields = ("n", "cells")

    def __init__(self, n: int, cells):
        cells = frozenset((int(i), int(j)) for i, j in cells)
        for i, j in cells:
            if not 1 <= j <= i <= n - 1:
                raise ValueError(f"cell {(i, j)} out of range for n={n}")
        self._set(n, cells)

    def sorted_cells(self) -> list[tuple[int, int]]:
        return sorted(self.cells)

    def to_json(self) -> dict:
        return {"n": self.n, "cells": [list(c) for c in self.sorted_cells()]}


def cell_letter(n: int, i: int, j: int) -> int:
    """Simple-transposition letter attached to cell (i, j)."""
    return n - i + j - 1


def all_cells(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n) for j in range(1, i + 1)]


def face_word(face: KoganFace) -> tuple[int, ...]:
    """Letters of the face, bottom row of cells first, left to right."""
    return tuple(cell_letter(face.n, i, j) for i, j in face.sorted_cells())


def face_type(face: KoganFace) -> tuple[int, ...] | None:
    """The word's permutation, or None when the word is not reduced."""
    word = face_word(face)
    perm = word_to_perm(word, face.n)
    if perm_length(perm) != len(word):
        return None
    return perm


def pattern_on_face(p: GTPattern, face: KoganFace) -> bool:
    """Does the pattern satisfy every equality of the face?"""
    if p.n != face.n:
        raise ValueError("pattern and face sizes differ")
    return all(p.rows[i - 1][j - 1] == p.rows[i][j - 1] for i, j in face.cells)


def enumerate_reduced_faces(n: int, tau) -> tuple[KoganFace, ...]:
    """All reduced Kogan faces of the given type, in the order that
    itertools.combinations lists cell subsets of all_cells(n)."""
    return _reduced_faces(n, check_permutation(tau))


@lru_cache(maxsize=None)
def _reduced_faces(n: int, tau: tuple[int, ...]) -> tuple[KoganFace, ...]:
    """Depth-first search over cell subsets, cells taken in reading order.

    The prefix word's permutation is kept as pos[v], the position of value
    v.  Appending letter a swaps the values a and a+1 (word_to_perm acts
    left factor first); the word stays reduced iff a stands left of a+1,
    and the one new inversion is the position pair (pos[a], pos[a+1]).  A
    cell is kept only when tau inverts that pair too, so the prefix's
    inversion set stays inside Inv(tau).  After length(tau) letters it is a
    subset of Inv(tau) of the same size, hence Inv(tau), and the word's
    permutation is tau.  Every prefix of a reduced word of tau passes these
    tests, so no face is missed.  Each next cell comes after the last one
    and a branch stops when fewer cells remain than letters are needed, so
    faces come out in itertools.combinations order.
    """
    if len(tau) != n:
        raise ValueError("type size must equal n")
    length = perm_length(tau)
    grid = all_cells(n)
    letters = [cell_letter(n, i, j) for i, j in grid]
    pos = list(range(n + 1))  # pos[v] for v = 1..n; pos[0] unused
    chosen: list[tuple[int, int]] = []
    found = []

    def extend(start: int) -> None:
        need = length - len(chosen)
        if need == 0:
            found.append(KoganFace(n, frozenset(chosen)))
            return
        for idx in range(start, len(grid) - need + 1):
            a = letters[idx]
            p, q = pos[a], pos[a + 1]
            if p < q and tau[p - 1] > tau[q - 1]:
                pos[a], pos[a + 1] = q, p
                chosen.append(grid[idx])
                extend(idx + 1)
                chosen.pop()
                pos[a], pos[a + 1] = p, q

    extend(0)
    return tuple(found)


def key_faces(n: int, sigma) -> tuple[KoganFace, ...]:
    """Reduced faces whose union carries the key polynomial of sigma."""
    sigma = check_permutation(sigma)
    tau = multiply(longest_element(n), sigma)
    return enumerate_reduced_faces(n, tau)


def complex_spec(lam, sigma) -> lattice.PolytopeSpec:
    """The key complex: GT(lambda) cut to the union of the key faces."""
    sigma = check_permutation(sigma)
    n = len(sigma)
    return lattice.gt_spec(lam, n=n, faces=[face.cells for face in key_faces(n, sigma)])


def complex_points(lam, sigma, k: int = 1) -> list[GTPattern]:
    """Lattice points of the key complex at dilation k, each once, in
    canonical order."""
    return list(lattice.enumerate_points(complex_spec(lam, sigma), k))


def complex_count(lam, sigma, k: int = 1) -> int:
    """Number of lattice points of the key complex at dilation k.

    One entry-by-entry count over the union of the faces: each state carries
    the mask of faces whose equalities still hold, so no point set is ever
    materialized and no intersection is counted twice.
    """
    return lattice.count_points(complex_spec(lam, sigma), k)


def key_via_faces(lam, sigma) -> MultiPoly:
    """Key polynomial: the key complex's lattice points tallied by weight."""
    return weight_sum(complex_spec(lam, sigma))
