"""Exact-arithmetic key polynomials and Gelfand-Tsetlin lattice-point tools."""

from .combinat import (
    avoids_pattern,
    canonical_reduced_word,
    is_reduced,
    longest_element,
    perm_length,
    word_to_perm,
)
from .gtcore import (
    GTPattern,
    SkewGTPattern,
    validate_pattern,
    weight,
)
from .kogan import (
    KoganFace,
    complex_count,
    complex_points,
    enumerate_reduced_faces,
    face_type,
    face_word,
    key_via_faces,
)
from .lattice import PolytopeSpec, count_points, enumerate_points, gt_spec, skew_spec
from .polyops import (
    MultiPoly,
    divided_difference,
    eval_ones,
    key_via_operators,
    kostka,
    pi_op,
    schur,
    skew_schur,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
