"""Named regression suites against the bundled reference fixtures.

Each suite returns a list of Check records; a suite passes when every check
does.  The fixtures live in gtkey/data and are consumed both here (the CLI
`verify` subcommand) and by the test suite, so the same oracles guard both
entry points.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from . import ehrhart, kogan, lattice, polyops
from .combinat import avoids_pattern, catalan, partitions_in_box
from .ehrhart import UniPoly
from .polyops import MultiPoly


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _load(name: str):
    path = resources.files("gtkey").joinpath("data").joinpath(name)
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


# --- expression evaluator for the bundled closed forms ------------------------

def _affine(spec: dict, a: int, b: int) -> int:
    return spec["c"] + spec["a"] * a + spec["b"] * b


def eval_expr(node: dict, a: int, b: int, nvars: int = 3) -> MultiPoly:
    """Evaluate a fixture expression tree at shape parameters (a, b)."""
    if "var" in node:
        return MultiPoly.variable(node["var"], nvars)
    if "int" in node:
        return MultiPoly.constant(nvars, node["int"])
    if "pow" in node:
        base, exp = node["pow"]
        e = _affine(exp, a, b)
        if e < 0:
            raise ValueError("negative exponent in fixture expression")
        return eval_expr(base, a, b, nvars) ** e
    if "mul" in node:
        out = MultiPoly.constant(nvars, 1)
        for child in node["mul"]:
            out = out * eval_expr(child, a, b, nvars)
        return out
    if "add" in node:
        out = MultiPoly.zero(nvars)
        for child in node["add"]:
            out = out + eval_expr(child, a, b, nvars)
        return out
    if "sub" in node:
        lhs, rhs = node["sub"]
        return eval_expr(lhs, a, b, nvars) - eval_expr(rhs, a, b, nvars)
    raise ValueError(f"unknown expression node {node!r}")


def key_closed_form(row: dict, a: int, b: int) -> MultiPoly:
    """Expand one bundled key-polynomial row at integer parameters (a, b)."""
    poly = eval_expr(row["num"], a, b)
    for i, j in row["den"]:
        poly = polyops.divide_by_difference(poly, i, j)
    return poly


def key_ehrhart_closed_form(row: dict, a: int, b: int) -> UniPoly:
    factors = [(f["c"], f["a"] * a + f["b"] * b) for f in row["factors"]]
    return ehrhart.linear_product(Fraction(row["scale"]), factors)


# --- suites -------------------------------------------------------------------

def suite_example_gtkey() -> list[Check]:
    """The lambda=(2,1,0,0), sigma=[2,4,3,1] worked example: faces, points,
    monomials, and agreement of both key polynomial constructions."""
    fix = _load("example_gtkey.json")
    lam = tuple(fix["lambda"])
    sigma = tuple(fix["sigma"])
    checks = []

    faces = kogan.key_faces(4, sigma)
    expected_faces = {
        name: frozenset(tuple(c) for c in cells) for name, cells in fix["faces"].items()
    }
    checks.append(
        Check(
            "three reduced faces of the key type",
            {f.cells for f in faces} == set(expected_faces.values()),
            f"found {len(faces)} faces",
        )
    )
    checks.append(
        Check(
            "all faces share the expected word",
            all(kogan.face_word(f) == tuple(fix["word"]) for f in faces),
        )
    )
    checks.append(
        Check(
            "face type matches",
            all(kogan.face_type(f) == tuple(fix["type"]) for f in faces),
        )
    )

    points = kogan.complex_points(lam, sigma)
    expected_points = [
        (tuple(tuple(r) for r in p["rows"]), p["faces"], tuple(p["monomial"]))
        for p in fix["points"]
    ]
    checks.append(
        Check(
            "nine lattice points in the key complex",
            [p.rows for p in points] == [rows for rows, _, _ in expected_points],
            f"found {len(points)} points",
        )
    )
    from .gtcore import weight as pattern_weight

    ok_mono = all(
        pattern_weight(p) == mono for p, (_, _, mono) in zip(points, expected_points)
    )
    checks.append(Check("point monomials match", ok_mono))
    ok_membership = True
    for p, (_, letters, _) in zip(points, expected_points):
        got = "".join(
            name for name in sorted(expected_faces) if kogan.pattern_on_face(
                p, kogan.KoganFace(4, expected_faces[name])
            )
        )
        if got != letters:
            ok_membership = False
    checks.append(Check("face memberships match", ok_membership))

    expected_key = MultiPoly.from_json(4, fix["key_terms"])
    k_ops = polyops.key_via_operators(lam, sigma)
    k_fac = kogan.key_via_faces(lam, sigma)
    checks.append(Check("operator route equals fixture", k_ops == expected_key))
    checks.append(Check("face route equals fixture", k_fac == expected_key))
    return checks


def suite_table1() -> list[Check]:
    """The five bundled skew Ehrhart polynomials, including row coincidences."""
    rows = _load("skew_ehrhart_table.json")
    polys = {}
    checks = []
    for row in rows:
        if "coeffs" in row:
            polys[row["label"]] = UniPoly.from_coeff_strings(row["coeffs"])
    for row in rows:
        expected = polys[row.get("same_as", row["label"])]
        result = ehrhart.ehrhart_of(ehrhart.skew_object(tuple(row["lambda"]), tuple(row["mu"]), n=3))
        checks.append(
            Check(
                f"skew {row['label']}",
                result.poly == expected and result.valid,
                f"poly {result.poly}",
            )
        )
    return checks


def suite_table2() -> list[Check]:
    """S_3 key polynomials against the bundled closed forms, a, b in 0..3,
    a failing check naming every failing (a, b) in order."""
    rows = _load("key_table_s3.json")["rows"]
    checks = []
    for row in rows:
        sigma = tuple(row["sigma"])
        bad = []
        for a in range(4):
            for b in range(4):
                lam = (a + b, a, 0)
                expected = key_closed_form(row, a, b)
                if polyops.key_via_operators(lam, sigma) != expected:
                    bad.append(f"a={a} b={b}")
        checks.append(Check(f"key closed form sigma={list(sigma)}", not bad, "; ".join(bad)))
    return checks


def suite_table3() -> list[Check]:
    """S_3 key-complex Ehrhart polynomials against the bundled closed forms;
    the longest element additionally matches the product formula.  A
    failing check names every failure in order."""
    rows = _load("key_ehrhart_table_s3.json")["rows"]
    checks = []
    for row in rows:
        sigma = tuple(row["sigma"])
        bad = []
        for a in range(4):
            for b in range(4):
                lam = (a + b, a, 0)
                expected = key_ehrhart_closed_form(row, a, b)
                result = ehrhart.ehrhart_of(ehrhart.key_complex_object(lam, sigma))
                if result.poly != expected or not result.valid:
                    bad.append(f"a={a} b={b}: {result.poly}")
                if sigma == (3, 2, 1) and ehrhart.ehrhart_gt_product(lam) != expected:
                    bad.append(f"product formula mismatch at a={a} b={b}")
        checks.append(Check(f"key-complex Ehrhart sigma={list(sigma)}", not bad, "; ".join(bad)))
    return checks


def suite_weyl() -> list[Check]:
    """Dimension product formula vs enumeration vs Schur specialization,
    over all shapes with parts <= 4 and n <= 4, a failing check naming
    every failing lambda in order."""
    checks = []
    for n in range(1, 5):
        bad = []
        for lam in partitions_in_box((4,) * n):
            spec = lattice.gt_spec(lam)
            count = lattice.count_points(spec)
            product = ehrhart.ehrhart_gt_product(lam)(1)
            schur_ones = polyops.eval_ones(polyops.schur(lam, n))
            if not (count == product == schur_ones):
                bad.append(f"lambda={lam}: count={count} product={product} schur={schur_ones}")
        checks.append(Check(f"Weyl product n={n}", not bad, "; ".join(bad)))
    return checks


def suite_determinant() -> list[Check]:
    """Binomial determinant matches the key-complex Ehrhart polynomial for
    231-avoiding permutations in S_3, a failing match naming every sigma
    whose search failed; flag sequences are Catalan-many."""
    checks = []
    checks.append(
        Check("flag count n=3", len(ehrhart.flag_sequences(3)) == catalan(3))
    )
    checks.append(
        Check("flag count n=4", len(ehrhart.flag_sequences(4)) == catalan(4))
    )
    for lam in [(2, 1, 0), (3, 1, 0), (3, 2, 0)]:
        bad = [
            sigma for sigma in itertools.permutations((1, 2, 3))
            if avoids_pattern(sigma, (2, 3, 1)) and ehrhart.flag_match(lam, sigma) is None
        ]
        checks.append(Check(f"determinant match lambda={lam}", not bad, "; ".join(f"sigma={s}" for s in bad)))
    return checks


SUITES = {
    "example-gtkey": suite_example_gtkey,
    "table1": suite_table1,
    "table2": suite_table2,
    "table3": suite_table3,
    "weyl": suite_weyl,
    "determinant": suite_determinant,
}


def run_suite(name: str) -> list[Check]:
    """Run one suite from scratch: every suite recomputes what it checks."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()


def kempf_fixture_faces() -> list[tuple[frozenset, tuple[int, ...]]]:
    """The eleven depicted n=4 Kempf faces with their expected types."""
    fix = _load("kempf_faces_n4.json")
    return [
        (frozenset(tuple(c) for c in row["cells"]), tuple(row["type"]))
        for row in fix["faces"]
    ]
