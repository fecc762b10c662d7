"""Command-line surface: compute, enumerate, interpolate, scan, verify.

Exit status: 0 success (and no violations), 1 usage error or an input too
large to count in memory, 2 mathematical violation or verification failure.
All numeric output is exact; rationals print as "p/q" strings and counts as
decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import ehrhart, kogan, lattice, polyops, verify
from .combinat import (
    format_permutation,
    format_word,
    is_reduced,
    parse_partition,
    parse_permutation,
    parse_word,
    word_to_perm,
)
from .gtcore import weight as pattern_weight

USAGE_ERROR = 1
VIOLATION = 2


class CliError(Exception):
    pass


def _parse_cells(text: str) -> frozenset:
    cells = set()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise CliError(f"bad cell {chunk!r}; expected i,j pairs joined by ';'")
        cells.add((int(parts[0]), int(parts[1])))
    return frozenset(cells)


def _at_least(floor: int):
    """An --n parser: an integer no smaller than `floor`."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if n < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, not {n}")
        return n

    return parse


_at_least_one = _at_least(1)  # a pattern needs at least one row above its bottom


def _parse_ranges(text: str | None) -> dict:
    ranges: dict = {}
    if not text:
        return ranges
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise CliError(f"bad range {chunk!r}; expected key=value pairs joined by ';'")
        key, value = chunk.split("=", 1)
        key = key.strip()
        value = value.strip()
        if "," in value:
            ranges[key] = tuple(int(v) for v in value.split(","))
        else:
            ranges[key] = int(value)
    return ranges


_indented = json.JSONEncoder(indent=2).encode  # the bytes of json.dumps(v, indent=2)


def _json_text(payload) -> str:
    """json.dumps(payload, indent=2), byte for byte.  A dict payload with a
    `MultiPoly` among its values is written item by item: the polynomial as
    its to_json() terms (`_terms_text`), any other value by json, two more
    spaces after each newline (a JSON string holds no raw newline)."""
    if not isinstance(payload, dict) or not any(isinstance(v, polyops.MultiPoly) for v in payload.values()):
        return _indented(payload)
    nested = lambda v: _terms_text(v) if isinstance(v, polyops.MultiPoly) else _indented(v).replace("\n", "\n  ")
    return "{\n  " + ",\n  ".join(f"{_quote(k)}: {nested(v)}" for k, v in payload.items()) + "\n}"


def _terms_text(poly) -> str:
    """The {"coeff", "exp"} dicts of poly.to_json(), [] for the zero
    polynomial, as a value one level deep in json.dumps(indent=2), written
    straight from the sorted terms: each term fills one % template, fixed
    by the depth, with its coefficient and its exponents as
    `MultiPoly.joined_terms` joins them."""
    inner, deep, deeper = " " * 4, " " * 6, " " * 8
    exp = f"[\n{deeper}%s\n{deep}]" if poly.nvars else "[]%s"  # no variables: each text is ""
    term = f'{{\n{deep}"coeff": "%s",\n{deep}"exp": {exp}\n{inner}}}'
    items = [term % ct for ct in poly.joined_terms(f",\n{deeper}")]
    return f"[\n{inner}" + f",\n{inner}".join(items) + "\n  ]" if items else "[]"


def _emit(args, payload, header, rows, lines) -> None:
    """Write one result in --format to --out or stdout: `payload()` as JSON,
    `header` and then `rows()` as CSV, or `lines()` as text.  Only the
    chosen format's callable runs."""
    if args.format == "json":
        text = _json_text(payload())
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows())
        text = buf.getvalue()
    else:
        text = "\n".join(lines())
    text = text if text.endswith("\n") else text + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"--out {args.out}: {exc.strerror or exc}") from exc


def _term_rows(poly) -> list:
    """CSV rows of a polynomial's sorted terms: coefficient, spaced exponents."""
    return [[str(c), text] for c, text in poly.joined_terms(" ")]


# --- subcommands ---------------------------------------------------------------

def cmd_key(args) -> int:
    lam = parse_partition(args.lam)
    if (args.sigma is None) == (args.word is None):
        raise CliError("key needs exactly one of --sigma or --word")
    if args.word is not None:
        word = parse_word(args.word)
        n = max(len(lam), max(word, default=0) + 1)
        if not is_reduced(word, n):
            raise CliError(f"word {args.word!r} is not reduced")
        sigma = word_to_perm(word, n)
    else:
        sigma = parse_permutation(args.sigma)
    method = args.method
    polys = {}
    if method in ("operators", "both"):
        polys["operators"] = polyops.key_via_operators(lam, sigma)
    if method in ("faces", "both"):
        polys["faces"] = kogan.key_via_faces(lam, sigma)
    poly, *others = polys.values()
    agree = all(other == poly for other in others)
    payload = {
        "lambda": list(lam),
        "sigma": list(sigma),
        "method": method,
        "terms": poly,
        "term_count": len(poly.packed),
        "at_ones": str(polyops.eval_ones(poly)),
    }
    if method == "both":
        payload["methods_agree"] = agree
    _emit(args, lambda: payload, ["coeff", "exp"], lambda: _term_rows(poly), lambda: [
        f"key polynomial, lambda={list(lam)} sigma={list(sigma)}",
        *([f"methods agree: {agree}"] if method == "both" else []),
        str(poly),
        f"{len(poly.packed)} distinct monomials, value at ones {payload['at_ones']}",
    ])
    return 0 if agree else VIOLATION


def cmd_schur(args) -> int:
    lam = parse_partition(args.lam)
    n = args.n or len(lam)
    if args.mu is not None:
        mu = parse_partition(args.mu)
        poly = polyops.skew_schur(lam, mu, n)
        desc = {"lambda": list(lam), "mu": list(mu), "n": n}
    else:
        poly = polyops.schur(lam, n)
        desc = {"lambda": list(lam), "n": n}
    payload = dict(desc, terms=poly, at_ones=str(polyops.eval_ones(poly)))
    _emit(
        args, lambda: payload, ["coeff", "exp"], lambda: _term_rows(poly),
        lambda: [str(poly), f"value at ones {payload['at_ones']}"],
    )
    return 0


def cmd_kostka(args) -> int:
    lam = parse_partition(args.lam)
    if args.nu is not None:
        mu = parse_partition(args.mu) if args.mu else ()
        nu = parse_word(args.nu)
        value = polyops.skew_kostka(lam, mu, nu)
        desc = {"lambda": list(lam), "mu": list(mu), "nu": list(nu)}
    else:
        if args.mu is None:
            raise CliError("kostka needs --mu (content), optionally --nu for skew shapes")
        mu = parse_word(args.mu)
        value = polyops.kostka(lam, mu)
        desc = {"lambda": list(lam), "mu": list(mu)}
    _emit(
        args, lambda: {"spec": desc, "count": str(value)}, ["spec", "count"],
        lambda: [[json.dumps(desc), str(value)]], lambda: [str(value)],
    )
    return 0


def cmd_faces(args) -> int:
    n = args.n
    if args.sigma:
        taus = [parse_permutation(args.sigma)]
    else:
        taus = itertools.permutations(range(1, n + 1))
    # every face the search yields is reduced, of the type it was searched for
    records = [
        dict(f.to_json(), word=list(kogan.face_word(f)), reduced=True, type=list(tau))
        for tau in taus
        for f in kogan.enumerate_reduced_faces(n, tau)
    ]
    cells = lambda r: ";".join(f"{i},{j}" for i, j in r["cells"])
    _emit(
        args, lambda: records, ["n", "cells", "word", "reduced", "type"],
        lambda: [
            [r["n"], cells(r), format_word(r["word"]), r["reduced"], format_permutation(r["type"])]
            for r in records
        ],
        lambda: [f"{len(records)} reduced Kogan faces"] + [
            f"cells [{cells(r) or '-'}] word ({format_word(r['word']) or '-'}) type {format_permutation(r['type'])}"
            for r in records
        ],
    )
    return 0


def _sigma_of_size_n(args, where: str) -> tuple:
    """--sigma, which fixes the number of rows: a different --n exits 1."""
    sigma = parse_permutation(args.sigma)
    if args.n is not None and args.n != len(sigma):
        raise CliError(f"{where}: --n {args.n} differs from the size {len(sigma)} of sigma")
    return sigma


def _points_spec(args):
    lam = parse_partition(args.lam)
    nu = None if args.nu is None else parse_word(args.nu)
    if args.mu is not None:
        return lattice.skew_spec(lam, parse_partition(args.mu), weight=nu, n=args.n)
    return lattice.gt_spec(lam, weight=nu, n=args.n)


def cmd_points(args) -> int:
    k = args.k
    if args.sigma:
        if args.nu is not None or args.mu is not None:
            raise CliError("points --sigma counts the whole key complex; it takes neither --nu nor --mu")
        lam, sigma = parse_partition(args.lam), _sigma_of_size_n(args, "points --sigma")
        desc = {"family": "key_complex", "lambda": list(lam), "sigma": list(sigma)}
        count_points = lambda: kogan.complex_count(lam, sigma, k)
        list_points = lambda: kogan.complex_points(lam, sigma, k)
    else:
        spec = _points_spec(args)
        desc = spec.describe()
        count_points = lambda: lattice.count_points(spec, k)
        list_points = lambda: list(lattice.enumerate_points(spec, k))
    if args.count_only:
        count = str(count_points())
        _emit(
            args, lambda: {"spec": desc, "k": k, "count": count}, ["spec", "k", "count"],
            lambda: [[json.dumps(desc), k, count]], lambda: [count],
        )
        return 0
    points = list_points()
    weights = [pattern_weight(p) for p in points]
    records = [dict(p.to_json(), weight=list(w)) for p, w in zip(points, weights)]
    payload = {"spec": desc, "k": k, "count": str(len(points)), "points": records}
    monomial = polyops.MultiPoly.monomial
    _emit(
        args, lambda: payload, ["entries_top_down", "weight", "monomial"],
        lambda: [
            [" ".join(str(x) for r in reversed(p["rows"]) for x in r), " ".join(map(str, w)), str(monomial(w))]
            for p, w in zip(records, weights)
        ],
        lambda: [f"{len(points)} lattice points"] + [
            line for p, w in zip(points, weights) for line in (str(p), f"weight {w} monomial {monomial(w)}")
        ],
    )
    return 0


# The options each ehrhart object reads besides --lambda and --n; it takes
# none of the others.
_EHRHART_OPTIONS = {
    "gt": (),
    "skew": ("mu",),
    "gt-weight": ("mu",),
    "skew-weight": ("mu", "nu"),
    "key-complex": ("sigma",),
    "kogan-face": ("cells",),
}


def _ehrhart_object(args) -> ehrhart.CountedObject:
    for option in ("mu", "nu", "sigma", "cells"):
        if getattr(args, option) is not None and option not in _EHRHART_OPTIONS[args.object]:
            raise CliError(f"ehrhart --object {args.object} takes no --{option}")
    lam = parse_partition(args.lam)
    if args.object == "gt":
        return ehrhart.gt_object(lam, n=args.n)
    if args.object == "skew":
        mu = parse_partition(args.mu) if args.mu else ()
        return ehrhart.skew_object(lam, mu, n=args.n)
    if args.object == "gt-weight":
        if args.mu is None:
            raise CliError("gt-weight needs --mu")
        return ehrhart.gt_weight_object(lam, parse_word(args.mu), n=args.n)
    if args.object == "skew-weight":
        mu = parse_partition(args.mu) if args.mu else ()
        if args.nu is None:
            raise CliError("skew-weight needs --nu")
        return ehrhart.skew_weight_object(lam, mu, parse_word(args.nu), n=args.n)
    if args.object == "key-complex":
        if args.sigma is None:
            raise CliError("key-complex needs --sigma")
        return ehrhart.key_complex_object(lam, _sigma_of_size_n(args, "ehrhart --object key-complex"))
    # kogan-face, the last of the parser's choices
    if args.cells is None:
        raise CliError("kogan-face needs --cells \"i,j;i,j;...\"")
    n = args.n or len(lam)
    face = kogan.KoganFace(n, _parse_cells(args.cells))
    return ehrhart.kogan_face_object(lam, face)


def cmd_ehrhart(args) -> int:
    obj = _ehrhart_object(args)
    if args.degree_bound is not None:
        obj = obj._replace(bound=args.degree_bound)
    result = ehrhart.ehrhart_of(obj)
    payload = result.to_json()
    flags = [payload["nonneg"], payload["valid"], payload["empty"]]
    _emit(
        args, lambda: payload, ["object", "degree_bound", "coeffs", "nonneg", "valid", "empty"],
        lambda: [[json.dumps(payload["object"]), payload["degree_bound"], " ".join(payload["poly"]), *flags]],
        lambda: [
            f"object {json.dumps(payload['object'])}",
            f"polynomial {payload['poly_str']}",
            f"coefficients (low degree first) {payload['poly']}",
            "nonneg {}  valid {}  empty {}".format(*flags),
        ],
    )
    return 0 if result.valid else VIOLATION


def cmd_scan(args) -> int:
    ranges = _parse_ranges(args.ranges)
    report = ehrhart.scan(args.family, ranges)
    if not report.entries:
        raise CliError(f"scan {args.family}: ranges {json.dumps(ranges)} give no objects")
    _emit(
        args, report.to_json, ["object", "coeffs", "nonneg", "valid", "empty"],
        lambda: [
            [json.dumps(r.object), " ".join(r.poly.coeff_strings()), r.nonneg, r.valid, r.empty]
            for r in (e.result for e in report.entries)
        ],
        lambda: [
            f"family {report.family} ranges {json.dumps(ranges)}",
            f"checked {len(report.entries)} objects",
            f"violations {len(report.violations)}  verification failures {len(report.failures)}",
            *(f"VIOLATION {json.dumps(r.object)} -> {r.poly}" for r in report.violations),
            *(f"VERIFY-FAIL {json.dumps(r.object)} -> {r.poly}" for r in report.failures),
        ],
    )
    return report.status


def cmd_verify(args) -> int:
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    all_checks = []
    for name in names:
        for check in verify.run_suite(name):
            all_checks.append((name, check))
    ok = all(c.ok for _, c in all_checks)
    payload = {"suites": names, "ok": ok, "checks": [dict(c.to_json(), suite=name) for name, c in all_checks]}
    _emit(
        args, lambda: payload, ["suite", "check", "ok", "detail"],
        lambda: [[name, c.name, c.ok, c.detail] for name, c in all_checks],
        lambda: [
            f"[{'ok' if c.ok else 'FAIL'}] {name}: {c.name}" + (f"  ({c.detail})" if c.detail and not c.ok else "")
            for name, c in all_checks
        ] + ["all checks passed" if ok else "FAILURES PRESENT"],
    )
    return 0 if ok else VIOLATION


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtkey",
        description="Exact key polynomials, GT lattice points and Ehrhart scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("key", help="key polynomial by operators, faces, or both")
    p.add_argument("--lambda", dest="lam", required=True, help="partition, e.g. 2,1,0,0")
    p.add_argument("--sigma", help="permutation, e.g. [2,4,3,1]")
    p.add_argument("--word", help="reduced word as comma-separated letters, e.g. 2,3,2,1")
    p.add_argument("--method", choices=["operators", "faces", "both"], default="both")
    common(p)
    p.set_defaults(func=cmd_key)

    p = sub.add_parser("schur", help="Schur or skew Schur polynomial")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", help="inner shape for a skew Schur polynomial")
    p.add_argument("--n", type=_at_least_one, help="number of variables (default: parts of lambda)")
    common(p)
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("kostka", help="Kostka or skew Kostka coefficient")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", help="content (straight) or inner shape (with --nu)")
    p.add_argument("--nu", help="content of a skew Kostka coefficient")
    common(p)
    p.set_defaults(func=cmd_kostka)

    p = sub.add_parser("faces", help="reduced Kogan faces, optionally of one type")
    p.add_argument("--n", type=_at_least(0), required=True)
    p.add_argument("--sigma", help="face type in one-line notation")
    common(p)
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("points", help="lattice points of a GT object")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", help="bottom row: selects the skew polytope")
    p.add_argument("--nu", help="weight filter")
    p.add_argument("--sigma", help="key-complex points for this permutation")
    p.add_argument("--n", type=_at_least_one)
    p.add_argument("--k", type=int, default=1, help="dilation factor")
    p.add_argument("--count-only", action="store_true")
    common(p)
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("ehrhart", help="interpolated Ehrhart polynomial of an object")
    p.add_argument(
        "--object",
        required=True,
        choices=list(_EHRHART_OPTIONS),
    )
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu")
    p.add_argument("--nu")
    p.add_argument("--sigma")
    p.add_argument("--cells", help='face cells as "i,j;i,j;..."')
    p.add_argument("--n", type=_at_least_one)
    p.add_argument("--degree-bound", type=int)
    common(p)
    p.set_defaults(func=cmd_ehrhart)

    p = sub.add_parser("scan", help="non-negativity scan over a family grid")
    p.add_argument(
        "--family",
        required=True,
        choices=list(ehrhart.SCAN_RANGE_KEYS),
    )
    p.add_argument("--ranges", help='bounds, e.g. "n=3;max_shape=3,2,1" or "max_size=6;max_rows=4"')
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run a named fixture suite")
    p.add_argument(
        "--suite",
        default="all",
        choices=sorted(verify.SUITES) + ["all"],
    )
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process: parsing leaves the parser as it was,
    so consecutive calls of `main` in one process share it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliError, ValueError, AssertionError) as exc:
        # a failed internal consistency check is a mathematical violation
        print(f"error: {exc}", file=sys.stderr)
        return VIOLATION if isinstance(exc, AssertionError) else USAGE_ERROR
    except MemoryError:
        # the lattice sweep holds a state per reachable value of an entry
        print("error: out of memory: the input is too large to count", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
