import ast
import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtkey import cli, ehrhart, kogan, lattice, polyops
from gtkey.combinat import partitions_in_box
from gtkey.ehrhart import compositions

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


GOLDEN_CASES = {
    "key": ["key", "--lambda", "2,1,0,0", "--sigma", "[2,4,3,1]", "--method", "both"],
    "schur": ["schur", "--lambda", "2,1,0"],
    "kostka": ["kostka", "--lambda", "2,1", "--mu", "1,1,1"],
    "faces": ["faces", "--n", "4", "--sigma", "[1,3,4,2]"],
    "points": ["points", "--lambda", "2,1,0", "--nu", "1,1,1"],
    "ehrhart": ["ehrhart", "--object", "skew", "--lambda", "3,2,1", "--mu", "2,1"],
    "scan": ["scan", "--family", "stretched_kostka", "--ranges", "max_size=2;max_rows=2"],
    "verify": ["verify", "--suite", "example-gtkey"],
}


_JSON_TEXT = st.text() | st.sampled_from(
    ['"', 'a "quoted" [word]', "{[]}", "\\", "\n\t", "caf\u00e9", "\u2603\U0001f600"]
)
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats() | _JSON_TEXT
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(st.integers(), max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(_JSON_TEXT | st.integers() | st.none() | st.booleans(), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=150, deadline=None)
@given(_JSON_VALUES)
def test_json_writer_writes_what_json_dumps_with_an_indent_writes(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


_COEFFS = (
    st.integers(min_value=-3, max_value=3) | st.integers(min_value=-(10**40), max_value=10**40)
    | st.fractions(max_denominator=12) | st.just(Fraction(-1, 2))
)


@st.composite
def _polys(draw):
    nvars = draw(st.integers(min_value=0, max_value=4))
    exps = st.tuples(*[st.integers(min_value=0, max_value=5)] * nvars)
    return polyops.MultiPoly(nvars, draw(st.dictionaries(exps, _COEFFS, max_size=6)))


_POLYS = _polys() | st.builds(polyops.MultiPoly.zero, st.integers(min_value=0, max_value=4))
# a key or Schur payload: a dict with str keys whose values may be polynomials
_PAYLOADS_WITH_POLYS = st.dictionaries(_JSON_TEXT, _JSON_VALUES | _POLYS, max_size=6)


def _polys_as_json(payload):
    """`payload` with every polynomial value replaced by its to_json() terms."""
    return {k: v.to_json() if isinstance(v, polyops.MultiPoly) else v for k, v in payload.items()}


@settings(max_examples=200, deadline=None)
@given(_PAYLOADS_WITH_POLYS)
def test_json_writer_writes_a_polynomial_as_json_dumps_writes_its_terms(payload):
    assert cli._json_text(payload) == json.dumps(_polys_as_json(payload), indent=2)


def test_json_writer_polynomial_edge_cases():
    zero, constant = polyops.MultiPoly.zero(3), polyops.MultiPoly(0, {(): Fraction(-1, 2)})
    big = polyops.MultiPoly(2, {(1, 0): -(10**30), (0, 2): 7})
    assert cli._json_text({"p": zero}) == '{\n  "p": []\n}'
    assert cli._json_text({"p": constant}) == '{\n  "p": [\n    {\n      "coeff": "-1/2",\n      "exp": []\n    }\n  ]\n}'
    for payload in ({"big": big, "zero": zero}, {"a": [1, {"b": None}], "p": big, "c": constant, "s": "x\ny"}):
        assert cli._json_text(payload) == json.dumps(_polys_as_json(payload), indent=2)


def test_json_writer_refuses_a_polynomial_below_the_top_level_or_bare():
    poly = polyops.MultiPoly(2, {(1, 0): 1})
    for value in (poly, [poly], {"a": [poly]}, {"a": {"b": poly}}, {"p": poly, "q": [poly]}):
        with pytest.raises(TypeError):
            cli._json_text(value)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_json_output_matches_golden(capsys, name):
    code, out = run_cli(capsys, *GOLDEN_CASES[name], "--format", "json")
    assert code == 0
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert json.loads(out) == expected


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_json_output_is_byte_for_byte_json_dumps_with_an_indent(capsys, name):
    # the golden files are compared after json.loads; this pins the whitespace
    code, out = run_cli(capsys, *GOLDEN_CASES[name], "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# (byte count, sha256) of the exact stdout of key and schur polynomials,
# lattice points and faces
PINNED_OUTPUT = {
    ("key", "--lambda", "4,3,2,1,0,0", "--sigma", "[3,6,1,5,2,4]", "--format", "json"):
        (29023, "463bf0be4fbda68a342acd51329e0881120c9117163dcddf166e47e454618cec"),
    ("key", "--lambda", "4,3,2,1,0,0", "--sigma", "[3,6,1,5,2,4]", "--format", "text"):
        (5505, "465062836b304d11bdaac7213c46fabf6653c0ea8cc3c15bef34ddaf2cf00652"),
    ("key", "--lambda", "4,3,2,1,0,0", "--sigma", "[3,6,1,5,2,4]", "--format", "csv"):
        (3581, "e84bed8bfd3576091c9baf67cce64a7dcd34b3d4b3f84e3e6d52e9fdff56c4ce"),
    # degree 8, a power of two: the widest exponent fields for their degree
    ("key", "--lambda", "4,2,1,1", "--sigma", "[3,4,2,1]", "--method", "both", "--format", "json"):
        (3264, "0832152ea83be0125e911d40df76ebeee47ddd695b7f6e8ba31fabad32d6a659"),
    ("schur", "--lambda", "4,2,1", "--mu", "2,1", "--n", "3", "--format", "text"):
        (195, "f6b62dcd96e80983975d0137e198f26e163a88449d2fff91817061535c166fd5"),
    ("schur", "--lambda", "4,2,1", "--mu", "2,1", "--n", "3", "--format", "json"):
        (1436, "8e4065e770b206ad2feb8f02a57dadb2f64b62882b9b6754731dc38bb9e8873d"),
    ("schur", "--lambda", "4,2,1", "--mu", "2,1", "--n", "3", "--format", "csv"):
        (146, "b594a0aa501844dfddf419292a979c559432fb00faac00534dc41ba724b02a4d"),
    # each record is its value's to_json() with the command's keys after it
    ("points", "--lambda", "3,1", "--mu", "1", "--n", "2", "--format", "json"):
        (1504, "07330bff389dc61daabf80c19d2f2f82dbcc94a45f4968e2a8033321addfccb3"),
    ("points", "--lambda", "2,1,0", "--k", "2", "--format", "json"):
        (6439, "36c199b0135a84de96b03fb36ba1a90261a9a723ed0dca431bc4ef2d4e286468"),
    ("faces", "--n", "3", "--format", "json"):
        (1368, "2f3b8a765c83dd0288a68e494fb34b52cd36cc945a3df44d6a9c8476d68c7a43"),
}


@pytest.mark.parametrize("argv", sorted(PINNED_OUTPUT))
def test_polynomial_output_is_pinned_byte_for_byte(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == PINNED_OUTPUT[argv]


def test_key_both_reports_agreement(capsys):
    code, out = run_cli(
        capsys, "key", "--lambda", "2,1,0,0", "--sigma", "[2,4,3,1]",
        "--method", "both", "--format", "json",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["methods_agree"] is True
    assert payload["term_count"] == 9
    assert payload["at_ones"] == "9"


def test_faces_output(capsys):
    code, out = run_cli(capsys, "faces", "--n", "4", "--sigma", "[1,3,4,2]", "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 3
    assert all(r["word"] == [3, 2] for r in records)
    assert all(r["type"] == [1, 3, 4, 2] for r in records)


def test_points_count_schema(capsys):
    code, out = run_cli(
        capsys, "points", "--lambda", "2,1,0,0", "--k", "2", "--count-only", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 2
    assert isinstance(payload["count"], str)
    assert payload["count"] == str(int(payload["count"]))


def test_ehrhart_text_output(capsys):
    code, out = run_cli(capsys, "ehrhart", "--object", "gt", "--lambda", "1,0")
    assert code == 0
    assert "k + 1" in out


def test_scan_exit_zero(capsys):
    code, out = run_cli(
        capsys, "scan", "--family", "skew_gt", "--ranges", "max_shape=2,1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == []
    assert payload["verification_failures"] == []


def test_verify_all_green(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "weyl", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_usage_errors_exit_one(capsys):
    assert cli.main(["kostka", "--lambda", "2,1"]) == 1  # missing --mu
    capsys.readouterr()
    assert cli.main(["nonsense"]) == 1
    capsys.readouterr()
    assert cli.main(["key", "--lambda", "1,2", "--sigma", "[1,2]"]) == 1  # not a partition
    capsys.readouterr()
    # an ehrhart object missing the option it is built from
    for argv, message in [
        (["--object", "skew-weight", "--lambda", "2,1", "--mu", "1"], "skew-weight needs --nu"),
        (["--object", "key-complex", "--lambda", "2,1,0"], "key-complex needs --sigma"),
        (["--object", "kogan-face", "--lambda", "2,1,0"], 'kogan-face needs --cells "i,j;i,j;..."'),
    ]:
        assert cli.main(["ehrhart", *argv]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out = run_cli(
        capsys, "kostka", "--lambda", "2,1", "--mu", "1,1,1",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["count"] == "2"


def test_no_module_reads_the_environment():
    # every input is on the command line: an environment variable is a
    # hidden one, which could hand `verify` a cache in place of a recount
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {node.attr} if isinstance(node, ast.Attribute) else set()
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            found += [f"{path.name}:{node.lineno} {name}" for name in sorted(names & readers)]
    assert found == []


def test_the_package_opens_only_the_out_file_and_its_own_data():
    # a file the package reads could hand back a stored result in place of a
    # count: open() is only --out's writer, cli._emit, and a method named
    # open or read_*/write_* only verify._load, which reads the bundled data
    methods = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}

    def calls(node, where):
        for child in ast.iter_child_nodes(node):
            inner = f"{where}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id == "open":
                    yield "open()", inner
                elif isinstance(func, ast.Attribute) and func.attr in methods:
                    yield f".{func.attr}()", inner
            yield from calls(child, inner)

    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        found += calls(ast.parse(path.read_text(), str(path)), path.stem)
    assert sorted(found) == [(".open()", "verify._load"), ("open()", "cli._emit")]


# The definitions of the package that no command reaches, each with a test
# that uses it as a reference or checks the paper claim it computes.
UNREACHED = {
    "combinat.all_reduced_words": "test_combinat.py::test_all_reduced_words, test_acceptance.py::test_c11b_word_independence_s4",
    "combinat.descents": "all_reduced_words' recursion",
    "ehrhart.UniPoly.coeffs": "test_acceptance.py::test_c08_faulhaber_counterexample, test_ehrhart.py::test_interpolate_matches_lagrange",
    "ehrhart.UniPoly.is_zero": "test_ehrhart.py::test_unipoly_basics",
    "ehrhart.faulhaber_face": "test_acceptance.py::test_c08_faulhaber_counterexample",
    "ehrhart.faulhaber_sum": "test_acceptance.py::test_c08_faulhaber_counterexample",
    "gtcore.Value.__reduce__": "test_gtcore.py::test_value_types_are_immutable_and_compare_by_class_and_fields",
    "gtcore._Pattern.flat": "test_lattice.py::test_enumeration_canonical_order",
    "gtcore.validate_pattern": "test_gtcore.py::test_validate_pattern, test_lattice.py::test_all_points_valid_and_counted",
    "polyops.MultiPoly.coefficient": "test_polyops.py::test_kostka_values",
    "polyops.MultiPoly.is_zero": "test_polyops.py::test_pi_preserves_degree_of_homogeneous",
    "polyops.divided_difference": "test_acceptance.py::test_c11a_operator_laws_random",
    "verify.kempf_fixture_faces": "test_acceptance.py::test_c06_kogan_census",
}


def test_every_definition_is_reached_from_a_command_or_named_as_a_reference():
    """Every module-level definition and method of the package is reached
    from a command, or is one of UNREACHED.

    Names are followed from cli.main and from every module-level statement
    (tables such as verify.SUITES) through the bodies of the definitions
    they reach; an import is not a use, so gtkey/__init__'s exports reach
    nothing.  A use matches by name: x.attr reaches every method and
    module-level definition called attr, except that Class.attr reaches
    only the attribute of that class or a base.  Matching by name
    over-approximates: a same-named attribute counts as a use, so the walk
    can miss dead code but never flags live code (the package reaches no
    definition through a string, as getattr could).  A method is reached
    with its class when Python calls it (__init__, __eq__, ...), but not
    the copy and pickle hooks, which the package never calls."""
    defs, classes, todo = {}, {}, []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                todo.append(node)
                continue
            defs[f"{path.stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, []).append(f"{path.stem}.{node.name}")
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{path.stem}.{node.name}.{item.name}"] = item
    hooks = {"__reduce__", "__reduce_ex__", "__getstate__", "__setstate__", "__copy__", "__deepcopy__"}
    owner = lambda q: q.rsplit(".", 1)[0]
    short = lambda q: q.rsplit(".", 1)[1]
    named = {}  # each name with the definitions it can stand for
    for q in defs:
        named.setdefault(short(q), []).append(q)

    def lineage(cls):  # the class and its bases in the package
        yield cls
        for base in defs[cls].bases:
            for c in classes.get(getattr(base, "id", None), ()):
                yield from lineage(c)

    reached = set()

    def reach(qs):
        for q in qs:
            if q not in reached:
                reached.add(q)
                todo.append(defs[q])
                if isinstance(defs[q], ast.ClassDef):
                    reach(m for m in defs if owner(m) == q and short(m).startswith("__") and short(m) not in hooks)

    reach(["cli.main"])
    while todo:
        node = todo.pop()
        if isinstance(node, ast.ClassDef):  # its methods are followed on their own
            parts = node.bases + node.keywords + node.decorator_list
            parts += [s for s in node.body if not isinstance(s, ast.FunctionDef)]
        else:
            parts = [node]
        for sub in (sub for part in parts for sub in ast.walk(part)):
            if isinstance(sub, ast.Name):
                reach(q for q in named.get(sub.id, ()) if q.count(".") == 1)
            elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) in classes:
                scope = {c for cls in classes[sub.value.id] for c in lineage(cls)}
                reach(q for q in named.get(sub.attr, ()) if owner(q) in scope)
            elif isinstance(sub, ast.Attribute):
                reach(named.get(sub.attr, ()))
    unreached = {q for q in defs if q not in reached and (q.count(".") == 1 or owner(q) in reached)}
    assert unreached == set(UNREACHED)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every gtkey process pays for its imports, and dataclasses with the
    # inspect it pulls in cost about half of the CLI's start; the modules
    # loaded before the import are left out, since site may load typing
    script = "import sys; before = set(sys.modules); import gtkey.cli; print(*sorted(set(sys.modules) - before))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    added = set(run.stdout.split())
    assert "gtkey.cli" in added and not {"dataclasses", "inspect"} & added


def test_csv_output(capsys):
    code, out = run_cli(capsys, "points", "--lambda", "1,0", "--k", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "entries_top_down,weight,monomial"
    assert len(lines) == 4  # header + 3 points


def test_verification_failure_exits_two(capsys):
    # an undersized degree bound breaks interpolation; the result is flagged
    # and the documented violation exit code is returned
    code, out = run_cli(
        capsys, "ehrhart", "--object", "gt", "--lambda", "3,2,1",
        "--degree-bound", "1", "--format", "json",
    )
    assert code == 2
    assert json.loads(out)["valid"] is False


def test_key_from_word(capsys):
    code, out = run_cli(
        capsys, "key", "--lambda", "2,1,0,0", "--word", "2,3,2,1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == [2, 4, 3, 1]
    assert payload["term_count"] == 9
    assert cli.main(["key", "--lambda", "2,1", "--word", "1,1"]) == 1  # not reduced
    capsys.readouterr()
    assert cli.main(["key", "--lambda", "2,1"]) == 1  # neither sigma nor word
    capsys.readouterr()


def test_skew_kostka_cli(capsys):
    code, out = run_cli(
        capsys, "kostka", "--lambda", "2,2,1", "--mu", "1", "--nu", "2,1,1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert int(payload["count"]) >= 0
    assert payload["spec"]["nu"] == [2, 1, 1]


def test_points_n_pads_or_rejects(capsys):
    assert cli.main(["points", "--lambda", "3,2,1", "--n", "2", "--count-only"]) == 1
    assert "partition (3, 2, 1) has more than 2 nonzero parts" in capsys.readouterr().err
    code, out = run_cli(capsys, "points", "--lambda", "2,1,0", "--n", "2", "--count-only")
    assert code == 0
    assert out.strip() == "2"  # GT(2,1)
    code, out = run_cli(capsys, "points", "--lambda", "2,1", "--nu", "2,1,0", "--count-only")
    assert code == 0
    assert out.strip() == "1"


def test_points_sigma_count_only_does_not_enumerate(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("count-only must not list the points")

    monkeypatch.setattr(kogan, "complex_points", refuse)
    # sigma = w_0 gives the identity type, whose only face is the empty one
    code, out = run_cli(
        capsys, "points", "--lambda", "3,2,1,0,0", "--sigma", "[5,4,3,2,1]", "--k", "3", "--count-only"
    )
    assert code == 0
    assert out.strip() == str(lattice.count_points(lattice.gt_spec((3, 2, 1, 0, 0)), 3))


def test_points_sigma_count_is_the_listed_length(capsys):
    code, out = run_cli(
        capsys, "points", "--lambda", "2,1,0,0", "--sigma", "[2,4,3,1]", "--k", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert int(payload["count"]) == len(payload["points"]) == kogan.complex_count((2, 1, 0, 0), (2, 4, 3, 1), 2)


def test_assertion_failure_exits_two_without_traceback(capsys, monkeypatch):
    def broken(lam, sigma):
        raise AssertionError("key polynomial produced a non-natural coefficient")

    monkeypatch.setattr(polyops, "key_via_operators", broken)
    code = cli.main(["key", "--lambda", "2,1,0", "--sigma", "[3,1,2]", "--method", "operators"])
    err = capsys.readouterr().err
    assert code == cli.VIOLATION == 2
    assert err == "error: key polynomial produced a non-natural coefficient\n"
    assert "Traceback" not in err


def test_planted_fraction_in_operators_exits_two(capsys, monkeypatch):
    real = polyops.pi_op
    monkeypatch.setattr(polyops, "pi_op", lambda f, i: real(f, i) * Fraction(1, 2))
    code = cli.main(["key", "--lambda", "2,1,0", "--sigma", "[3,1,2]", "--method", "operators"])
    captured = capsys.readouterr()
    assert code == cli.VIOLATION == 2
    assert captured.err == "error: key polynomial produced a non-natural coefficient\n"
    assert captured.out == ""


@pytest.mark.parametrize("option", [["--nu", "1,1,1"], ["--mu", "1"]])
def test_points_sigma_rejects_nu_and_mu(capsys, option):
    argv = ["points", "--lambda", "2,1,0", "--sigma", "[3,2,1]", *option, "--count-only"]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: points --sigma")
    assert "Traceback" not in captured.err


FACES_N3_CSV = (
    "n,cells,word,reduced,type\r\n"
    '3,,,True,"[1,2,3]"\r\n'
    '3,"1,1",2,True,"[1,3,2]"\r\n'
    '3,"2,2",2,True,"[1,3,2]"\r\n'
    '3,"2,1",1,True,"[2,1,3]"\r\n'
    '3,"1,1;2,1","2,1",True,"[2,3,1]"\r\n'
    '3,"2,1;2,2","1,2",True,"[3,1,2]"\r\n'
    '3,"1,1;2,1;2,2","2,1,2",True,"[3,2,1]"\r\n'
)

FACES_N3_TEXT = """7 reduced Kogan faces
cells [-] word (-) type [1,2,3]
cells [1,1] word (2) type [1,3,2]
cells [2,2] word (2) type [1,3,2]
cells [2,1] word (1) type [2,1,3]
cells [1,1;2,1] word (2,1) type [2,3,1]
cells [2,1;2,2] word (1,2) type [3,1,2]
cells [1,1;2,1;2,2] word (2,1,2) type [3,2,1]
"""


def test_faces_csv_and_text_output(capsys):
    assert run_cli(capsys, "faces", "--n", "3", "--format", "csv") == (0, FACES_N3_CSV)
    assert run_cli(capsys, "faces", "--n", "3") == (0, FACES_N3_TEXT)
    assert run_cli(capsys, "faces", "--n", "3", "--sigma", "[2,3,1]", "--format", "csv") == (
        0, 'n,cells,word,reduced,type\r\n3,"1,1;2,1","2,1",True,"[2,3,1]"\r\n'
    )


def test_faces_n0_lists_the_empty_face_of_the_empty_type(capsys):
    code, out = run_cli(capsys, "faces", "--n", "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"n": 0, "cells": [], "word": [], "reduced": True, "type": []}]


@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_out_path_exits_one(tmp_path, capsys, where):
    path = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    assert cli.main(["kostka", "--lambda", "2,1", "--mu", "1,1,1", "--out", str(path)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --out {path}: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()


def test_points_sigma_rejects_a_different_n(capsys):
    argv = ["points", "--lambda", "2,1,0", "--sigma", "[3,2,1]", "--count-only"]
    assert run_cli(capsys, *argv, "--n", "3") == (0, "8\n")
    assert cli.main([*argv, "--n", "4"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: points --sigma: --n 4 differs from the size 3 of sigma\n"


def test_scan_rejects_range_keys_its_family_does_not_read(capsys):
    argv = ["scan", "--family", "key_complex", "--ranges", "n=2;max_prt=1"]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scan key_complex: unknown range key(s) max_prt; it reads n, max_part\n"
    code, out = run_cli(capsys, "scan", "--family", "key_complex", "--ranges", "n=2;max_part=1", "--format", "json")
    assert code == 0
    assert json.loads(out)["checked"] == 6


@pytest.mark.parametrize("argv", [
    ["points", "--lambda", "2,1,0", "--n", "-1", "--count-only"],
    ["points", "--lambda", "2,1,0", "--n", "0", "--count-only"],
    ["points", "--lambda", "2,1", "--mu", "1", "--n", "0", "--count-only"],
    ["ehrhart", "--object", "skew", "--lambda", "2,1", "--n", "0"],
    ["ehrhart", "--object", "gt", "--lambda", "2,1", "--n", "-2"],
    ["schur", "--lambda", "2,1", "--n", "0"],
])
def test_n_below_one_exits_one(capsys, argv):
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --n: must be at least 1" in captured.err
    assert "Traceback" not in captured.err


def test_faces_n_below_zero_exits_one(capsys):
    assert cli.main(["faces", "--n", "-1"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument --n: must be at least 0, not -1\n")
    assert run_cli(capsys, "faces", "--n", "0") == (0, "1 reduced Kogan faces\ncells [-] word (-) type []\n")


@pytest.mark.parametrize("argv", [
    ["points", "--lambda", "", "--count-only"],
    ["points", "--lambda", ""],
    ["schur", "--lambda", ""],
    ["ehrhart", "--object", "gt", "--lambda", ""],
])
def test_empty_partition_exits_one(capsys, argv):
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a GT polytope needs a top row with at least one entry\n"


def test_scan_takes_a_one_part_max_shape(capsys):
    code, out = run_cli(capsys, "scan", "--family", "skew_gt", "--ranges", "max_shape=3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == 9  # lambda = (1), (2), (3) over each mu inside it, n = 1
    assert {tuple(r["object"]["lambda"]) for r in payload["results"]} == {(1,), (2,), (3,)}


@pytest.mark.parametrize("family, ranges", [
    ("skew_gt", "max_shape=0,0"),
    ("skew_gt", "max_shape=0"),
    ("skew_kostka", "max_shape=0,0"),
    ("stretched_kostka", "max_size=0"),
    ("stretched_kostka", "max_rows=0"),
])
def test_scan_without_objects_exits_one(capsys, family, ranges):
    assert cli.main(["scan", "--family", family, "--ranges", ranges]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: scan {family}: ranges ")
    assert captured.err.endswith(" give no objects\n")


README_COMMANDS = [
    line for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    if line.startswith("gtkey ")
]


def test_readme_lists_commands():
    assert len(README_COMMANDS) >= 19


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_exits_zero(capsys, line):
    assert cli.main(shlex.split(line)[1:]) == 0, line
    assert capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("line", [line for line in README_COMMANDS if line.split()[1] == "verify"])
def test_a_second_verify_run_prints_what_the_first_printed(tmp_path, capsys, monkeypatch, line, fmt):
    # verify recounts every time and stores nothing: no file appears in the
    # working directory
    monkeypatch.chdir(tmp_path)
    argv = [*shlex.split(line)[1:], "--format", fmt]
    first = run_cli(capsys, *argv)
    assert first[0] == 0 and first[1]
    assert run_cli(capsys, *argv) == first
    assert list(tmp_path.iterdir()) == []


# every README line that fits a polynomial, and two whose objects name their
# keys in another order: a kogan_face (cells) and a skew_weight (nu)
COUNTING_COMMANDS = list(dict.fromkeys([
    *(line for line in README_COMMANDS if line.split()[1] in ("ehrhart", "scan")),
    'gtkey ehrhart --object kogan-face --lambda 4,3,3,2 --cells "2,2;3,1;3,2;3,3"',
    'gtkey scan --family skew_kostka --ranges "max_shape=2,1;n=2"',
]))


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("line", COUNTING_COMMANDS)
def test_a_second_counting_run_prints_what_the_first_printed(tmp_path, capsys, monkeypatch, line, fmt):
    # every fit is counted afresh: the second run in one process meets the
    # lattice and Kogan memos warm, prints the same, and stores nothing
    monkeypatch.chdir(tmp_path)
    argv = [*shlex.split(line)[1:], "--format", fmt]
    first = run_cli(capsys, *argv)
    assert first[0] == 0 and first[1]
    assert run_cli(capsys, *argv) == first
    assert list(tmp_path.iterdir()) == []


# JSON fits as an earlier version wrote them, one per ehrhart object and a gt
# under --degree-bound: the command line still parses to the same object, and
# its counts fit to the same polynomial, in the same form
EARLIER_FITS = {
    "gtkey ehrhart --object gt --lambda 3,1,0":
        '{"degree_bound": 3, "empty": false, "nonneg": true, "object": {"family": "gt", "lambda": [3, 1, 0]}, '
        '"poly": ["1", "9/2", "13/2", "3"], "poly_str": "3*k^3 + 13/2*k^2 + 9/2*k + 1", "samples": [[0, "1"], '
        '[1, "15"], [2, "60"], [3, "154"]], "valid": true, "verify_points": [[1, "15", true], [-1, "0", true], '
        '[-2, "-6", true]]}',
    "gtkey ehrhart --object gt --lambda 3,1,0 --degree-bound 5":
        '{"degree_bound": 5, "empty": false, "nonneg": true, "object": {"family": "gt", "lambda": [3, 1, 0]}, '
        '"poly": ["1", "9/2", "13/2", "3"], "poly_str": "3*k^3 + 13/2*k^2 + 9/2*k + 1", "samples": [[0, "1"], '
        '[1, "15"], [2, "60"], [3, "154"], [4, "315"], [5, "561"]], "valid": true, "verify_points": '
        '[[1, "15", true], [-1, "0", true], [-2, "-6", true]]}',
    "gtkey ehrhart --object skew --lambda 3,2,1 --mu 2,1":
        '{"degree_bound": 6, "empty": false, "nonneg": true, "object": {"family": "skew", "lambda": [3, 2, 1], '
        '"mu": [2, 1, 0], "n": 3}, "poly": ["1", "9/2", "33/4", "63/8", "33/8", "9/8", "1/8"], "poly_str": '
        '"1/8*k^6 + 9/8*k^5 + 33/8*k^4 + 63/8*k^3 + 33/4*k^2 + 9/2*k + 1", "samples": [[0, "1"], [1, "27"], '
        '[2, "216"], [3, "1000"], [4, "3375"], [5, "9261"], [6, "21952"]], "valid": true, "verify_points": '
        '[[1, "27", true], [-1, "0", true], [-2, "0", true]]}',
    "gtkey ehrhart --object gt-weight --lambda 3,2,1,0 --mu 2,2,1,1":
        '{"degree_bound": 3, "empty": false, "nonneg": true, "object": {"family": "gt_weight", "lambda": '
        '[3, 2, 1, 0], "mu": [2, 2, 1, 1]}, "poly": ["1", "11/6", "1", "1/6"], "poly_str": '
        '"1/6*k^3 + k^2 + 11/6*k + 1", "samples": [[0, "1"], [1, "4"], [2, "10"], [3, "20"]], "valid": true, '
        '"verify_points": [[4, "35", true], [5, "56", true]]}',
    "gtkey ehrhart --object skew-weight --lambda 3,3,1 --mu 2 --nu 2,2,1":
        '{"degree_bound": 2, "empty": false, "nonneg": true, "object": {"family": "skew_weight", "lambda": '
        '[3, 3, 1], "mu": [2, 0, 0], "n": 3, "nu": [2, 2, 1]}, "poly": ["1", "3/2", "1/2"], "poly_str": '
        '"1/2*k^2 + 3/2*k + 1", "samples": [[0, "1"], [1, "3"], [2, "6"]], "valid": true, "verify_points": '
        '[[3, "10", true], [4, "15", true]]}',
    'gtkey ehrhart --object key-complex --lambda 2,1,0,0 --sigma "[2,4,3,1]"':
        '{"degree_bound": 3, "empty": false, "nonneg": true, "object": {"family": "key_complex", "lambda": '
        '[2, 1, 0, 0], "sigma": [2, 4, 3, 1]}, "poly": ["1", "10/3", "7/2", "7/6"], "poly_str": '
        '"7/6*k^3 + 7/2*k^2 + 10/3*k + 1", "samples": [[0, "1"], [1, "9"], [2, "31"], [3, "74"]], "valid": true, '
        '"verify_points": [[4, "145", true], [5, "251", true]]}',
    'gtkey ehrhart --object kogan-face --lambda 4,3,3,2 --cells "2,2;3,1;3,2;3,3"':
        '{"degree_bound": 2, "empty": false, "nonneg": true, "object": {"cells": [[2, 2], [3, 1], [3, 2], [3, 3]], '
        '"family": "kogan_face", "lambda": [4, 3, 3, 2]}, "poly": ["1", "3/2", "1/2"], "poly_str": '
        '"1/2*k^2 + 3/2*k + 1", "samples": [[0, "1"], [1, "3"], [2, "6"]], "valid": true, "verify_points": '
        '[[3, "10", true], [4, "15", true]]}',
}


@pytest.mark.parametrize("line", EARLIER_FITS)
def test_ehrhart_prints_the_fit_an_earlier_version_wrote(capsys, line):
    code, out = run_cli(capsys, *shlex.split(line)[1:], "--format", "json")
    assert code == 0
    assert json.dumps(json.loads(out), sort_keys=True) == EARLIER_FITS[line]


# the fit of the key complex of (2,1,0), [2,3,1] as a cache line once stored
# it, with k added to every sample and check and the polynomial refitted:
# 3/2*k^2 + 7/2*k + 1 in place of the true 3/2*k^2 + 5/2*k + 1
_FORGED_LINE = (
    '{"degree_bound": 2, "empty": false, "nonneg": true, "object": {"family": "key_complex", "lambda": [2, 1, 0], '
    '"sigma": [2, 3, 1]}, "poly": ["1", "7/2", "3/2"], "poly_str": "3/2*k^2 + 7/2*k + 1", "samples": [[0, "1"], '
    '[1, "6"], [2, "14"]], "valid": true, "verify_points": [[3, "25", true], [4, "39", true]]}\n'
)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv", [
    ["ehrhart", "--object", "key-complex", "--lambda", "2,1,0", "--sigma", "[2,3,1]"],
    ["scan", "--family", "key_complex", "--ranges", "n=3;max_part=2"],
], ids=["ehrhart", "scan"])
def test_a_forged_fit_beside_the_command_changes_nothing(tmp_path, capsys, monkeypatch, argv, fmt):
    forged, clean = tmp_path / "forged", tmp_path / "clean"
    forged.mkdir()
    clean.mkdir()
    (forged / "c.jsonl").write_text(_FORGED_LINE)
    monkeypatch.chdir(clean)
    expected = run_cli(capsys, *argv, "--format", fmt)
    assert expected[0] == 0 and expected[1]
    monkeypatch.chdir(forged)
    assert run_cli(capsys, *argv, "--format", fmt) == expected
    assert [p.name for p in forged.iterdir()] == ["c.jsonl"]
    assert (forged / "c.jsonl").read_text() == _FORGED_LINE
    assert list(clean.iterdir()) == []


def test_weights_need_not_be_partitions(capsys):
    assert run_cli(capsys, "points", "--lambda", "2,1,0", "--nu", "0,1,2", "--count-only") == (0, "1\n")
    code, out = run_cli(capsys, "scan", "--family", "skew_kostka", "--ranges", "max_shape=2,1;n=2", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == 27
    for result in results:
        obj = result["object"]
        argv = ["ehrhart", "--object", "skew-weight", "--n", str(obj["n"]), "--format", "json"]
        for option, key in [("--lambda", "lambda"), ("--mu", "mu"), ("--nu", "nu")]:
            argv += [option, ",".join(str(x) for x in obj[key])]
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        assert json.loads(out)["poly"] == result["poly"], argv


@pytest.mark.parametrize("ranges", [
    ("skew_gt", "n=3,2"),
    ("skew_kostka", "max_shape=1;n=-1"),
    ("stretched_kostka", "max_size=2,3"),
    ("stretched_kostka", "max_rows=3,2"),
    ("stretched_kostka", "max_size=1;max_rows=-1"),
    ("key_complex", "max_part=3,2"),
    ("key_complex", "n=0"),
])
def test_scan_rejects_integer_ranges_out_of_their_floor(capsys, ranges):
    family, text = ranges
    assert cli.main(["scan", "--family", family, "--ranges", text]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: scan {family}: ")
    assert "Traceback" not in captured.err


def _cli_count(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, argv
    payload = json.loads(out)
    if "count" in payload:
        return int(payload["count"])
    # ehrhart: the k = 1 count, a sample or, when the degree bound is 0, a check
    return int(dict(payload["samples"] + [point[:2] for point in payload["verify_points"]])[1])


def test_kostka_points_and_ehrhart_agree_on_every_weight(capsys):
    # lambda inside (2,1), written with and without its zeros, so that nu
    # of 1-4 parts is both longer and shorter than lambda
    shapes = {lam[:length] for lam in partitions_in_box((2, 1)) for length in (len(lam), sum(map(bool, lam)))}
    for lam in sorted(shapes - {()}):
        text = ",".join(map(str, lam))
        for parts in range(1, 5):
            for nu in compositions(sum(lam), parts):
                weight = ",".join(map(str, nu))
                counts = {
                    _cli_count(capsys, "kostka", "--lambda", text, "--mu", weight),
                    _cli_count(capsys, "points", "--lambda", text, "--nu", weight, "--count-only"),
                    _cli_count(capsys, "ehrhart", "--object", "gt-weight", "--lambda", text, "--mu", weight),
                }
                assert len(counts) == 1, (lam, nu, counts)
            if not any(lam):
                continue
            for nu in compositions(sum(lam) - 1, parts):
                weight = ",".join(map(str, nu))
                counts = {
                    _cli_count(capsys, "kostka", "--lambda", text, "--mu", "1", "--nu", weight),
                    _cli_count(capsys, "points", "--lambda", text, "--mu", "1", "--nu", weight, "--count-only"),
                    _cli_count(capsys, "ehrhart", "--object", "skew-weight", "--lambda", text, "--mu", "1", "--nu", weight),
                }
                assert len(counts) == 1, (lam, nu, counts)
    assert cli.main(["kostka", "--lambda", "", "--mu", ""]) == cli.USAGE_ERROR
    kostka_err = capsys.readouterr().err
    assert cli.main(["points", "--lambda", ""]) == cli.USAGE_ERROR
    assert kostka_err == capsys.readouterr().err == "error: a GT polytope needs a top row with at least one entry\n"


# one small valid argv per subcommand, --object and --family
SWEEP_ARGVS = [
    ["key", "--lambda", "2,1", "--sigma", "[2,1]", "--method", "both", "--format", "json"],
    ["key", "--lambda", "2,1", "--word", "1"],
    ["schur", "--lambda", "2,1", "--mu", "1", "--n", "2"],
    ["kostka", "--lambda", "2,1", "--mu", "1,1,1", "--out", "kostka.txt"],
    ["kostka", "--lambda", "2,1", "--mu", "1", "--nu", "1,1"],
    ["faces", "--n", "3", "--sigma", "[1,3,2]"],
    ["points", "--lambda", "2,1", "--mu", "1", "--nu", "1,1", "--n", "2", "--k", "1"],
    ["points", "--lambda", "2,1,0", "--sigma", "[2,1,3]", "--count-only"],
    ["ehrhart", "--object", "gt", "--lambda", "2,1", "--degree-bound", "3"],
    ["ehrhart", "--object", "skew", "--lambda", "2,1", "--mu", "1", "--n", "2"],
    ["ehrhart", "--object", "gt-weight", "--lambda", "2,1", "--mu", "1,1,1"],
    ["ehrhart", "--object", "skew-weight", "--lambda", "2,1", "--mu", "1", "--nu", "1,1", "--n", "2"],
    ["ehrhart", "--object", "key-complex", "--lambda", "2,1", "--sigma", "[2,1]"],
    ["ehrhart", "--object", "kogan-face", "--lambda", "2,1,0", "--cells", "1,1"],
    ["scan", "--family", "skew_gt", "--ranges", "max_shape=1;n=1"],
    ["scan", "--family", "skew_kostka", "--ranges", "max_shape=1;n=1"],
    ["scan", "--family", "stretched_kostka", "--ranges", "max_size=1;max_rows=1"],
    ["scan", "--family", "key_complex", "--ranges", "n=1;max_part=1"],
    ["verify", "--suite", "example-gtkey"],
]
MALFORMED = ["", "x", "-1", "1,,2", "2,3", "3,2", "[1,1]"]


def _malformed(argv):
    for i, option in enumerate(argv[:-1]):
        if not option.startswith("--") or argv[i + 1].startswith("--"):
            continue
        # an empty --ranges is the default grid, valid and slow
        values = [v for v in MALFORMED if v or option != "--ranges"]
        if option == "--ranges":  # each key in turn set to a bad value
            pairs = [chunk.split("=") for chunk in argv[i + 1].split(";")]
            values += [";".join(f"{k}={bad if k == key else v}" for k, v in pairs) for key, _ in pairs for bad in ("3,2", "-1")]
        for value in values:
            yield argv[: i + 1] + [value] + argv[i + 2 :]


@pytest.mark.parametrize("argv", SWEEP_ARGVS, ids=lambda argv: "-".join(argv[:3]))
def test_malformed_values_exit_without_a_traceback(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # --out values are file names
    assert cli.main(argv) == 0
    for bad in _malformed(argv):
        assert cli.main(bad) in (0, 1, 2), bad
    capsys.readouterr()


EXAMPLE_CHECKS = [
    ("three reduced faces of the key type", "found 3 faces"),
    ("all faces share the expected word", ""),
    ("face type matches", ""),
    ("nine lattice points in the key complex", "found 9 points"),
    ("point monomials match", ""),
    ("face memberships match", ""),
    ("operator route equals fixture", ""),
    ("face route equals fixture", ""),
]
# text and CSV output of one small argv per subcommand, byte for byte
TEXT_AND_CSV = {
    "key": (
        ["key", "--lambda", "2,1,0", "--sigma", "[3,1,2]", "--method", "both"],
        "key polynomial, lambda=[2, 1, 0] sigma=[3, 1, 2]\nmethods agree: True\n"
        "z1^2*z2 + z1^2*z3 + z1*z2^2 + z1*z2*z3 + z2^2*z3\n5 distinct monomials, value at ones 5\n",
        "coeff,exp\r\n1,2 1 0\r\n1,2 0 1\r\n1,1 2 0\r\n1,1 1 1\r\n1,0 2 1\r\n",
    ),
    "schur": (
        ["schur", "--lambda", "2,1", "--mu", "1", "--n", "2"],
        "z1^2 + 2*z1*z2 + z2^2\nvalue at ones 4\n",
        "coeff,exp\r\n1,2 0\r\n2,1 1\r\n1,0 2\r\n",
    ),
    "kostka": (
        ["kostka", "--lambda", "2,1", "--mu", "1,1,1"],
        "2\n",
        'spec,count\r\n"{""lambda"": [2, 1], ""mu"": [1, 1, 1]}",2\r\n',
    ),
    "points-count": (
        ["points", "--lambda", "2,1,0", "--k", "2", "--count-only"],
        "27\n",
        'spec,k,count\r\n"{""kind"": ""triangular"", ""top"": [2, 1, 0], ""n"": 3}",2,27\r\n',
    ),
    "points-list": (
        ["points", "--lambda", "2,1", "--mu", "1", "--nu", "1,1", "--n", "2"],
        "2 lattice points\n2 1\n 1 1\n  1 0\nweight (1, 1) monomial z1*z2\n"
        "2 1\n 2 0\n  1 0\nweight (1, 1) monomial z1*z2\n",
        "entries_top_down,weight,monomial\r\n2 1 1 1 1 0,1 1,z1*z2\r\n2 1 2 0 1 0,1 1,z1*z2\r\n",
    ),
    "points-sigma": (
        ["points", "--lambda", "2,1,0", "--sigma", "[2,1,3]"],
        "2 lattice points\n2 1 0\n 2 1\n  1\nweight (1, 2, 0) monomial z1*z2^2\n"
        "2 1 0\n 2 1\n  2\nweight (2, 1, 0) monomial z1^2*z2\n",
        "entries_top_down,weight,monomial\r\n2 1 0 2 1 1,1 2 0,z1*z2^2\r\n2 1 0 2 1 2,2 1 0,z1^2*z2\r\n",
    ),
    "ehrhart": (
        ["ehrhart", "--object", "skew", "--lambda", "2,1", "--mu", "1"],
        'object {"family": "skew", "lambda": [2, 1], "mu": [1, 0], "n": 2}\npolynomial k^2 + 2*k + 1\n'
        "coefficients (low degree first) ['1', '2', '1']\nnonneg True  valid True  empty False\n",
        "object,degree_bound,coeffs,nonneg,valid,empty\r\n"
        '"{""family"": ""skew"", ""lambda"": [2, 1], ""mu"": [1, 0], ""n"": 2}",2,1 2 1,True,True,False\r\n',
    ),
    "scan": (
        ["scan", "--family", "key_complex", "--ranges", "n=2;max_part=1"],
        'family key_complex ranges {"n": 2, "max_part": 1}\nchecked 6 objects\nviolations 0  verification failures 0\n',
        "object,coeffs,nonneg,valid,empty\r\n" + "".join(
            f'"{{""family"": ""key_complex"", ""lambda"": [{lam}], ""sigma"": [{sigma}]}}",{coeffs},True,True,False\r\n'
            for lam, sigma, coeffs in [
                ("0, 0", "1, 2", "1"), ("0, 0", "2, 1", "1"), ("1, 0", "1, 2", "1"),
                ("1, 0", "2, 1", "1 1"), ("1, 1", "1, 2", "1"), ("1, 1", "2, 1", "1"),
            ]
        ),
    ),
    "verify": (
        ["verify", "--suite", "example-gtkey"],
        "".join(f"[ok] example-gtkey: {check}\n" for check, _ in EXAMPLE_CHECKS) + "all checks passed\n",
        "suite,check,ok,detail\r\n" + "".join(f"example-gtkey,{check},True,{detail}\r\n" for check, detail in EXAMPLE_CHECKS),
    ),
}


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("name", sorted(TEXT_AND_CSV))
def test_text_and_csv_output(capsys, name, fmt):
    argv, text, csv_text = TEXT_AND_CSV[name]
    assert run_cli(capsys, *argv, "--format", fmt) == (0, text if fmt == "text" else csv_text)


@pytest.mark.parametrize("argv", [
    ["key", "--lambda", "2,1", "--sigma", "[2,1]"],
    ["schur", "--lambda", "2,1"],
    ["kostka", "--lambda", "2,1", "--mu", "1,1,1"],
    ["faces", "--n", "2"],
    ["points", "--lambda", "2,1", "--count-only"],
    ["verify", "--suite", "weyl"],
    ["ehrhart", "--object", "gt", "--lambda", "2,1,0"],
    ["scan", "--family", "stretched_kostka", "--ranges", "max_size=1;max_rows=1"],
])
def test_cache_is_a_usage_error_where_nothing_reads_it(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--cache", "c.jsonl"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --cache c.jsonl\n")
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("padded, full", [
    (["--object", "gt", "--lambda", "2,1", "--n", "4"], ["--object", "gt", "--lambda", "2,1,0,0"]),
    (
        ["--object", "gt-weight", "--lambda", "2,1", "--mu", "1,1,1", "--n", "4"],
        ["--object", "gt-weight", "--lambda", "2,1,0,0", "--mu", "1,1,1,0"],
    ),
    (
        ["--object", "key-complex", "--lambda", "2,1", "--sigma", "[2,1,3]", "--n", "3"],
        ["--object", "key-complex", "--lambda", "2,1,0", "--sigma", "[2,1,3]"],
    ),
])
def test_ehrhart_reads_n(capsys, padded, full):
    code, out = run_cli(capsys, "ehrhart", *padded, "--format", "json")
    assert code == 0
    assert run_cli(capsys, "ehrhart", *full, "--format", "json") == (0, out)


def test_ehrhart_key_complex_rejects_a_different_n(capsys):
    argv = ["ehrhart", "--object", "key-complex", "--lambda", "2,1", "--sigma", "[2,1]", "--n", "5"]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ehrhart --object key-complex: --n 5 differs from the size 2 of sigma\n"


_UNREAD_VALUES = {"--mu": "1", "--nu": "1,1,1", "--sigma": "[2,1,3]", "--cells": "1,1"}


@pytest.mark.parametrize("argv, option", [
    pytest.param(argv, option, id=f"{argv[2]}{option}")
    for argv in SWEEP_ARGVS if argv[0] == "ehrhart"
    for option in _UNREAD_VALUES if option not in argv
])
def test_ehrhart_rejects_an_option_its_object_does_not_read(capsys, tmp_path, monkeypatch, argv, option):
    # as points --sigma rejects --nu and --mu; the argv without it exits 0
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, option, _UNREAD_VALUES[option]]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ehrhart --object {argv[2]} takes no {option}\n"
    assert cli.main(argv) == 0


@pytest.mark.parametrize("lam", ["2,1", "2,1,0"])
def test_empty_weight_is_the_zero_weight_everywhere(capsys, lam):
    # an empty --nu (or kostka's content --mu) filters to weight 0, which no
    # pattern of lambda or lambda/(1) has
    for argv in [
        ["kostka", "--lambda", lam, "--mu", ""],
        ["points", "--lambda", lam, "--nu", "", "--count-only"],
        ["ehrhart", "--object", "gt-weight", "--lambda", lam, "--mu", ""],
        ["kostka", "--lambda", lam, "--mu", "1", "--nu", ""],
        ["points", "--lambda", lam, "--mu", "1", "--nu", "", "--count-only"],
        ["ehrhart", "--object", "skew-weight", "--lambda", lam, "--mu", "1", "--nu", ""],
    ]:
        assert _cli_count(capsys, *argv) == 0, argv


@pytest.mark.parametrize("option", [[], ["--mu", "1"]])
def test_a_weight_that_does_not_fit_is_named_a_weight(capsys, option):
    assert cli.main(["points", "--lambda", "2,1", *option, "--nu", "0,1,2", "--n", "2", "--count-only"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: weight (0, 1, 2) has a nonzero part after its first 2\n"


@pytest.mark.parametrize("argv", [
    ["ehrhart", "--object", "gt", "--lambda", "3,1,1,0"],
    ["ehrhart", "--object", "gt", "--lambda", "4,2,2,1,0"],
    ["ehrhart", "--object", "skew", "--lambda", "3,2,1", "--mu", "2,1"],
    ["ehrhart", "--object", "skew", "--lambda", "4,3,1", "--mu", "2", "--n", "4"],
    ["ehrhart", "--object", "key-complex", "--lambda", "1,1,0,0", "--sigma", "[2,3,4,1]"],
    ["ehrhart", "--object", "kogan-face", "--lambda", "2,2,1,0", "--cells", "3,2"],
])
def test_degree_bound_above_the_dimension_fits_and_below_fails(capsys, argv):
    # d + 1 and d + 2 give the same polynomial, every object sampled from 0
    # up, a gt or skew object checked by the sweep at k = 1 and below 0, a
    # key complex or Kogan face above its samples; d - 1 samples too few
    # dilations, and the checks say so with exit 2
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    fitted = json.loads(out)
    d = fitted["degree_bound"]
    assert len(fitted["poly"]) == d + 1  # the bound is the degree here
    for bound in (d + 1, d + 2):
        code, out = run_cli(capsys, *argv, "--degree-bound", str(bound), "--format", "json")
        result = json.loads(out)
        assert code == 0 and result["valid"] is True, bound
        assert result["poly"] == fitted["poly"] and result["degree_bound"] == bound
        assert [k for k, _ in result["samples"]] == list(range(bound + 1))
        checks = [1, -1, -2] if argv[2] in ("gt", "skew") else [bound + 1, bound + 2]
        assert [k for k, _, _ in result["verify_points"]] == checks
    code, out = run_cli(capsys, *argv, "--degree-bound", str(d - 1), "--format", "json")
    assert code == cli.VIOLATION
    assert json.loads(out)["valid"] is False


@pytest.mark.parametrize("argv", [
    ["ehrhart", "--object", "skew", "--lambda", "3,2,1", "--mu", "2,1"],
    ["ehrhart", "--object", "gt", "--lambda", "3,1,1,0"],
    ["scan", "--family", "skew_gt", "--ranges", "max_shape=3,2,1;n=3"],
])
def test_planted_wrong_determinant_entry_exits_two(capsys, monkeypatch, argv):
    # one entry of every Jacobi-Trudi matrix taken (k >= 1) off by one: the
    # sweep's checks disagree with the samples on every object whose samples
    # it changes, also where the error vanishes at k = -1 and -2; where it
    # changes no sample the result is the correct one
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    clean = json.loads(out)
    real = ehrhart._det

    def planted(matrix):
        matrix = [list(row) for row in matrix]
        matrix[0][0] += 1
        return real(matrix)

    monkeypatch.setattr(ehrhart, "_det", planted)
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == cli.VIOLATION
    payload = json.loads(out)
    if argv[0] == "scan":
        assert payload["checked"] == clean["checked"] == 83
        flagged = [r for r, c in zip(payload["results"], clean["results"]) if r["samples"] != c["samples"]]
        assert flagged and payload["verification_failures"] == flagged
        for result, right in zip(payload["results"], clean["results"]):
            if result["samples"] == right["samples"]:
                assert result == right and result["valid"]
    else:
        assert payload["valid"] is False


def test_a_wrong_determinant_entry_fails_the_determinant_suite(capsys, monkeypatch):
    # the same fault planted in the flagged determinants: no flag's polynomial
    # is the key complex's Ehrhart polynomial any more, so the search fails
    # and the suite flags each lambda
    assert ehrhart.flag_match((2, 1, 0), (1, 2, 3)) is not None
    real = ehrhart._det

    def planted(matrix):
        matrix = [list(row) for row in matrix]
        matrix[0][0] += 1
        return real(matrix)

    monkeypatch.setattr(ehrhart, "_det", planted)
    assert ehrhart.flag_match((2, 1, 0), (1, 2, 3)) is None
    code, out = run_cli(capsys, "verify", "--suite", "determinant")
    assert code == cli.VIOLATION
    # each FAIL line names all five 231-avoiding permutations of S_3
    sigmas = "; ".join(f"sigma={s}" for s in [(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1)])
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        f"[FAIL] determinant: determinant match lambda={lam}  ({sigmas})"
        for lam in [(2, 1, 0), (3, 1, 0), (3, 2, 0)]
    ] + ["FAILURES PRESENT"]


def test_a_wrong_key_at_lambda_1_two_fails_table2_at_every_such_shape(capsys, monkeypatch):
    # the operator route made wrong for every lambda with lambda_1 = 2: of the
    # shapes (a + b, a, 0), a and b in 0..3, that is (a, b) = (0, 2), (1, 1)
    # and (2, 0), and each failing check names all three in order
    real = polyops.key_via_operators

    def planted(lam, sigma):
        key = real(lam, sigma)
        return key * 2 if lam[0] == 2 else key

    monkeypatch.setattr(polyops, "key_via_operators", planted)
    code, out = run_cli(capsys, "verify", "--suite", "table2", "--format", "json")
    assert code == cli.VIOLATION
    checks = json.loads(out)["checks"]
    assert len(checks) == 6 and not any(c["ok"] for c in checks)
    assert {c["detail"] for c in checks} == {"a=0 b=2; a=1 b=1; a=2 b=0"}


def test_a_wrong_determinant_entry_fails_the_table1_suite(capsys, monkeypatch):
    # table1's skew polytopes are sampled by their Jacobi-Trudi determinants,
    # which verify recounts on every run, so the planted entry shows
    real = ehrhart._det

    def planted(matrix):
        matrix = [list(row) for row in matrix]
        matrix[0][0] += 1
        return real(matrix)

    monkeypatch.setattr(ehrhart, "_det", planted)
    code, out = run_cli(capsys, "verify", "--suite", "table1", "--format", "json")
    assert code == cli.VIOLATION
    assert json.loads(out)["ok"] is False


def test_heavy_skew_gt_scan_is_valid(capsys):
    code, out = run_cli(capsys, "scan", "--family", "skew_gt", "--ranges", "max_shape=4,3,2,1;n=4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["checked"] == len(payload["results"]) == 593
    assert all(result["valid"] for result in payload["results"])
    assert not payload["verification_failures"] and not payload["violations"]


PARSER_REUSE_ARGVS = [
    ["points", "--lambda", "2,1,0", "--count-only"],
    ["ehrhart", "--object", "skew", "--lambda", "3,2,1", "--mu", "2,1", "--format", "json"],
    ["ehrhart", "--object", "gt", "--lambda", "2,1,0", "--degree-bound", "x"],
    ["key", "--lambda", "2,1,0", "--sigma", "[2,1,3]", "--format", "csv"],
    ["scan", "--family", "nonsense"],
    ["ehrhart", "--object", "gt-weight", "--lambda", "2,1"],
    ["points", "--lambda", "2,1,0", "--count-only"],
    ["faces", "--help"],
    ["schur", "--lambda", "2,1", "--n", "3"],
]


def test_consecutive_calls_in_one_process_match_fresh_processes(capsys, monkeypatch):
    # main builds its parser once per process; each call, usage errors and
    # --help included, must still print and exit as a fresh process does
    monkeypatch.setenv("COLUMNS", "100")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    script = "import sys; from gtkey import cli; sys.exit(cli.main(sys.argv[1:]))"
    for argv in PARSER_REUSE_ARGVS:
        code = cli.main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, env=env)
        expected = fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode()  # CSV keeps its \r\n
        assert (code, captured.out, captured.err) == expected, argv
    assert cli._parser.cache_info().currsize == 1


def test_out_of_memory_ends_in_an_error_line(capsys, monkeypatch):
    # a sweep too large for memory exits 1 with one message, not a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(lattice, "count_points", exhausted)
    code = cli.main(["points", "--lambda", "2,1", "--k", "100000000000", "--count-only"])
    captured = capsys.readouterr()
    assert code == cli.USAGE_ERROR == 1
    assert captured.out == ""
    assert captured.err == "error: out of memory: the input is too large to count\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_a_text_or_csv_scan_builds_no_json(capsys, monkeypatch, fmt):
    argv = ["scan", "--family", "skew_gt", "--ranges", "max_shape=2,1;n=3", "--format", fmt]
    expected = run_cli(capsys, *argv)

    def no_json(self):
        raise AssertionError("a text or csv scan builds no JSON")

    monkeypatch.setattr(ehrhart.EhrhartResult, "to_json", no_json)
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0 and expected[1]
