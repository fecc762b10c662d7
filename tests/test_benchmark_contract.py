"""What the benchmark in perfbench/ uses of the package.

The tier-1 suite does not collect perfbench/, so a change to the package
that breaks the benchmark would otherwise show only as a failed benchmark
run.  These tests check that every function the layer tracer wraps exists,
that the tracer reads each call's info off the arguments the package
passes, and that the names the benchmark child calls still work together.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from gtkey import cli, ehrhart, kogan, lattice, polyops

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", PERFBENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _layertrace()._TARGETS


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_every_traced_function_exists(name):
    module, attr, _, _ = TARGETS[name]
    assert callable(getattr(importlib.import_module(f"gtkey.{module}"), attr))


def test_the_benchmark_child_finds_what_it_calls():
    # counted, not timed, by the tracer
    assert callable(kogan.face_type)
    # read before the first timed call
    assert kogan._reduced_faces.cache_info().currsize >= 0
    # the scan workload: objects, fits, then the report as `gtkey scan` writes it
    ranges = {"max_shape": [2, 1], "n": 2}
    objects = list(ehrhart.scan_objects("skew_gt", ranges))
    results = [ehrhart.ehrhart_of(obj) for obj in objects]
    report = ehrhart.ScanReport(family="skew_gt", ranges=dict(ranges))
    report.entries.extend(ehrhart.ScanEntry(r) for r in results)
    assert json.loads(json.dumps(report.to_json(), indent=2))["checked"] == len(objects) > 0
    assert report.status == 0
    answers = [[obj.key(), r.poly.coeff_strings(), r.valid] for obj, r in zip(objects, results)]
    assert all(valid for _, _, valid in answers)


def test_a_result_offers_what_the_benchmark_reads():
    # the tracer's info on an ehrhart_of call, and the child's answer line
    obj = ehrhart.skew_object((3, 2, 1), (2, 1), n=3)
    result = ehrhart.ehrhart_of(obj)
    info = TARGETS["ehrhart.ehrhart_of"][2]
    assert info((obj,), {}, result) == (len(result.samples) + len(result.verify_points), 6)
    assert result.poly.degree() == 6
    assert result.poly.coeff_strings() == ["1", "9/2", "33/4", "63/8", "33/8", "9/8", "1/8"]
    assert [k for k, _ in result.samples] == list(range(7))
    assert [(k, ok) for k, _, ok in result.verify_points] == [(1, True), (-1, True), (-2, True)]
    assert result.valid is True


def test_the_tracer_reads_each_info_off_the_arguments_the_package_passes(capsys):
    # a traced run reads k and sizes by argument position: count_points's k
    # is argument 1, complex_count's argument 2.  Every traced call here is
    # made by the package itself, through the CLI, so a changed signature
    # shows as an info that is not the value of the call
    tracer = _layertrace().Tracer().install()
    try:
        for argv in [
            ["points", "--lambda", "2,1,0", "--sigma", "[1,3,2]", "--k", "2", "--count-only"],
            ["points", "--lambda", "2,1,0", "--sigma", "[1,3,2]", "--k", "2"],
            ["points", "--lambda", "2,1,0", "--k", "3", "--count-only"],
            ["points", "--lambda", "2,1,0", "--k", "2"],
            ["key", "--lambda", "2,1,0", "--sigma", "[1,3,2]", "--method", "operators"],
            ["ehrhart", "--object", "gt", "--lambda", "2,1,0"],
        ]:
            assert cli.main(argv) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    infos: dict = {}
    for name, _, _, _, info in tracer.spans:
        infos.setdefault(name, []).append(info)
    assert {name for name, target in TARGETS.items() if target[2] is not None} <= set(infos)
    faces = len(kogan.key_faces(3, (1, 3, 2)))
    spec = lattice.gt_spec((2, 1, 0))
    fit = ehrhart.ehrhart_of(ehrhart.gt_object((2, 1, 0)))
    assert infos["kogan.complex_count"] == [2]
    # complex_count's call, then the count at k = 3, then the gt fit's checks at 1, -1, -2
    assert infos["lattice.count_points"] == [2, 3, 1, 1, 2]
    assert infos["kogan.key_faces"] == [((3, (1, 3, 2)), faces)] * 2
    assert infos["lattice.enumerate_points"] == [
        kogan.complex_count((2, 1, 0), (1, 3, 2), 2),
        lattice.count_points(spec, 2),
    ]
    assert infos["polyops.key_via_operators"] == [len(polyops.key_via_operators((2, 1, 0), (1, 3, 2)).terms)]
    assert infos["ehrhart.ehrhart_of"] == [(len(fit.samples) + len(fit.verify_points), 3)]
