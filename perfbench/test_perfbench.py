"""The benchmark's own tests; run from the repository root with

    python3 -m pytest perfbench -q

They use the --smoke inputs, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import child
import layertrace
import run

ROOT = run.HERE.parent


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )
    lines = proc.stdout.splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric_with_its_unit(trace):
    proc, result = _bench("--workload", "all", "--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end" if trace == "0" else "per_layer"]
    expected = run.END_TO_END if trace == "0" else run.PER_LAYER
    assert [(m["name"], m["unit"]) for m in declared] == expected
    assert {
        name: {"unit": m["unit"]} for name, m in result["metrics"].items()
    } == {f"{w}.{name}": {"unit": unit} for w in run.WORKLOADS for name, unit in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert proc.stdout.count("fail_ratio") == len(run.WORKLOADS)
    if trace == "1":
        # a workload's table shows exactly the layers it touches; the rest
        # read 0 in the JSON, which lists every declared name
        for w in run.WORKLOADS:
            reported = {name for name, _ in run.touched(w)} - {"trace_overhead_s"}
            nonzero = {name for name, _ in layertrace.PER_LAYER if result["metrics"][f"{w}.{name}"]["value"]}
            assert nonzero == reported, w
        tables = proc.stdout.split("workload ")[1:]
        for w, table in zip(run.WORKLOADS, tables):
            printed = {line.split()[0] for line in table.splitlines() if line.startswith("  ")}
            assert printed & {name for name, _ in run.PER_LAYER} == {name for name, _ in run.touched(w)}, w


def test_planted_wrong_reference_drives_fail_ratio_above_zero(tmp_path, monkeypatch, capsys):
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    scan_key = '{"family":"skew","lambda":[1,0,0],"mu":[0,0,0],"n":3}'
    assert scan_key in reference["scan_skew_gt"]
    reference["scan_skew_gt"][scan_key] = ["2"]
    reference["ehrhart_key_s5"]["[1,2,3,4,5]"][0] = "2"
    reference["key_crosscheck_s6"][run.s6_order(reference)[0]][0] += 1
    planted = tmp_path / "reference.json"
    planted.write_text(json.dumps(reference), encoding="utf-8")
    monkeypatch.setattr(run, "REFERENCE", planted)
    monkeypatch.chdir(ROOT)

    assert run.main(["--workload", "all", "--smoke"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == len(run.WORKLOADS)  # one planted object each, one repetition
    assert 0 < result["failed"] / result["attempted"] < 1


def test_every_repetition_starts_with_an_empty_face_cache():
    inputs = run.make_inputs("key_crosscheck_s6", 0, json.loads(run.REFERENCE.read_text()), smoke=True)
    env = run.child_env(ROOT, 0)
    for _ in range(2):
        out = run.spawn(dict(inputs, trace=False), ROOT, env, time.perf_counter() + 120)
        assert out["face_cache_at_start"] == 0
        assert run.check(out, json.loads(run.REFERENCE.read_text()), ROOT, smoke=True)[1:] == (0, [])


def test_a_warm_face_cache_is_reported_as_a_problem(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from gtkey import kogan

    reference = json.loads(run.REFERENCE.read_text())
    inputs = dict(run.make_inputs("key_crosscheck_s6", 0, reference, smoke=True), trace=False)
    kogan._reduced_faces.cache_clear()
    try:
        first = dict(child.run(inputs), workload="key_crosscheck_s6")
        second = dict(child.run(inputs), workload="key_crosscheck_s6")
    finally:
        kogan._reduced_faces.cache_clear()
    assert first["face_cache_at_start"] == 0
    assert second["face_cache_at_start"] > 0
    assert any("face cache" in p for p in run.check(second, reference, ROOT, smoke=True)[2])


def test_tracer_attributes_time_and_survives_a_raising_call(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from gtkey import ehrhart, kogan, lattice

    tracer = layertrace.Tracer().install()
    try:
        with pytest.raises(ValueError):
            lattice.count_points(lattice.gt_spec((2, 1, 0)), -1)
        result = ehrhart.ehrhart_of(ehrhart.key_complex_object((1, 1, 0), (2, 3, 1)))
    finally:
        tracer.uninstall()
    assert not hasattr(kogan.complex_count, "__wrapped__")  # uninstalled
    metrics = tracer.metrics()
    assert {name for name, _ in layertrace.PER_LAYER} == set(metrics)
    samples = len(result.samples) + len(result.verify_points)
    assert metrics["ehrhart.ehrhart_of.calls"] == 1
    assert metrics["ehrhart.samples"] == metrics["kogan.complex_count.calls"] == samples
    assert metrics["ehrhart.sample_yield"] == (result.poly.degree() + 3) / samples
    assert metrics["lattice.count_points.calls"] >= samples + 1
    assert metrics["kogan.key_faces.hit_ratio"] == (samples - 1) / samples
    assert 0 <= metrics["ehrhart.surplus_count_share"] <= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = _bench("--workload", "scan_skew_gt", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_s6_sample_is_seeded_and_takes_one_permutation_per_stratum():
    order = run.s6_order(json.loads(run.REFERENCE.read_text()))
    assert len(order) == 720 and order[0] == "[1,2,3,4,5,6]"
    picks = run.s6_sample(order, 7)
    assert picks == run.s6_sample(order, 7) != run.s6_sample(order, 8)
    size = len(order) // run.S6_SAMPLE
    strata = sorted(order.index(p) // size for p in picks)
    assert strata == list(range(run.S6_SAMPLE))


def test_tail_leaves_at_least_ten_samples_beyond_it():
    for n in (11, 48, 83, 120):
        values = list(range(n))
        percentile, value = run.tail(values)
        assert sum(v > value for v in values) >= 10
        assert percentile == 100 * (n - 10) // n
    assert run.tail([3.0, 1.0]) == (100, 3.0)
