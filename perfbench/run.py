#!/usr/bin/env python3
"""Benchmark of gtkey: three workloads, each repetition in a fresh interpreter.

Run from the root of a checkout (no build step: gtkey is imported from src/):

    python3 perfbench/run.py --workload scan_skew_gt --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30        # all three, one table
    python3 -m pytest perfbench -q                              # the benchmark's own tests

Workloads (see BENCHMARK.json for the layer each one loads):

- scan_skew_gt: ehrhart.scan_objects("skew_gt", max_shape=3,2,1, n=3), 83
  objects, each through ehrhart.ehrhart_of, then the scan report is built
  and serialised as `gtkey scan` does.  Fixed inputs; the seed only sets
  the child's PYTHONHASHSEED.
- ehrhart_key_s5: `gtkey ehrhart --object key-complex --lambda 1,1,0,0,0
  --sigma S --format json` through cli.main for all 120 S in S5, in an
  order shuffled by the seed.
- key_crosscheck_s6: `gtkey key --lambda 4,3,2,1,0,0 --sigma S --method
  both --format json` through cli.main for 48 S drawn from S6 by the seed.
  The draw is stratified: S6 sorted by the recorded value at ones of each
  key polynomial (its number of lattice points, a cost proxy fixed by the
  answers, not by a timing), cut into 48 strata of 15, one pick per
  stratum with each within-stratum rank used about equally often.
  Different seeds then carry about the same amount of work, so the
  seed-to-seed spread measures the program rather than the draw.

Every repetition is a new `python3 perfbench/child.py` process, because
kogan._reduced_faces is an lru_cache: a warm process would skip face
enumeration, which CLI users pay on every invocation.  The run repeats
until --seconds have passed (at least three repetitions) and reports the
median over repetitions, with the quartiles over repetitions as spread:

- wall_s / cpu_s: wall and process CPU time from the first timed call to
  the end of the workload (for the scan, including the report);
- obj_p50_ms / obj_tail_ms: median and tail of the object latencies (one
  object is one ehrhart_of call or one cli.main call), each object's
  latency being its median over repetitions; the tail is the highest
  percentile with at least ten objects beyond it, printed with the
  percentile and sample count on the `env` line;
- peak_rss_mb: the child's ru_maxrss;
- setup_s: from just before the child is started (interpreter start,
  imports, input generation) to its first timed call.

Answers are checked against perfbench/reference.json, recorded by
make_reference.py: Ehrhart coefficient lists for the first two
workloads, term count and value at ones for every permutation of S6.
An object fails when its exit status is non-zero, its result is not
`valid` or the two key routes disagree, or it differs from the
reference; fail_ratio = failed / attempted.  fail_ratio is printed in
the table but not listed in BENCHMARK.json, whose metrics must never
read 0; the JSON carries it as `failed` and `attempted`.

With --trace 1 the run alternates untraced and traced repetitions and
reports the per-layer metrics of layertrace.py (median over traced
repetitions) plus trace_overhead_s, the median over neighbouring pairs of
traced minus untraced wall_s.  The table shows only the per-layer metrics
of the layers the workload touches (TOUCHED); the JSON result lists every
per-layer name, as BENCHMARK.json declares them, and the others read 0
there.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the exit status is 0 when every
answer is correct, 1 when some answer is wrong, 2 on an error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("scan_skew_gt", "ehrhart_key_s5", "key_crosscheck_s6")
END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("obj_p50_ms", "ms"),
    ("obj_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
PER_LAYER = layertrace.PER_LAYER + [("trace_overhead_s", "s")]
# Name prefixes of the per-layer metrics each workload touches.  The key
# cross-check looks up each permutation's faces once, so its face-cache
# hit ratio is 0 by construction and is left out.
TOUCHED = {
    "scan_skew_gt": ("lattice.count_points.", "ehrhart."),
    "ehrhart_key_s5": (
        "lattice.", "kogan.key_faces.", "kogan.face_", "kogan.complex_", "kogan.fallback.", "ehrhart.", "cli.",
    ),
    "key_crosscheck_s6": (
        "lattice.enumerate_points.", "kogan.key_faces.calls", "kogan.key_faces.busy_s", "kogan.face_",
        "kogan.complex_points.", "kogan.key_via_faces.", "polyops.", "cli.",
    ),
}

SCAN_RANGES = {"max_shape": [3, 2, 1], "n": 3}
SMOKE_SCAN_RANGES = {"max_shape": [1, 1], "n": 3}
S5_LAMBDA = "1,1,0,0,0"
S6_LAMBDA = "4,3,2,1,0,0"
S6_SAMPLE = 48
S5_FALLBACK_SIGMA = "[2,3,4,5,1]"  # one of the three that take the materialising fallback
MIN_REPS = 3
BUDGET_S = 170.0  # every run must end well within 180 s


class BenchError(Exception):
    pass


def _perm_text(perm) -> str:
    return "[" + ",".join(str(v) for v in perm) + "]"


def touched(workload: str) -> list[tuple[str, str]]:
    """(name, unit) of the per-layer metrics that `workload` reports."""
    return [(n, u) for n, u in PER_LAYER if n == "trace_overhead_s" or n.startswith(TOUCHED[workload])]


def s6_order(reference: dict) -> list[str]:
    """S6 sorted by the recorded value at ones, then by the permutation."""
    answers = reference["key_crosscheck_s6"]
    return sorted(answers, key=lambda s: (int(answers[s][1]), s))


def s6_sample(order: list[str], seed: int, count: int = S6_SAMPLE) -> list[str]:
    """One permutation per stratum of `order`, within-stratum ranks balanced."""
    rng = random.Random(seed)
    size = len(order) // count
    ranks = list(range(size)) * (count // size) + rng.sample(range(size), count % size)
    rng.shuffle(ranks)
    picks = [order[i * size + r] for i, r in enumerate(ranks)]
    rng.shuffle(picks)
    return picks


def s5_argv(sigma: str) -> list[str]:
    return ["ehrhart", "--object", "key-complex", "--lambda", S5_LAMBDA, "--sigma", sigma, "--format", "json"]


def s6_argv(sigma: str) -> list[str]:
    return ["key", "--lambda", S6_LAMBDA, "--sigma", sigma, "--method", "both", "--format", "json"]


def make_inputs(workload: str, seed: int, reference: dict, smoke: bool = False) -> dict:
    """The generated inputs a child receives; the same seed gives the same inputs."""
    if workload == "scan_skew_gt":
        ranges = SMOKE_SCAN_RANGES if smoke else SCAN_RANGES
        return {"workload": workload, "family": "skew_gt", "ranges": ranges}
    if workload == "ehrhart_key_s5":
        sigmas = [_perm_text(p) for p in itertools.permutations(range(1, 6))]
        if smoke:
            sigmas = sigmas[:2] + [S5_FALLBACK_SIGMA]
        else:
            random.Random(seed).shuffle(sigmas)
        return {"workload": workload, "argv": [s5_argv(s) for s in sigmas]}
    if workload == "key_crosscheck_s6":
        order = s6_order(reference)
        sigmas = order[:2] if smoke else s6_sample(order, seed)
        return {"workload": workload, "argv": [s6_argv(s) for s in sigmas]}
    raise BenchError(f"unknown workload {workload!r}")


def check(out: dict, reference: dict, root: Path, smoke: bool = False) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one repetition's answers."""
    workload = out["workload"]
    ref = reference[workload]
    problems = []
    if Path(out["gtkey_file"]).resolve() != (root / "src" / "gtkey" / "__init__.py").resolve():
        problems.append(f"gtkey imported from {out['gtkey_file']}, not from this checkout")
    if out["face_cache_at_start"] != 0:
        problems.append(f"face cache held {out['face_cache_at_start']} entries before the first call")
    answers = out["answers"]
    failed = 0
    for answer in answers:
        key = answer[0]
        if workload == "scan_skew_gt":
            ok = answer[1] is not None and answer[2] and answer[1] == ref.get(key)
        elif workload == "ehrhart_key_s5":
            ok = answer[1] == 0 and len(answer) == 4 and answer[3] and answer[2] == ref.get(key)
        else:
            ok = answer[1] == 0 and len(answer) == 5 and answer[4] and answer[2:4] == ref.get(key)
        failed += not ok
    if workload == "scan_skew_gt":
        keys = {a[0] for a in answers}
        if not (keys <= set(ref) if smoke else keys == set(ref)):
            problems.append("scan objects differ from the recorded scan")
        if out["report_checked"] != len(answers) or out["report_status"] != 0:
            problems.append(
                f"scan report checked {out['report_checked']} of {len(answers)}, status {out['report_status']}"
            )
    return len(answers), failed, problems


def tail(latencies: list[float]) -> tuple[int, float]:
    """(percentile, value) of the highest whole percentile with at least
    ten samples beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    p = 100 * (n - 10) // n
    return p, ordered[math.ceil(p * n / 100) - 1]


def rep_metrics(out: dict) -> dict[str, float]:
    latencies = out["latencies_s"]
    return {
        "wall_s": out["wall_s"],
        "cpu_s": out["cpu_s"],
        "obj_p50_ms": statistics.median(latencies) * 1000,
        "obj_tail_ms": tail(latencies)[1] * 1000,
        "peak_rss_mb": out["peak_rss_mb"],
        "setup_s": out["setup_s"],
    }


def spawn(payload: dict | None, root: Path, env: dict, deadline: float) -> dict | None:
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the workload ran")
    t_spawn = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)],
            input="" if payload is None else json.dumps(payload),
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a repetition ran past the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    if payload is None:
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    out = json.loads(proc.stdout.splitlines()[-1])
    out["workload"] = payload["workload"]
    out["setup_s"] = out["t_first"] - t_spawn
    return out


def child_env(root: Path, seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env.pop("GTKEY_CACHE", None)  # a result cache would skip the work being measured
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # users run from compiled bytecode
    return env


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: dict, root: Path,
            deadline: float, smoke: bool = False) -> dict:
    """Run repetitions of one workload and summarise them."""
    inputs = make_inputs(workload, seed, reference, smoke)
    env = child_env(root, seed)
    spawn(None, root, env, deadline)  # warm-up: leaves compiled bytecode, untimed
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        out = spawn(dict(inputs, trace=use_trace), root, env, deadline)
        (traced if use_trace else plain).append(out)
        enough = len(plain) >= (1 if smoke or trace else MIN_REPS) and (len(traced) >= 1 or not trace)
        if enough and (smoke or time.perf_counter() - start >= seconds):
            break

    attempted = failed = 0
    problems: list[str] = []
    for out in plain + traced:
        a, f, p = check(out, reference, root, smoke)
        attempted, failed = attempted + a, failed + f
        problems += [q for q in p if q not in problems]
    per_rep = [rep_metrics(out) for out in plain]
    medians = {name: statistics.median(r[name] for r in per_rep) for name, _ in END_TO_END}
    # every repetition runs the same objects in the same order; taking each
    # object's median first keeps one slow moment from setting an order statistic
    per_object = [statistics.median(lat) for lat in zip(*(out["latencies_s"] for out in plain))]
    medians["obj_p50_ms"] = statistics.median(per_object) * 1000
    medians["obj_tail_ms"] = tail(per_object)[1] * 1000
    summary = {name: [medians[name], *_quartiles([r[name] for r in per_rep])] for name, _ in END_TO_END}
    layers = {}
    if traced:
        layers = {
            name: statistics.median(out["layers"][name] for out in traced)
            for name, _ in layertrace.PER_LAYER
        }
        # traced and untraced repetitions alternate; pairing neighbours
        # keeps slow drift in machine speed out of the difference
        layers["trace_overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)
        )
    percentile, _ = tail(plain[0]["latencies_s"])
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "summary": summary,
        "layers": layers,
        "env": {
            "workload": workload,
            "seed": seed,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "reps": len(plain),
            "traced_reps": len(traced),
            "objects": len(plain[0]["latencies_s"]),
            "tail_percentile": percentile,
            "tail_samples": len(plain[0]["latencies_s"]),
        },
    }


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def _print_table(result: dict) -> None:
    env = result["env"]
    print(f"workload {result['workload']}  seed {env['seed']}  reps {env['reps']}  objects {env['objects']}")
    for name, unit in END_TO_END:
        med, q1, q3 = result["summary"][name]
        print(f"  {name:<14} {med:12.6f} {unit:<5} (quartiles over reps {q1:.6f} .. {q3:.6f})")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<14} {ratio:12.6f} ratio (failed {result['failed']} of {result['attempted']})")
    for name, unit in touched(result["workload"]):
        if name in result["layers"]:
            print(f"  {name:<44} {result['layers'][name]:14.6f} {unit}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    print("env " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one repetition each")
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + BUDGET_S
    root = Path.cwd()
    try:
        if not (root / "src" / "gtkey" / "__init__.py").is_file():
            raise BenchError(f"no gtkey sources under {root / 'src'}; run from the repository root")
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [
            measure(name, args.seed, args.seconds, bool(args.trace), reference, root, deadline, args.smoke)
            for name in names
        ]
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for result in results:
        _print_table(result)
        prefix = "" if len(results) == 1 else result["workload"] + "."
        if args.trace:
            values = {name: (result["layers"][name], unit) for name, unit in PER_LAYER}
        else:
            values = {name: (result["summary"][name][0], unit) for name, unit in END_TO_END}
        metrics.update({prefix + name: {"value": v, "unit": u} for name, (v, u) in values.items()})
    correct = all(r["failed"] == 0 and not r["problems"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
