"""One benchmark repetition, run in a fresh interpreter by run.py.

Reads the workload's generated inputs as one JSON object on stdin, runs
them against the gtkey package on PYTHONPATH and prints one JSON line:
timings, peak memory, the face-cache size seen before the first timed
call, each object's answer and, when traced, the per-layer metrics.
Answers are checked by run.py, not here.  With no stdin input it only
imports everything, so that a warm-up run leaves compiled bytecode behind.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import layertrace


def _cli_call(main):
    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        return rc, buf.getvalue()

    return call


def run(inputs: dict) -> dict:
    import gtkey
    from gtkey import cli, ehrhart, kogan

    tracer = layertrace.Tracer().install() if inputs.get("trace") else None
    try:
        face_cache_at_start = kogan._reduced_faces.cache_info().currsize
        workload = inputs["workload"]
        scan = workload == "scan_skew_gt"
        if scan:
            items = list(ehrhart.scan_objects(inputs["family"], inputs["ranges"]))
            call = ehrhart.ehrhart_of
        else:
            items = inputs["argv"]
            call = _cli_call(cli.main)

        results, latencies = [], []
        t_first = time.time()
        cpu0 = time.process_time()
        w0 = time.perf_counter()
        for item in items:
            t0 = time.perf_counter()
            try:
                result = call(item)
            except Exception:
                # one broken object is a failure to count, not a reason to stop
                traceback.print_exc()
                result = None
            latencies.append(time.perf_counter() - t0)
            results.append(result)
        if scan:
            report = ehrhart.ScanReport(family=inputs["family"], ranges=dict(inputs["ranges"]))
            report.entries.extend(ehrhart.ScanEntry(r) for r in results if r is not None)
            report_text = json.dumps(report.to_json(), indent=2)
        wall_s = time.perf_counter() - w0
        cpu_s = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer is not None:
            tracer.uninstall()

    out = {
        "gtkey_file": gtkey.__file__,
        "face_cache_at_start": face_cache_at_start,
        "t_first": t_first,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": latencies,
    }
    if scan:
        out["answers"] = [
            [obj.key(), None] if r is None else [obj.key(), r.poly.coeff_strings(), r.valid]
            for obj, r in zip(items, results)
        ]
        out["report_checked"] = json.loads(report_text)["checked"]
        out["report_status"] = report.status
    else:
        out["answers"] = [_cli_answer(workload, argv, r) for argv, r in zip(items, results)]
    if tracer is not None:
        out["layers"] = tracer.metrics()
    return out


def _cli_answer(workload, argv, result):
    sigma = argv[argv.index("--sigma") + 1]
    if result is None:
        return [sigma, None]
    rc, text = result
    try:
        payload = json.loads(text)
    except ValueError:
        return [sigma, rc]
    if workload == "ehrhart_key_s5":
        return [sigma, rc, payload["poly"], payload["valid"]]
    return [sigma, rc, payload["term_count"], payload["at_ones"], payload["methods_agree"]]


if __name__ == "__main__":
    text = sys.stdin.read()
    if not text.strip():
        import gtkey.cli  # noqa: F401  (warm-up: compile and cache bytecode)

        sys.exit(0)
    print(json.dumps(run(json.loads(text))))
