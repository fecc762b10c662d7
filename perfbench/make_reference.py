#!/usr/bin/env python3
"""Record perfbench/reference.json: the answers every benchmark run is checked against.

Run from the repository root, only when the expected answers change:

    python3 perfbench/make_reference.py

It runs the workloads' inputs through child.py in fresh interpreters and
stores, per object, the Ehrhart coefficient list (scan_skew_gt,
ehrhart_key_s5) or the key polynomial's term count and value at ones
(key_crosscheck_s6, every permutation of S6).  It refuses to record an
answer that is not `valid`, exits non-zero, or whose two key routes
disagree.  Takes about two minutes.
"""

from __future__ import annotations

import itertools
import json
import platform
import sys
import time
from pathlib import Path

import run


def _record(inputs: dict, root: Path) -> dict:
    env = run.child_env(root, 0)
    deadline = time.perf_counter() + 3600
    out = run.spawn(dict(inputs, trace=False), root, env, deadline)
    if out["face_cache_at_start"] != 0:
        raise SystemExit("face cache was not empty")
    return out


def main() -> int:
    root = Path.cwd()
    reference: dict = {
        "recorded_with": {"python": platform.python_version(), "s5_lambda": run.S5_LAMBDA, "s6_lambda": run.S6_LAMBDA}
    }

    out = _record(run.make_inputs("scan_skew_gt", 0, reference), root)
    if out["report_status"] != 0 or not all(valid for _, _, valid in out["answers"]):
        raise SystemExit("scan_skew_gt has an invalid or negative result")
    reference["scan_skew_gt"] = {key: coeffs for key, coeffs, _ in out["answers"]}

    inputs = run.make_inputs("ehrhart_key_s5", 0, reference)
    inputs["argv"].sort(key=lambda argv: argv[argv.index("--sigma") + 1])
    out = _record(inputs, root)
    if not all(rc == 0 and valid for _, rc, _, valid in out["answers"]):
        raise SystemExit("ehrhart_key_s5 has an invalid result")
    reference["ehrhart_key_s5"] = {sigma: coeffs for sigma, _, coeffs, _ in out["answers"]}

    sigmas = [run._perm_text(p) for p in itertools.permutations(range(1, 7))]
    argv = [run.s6_argv(s) for s in sigmas]
    out = _record({"workload": "key_crosscheck_s6", "argv": argv}, root)
    if not all(rc == 0 and agree for _, rc, _, _, agree in out["answers"]):
        raise SystemExit("key_crosscheck_s6 has a disagreement between the two routes")
    reference["key_crosscheck_s6"] = {s: [tc, ones] for s, _, tc, ones, _ in out["answers"]}

    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
