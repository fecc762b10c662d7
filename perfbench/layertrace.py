"""Outside-in tracing of gtkey's layers.

`Tracer.install()` replaces public functions of the gtkey modules by timing
wrappers, from outside the package: the program's own code is unchanged,
and calls between modules go through the wrappers because every module
calls its neighbours as `module.function`.  Each call becomes a span
[name, parent index, start, end, info] kept in memory; `metrics()` reduces
the spans to per-layer numbers when the run ends.  A span's self time is
its duration minus the time its direct child spans cover.  No traced
function re-enters itself, so summing durations per name gives busy time
without double counting.

`kogan.face_type` runs once per candidate cell subset (about 180k times in
the S6 workload), so it is only counted, not timed.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("lattice.count_points.calls", "count"),
    ("lattice.count_points.busy_s", "s"),
    ("lattice.count_points.max_k", "count"),
    ("lattice.enumerate_points.calls", "count"),
    ("lattice.enumerate_points.busy_s", "s"),
    ("lattice.enumerate_points.points", "count"),
    ("kogan.key_faces.calls", "count"),
    ("kogan.key_faces.busy_s", "s"),
    ("kogan.key_faces.hit_ratio", "ratio"),
    ("kogan.face_type.calls", "count"),
    ("kogan.face_yield", "ratio"),
    ("kogan.complex_count.calls", "count"),
    ("kogan.complex_count.self_s", "s"),
    ("kogan.complex_count.lattice_calls_per_call", "ratio"),
    ("kogan.fallback.calls", "count"),
    ("kogan.fallback.busy_s", "s"),
    ("kogan.complex_points.self_s", "s"),
    ("kogan.key_via_faces.self_s", "s"),
    ("polyops.key_via_operators.calls", "count"),
    ("polyops.key_via_operators.busy_s", "s"),
    ("polyops.key_via_operators.terms_out", "count"),
    ("ehrhart.ehrhart_of.calls", "count"),
    ("ehrhart.ehrhart_of.self_s", "s"),
    ("ehrhart.interpolate.busy_s", "s"),
    ("ehrhart.samples", "count"),
    ("ehrhart.sample_yield", "ratio"),
    ("ehrhart.surplus_count_share", "ratio"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
]

# Counting calls made directly by ehrhart_of, one per dilation k.
_COUNT_SPANS = ("lattice.count_points", "kogan.complex_count")


def _arg(args, kwargs, pos, name, default):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


# name -> (module, attribute, info(args, kwargs, result) or None, materialise)
_TARGETS = {
    "lattice.count_points": ("lattice", "count_points", lambda a, kw, r: _arg(a, kw, 1, "k", 1), False),
    "lattice.enumerate_points": ("lattice", "enumerate_points", lambda a, kw, r: len(r), True),
    "kogan.key_faces": ("kogan", "key_faces", lambda a, kw, r: ((a[0], tuple(a[1])), len(r)), False),
    "kogan.complex_count": ("kogan", "complex_count", lambda a, kw, r: _arg(a, kw, 2, "k", 1), False),
    "kogan.complex_points": ("kogan", "complex_points", None, False),
    "kogan.key_via_faces": ("kogan", "key_via_faces", None, False),
    "polyops.key_via_operators": ("polyops", "key_via_operators", lambda a, kw, r: len(r.terms), False),
    "ehrhart.ehrhart_of": (
        "ehrhart",
        "ehrhart_of",
        lambda a, kw, r: (len(r.samples) + len(r.verify_points), r.poly.degree()),
        False,
    ),
    "ehrhart.interpolate": ("ehrhart", "interpolate", None, False),
    "cli.main": ("cli", "main", None, False),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.face_type_calls = [0]
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, info, materialise):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
                if materialise:
                    # time the generator's own work, not its consumer's
                    result = list(result)
            finally:
                span[3] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return iter(result) if materialise else result

        return wrapper

    def _count(self, fn):
        counter = self.face_type_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> "Tracer":
        from gtkey import cli, ehrhart, kogan, lattice, polyops

        modules = {"cli": cli, "ehrhart": ehrhart, "kogan": kogan, "lattice": lattice, "polyops": polyops}
        for name, (mod, attr, info, materialise) in _TARGETS.items():
            self._patch(modules[mod], attr, self._wrap(getattr(modules[mod], attr), name, info, materialise))
        self._patch(kogan, "face_type", self._count(kogan.face_type))
        return self

    def _patch(self, module, attr, replacement):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of every span recorded so far; a ratio whose
        base is zero (a layer the workload never calls) reads 0."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for _, parent, t0, t1, _ in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        calls: Counter = Counter()
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        max_k = points = terms = 0
        face_keys: dict = {}
        complex_lattice_calls = fallback_calls = 0
        fallback_s = 0.0
        samples = needed = 0
        count_s = surplus_s = 0.0
        for i, (name, parent, t0, t1, info) in enumerate(spans):
            duration = t1 - t0
            calls[name] += 1
            busy[name] += duration
            self_s[name] += duration - child_s[i]
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "kogan.complex_points" and parent_name == "kogan.complex_count":
                fallback_calls += 1
                fallback_s += duration
            if info is None:
                continue  # no info recorded for this name, or the call raised
            if name == "lattice.count_points":
                max_k = max(max_k, info)
                complex_lattice_calls += parent_name == "kogan.complex_count"
            elif name == "lattice.enumerate_points":
                points += info
            elif name == "kogan.key_faces":
                face_keys.setdefault(info[0], info[1])
            elif name == "polyops.key_via_operators":
                terms += info
            elif name == "ehrhart.ehrhart_of":
                samples += info[0]
                needed += info[1] + 3
            if name in _COUNT_SPANS and parent_name == "ehrhart.ehrhart_of" and spans[parent][4]:
                # a polynomial of observed degree d needs k = 0..d+2
                count_s += duration
                if info > spans[parent][4][1] + 2:
                    surplus_s += duration

        def ratio(num, den):
            return num / den if den else 0.0

        face_calls = calls["kogan.key_faces"]
        face_type_calls = self.face_type_calls[0]
        return {
            "lattice.count_points.calls": calls["lattice.count_points"],
            "lattice.count_points.busy_s": busy["lattice.count_points"],
            "lattice.count_points.max_k": max_k,
            "lattice.enumerate_points.calls": calls["lattice.enumerate_points"],
            "lattice.enumerate_points.busy_s": busy["lattice.enumerate_points"],
            "lattice.enumerate_points.points": points,
            "kogan.key_faces.calls": face_calls,
            "kogan.key_faces.busy_s": busy["kogan.key_faces"],
            "kogan.key_faces.hit_ratio": ratio(face_calls - len(face_keys), face_calls),
            "kogan.face_type.calls": face_type_calls,
            "kogan.face_yield": ratio(sum(face_keys.values()), face_type_calls),
            "kogan.complex_count.calls": calls["kogan.complex_count"],
            "kogan.complex_count.self_s": self_s["kogan.complex_count"],
            "kogan.complex_count.lattice_calls_per_call": ratio(
                complex_lattice_calls, calls["kogan.complex_count"]
            ),
            "kogan.fallback.calls": fallback_calls,
            "kogan.fallback.busy_s": fallback_s,
            "kogan.complex_points.self_s": self_s["kogan.complex_points"],
            "kogan.key_via_faces.self_s": self_s["kogan.key_via_faces"],
            "polyops.key_via_operators.calls": calls["polyops.key_via_operators"],
            "polyops.key_via_operators.busy_s": busy["polyops.key_via_operators"],
            "polyops.key_via_operators.terms_out": terms,
            "ehrhart.ehrhart_of.calls": calls["ehrhart.ehrhart_of"],
            "ehrhart.ehrhart_of.self_s": self_s["ehrhart.ehrhart_of"],
            "ehrhart.interpolate.busy_s": busy["ehrhart.interpolate"],
            "ehrhart.samples": samples,
            "ehrhart.sample_yield": ratio(needed, samples),
            "ehrhart.surplus_count_share": ratio(surplus_s, count_s),
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
        }
