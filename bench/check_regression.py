#!/usr/bin/env python3
"""Perf guards over the committed benchmark trajectories (BENCH_*.json).

Each BENCH_*.json file is JSONL: one trajectory point per benchmarked
change, appended by the bench binary that measured it (see DESIGN.md).
Every bound the guards enforce is one row of GATES below; a tier-1 ctest
of the same name runs each guard.  The guards never time anything: they
read committed points, so they are immune to builder noise, and an
honest new point that shows a regression is exactly what makes one fire.

A row names its keys in one of four ways:
  "name"                 the newest value of that key;
  "num/den"              the newest num over the newest den;
  "*_armed/*_detached"   every <stem>_armed over its <stem>_detached;
  "*"                    (trajectory rows only) every key in the file.
and has one of three kinds:
  ceiling     value <= bound;
  floor       value >= bound;
  trajectory  newest point / the point before it <= bound, per key; a
              key with a single point has nothing to compare.

"Newest" is the newest value of each key, not the newest line: a point
may carry only some keys (BENCH_obs.json pairs omp_* from one point and
ckpt_round_* from a later one).  A point's values come from "median_us"
or "metrics" (for values that are not latencies, such as frames/s);
"state_bytes" is reporting and is never gated.

Usage: check_regression.py GUARD [path-to-jsonl]
The path overrides the row's file, which is otherwise read from the repo
root.  Exit codes: 0 ok, 1 out of bounds, 2 malformed, missing, empty or
blank input, a key a row names is absent, or an unknown guard.
"""

import collections
import json
import os
import sys

Gate = collections.namedtuple("Gate", "guard file key kind bound")

GATES = [
    # Every solver median within 25% of its previous trajectory point.
    Gate("bench_regression_guard", "BENCH_solvers.json", "*",
         "trajectory", 1.25),
    # Batch-of-64 OMP pays for itself; the fast-DCT operator beats dense.
    Gate("solver_batch_guard", "BENCH_solvers.json", "omp_b1/omp_b64",
         "floor", 3.0),
    Gate("solver_batch_guard", "BENCH_solvers.json",
         "sweep_dense_n4096/sweep_fastdct_n4096", "floor", 5.0),
    # The armed telemetry stack costs at most 5% over detached.
    Gate("obs_overhead_guard", "BENCH_obs.json", "*_armed/*_detached",
         "ceiling", 1.05),
    # A checkpoint that stalls the campaign longer is a fault of its own.
    Gate("recovery_latency_guard", "BENCH_obs.json", "checkpoint_write_us",
         "ceiling", 50_000.0),
    Gate("recovery_latency_guard", "BENCH_obs.json", "checkpoint_restore_us",
         "ceiling", 250_000.0),
    # The ingest daemon's loopback floor and its p99 latency cap.
    Gate("gateway_regression_guard", "BENCH_gateway.json", "gw_frames_per_s",
         "floor", 100_000.0),
    Gate("gateway_regression_guard", "BENCH_gateway.json", "gw_p99_ingest_us",
         "ceiling", 20_000.0),
]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class BadInput(Exception):
    """Input a guard cannot judge: exit 2."""


def load_series(path):
    """Maps key -> list of (label, value) in file order."""
    series = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise BadInput(f"cannot read {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            point = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BadInput(f"{path}:{lineno}: bad JSON: {exc}") from exc
        label = point.get("label", f"line {lineno}")
        for field in ("median_us", "metrics"):
            values = point.get(field, {})
            if not isinstance(values, dict):
                raise BadInput(f"{path}:{lineno}: {field} is not an object")
            for name, value in values.items():
                if not isinstance(value, (int, float)) or value <= 0:
                    raise BadInput(
                        f"{path}:{lineno}: bad value for {name!r}: {value!r}"
                    )
                series.setdefault(name, []).append((label, float(value)))
    if not series:
        raise BadInput(f"no trajectory points in {path}")
    return series


def expand(key, series):
    """The (name, numerator, denominator-or-None) checks a row's key names."""
    if key == "*":
        return [(k, k, None) for k in sorted(series)]
    num, _, den = key.partition("/")
    if num.startswith("*"):
        tail, den_tail = num[1:], den[1:]
        stems = [k[: -len(tail)] for k in sorted(series) if k.endswith(tail)]
        return [(s, s + tail, s + den_tail) for s in stems]
    return [(key, num, den or None)]


def evaluate(gate, series):
    """Prints one line per check; returns the names out of bounds."""
    checks = expand(gate.key, series)
    if not checks:
        raise BadInput(f"no key matches {gate.key!r}")
    failures = []
    for name, num, den in checks:
        absent = [k for k in (num, den) if k is not None and k not in series]
        if absent:
            raise BadInput(f"{name}: no {absent[0]} trajectory point")
        label, value = series[num][-1]
        if gate.kind == "trajectory":
            if len(series[num]) < 2:
                print(f"  {name}: single point, nothing to compare")
                continue
            prev_label, prev = series[num][-2]
            detail = f"{prev:.3f} ({prev_label}) -> {value:.3f} ({label})"
            value /= prev
        elif den is not None:
            detail = f"{value:.3f} / {series[den][-1][1]:.3f} ({label})"
            value /= series[den][-1][1]
        else:
            detail = f"{value:.3f} ({label})"
        bad = (value < gate.bound if gate.kind == "floor"
               else value > gate.bound)
        print(f"  {name}: {detail} = {value:.3f}  {gate.kind} {gate.bound:g}"
              f"  {'OUT OF BOUNDS' if bad else 'ok'}")
        if bad:
            failures.append(name)
    return failures


def main(argv):
    guards = sorted({g.guard for g in GATES})
    if len(argv) not in (2, 3) or argv[1] not in guards:
        print(f"usage: check_regression.py {{{'|'.join(guards)}}} [path]")
        return 2
    guard = argv[1]
    override = argv[2] if len(argv) == 3 else None
    failures = []
    try:
        for gate in (g for g in GATES if g.guard == guard):
            path = override or os.path.join(REPO_ROOT, gate.file)
            failures += evaluate(gate, load_series(path))
    except BadInput as exc:
        print(f"check_regression: {guard}: {exc}")
        return 2
    if failures:
        print(f"check_regression: {guard}: FAIL — {', '.join(failures)} "
              "out of bounds")
        return 1
    print(f"check_regression: {guard}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
