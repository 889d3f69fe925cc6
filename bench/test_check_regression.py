#!/usr/bin/env python3
"""Unit tests for check_regression.py — the tier-1 perf guards.

The guards' exit codes ARE their API (ctest reads nothing else), so every
test pins main()'s return value for one input shape.  A gate never
passes on nothing: a missing, empty or blank-only file is exit 2 for
every guard.  The committed BENCH_*.json files are checked too: every
key a row names must be there, and moving a row's value just past its
bound must make its guard exit 1.

Run directly (python3 test_check_regression.py) or via ctest
(check_regression_unit).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_regression  # noqa: E402

GUARDS = sorted({g.guard for g in check_regression.GATES})


def run_main(content, guard):
    """Writes `content` to a temp JSONL file and runs `guard` over it."""
    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", delete=False
    ) as fh:
        fh.write(content)
        path = fh.name
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return check_regression.main(["check_regression.py", guard, path])
    finally:
        os.unlink(path)


def point(field="median_us", label="p", **values):
    """One JSONL trajectory point carrying `values` under `field`."""
    return json.dumps({"label": label, field: values}) + "\n"


def batch(b1, b64, dense, fast, label="b"):
    return point(label=label, omp_b1=b1, omp_b64=b64,
                 sweep_dense_n4096=dense, sweep_fastdct_n4096=fast)


def gateway(frames_per_s, p99_us, label="g"):
    return point("metrics", label, gw_frames_per_s=frames_per_s,
                 gw_p99_ingest_us=p99_us)


TRAJ = "bench_regression_guard"
BATCH = "solver_batch_guard"
OBS = "obs_overhead_guard"
RECOVERY = "recovery_latency_guard"
GATEWAY = "gateway_regression_guard"

CASES = [
    # (guard, trajectory file content, exit code, what the case pins);
    # values sit 1-2% inside or outside each bound, so they pin it.
    (TRAJ, point(omp=10.0), 0, "a single point has nothing to compare"),
    (TRAJ, point(omp=10.0) + point(omp=12.4), 0, "a 24% slowdown"),
    (TRAJ, point(omp=10.0) + point(omp=12.6), 1, "a 26% slowdown"),
    (TRAJ, "{not json}\n", 2, "malformed JSON"),
    (TRAJ, point(omp=0.0), 2, "non-positive value"),
    (TRAJ, '{"label":"a","median_us":{"lat":5.0},"metrics":{"rate":9.0}}\n',
     0, "a point may mix both fields"),
    (TRAJ, '{"label":"a","median_us":{"omp_b1":90.0},'
           '"state_bytes":{"sweep_dense_n4096":1000}}\n'
           '{"label":"b","median_us":{"omp_b1":91.0},'
           '"state_bytes":{"sweep_dense_n4096":99999999}}\n',
     0, "state_bytes is reporting, never gated"),
    (BATCH, batch(61.0, 20.0, 510.0, 100.0), 0, "3.05x and 5.1x"),
    (BATCH, batch(59.0, 20.0, 510.0, 100.0), 1, "batch speedup 2.95x"),
    (BATCH, batch(61.0, 20.0, 490.0, 100.0), 1, "operator speedup 4.9x"),
    (BATCH, batch(10.0, 10.0, 10.0, 10.0, "old")
     + batch(61.0, 20.0, 510.0, 100.0), 0, "an old point is history"),
    (BATCH, point(omp=1.0), 2, "no batch keys"),
    (OBS, point(omp_detached=10.0, omp_armed=10.6), 1, "armed 6% over"),
    (OBS, point(omp_detached=10.0, omp_armed=10.4), 0, "armed 4% over"),
    (OBS, point(omp_detached=10.0, omp_armed=10.1)
     + point(ckpt_detached=10.0, ckpt_armed=10.2), 0,
     "pairs from different points"),
    (OBS, point(omp_detached=10.0, omp_armed=10.1)
     + point(ckpt_detached=10.0, ckpt_armed=12.0), 1,
     "the newest value of each key, not the newest line"),
    (OBS, point(omp=1.0), 2, "no pairs"),
    (OBS, point(omp_armed=1.0), 2, "armed without detached"),
    (RECOVERY, point(checkpoint_write_us=49000.0,
                     checkpoint_restore_us=245000.0), 0, "within budget"),
    (RECOVERY, point(checkpoint_write_us=51000.0,
                     checkpoint_restore_us=245000.0), 1, "write over 50 ms"),
    (RECOVERY, point(checkpoint_write_us=49000.0,
                     checkpoint_restore_us=255000.0), 1,
     "restore over 250 ms"),
    (RECOVERY, point(omp=1.0), 2, "no checkpoint keys"),
    (GATEWAY, gateway(102000.0, 19600.0), 0, "within both bounds"),
    (GATEWAY, gateway(98000.0, 19600.0), 1, "throughput under 100k/s"),
    (GATEWAY, gateway(102000.0, 20400.0), 1, "p99 over 20 ms"),
    (GATEWAY, gateway(1.0, 999999.0, "old") + gateway(102000.0, 19600.0), 0,
     "an old point is history"),
    (GATEWAY, point(omp=1.0), 2, "no gateway keys"),
    (GATEWAY, point("metrics", gw_frames_per_s=150000.0), 2,
     "one named key absent"),
]


class GuardCasesTest(unittest.TestCase):
    def test_every_case(self):
        for guard, content, code, what in CASES:
            with self.subTest(guard=guard, case=what):
                self.assertEqual(run_main(content, guard), code)

    def test_empty_or_blank_file_fails_every_guard(self):
        for guard in GUARDS:
            for content in ("", "\n\n  \n"):
                with self.subTest(guard=guard, content=content):
                    self.assertEqual(run_main(content, guard), 2)

    def test_missing_file_fails_every_guard(self):
        for guard in GUARDS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = check_regression.main(
                    ["check_regression.py", guard, "/nonexistent/never.json"]
                )
            self.assertEqual(code, 2, guard)

    def test_unknown_guard_is_an_error(self):
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(
                check_regression.main(["check_regression.py", "--batch"]), 2
            )

    def test_metrics_key_feeds_the_same_series(self):
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as fh:
            fh.write(point("metrics", "a", gw_frames_per_s=200000.0))
            fh.write(point("median_us", "b", gw_frames_per_s=50000.0))
            path = fh.name
        try:
            series = check_regression.load_series(path)
        finally:
            os.unlink(path)
        self.assertEqual(
            series["gw_frames_per_s"], [("a", 200000.0), ("b", 50000.0)]
        )


def committed_path(gate):
    return os.path.join(check_regression.REPO_ROOT, gate.file)


def committed_points(gate):
    """The committed trajectory file of `gate`, one dict per line."""
    with open(committed_path(gate), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def newest_holder(points, key):
    """The field dict of the newest point that carries `key`."""
    for point in reversed(points):
        for field in ("median_us", "metrics"):
            if key in point.get(field, {}):
                return point[field]
    raise KeyError(key)


class CommittedFilesTest(unittest.TestCase):
    def test_every_named_key_is_committed(self):
        # A renamed key must fail here, not be skipped by its guard.
        for gate in check_regression.GATES:
            series = check_regression.load_series(committed_path(gate))
            checks = check_regression.expand(gate.key, series)
            self.assertTrue(checks, gate)
            for _, num, den in checks:
                self.assertIn(num, series, gate)
                if den is not None:
                    self.assertIn(den, series, gate)
            if not (gate.key.startswith("*") and "/" in gate.key):
                continue
            # A pattern pair: every denominator has its numerator too.
            num, den = gate.key.split("/")
            back = check_regression.expand(f"{den}/{num}", series)
            self.assertEqual([c[0] for c in checks], [c[0] for c in back],
                             gate)

    def run_pushed(self, gate, factor):
        """Runs `gate`'s guard over its committed file with the newest
        value of the row's first check set to factor * bound times its
        reference: the point before (trajectory), the denominator, or 1."""
        series = check_regression.load_series(committed_path(gate))
        checks = [c for c in check_regression.expand(gate.key, series)
                  if gate.kind != "trajectory" or len(series[c[1]]) > 1]
        _, num, den = checks[0]
        if gate.kind == "trajectory":
            ref = series[num][-2][1]
        else:
            ref = series[den][-1][1] if den is not None else 1.0
        points = committed_points(gate)
        newest_holder(points, num)[num] = ref * gate.bound * factor
        return run_main(
            "".join(json.dumps(p) + "\n" for p in points), gate.guard
        )

    def test_each_row_trips_just_past_its_bound(self):
        for gate in check_regression.GATES:
            outward = 0.99 if gate.kind == "floor" else 1.01
            self.assertEqual(self.run_pushed(gate, outward), 1, gate)
            self.assertEqual(self.run_pushed(gate, 2.0 - outward), 0, gate)


if __name__ == "__main__":
    unittest.main()
