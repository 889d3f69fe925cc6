"""Turns the raw samples perfbench_driver prints into the named metrics.

Everything that decides what a number means lives here: the percentile
rule, failure accounting, and the metric table that BENCHMARK.json must
match (test_summary.py checks that it does).
"""

import math
import statistics

WORKLOADS = ("solve-heavy", "zones-faulted")

# name -> (unit, better, bound): the end-to-end metrics of every workload,
# measured with tracing off.  A bound is the share of the parent's median
# by which a metric may worsen before a change counts as a regression.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "round_p50_ms": ("ms", "lower", 0.25),
    "round_p90_ms": ("ms", "lower", 0.25),
    "zones_per_s": ("1/s", "higher", 0.25),
    "field_nrmse": ("ratio", "lower", 0.2),
    "energy_j_per_round": ("J", "lower", 0.1),
    "zone_ok_share": ("share", "higher", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "ingest_p50_us": ("us", "lower", 0.25),
    "ingest_p90_us": ("us", "lower", 0.25),
    "ingest_sat_fps": ("1/s", "higher", 0.25),
    "ingest_ok_share": ("share", "higher", 0.05),
}

# name -> (unit, better): the per-layer metrics of the traced run.  A
# list-valued raw sample takes the percentile its _pNN suffix names.
PER_LAYER = {
    "cs.solve_ms_p50": ("ms", "lower"),
    "cs.solve_share": ("share", "lower"),
    "cs.support_size_mean": ("count", "lower"),
    "cs.outliers_rejected_per_round": ("count", "lower"),
    "linalg.basis_state_mb": ("MB", "lower"),
    "linalg.basis_build_ms": ("ms", "lower"),
    "exec.speedup": ("ratio", "higher"),
    "exec.idle_share": ("share", "lower"),
    "exec.zone_task_ms_p90": ("ms", "lower"),
    "middleware.collect_ms_per_zone": ("ms", "lower"),
    "middleware.commands_per_reading": ("ratio", "lower"),
    "middleware.retry_recovered_share": ("share", "higher"),
    "middleware.topup_yield": ("share", "higher"),
    "middleware.radio_failures_per_round": ("count", "lower"),
    "middleware.bytes_per_round": ("B", "lower"),
    "fault.deadline_skips": ("count", "lower"),
    "fault.battery_skips": ("count", "lower"),
    "hierarchy.failovers_per_round": ("count", "lower"),
    "hierarchy.shed_zones_per_round": ("count", "lower"),
    "hierarchy.degraded_zones_per_round": ("count", "lower"),
    "hierarchy.fold_ms": ("ms", "lower"),
    "field.stitch_ms": ("ms", "lower"),
    "hierarchy.uplink_bytes_per_round": ("B", "lower"),
    "fault.ckpt_capture_ms": ("ms", "lower"),
    "fault.ckpt_encode_ms": ("ms", "lower"),
    "fault.ckpt_write_ms": ("ms", "lower"),
    "fault.ckpt_bytes": ("B", "lower"),
    "obs.armed_over_detached": ("ratio", "lower"),
    "obs.scrape_ms": ("ms", "lower"),
    "obs.series_count": ("count", "lower"),
    "gateway.decode_us_per_frame": ("us", "lower"),
    "middleware.sink_us_per_frame": ("us", "lower"),
    "gateway.busy_share": ("share", "lower"),
    "gateway.queue_peak_depth": ("count", "lower"),
    "gateway.bytes_per_frame": ("B", "lower"),
    "gateway.gen_late_p99_us": ("us", "lower"),
    "gateway.gen_busy_share": ("share", "lower"),
    "gateway.ingest_p99_us": ("us", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.unattributed_share": ("share", "lower"),
}

MIN_BEYOND = 10        # samples required above a reported percentile
LATENCY_WINDOWS = 20   # open-loop phase split for windowed percentiles
ROUND_WINDOWS = 6      # timed-round split; >= 120 rounds give 20 each


class SummaryError(ValueError):
    """Raw samples that cannot support the metric asked of them."""


def percentile(samples, q):
    """Nearest-rank percentile q in (0, 1) of `samples`.

    Refuses (SummaryError) unless at least MIN_BEYOND samples lie above
    the reported rank, so a p90 needs 100 samples and a p99 1000.
    """
    if not 0.0 < q < 1.0:
        raise SummaryError("percentile must be inside (0, 1)")
    n = len(samples)
    rank = math.ceil(q * n - 1e-9)  # 1-based
    if n == 0 or n - rank < MIN_BEYOND:
        raise SummaryError(
            "p%g needs %d samples beyond it; %d samples give %d"
            % (q * 100, MIN_BEYOND, n, max(0, n - rank)))
    return sorted(samples)[rank - 1]


def windows(samples, count):
    """`samples` cut into `count` consecutive slices of near-equal size."""
    n = len(samples)
    return [samples[k * n // count:(k + 1) * n // count]
            for k in range(count)]


def windowed_percentile(samples, q, count=LATENCY_WINDOWS):
    """Lower quartile, over `count` consecutive slices of `samples`, of
    each slice's percentile q.  Host interference (a descheduled vCPU,
    a noisy neighbour) only ever slows work down, and it comes in
    bursts; a slowdown in the program moves every window.  The lower
    quartile keeps the second and drops up to three quarters of the
    windows to the first."""
    return statistics.quantiles(
        [percentile(w, q) for w in windows(samples, count)], n=4)[0]


def best_quartile_rate(rates):
    """Upper quartile of per-pass throughputs, by the same reasoning."""
    if len(rates) < 2:
        raise SummaryError("throughput needs at least two passes")
    return statistics.quantiles(rates, n=4)[2]


def share(part, whole):
    if whole <= 0:
        raise SummaryError("a share needs a positive whole")
    if not 0 <= part <= whole:
        raise SummaryError("share part %r outside [0, %r]" % (part, whole))
    return part / whole


def accounting(raw):
    """(attempted, failed) operations of a run: timed rounds plus frames
    offered; a round that raised and a frame answered kBusy or kBad or
    lost to an I/O error each count as failed."""
    if raw.get("trace"):
        c = raw["counts"]
        return int(c["rounds"] + c["frames"]), 0
    r, i = raw["rounds"], raw["ingest"]
    rounds = len(r["wall_ms"]) + int(r["errors"])
    frames = int(i["offered"])
    failed = int(r["errors"] + i["busy"] + i["bad"] + i["lost"])
    return rounds + frames, failed


def end_to_end(raw):
    """Every END_TO_END metric of one untraced run."""
    r, i = raw["rounds"], raw["ingest"]
    wall = r["wall_ms"]
    zones = r["zones"]
    rounds = len(wall)
    if rounds == 0:
        raise SummaryError("no timed rounds")
    admitted = [zones - s for s in r["shed"]]
    zone_rates = [sum(a) / (sum(w) / 1e3) for a, w in
                  zip(windows(admitted, ROUND_WINDOWS),
                      windows(wall, ROUND_WINDOWS))]
    frames = i["offered"]
    bad_frames = i["busy"] + i["bad"] + i["lost"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "round_p50_ms": windowed_percentile(wall, 0.5, ROUND_WINDOWS),
        "round_p90_ms": percentile(wall, 0.9),
        "zones_per_s": best_quartile_rate(zone_rates),
        "field_nrmse": statistics.fmean(r["nrmse"]),
        "energy_j_per_round": statistics.fmean(r["energy_j"]),
        "zone_ok_share": 1.0 - share(sum(r["failed"]), zones * rounds),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "ingest_p50_us": windowed_percentile(i["open_latency_us"], 0.5),
        "ingest_p90_us": windowed_percentile(i["open_latency_us"], 0.9),
        "ingest_sat_fps": best_quartile_rate(i["closed_pass_fps"]),
        "ingest_ok_share": 1.0 - share(bad_frames, frames),
    }


def per_layer(raw):
    """Every PER_LAYER metric of one traced run."""
    layers = raw["layers"]
    out = {}
    for name in PER_LAYER:
        if name not in layers:
            raise SummaryError("traced run lacks %s" % name)
        v = layers[name]
        if isinstance(v, list):
            q = float(name.rsplit("_p", 1)[1].split("_")[0]) / 100.0
            v = percentile(v, q)
        if v is None or not math.isfinite(v):
            raise SummaryError("%s is not a finite number" % name)
        out[name] = v
    return out


def result(raw):
    """The benchmark's result object for one run of the driver."""
    attempted, failed = accounting(raw)
    if raw.get("trace"):
        table, values, correct = PER_LAYER, per_layer(raw), True
    else:
        table, values = END_TO_END, end_to_end(raw)
        correct = all(raw["checks"].values())
    metrics = {name: {"value": values[name], "unit": table[name][0]}
               for name in table}
    return {"correct": bool(correct), "attempted": attempted,
            "failed": failed, "metrics": metrics}
