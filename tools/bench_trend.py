#!/usr/bin/env python3
"""Append one bench-summary row per CI run to a trend CSV.

Usage:
    bench_trend.py BENCH_serve.json BENCH_nn.json BENCH_dist.json bench_trend.csv

Reads the two bench artifacts, extracts the headline numbers, and appends a
row (creating the CSV with a header when absent). CI restores the CSV from
the Actions cache and re-uploads it as the `bench-trend` artifact, so the
perf trajectory across PRs accumulates as a single diffable file instead of
being scattered across per-run artifacts.

A missing input file contributes empty cells rather than failing the build:
the trend step must never mask a real bench failure (the benches themselves
gate with their own exit codes before this runs).
"""

import csv
import json
import os
import sys
from datetime import datetime, timezone

BUILDER_STAGES = [
    "preprocess",
    "resample",
    "fpb",
    "features",
    "classify",
    "seasurface",
    "freeboard",
]

COLUMNS = [
    "commit",
    "utc_time",
    "cold_qps_w4",
    "warm_qps_w4",
    "inference_mean_ms_w4",
    "build_total_mean_ms_w4",
    # Scheduled-job latency split (queue wait vs queue wait + execution)
    # from the obs registry's histograms — BENCH_serve.json top level.
    "queue_wait_p99_ms",
    "service_time_p99_ms",
    "disk_speedup",
    # Cluster SLO headline (top offered-QPS point of the open-loop sweep)
    # from BENCH_serve.json's `cluster` block.
    "cluster_p99_ms",
    "cluster_shed_rate",
    # Whole-sweep served/offered of the chaos run (3% injected disk faults,
    # mid-sweep quarantine + revive) from BENCH_serve.json's `chaos` block;
    # the bench itself gates at >= 0.99 (docs/robustness.md).
    "chaos_availability",
    "nn_aggregate_speedup",
    "nn_predict_windows_per_sec",
    # Distributed-training headlines from BENCH_dist.json: the 4-rank
    # trainer speedup (critical-path accounting) and ring all-reduce GB/s
    # at the model-gradient buffer size.
    "dist_speedup_4rank",
    "allreduce_gbps",
    # ATL03 ingest cost from BENCH_dist.json: preprocess_beam ns per input
    # photon on the test_preprocess fixture beam.
    "preprocess_ns_per_photon",
    # Per-stage ProductBuilder means (ms) from BENCH_serve.json's
    # `builder_stages` block — the stage-graph latency breakdown.
] + [f"builder_{stage}_mean_ms" for stage in BUILDER_STAGES]


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_trend: skipping {path}: {err}", file=sys.stderr)
        return None


def serve_fields(doc):
    if not doc:
        return {}
    out = {}
    workers = doc.get("workers", [])
    if workers:
        # Highest worker-count row: the configuration CI trends.
        top = max(workers, key=lambda row: row.get("workers", 0))
        out["cold_qps_w4"] = top.get("cold_qps")
        out["warm_qps_w4"] = top.get("warm_qps")
        stages = top.get("stages", {})
        out["inference_mean_ms_w4"] = stages.get("inference", {}).get("mean_ms")
        out["build_total_mean_ms_w4"] = stages.get("total", {}).get("mean_ms")
    out["queue_wait_p99_ms"] = doc.get("queue_wait_p99_ms")
    out["service_time_p99_ms"] = doc.get("service_time_p99_ms")
    out["disk_speedup"] = doc.get("cache_tiers", {}).get("disk_speedup")
    cluster = doc.get("cluster", {})
    out["cluster_p99_ms"] = cluster.get("cluster_p99_ms")
    out["cluster_shed_rate"] = cluster.get("cluster_shed_rate")
    out["chaos_availability"] = doc.get("chaos", {}).get("availability")
    builder = doc.get("builder_stages", {})
    for stage in BUILDER_STAGES:
        out[f"builder_{stage}_mean_ms"] = builder.get(stage, {}).get("mean_ms")
    return out


def nn_fields(doc):
    if not doc:
        return {}
    return {
        "nn_aggregate_speedup": doc.get("aggregate_speedup"),
        "nn_predict_windows_per_sec": doc.get("predict_windows_per_sec"),
    }


def dist_fields(doc):
    if not doc:
        return {}
    return {
        "dist_speedup_4rank": doc.get("dist_speedup_4rank"),
        "allreduce_gbps": doc.get("allreduce_gbps"),
        "preprocess_ns_per_photon": doc.get("preprocess_ns_per_photon"),
    }


def main(argv):
    if len(argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    serve_path, nn_path, dist_path, csv_path = argv[1:5]

    row = {
        "commit": os.environ.get("GITHUB_SHA", "local")[:12],
        "utc_time": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }
    row.update(serve_fields(load(serve_path)))
    row.update(nn_fields(load(nn_path)))
    row.update(dist_fields(load(dist_path)))

    # Schema migration: a cached CSV written before a column change would go
    # ragged on append. Rewrite it under the current header (dropped columns
    # are lost, added columns backfill empty) so the file stays rectangular.
    if os.path.exists(csv_path):
        with open(csv_path, newline="") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is not None and list(reader.fieldnames) != COLUMNS:
                old_rows = list(reader)
                with open(csv_path, "w", newline="") as out:
                    writer = csv.DictWriter(out, fieldnames=COLUMNS, extrasaction="ignore")
                    writer.writeheader()
                    for old in old_rows:
                        writer.writerow({k: old.get(k, "") for k in COLUMNS})
                print(f"bench_trend: migrated {csv_path} to the current column set")

    fresh = not os.path.exists(csv_path)
    with open(csv_path, "a", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=COLUMNS)
        if fresh:
            writer.writeheader()
        writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in COLUMNS})

    with open(csv_path) as f:
        lines = f.read().splitlines()
    print(f"bench_trend: {csv_path} now has {len(lines) - 1} run(s); latest:")
    print(f"  {lines[0]}")
    print(f"  {lines[-1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
