#!/usr/bin/env python3
"""Repository benchmark: host cost of the RMAC simulator on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (Release + LTO) against the
simulator sources into $CARGO_TARGET_DIR (default .bench_build), runs the
driver for one workload, checks every simulated outcome, and prints as its
last stdout line one JSON object: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of BENCHMARK.json.  Earlier stdout lines carry the run's
provenance and its outcome fingerprint.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper_rmac", "large_static", "sharded_exact", "campaign_mix")
DRIVER_TIMEOUT_S = 165

END_TO_END_UNITS = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_per_s": "1/s",
    "cell_p50_s": "s",
    "cell_p80_s": "s",
}

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.residual_share": "ratio",
    "phy.tx.calls": "count",
    "phy.tx.self_ns_per_call": "ns",
    "phy.signal_end.ns_per_call": "ns",
    "phy.tone.set_tone.calls": "count",
    "phy.tone.set_tone.ns_per_call": "ns",
    "phy.share": "ratio",
    "mac.rx.calls": "count",
    "mac.rx.self_ns_per_call": "ns",
    "mac.share": "ratio",
    "net.deliver.calls": "count",
    "net.deliver.self_ns_per_call": "ns",
    "net.share": "ratio",
    "scenario.placement_s": "s",
    "scenario.build_s": "s",
    "shard.windows": "count",
    "shard.ns_per_window": "ns",
    "shard.stall_share": "ratio",
    "shard.messages": "count",
    "shard.mirrors": "count",
    "shard.clamped": "count",
    "shard.imbalance_events": "ratio",
    "shard.speedup_bound_events": "ratio",
    "campaign.cell_overhead_ms": "ms",
    "campaign.worker_busy_share": "ratio",
    "campaign.cached_ms_per_cell": "ms",
    "trace.overhead_ratio": "ratio",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """Content hash of the simulator and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    files.append(ROOT / "examples" / "run_experiment.cpp")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 8))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release",
         "-DCMAKE_INTERPROCEDURAL_OPTIMIZATION=ON"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(2)


def run_driver(cmd):
    """Run the driver in its own process group so a timeout also reaps any
    campaign workers it forked."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        sys.exit(3)
    if proc.returncode != 0:
        log(f"driver exited with {proc.returncode}")
        sys.exit(3)
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: minimal cells, for the smoke test only")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT}")
        return 2

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"
    build(build_dir)

    work_dir = build_dir / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(build_dir / "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale,
           "--worker-bin", str(build_dir / "run_experiment"), "--work-dir", str(work_dir)]
    try:
        d = run_driver(cmd)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if d["build_type"] != "Release" or not d["lto"] or not d["ndebug"]:
        log(f"refusing to report numbers from a {d['build_type']} build "
            f"(lto={d['lto']}, NDEBUG={d['ndebug']}); Release + LTO is required")
        return 4

    provenance = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "revision": d["revision"], "source_digest": source_digest(),
        "build_type": d["build_type"], "lto": d["lto"], "nproc": d["nproc"],
        "l1d_cache_kb": d["l1d_cache_kb"], "l2_cache_kb": d["l2_cache_kb"],
        "l3_cache_kb": d["l3_cache_kb"], "campaign_workers": d["campaign_workers"],
        "cells_per_pass": d["cells_per_pass"], "passes": len(d["pass_wall_s"]),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"fingerprint": d["fingerprint"], "workload": args.workload}))
    for f in d["failures"]:
        log(f"FAILED: {f['why']}")

    correct = d["cells_failed"] == 0
    if args.trace:
        print(json.dumps({"observer": d["observer"]}))
        correct = correct and d["observer"]["ok"]
        values, units = d["layers"], PER_LAYER_UNITS
    else:
        values, units = d["end_to_end"], END_TO_END_UNITS
    missing = set(units) - set(values)
    if missing:
        log(f"driver did not report {sorted(missing)}")
        return 5
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": d["cells_run"],
                      "failed": d["cells_failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
