#!/usr/bin/env python3
"""Smoke test for the benchmark: every workload run.py knows (those in
BENCHMARK.json and large_static), at a tiny size, untraced and traced, must
print a correct result carrying every metric BENCHMARK.json names, each with
its declared unit.

    python3 perfbench/smoke_test.py        # from the repository root
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS  # noqa: E402


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    for name in names + [w for w in WORKLOADS if w not in names]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = spec["command"] + ["--workload", name, "--seed", "7", "--seconds", "1",
                                     "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            tag = f"{name} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-1500:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: not correct: {proc.stderr[-1500:]}")
            metrics = result["metrics"]
            for m in declared:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{tag}: missing {m['name']}")
                elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{tag}: {m['name']} printed as {got}, declared {m['unit']}")
            extra = set(metrics) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{tag}: undeclared metrics {sorted(extra)}")
            print(f"ok   {tag}: {len(metrics)} metrics", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
