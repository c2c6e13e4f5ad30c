"""Run the benchmark over several seeds and write a summary file.

    python3 bench/collect.py --runs 10 --out bench/baseline/seed-e1e807a.json

For each workload named in ``BENCHMARK.json`` this runs ``bench/run.py``
for ``run_seconds``, untraced once per seed, one run at a time, then once
traced.  The output holds every result line and run record (untraced
records trimmed to ``UNTRACED_RECORD_KEYS``), plus, for each end-to-end
metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (quartile distance
over median) that the benchmark's bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

UNTRACED_RECORD_KEYS = (
    "workload", "seed", "seconds", "python", "nproc", "commit", "dirty", "src_sha256",
    "ops_per_pass", "passes", "pass_s", "pass_wall_s", "setup_s_rounds",
    "probe_s_quartiles", "op_tail_percentile", "op_tail_samples",
    "attempted", "failed", "fail_ratio", "refused", "failures",
)
"""The run-record fields kept for untraced runs; the traced run keeps all."""


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    if not trace:
        record = {k: record[k] for k in UNTRACED_RECORD_KEYS}
    return {"seed": seed, "record": record, "result": json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        traced = run_once(workload, args.first_seed, seconds, 1)
        summary["workloads"][workload] = {
            "end_to_end": summarize(runs) if len(runs) > 1 else None,
            "runs": runs,
            "traced": traced,
        }
        for name, s in (summary["workloads"][workload]["end_to_end"] or {}).items():
            print(f"{workload:12s} {name:12s} median {s['median']:.4f} {s['unit']:3s} "
                  f"spread {s['spread']:.3f}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
