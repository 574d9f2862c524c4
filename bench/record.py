"""Run every workload over several seeds and record a BENCH point.

    python3 bench/record.py --seeds 0-9 --tag seed --out bench/BENCH_seed.json

For each workload of BENCHMARK.json this runs `run.py --trace 0` once per
seed, one after another, for run_seconds, and `run.py --trace 1` once with
the first seed. It prints, per end-to-end metric, the median over seeds,
the quartiles, the spread (q3 - q1) / median and the metric's bound, then
the traced per-layer table, and writes everything, with the machine facts,
the machine-speed probe of every run, the start time, the workload reasons
and the layer-to-end-to-end predictions, to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py failed for {workload} seed {seed}:\n{proc.stderr[-2000:]}")
    report = next(
        (json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("BENCH_REPORT ")),
        {},
    )
    return json.loads(lines[-1]), report


def spread_of(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3, "n": len(values),
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,4,7")
    parser.add_argument("--tag", default="untagged")
    parser.add_argument("--out", default=None, help="JSON file to write")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    reasons = {w["name"]: w["why"] for w in bench["workloads"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    result = {
        "tag": args.tag, "started": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seconds": seconds, "seeds": seeds, "workloads": {},
    }
    for name, why in reasons.items():
        lasts, reports = [], []
        for seed in seeds:
            last, report = invoke(name, seed, seconds, 0)
            lasts.append(last)
            reports.append(report)
            probe = report.get("machine_probe", {})
            print(f"{name} seed {seed}: correct={last['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in last["metrics"].items())
                  + f" probe_ms={probe.get('before_ms', 0):.4g}/{probe.get('after_ms', 0):.4g}",
                  flush=True)
        entry = {
            "why": why,
            "attempted": sum(last["attempted"] for last in lasts),
            "failed": sum(last["failed"] for last in lasts),
            "all_correct": all(last["correct"] for last in lasts),
            "end_to_end": {},
            "work": reports[0].get("work"),
            "config": reports[0].get("config"),
            "transport_accuracy_per_seed": [r.get("transport_accuracy") for r in reports],
            "per_seed": [last["metrics"] for last in lasts],
            "machine_probe_ms_per_seed": [
                [r.get("machine_probe", {}).get(k) for k in ("before_ms", "after_ms")]
                for r in reports
            ],
        }
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        result["machine"] = reports[0].get("machine")
        print(f"{name}: failed_frac {entry['failed']}/{entry['attempted']} over {len(seeds)} seeds")
        for metric in lasts[0]["metrics"]:
            stats = spread_of([last["metrics"][metric]["value"] for last in lasts])
            stats["unit"] = lasts[0]["metrics"][metric]["unit"]
            stats["bound"] = bounds.get(metric)
            entry["end_to_end"][metric] = stats
            steady = stats["bound"] is None or stats["spread"] < stats["bound"] / 3
            print(f"  {metric:<18} median {stats['median']:.6g} {stats['unit']:<6} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} n={stats['n']} "
                  f"spread {stats['spread']:.4f} bound {stats['bound']} "
                  f"{'' if steady else 'ABOVE bound/3'}", flush=True)
        last, report = invoke(name, seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in last["metrics"].items()}
        entry["per_layer_correct"] = last["correct"]
        entry["spans"] = report.get("spans")
        entry["traced_wall_s"] = report.get("traced_wall_s")
        entry["tracing_overhead"] = report.get("tracing_overhead")
        entry["traced_probes"] = report.get("probes")
        result["predictions"] = report.get("predictions")
        print(f"  traced (seed {seeds[0]}), correct={last['correct']}:")
        for k, v in last["metrics"].items():
            print(f"    {k:<54} {v['value']:.6g} {v['unit']}", flush=True)
        result["workloads"][name] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
