"""Steadiness check: run one workload at several seeds and compare spreads with bounds.

Run from the repository root:

    python3 perfbench/steady.py --workload sparse_n20 --runs 10 --seed-base 0
    python3 perfbench/steady.py --workload sparse_n20 --runs 3 --seed-base 1000 \
        --record perfbench/baseline/holdout_seeds.json

Each run is ``perfbench/run.py`` in its own interpreter, one after another,
with seeds ``seed-base .. seed-base + runs - 1`` and the run length of
``BENCHMARK.json``.  For every metric the table gives the median, the first
and third quartile (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and, for end-to-end metrics, the bound from
``BENCHMARK.json``.  A spread below a third of the bound is ``steady``; below
the bound, ``wide``; otherwise ``NOISY``.  ``setup_s`` is judged only by how
its median moves between two sets of runs, so its spread is shown but not
judged.  ``--record`` merges the runs and the summary into a JSON file, keyed
by workload and trace mode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def verdict(name: str, spread: float, bound) -> str:
    if bound is None or name == "setup_s":
        return ""
    if spread < bound / 3:
        return "steady"
    return "wide" if spread <= bound else "NOISY"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, help="JSON file to merge the runs into")
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.seed_base, args.seed_base + args.runs))
    runs = []
    for seed in seeds:
        result = _run(args.workload, seed, seconds, args.trace)
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    names = list(runs[0]["metrics"])
    summary = {}
    print(f"{args.workload}, trace {args.trace}, {args.runs} runs of {seconds} s, seeds {seeds[0]}..{seeds[-1]}")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        stats = summarize([r["metrics"][name]["value"] for r in runs])
        bound = bounds.get(name)
        summary[name] = {**stats, "unit": runs[0]["metrics"][name]["unit"], "bound": bound}
        print(f"{name:32} {stats['median']:12.6g} {stats['q1']:12.6g} {stats['q3']:12.6g} "
              f"{stats['spread']:8.2%} {'' if bound is None else f'{bound:.2f}':>6} "
              f"{verdict(name, stats['spread'], bound)}")
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"failed ops: {failed} of {attempted}")

    if args.record:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        record.setdefault("host", {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
        })
        record[f"{args.workload}/trace{args.trace}"] = {
            "seeds": seeds,
            "seconds": seconds,
            "attempted": attempted,
            "failed": failed,
            "summary": summary,
            "runs": [r["metrics"] for r in runs],
        }
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
