"""Closed-loop benchmark of cliffqt: one process, one thread, one op at a time.

Run from the repository root:

    python3 perfbench/run.py --workload corpus_check --seed 1 --seconds 40 --trace 0

The package is imported from ``src/`` of the same checkout.  Each op starts
from a collected heap (``gc.collect()`` outside the timed region); its
output is checked outside the timed region too, and an op that raises or
returns a wrong result counts as failed.

Op times are reported as costs: each op's time divided by the time of a
fixed pure-Python integer loop run around it (unit ``cal``).  On the
machine the benchmark was tuned on (2 vCPUs of a Xeon VM), speed drifts by
up to ±20% over tens of seconds, and an op and the loop timed next to it
slow down alike, so the cost stays steady where raw milliseconds do not (a
sparse_n20 op ranged from 162 to 207 ms over 10-second windows while its
cost ranged from 30.1 to 31.8 cal).  Raw wall-clock figures are printed,
and reported by the traced run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` traces every
second op, reports the per-layer metrics and the tracing overhead (untraced
against traced ops of the same run), and writes the spans to
``perfbench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # this process plus four fresh interpreters spread over the run
CAL_ITERATIONS = 60_000  # about 6 ms on a 2-vCPU Xeon VM
PROBE_TIMEOUT_S = 60


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="print this interpreter's set-up time and exit")
    return ap.parse_args(argv)


def _setup(name: str, seed: int):
    """Import cliffqt and build the workload's inputs; returns (workloads module, workload, seconds)."""
    start = time.perf_counter()
    import workloads  # imports cliffqt, which runs its closure-table self-check

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name](seed)
    elapsed = time.perf_counter() - start
    import cliffqt

    if SRC not in Path(cliffqt.__file__).resolve().parents:
        raise SystemExit(f"cliffqt was imported from {cliffqt.__file__}, not from {SRC}")
    return workloads, workload, elapsed


def _probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def calibration_s() -> float:
    """Time of a fixed pure-Python integer loop that touches no cliffqt code."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def run_ops(workload, seconds: float, first: int, tracer=None):
    """Run ops ``first, first+1, ...`` until ``seconds`` have passed.

    Before each op, outside its timed region: ``gc.collect()``, then the
    calibration loop; one more calibration follows the last op.  An op's
    calibration time is the mean of the loops just before and just after
    it, so a change of machine speed during the op is caught on both sides.
    With a tracer, every odd-numbered op is traced: the tracer is installed
    before it and removed after it, outside the timed region, so traced and
    untraced ops interleave and see the same machine.  Returns (untraced
    ops, traced ops, failed op count); an op is a pair (op seconds,
    calibration seconds).
    """
    timed = []  # (op seconds, calibration seconds before it, traced)
    failed = 0
    i = first
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        cal = calibration_s()
        tracing = tracer is not None and i % 2 == 1
        if tracing:
            tracer.install()
            tracer.begin_op(i)
        error = None
        start = time.perf_counter()
        try:
            out = workload.op(i)
        except Exception as exc:  # a failed op is counted, the run goes on
            error = exc
        elapsed = time.perf_counter() - start
        if tracing:
            tracer.end_op()
            tracer.uninstall()
        timed.append((elapsed, cal, tracing))
        if error is None:
            try:
                workload.check(i, out)
            except Exception as exc:
                error = exc
        if error is not None:
            failed += 1
            if failed <= 3:
                print(f"op {i} failed: {error!r}", file=sys.stderr)
        i += 1
        if time.perf_counter() >= deadline:
            break
    gc.collect()
    cals = [cal for _, cal, _ in timed] + [calibration_s()]
    plain, traced = [], []
    for k, (elapsed, cal, tracing) in enumerate(timed):
        (traced if tracing else plain).append((elapsed, (cal + cals[k + 1]) / 2))
    return plain, traced, failed


def _p50_p90(values):
    if len(values) < 2:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10)
    return deciles[4], deciles[8]


def _cost_mean(ops) -> float:
    return statistics.fmean(op / cal for op, cal in ops)


def _wall(ops) -> dict:
    """Raw wall-clock figures of the given ops."""
    p50, p90 = _p50_p90([op for op, _ in ops])
    return {
        "ops_per_s": (len(ops) / sum(op for op, _ in ops), "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "cal_ms": (statistics.median(cal for _, cal in ops) * 1e3, "ms"),
    }


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "cliffqt" / "__init__.py").is_file():
        print(f"error: no cliffqt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads, workload, setup = _setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup))
        return 0

    # warm-up op: lazy set-up finishes before timing; it is checked and counted
    _, _, failed = run_ops(workload, 0.0, first=0)
    if args.trace == 0:
        # the fresh-interpreter set-up probes run between stretches of ops, so
        # their median does not rest on one moment of the machine's speed
        setups = [setup]
        ops = []
        for k in range(SETUP_SAMPLES):
            if k:
                setups.append(_probe_setup(args.workload, args.seed))
            stretch, _, stretch_failed = run_ops(workload, args.seconds / SETUP_SAMPLES,
                                                 first=1 + len(ops))
            ops += stretch
            failed += stretch_failed
        attempted = 1 + len(ops)
        p50, p90 = _p50_p90([op / cal for op, cal in ops])
        metrics = {
            "op_cost_mean": (_cost_mean(ops), "cal"),
            "op_cost_p50": (p50, "cal"),
            "op_cost_p90": (p90, "cal"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        wall = _wall(ops)
        print(f"{args.workload}: {len(ops)} ops timed; wall clock "
              + ", ".join(f"{name} {value:.4g}" for name, (value, _) in wall.items())
              + f"; set-up samples {', '.join(f'{s:.4f}' for s in setups)} s")
    else:
        from tracer import Tracer

        tracer = Tracer(workloads)
        plain, traced, run_failed = run_ops(workload, args.seconds, first=1, tracer=tracer)
        attempted = 1 + len(plain) + len(traced)
        failed += run_failed
        overhead = _cost_mean(traced) / _cost_mean(plain) - 1
        metrics = tracer.metrics()
        metrics.update((f"wall.{name}", value) for name, value in _wall(plain).items())
        metrics["trace.untraced_cost_mean"] = (_cost_mean(plain), "cal")
        metrics["trace.cost_mean"] = (_cost_mean(traced), "cal")
        metrics["trace.overhead_pct"] = (overhead * 100, "%")
        out = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(out, workload=args.workload, seed=args.seed)
        print(f"{args.workload}: {len(plain)} untraced ops at {_cost_mean(plain):.3f} cal, "
              f"{len(traced)} traced ops at {_cost_mean(traced):.3f} cal, "
              f"tracing overhead {overhead:+.1%}; {len(tracer.spans)} spans written to "
              f"{out.relative_to(ROOT)}, {tracer.dropped} over the cap dropped")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
