#!/usr/bin/env python3
"""Print every workload's end-to-end metrics and check the benchmark's
determinism.

    python3 bench/selfcheck.py [--seconds 5]

For each workload, in its own process each time:

1. an untraced run, whose six end-to-end metrics are printed by name with
   unit and sample count;
2. two traced runs with the same seed, whose span counts per pass, count
   metrics and output digests must be identical;
3. a traced run with another seed, which must run the same op mix on
   different inputs (another input digest) with every check passing.

Exits 1 if any of this fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = ("count", "bits", "bytes")


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    report = json.loads((run.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return json.loads(proc.stdout.strip().splitlines()[-1]), report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args()
    seed, other = workloads.DEFAULT_SEED, workloads.DEFAULT_SEED + 1
    problems = []

    print(f"{'workload':<11} {'metric':<12} {'value':>14} {'unit':<6} samples")
    for wl in workloads.WORKLOADS:
        result, report = bench(wl, seed, args.seconds, 0)
        for name, unit in run.END_TO_END:
            print(f"{wl:<11} {name:<12} {result['metrics'][name]['value']:>14.6g} "
                  f"{unit:<6} {report['metric_samples'][name]}")
        if not result["correct"]:
            problems.append(f"{wl}: wrong outputs {report['wrong'][:3]}")

    counted = [name for name, unit in spans.PER_LAYER if unit in COUNT_UNITS]
    for wl in workloads.WORKLOADS:
        runs = [bench(wl, s, args.seconds, 1)
                for s in (seed, seed, other)]
        (r1, p1), (r2, p2), (r3, p3) = runs
        if p1["span_counts_per_pass"] != p2["span_counts_per_pass"]:
            problems.append(f"{wl}: span counts differ between identical runs")
        for name in counted:
            if r1["metrics"][name]["value"] != r2["metrics"][name]["value"]:
                problems.append(f"{wl}: {name} differs between identical runs")
        if p1["output_digest"] != p2["output_digest"]:
            problems.append(f"{wl}: output digests differ between identical runs")
        if p3["input_digest"] == p1["input_digest"]:
            problems.append(f"{wl}: seed {other} gave the same inputs")
        if p3["op_labels_sha256"] != p1["op_labels_sha256"]:
            problems.append(f"{wl}: seed {other} changed the op mix")
        for r, p in runs:
            if not r["correct"]:
                problems.append(f"{wl} seed {p['provenance']['seed']}: {p['wrong'][:3]}")
        print(f"{wl:<11} traced: {p1['ops_per_pass']} ops/pass, "
              f"{int(r1['metrics']['trace.spans']['value'])} spans/pass, "
              f"overhead {r1['metrics']['trace.overhead_s']['value']:.3f} s/pass")

    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
