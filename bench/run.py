#!/usr/bin/env python3
"""tmlab benchmark: one workload, in-process, single-threaded.

    python3 bench/run.py --workload trajectory --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; tmlab is imported from ``src/``.
With ``--trace 0`` the run does one warm-up pass, then repeats whole passes
of the workload's ops for ``--seconds`` and reports the end-to-end metrics,
corrected for the host's speed (see speed.py); with ``--trace 1`` it runs a
warm-up pass, two untraced and two traced passes and reports the per-layer
metrics.  Every op's output is checked.  The last line of standard output
is the result JSON; the full report (provenance, sample counts, failures)
goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 15
TRACE_PASSES = 2
LAYERS = ("geometry", "mappings", "schedules", "rates", "engine", "verify",
          "scenario", "cli")
# latency percentile reported as op_ms_tail, chosen per workload so that at
# least ten samples lie beyond it in a 20 s run and it falls inside the
# latencies of the slowest scenarios rather than at their upper edge, where
# other tenants' interference sets the value
TAIL_PCT = {"trajectory": 95, "resolvent": 90, "rates": 92, "verify": 99}
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_tail", "ms"), ("ok_ratio", "ratio"), ("peak_rss_mb", "MB"))

IMPORT_PROBE = (
    "import statistics, sys, time\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import speed\n"
    "ks = [speed.kernel_seconds() for _ in range(3)]\n"
    "t = time.perf_counter()\n"
    "import tmlab, tmlab.cli\n"
    "t = time.perf_counter() - t\n"
    "ks += [speed.kernel_seconds() for _ in range(3)]\n"
    "print(repr(t), repr(statistics.median(ks)))\n"
)


def import_seconds():
    """Wall time of `import tmlab, tmlab.cli` in a fresh interpreter, and
    the reference kernel's median time in that interpreter around it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"importing tmlab failed:\n{proc.stderr}")
    t, kernel_s = proc.stdout.strip().splitlines()[-1].split()
    return float(t), float(kernel_s)


def load_tmlab():
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"tmlab.{name}") for name in LAYERS}
    origin = Path(mods["engine"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"tmlab was imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def git_sha():
    """HEAD of the checkout, read from .git without running git; source
    trees exported without .git report "unknown" (see src_sha256)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "tmlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args):
    try:
        importlib.import_module("gmpy2")
        gmpy2 = True
    except ImportError:
        gmpy2 = False
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "gmpy2": gmpy2,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


class Tally:
    """Latencies and outcomes of every op run."""

    def __init__(self):
        self.latencies = []  # op times, corrected for host speed if asked
        self.raw_busy = []  # uncorrected time inside ops, per pass
        self.attempted = 0
        self.failed = 0
        self.known = {}  # "label: ExcType" -> count, the seed's known failures
        self.wrong = []  # messages of wrong outputs and unexpected exceptions
        self.digests = []
        self.by_label = {}

    def run_pass(self, ops, tracer=None, first_op=0, host=None):
        """One pass over ``ops``; returns the time spent inside them.  With
        ``host`` (a speed.Speed) every op time is corrected for the host's
        speed, one chunk of ops at a time.  Outputs stay alive until the
        pass ends, as the Tier-1 fixture keeps all twelve of its
        trajectories."""
        clock = time.perf_counter
        digests, dts, outs = [], [], []
        chunk_start, chunk_s, raw_s = 0, 0.0, 0.0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.current_op = first_op + i
            t0 = clock()
            try:
                out, exc = op.call(), None
            except Exception as err:  # every op failure is counted, never fatal
                out, exc = None, err
            dt = clock() - t0
            if tracer is not None:
                # spans of the gate's own calls into tmlab (write_csv) belong to no op
                tracer.current_op = -1
            if exc is not None:
                self._failure(op, exc)
                digests.append(f"raised {type(exc).__name__}")
            else:
                why = op.check(out)
                if why is not None:
                    self.failed += 1
                    self.wrong.append(why)
                digests.append(op.digest(out))
                outs.append(out)
            dts.append(dt)
            raw_s += dt
            chunk_s += dt
            if host is not None and (chunk_s >= speed.CHUNK_S or i == len(ops) - 1):
                f = host.factor()
                dts[chunk_start:] = [x * f for x in dts[chunk_start:]]
                chunk_start, chunk_s = len(dts), 0.0
        self.raw_busy.append(raw_s)
        for op, dt in zip(ops, dts):
            self.latencies.append(dt)
            self.by_label.setdefault(op.label, []).append(dt)
        self.attempted += len(ops)
        self.digests.append(hashlib.sha256("\n".join(digests).encode()).hexdigest())
        return sum(dts)

    def _failure(self, op, exc):
        self.failed += 1
        kind = type(exc).__name__
        if op.known == kind:
            key = f"{op.label}: {kind}"
            self.known[key] = self.known.get(key, 0) + 1
        else:
            self.wrong.append(f"{op.label}: unexpected {kind}: {exc}")


def percentile(sorted_xs, pct):
    """Nearest-rank percentile and the number of samples above it."""
    idx = max(0, -(-len(sorted_xs) * pct // 100) - 1)
    return sorted_xs[int(idx)], len(sorted_xs) - int(idx) - 1


def run_untraced(tm, args, setup, report):
    host = speed.Speed()
    setups, raw_setups, ops = [], [], None
    for _ in range(SETUP_REPS):
        imp, imp_kernel_s = import_seconds()
        t0 = time.perf_counter()
        ops = setup(tm, args.seed)
        build = time.perf_counter() - t0
        raw_setups.append(imp + build)
        setups.append(imp * speed.REF_S / imp_kernel_s + build * host.factor())
    tally = Tally()
    # a warm-up pass, checked but left out of the figures: first calls pay
    # for lazy imports and the interpreter's specialisation, which no later
    # pass sees (on rates its median op takes about 1.6x that of later passes)
    tally.run_pass(ops, host=host)
    warm = len(tally.latencies)
    pass_busy = []
    t_start = time.perf_counter()
    while not pass_busy or time.perf_counter() - t_start < args.seconds:
        pass_busy.append(tally.run_pass(ops, host=host))
    lat = sorted(tally.latencies[warm:])
    pct = TAIL_PCT[args.workload]
    tail, beyond = percentile(lat, pct)
    while beyond < 10 and pct > 50:
        pct = {99: 95, 95: 90}.get(pct, 50)
        tail, beyond = percentile(lat, pct)
    metrics = {
        "setup_s": statistics.median(setups),
        # the median pass shrugs off a pass slowed by a noisy neighbour
        "ops_per_s": len(ops) / statistics.median(pass_busy),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_tail": tail * 1e3,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report["metric_samples"] = {
        "setup_s": len(setups), "ops_per_s": len(pass_busy), "op_ms_p50": len(lat),
        "op_ms_tail": len(lat), "ok_ratio": tally.attempted, "peak_rss_mb": 1,
    }
    report.update({
        "ops_per_pass": len(ops), "passes": len(pass_busy), "samples": len(lat),
        "tail_percentile": pct, "tail_samples_beyond": beyond,
        "setup_s_each": setups, "pass_busy_s": pass_busy,
        "raw_setup_s_each": raw_setups, "raw_pass_busy_s": tally.raw_busy[1:],
        "warmup_pass_s": tally.raw_busy[0],
        "kernel_s": host.kernel_s, "kernel_ref_s": speed.REF_S,
        "wall_s": time.perf_counter() - t_start,
    })
    return tally, metrics


def run_traced(tm, args, setup, report):
    ops = setup(tm, args.seed)
    tally = Tally()
    # both sides warmed up and corrected for the host's speed, so the
    # overhead is the tracer's
    host = speed.Speed()
    tally.run_pass(ops, host=host)
    untraced = [tally.run_pass(ops, host=host) for _ in range(TRACE_PASSES)]
    tracer = spans.Tracer()
    tracer.install(tm)
    ops = setup(tm, args.seed)
    n = len(ops)
    traced = [tally.run_pass(ops, tracer, first_op=(p + 1) * n, host=host)
              for p in range(TRACE_PASSES)]
    dur, own = tracer.self_times()
    summaries = [tracer.pass_summary((p + 1) * n, (p + 2) * n, dur, own)
                 for p in range(TRACE_PASSES)]
    counts = [dict(sorted(s["calls"].items())) for s in summaries]
    if any(c != counts[0] for c in counts):
        tally.wrong.append(f"span counts differ between traced passes: {counts}")
    if len(set(tally.digests)) != 1:
        tally.wrong.append("op outputs differ between passes")
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics = spans.layer_metrics(summaries, tracer.setup_self_s("scenario.build", own),
                                  overhead)
    per_step = {}
    for o, c in sorted(tracer.per_op(n, 2 * n).items()):
        steps = c.pop("engine.steps", 0)
        if steps:
            per_step[ops[o - n].label] = {k: v / steps for k, v in sorted(c.items())}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(spans_path)
    report.update({
        "ops_per_pass": n, "untraced_pass_s": untraced, "traced_pass_s": traced,
        "span_counts_per_pass": counts[0], "calls_per_step_by_op": per_step,
        "spans_file": str(spans_path.relative_to(ROOT)),
    })
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "tmlab" / "__init__.py").is_file():
        print(f"bench: no tmlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    setup = workloads.WORKLOADS[args.workload]
    tm = load_tmlab()
    report = {"provenance": provenance(args), "input_digest": hashlib.sha256(
        json.dumps(workloads.CONFIGS[args.workload](args.seed)).encode()).hexdigest()}
    runner = run_traced if args.trace else run_untraced
    tally, metrics = runner(tm, args, setup, report)

    units = dict(spans.PER_LAYER) if args.trace else dict(END_TO_END)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report.update({
        "known_failures": tally.known, "wrong": tally.wrong[:50],
        "op_labels_sha256": hashlib.sha256("\n".join(tally.by_label).encode()).hexdigest(),
        "op_ms_by_label": {k: [x * 1e3 for x in v] for k, v in tally.by_label.items()},
        "output_digest": tally.digests[0], "result": result,
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"sha={report['provenance']['git_sha'][:12]} "
          f"python={report['provenance']['python']} gmpy2={report['provenance']['gmpy2']}")
    samples = report.get("metric_samples", {})
    for name, unit in units.items():
        n = samples.get(name, TRACE_PASSES)
        print(f"#   {name:<48} {metrics[name]:>16.6g} {unit:<6} n={n}")
    if "tail_percentile" in report:
        print(f"#   op_ms_tail is p{report['tail_percentile']}, with "
              f"{report['tail_samples_beyond']} samples beyond it")
    print(f"#   attempted={tally.attempted} failed={tally.failed} "
          f"known={sum(tally.known.values())} wrong={len(tally.wrong)}")
    for why in tally.wrong[:5]:
        print(f"#   WRONG {why}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
