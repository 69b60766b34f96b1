#!/usr/bin/env python3
"""Record the default-seed outputs that the trajectory gates pin down.

    python3 bench/record_golden.py

Euclidean and tripod runs are pinned by the sha256 of their CSV, disk runs
by their final point within a tolerance.  Each output is first checked
against the reference iteration in oracle.py; nothing is written if one
fails.  Re-record only when a change to tmlab is meant to alter the bytes,
and say so in the change.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys

import run
import workloads

DISK_TOL = 1e-12


def main():
    tm = run.load_tmlab()
    seed = workloads.DEFAULT_SEED
    golden = {}
    for wl, configs, steps in (
        ("trajectory", workloads.trajectory_configs(seed, workloads.TRAJECTORY_STEPS),
         workloads.TRAJECTORY_STEPS),
        ("resolvent", workloads.resolvent_configs(seed, workloads.RESOLVENT_STEPS),
         workloads.RESOLVENT_STEPS),
    ):
        golden[wl] = {}
        for name, cfg in configs.items():
            sc = workloads.build(tm, cfg)
            traj = tm.engine.run(sc.space, sc.family, sc.bundle, sc.u, sc.x0,
                                 sc.steps, scenario_hash=sc.scenario_hash)
            buf = io.StringIO()
            traj.write_csv(buf)
            text = buf.getvalue()
            digest = hashlib.sha256(text.encode()).hexdigest()
            gate = workloads.TrajectoryGate(name, cfg, steps)
            why = gate.judge(digest, text, sc.scenario_hash)
            if traj.error or why:
                sys.exit(f"not recording: {traj.error or why}")
            if cfg["space.kind"] == "disk":
                golden[wl][name] = {"final": list(traj.records[-1].x.data),
                                    "tol": DISK_TOL}
            else:
                golden[wl][name] = {"sha256": digest}
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
