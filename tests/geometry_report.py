"""The geometry suite's checks as report JSON, and its sha256, for the
byte pins of test_geometry.py.  It imports only the standard library and
tmlab.geometry, so it runs on any Python without the test extras:

    PYTHONPATH=src python tests/geometry_report.py

prints the digest of each pinned (seed, samples) pair.  The checks are the
`checks` entries `tmlab verify --suite geometry` writes for the same seed
and samples, on the same three models."""

import hashlib
import json

from tmlab.geometry import Euclidean, PoincareDisk, SampleSpec, Tripod, run_all_geometry_checks

# (seed, samples): two seeds at 400 samples, and one at 2,500, which the
# checkers draw in three blocks
PINNED = ((0, 400), (1, 400), (0, 2500))


def report_bytes(seed: int, samples: int) -> bytes:
    spec = SampleSpec(seed=seed, count=samples)
    checks = [{"check_id": f"geometry/{model.describe()}/{rep.axiom}",
               "pass": rep.passed, "detail": rep.to_json()}
              for model in (Euclidean(3), PoincareDisk(), Tripod())
              for rep in run_all_geometry_checks(model, spec, 1e-9)]
    return json.dumps(checks, indent=2).encode()


def digest(seed: int, samples: int) -> str:
    return hashlib.sha256(report_bytes(seed, samples)).hexdigest()


if __name__ == "__main__":
    for seed, samples in PINNED:
        print(f"seed {seed}, {samples} samples: {digest(seed, samples)}")
