"""Every artifact whose bytes the tests pin, how each is built, and the
manifest of their sha256 digests, tests/pins.json.  It imports only the
standard library and tmlab, and neither click nor pytest, so it runs on any
Python that can import tmlab:

    PYTHONPATH=src python tests/pins.py            # check every entry
    PYTHONPATH=src python tests/pins.py --record   # write this regime's digests

The manifest maps each artifact's name to one digest per float regime.
From CPython 3.12 on, float `sum` is compensated, so a sum of three or more
terms (the Euclidean(3) distances and the sampler's norms) may end in other
bits than on 3.10 and 3.11; the regime is measured, not read from the
version.  `--record` rewrites the entries of the regime it runs on and keeps
the other's, so the manifest is recorded by one command on each Python.

The artifacts are the write_csv bytes of the 12 matrix scenarios at 2,000
steps and of 15 more runs that the matrix does not reach; the geometry
suite's checks at four (seed, samples) pairs; the report of `tmlab verify
--suite all --samples 2000`; six `tmlab rates` tables; the schedule audits
of audit_variants() at four horizons and two tolerances; and the decimal
digits of ceil(2 e**47051).  The verify report and the rate tables are
built by the functions the CLI's commands call."""

import argparse
import functools
import hashlib
import io
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from tmlab import rates as R
from tmlab.engine import run
from tmlab.rates import Const, Identity, Table, parse_counterfunction
from tmlab.reports import SUITES, suite_checks, write_rate_table, write_verify_report
from tmlab.scenario import scenario_from_text
from tmlab.schedules import audit_schedule, preset

MANIFEST = Path(__file__).with_name("pins.json")


def regime() -> str:
    """The float regime of this Python: "compensated" where float `sum` is
    compensated (CPython 3.12 on), where ten 0.1s sum to exactly 1.0, and
    "plain" where they sum to 0.9999999999999999."""
    return "compensated" if sum([0.1] * 10) == 1.0 else "plain"


# ---------------------------------------------------------------------------
# Trajectory CSVs
# ---------------------------------------------------------------------------

# The acceptance matrix: 3 models x 4 families
SCENARIO_TEXTS = {
    "euclidean-identity": """
        space.kind = euclidean
        space.dim = 2
        family.kind = identity
        schedule.preset = harmonic
        run.u = 0,0
        run.x0 = 1,0
    """,
    "euclidean-rotation": """
        space.kind = euclidean
        space.dim = 2
        family.kind = rotation
        family.angle = 1.5707963267948966
        schedule.preset = harmonic
        run.u = 0,0
        run.x0 = 1,0
    """,
    "euclidean-projection": """
        space.kind = euclidean
        space.dim = 2
        family.kind = projection
        family.center = 0,0
        family.radius = 0.5
        schedule.preset = harmonic
        run.u = 0.3,0
        run.x0 = 1,0
    """,
    "euclidean-proximal": """
        space.kind = euclidean
        space.dim = 2
        family.kind = proximal
        family.center = 0,0
        schedule.preset = harmonic
        run.u = 0.5,0
        run.x0 = 1,0
    """,
    "disk-identity": """
        space.kind = disk
        family.kind = identity
        schedule.preset = harmonic
        run.u = 0,0
        run.x0 = 0.4,0
    """,
    "disk-rotation": """
        space.kind = disk
        family.kind = rotation
        family.angle = 1.5707963267948966
        schedule.preset = harmonic
        run.u = 0,0
        run.x0 = 0.4,0
    """,
    "disk-projection": """
        space.kind = disk
        family.kind = projection
        family.center = 0,0
        family.radius = 0.3
        schedule.preset = harmonic
        run.u = 0.1,0
        run.x0 = 0.4,0.1
    """,
    "disk-proximal": """
        space.kind = disk
        family.kind = proximal
        family.center = 0,0
        schedule.preset = harmonic
        run.u = 0.2,0
        run.x0 = 0.4,0.1
    """,
    "tripod-identity": """
        space.kind = tripod
        family.kind = identity
        schedule.preset = harmonic
        run.u = 0:0
        run.x0 = 1:1.0
    """,
    "tripod-rotation": """
        space.kind = tripod
        family.kind = rotation
        family.angle = 2.0943951023931953
        schedule.preset = harmonic
        run.u = 0:0
        run.x0 = 1:1.0
    """,
    "tripod-projection": """
        space.kind = tripod
        family.kind = projection
        family.center = 0:0
        family.radius = 0.5
        schedule.preset = harmonic
        run.u = 0:0.2
        run.x0 = 1:1.0
    """,
    "tripod-proximal": """
        space.kind = tripod
        family.kind = proximal
        family.center = 0:0
        schedule.preset = harmonic
        run.u = 0:0.3
        run.x0 = 2:1.0
    """,
}

# Runs the matrix does not reach: the resolvents of a rotation and of a ball
# projection on each model, a constant family on each model, and the
# identity, ball-projection and proximal families on Euclidean(1) and
# Euclidean(3)
RESOLVENT_TEXTS = {
    "euclidean-resolvent-rotation": """
        space.kind = euclidean
        space.dim = 2
        family.kind = resolvent
        family.base.kind = rotation
        family.base.angle = 1.0
        schedule.preset = harmonic
        run.u = 0.41,-0.33
        run.x0 = -1.1,0.9
        run.steps = 100
    """,
    "tripod-resolvent-rotation": """
        space.kind = tripod
        family.kind = resolvent
        family.base.kind = rotation
        family.base.angle = 2.0943951023931953
        schedule.preset = harmonic
        run.u = 2:0.55
        run.x0 = 1:1.6
        run.steps = 100
    """,
    "disk-resolvent-rotation": """
        space.kind = disk
        family.kind = resolvent
        family.base.kind = rotation
        family.base.angle = 2.0943951023931953
        schedule.preset = harmonic
        run.u = 0.21,-0.33
        run.x0 = -0.5,0.4
        run.steps = 100
    """,
    # u outside the ball, so the projection takes geodesic steps
    **{f"{model}-resolvent-projection": f"""
        {space}
        family.kind = resolvent
        family.base.kind = projection
        family.base.center = {center}
        family.base.radius = 0.3
        schedule.preset = harmonic
        run.u = {u}
        run.x0 = {x0}
        run.steps = 100
    """ for model, space, center, u, x0 in (
        ("euclidean", "space.kind = euclidean\nspace.dim = 2", "0.2,0.1", "0.41,-0.33", "-1.1,0.9"),
        ("disk", "space.kind = disk", "0.1,0.05", "0.21,-0.33", "-0.5,0.4"),
        ("tripod", "space.kind = tripod", "0:0.2", "2:0.55", "1:1.6"))},
}

# a constant family of a rotation on each model
CONSTANT_TEXTS = {
    f"{model}-constant": f"""
        {space}
        family.kind = constant
        family.angle = {angle}
        schedule.preset = harmonic
        run.u = {u}
        run.x0 = {x0}
        run.steps = 2000
    """ for model, space, angle, u, x0 in (
        ("euclidean", "space.kind = euclidean\nspace.dim = 2", "1.0", "0.41,-0.33", "-1.1,0.9"),
        ("disk", "space.kind = disk", "2.0", "0.21,-0.33", "-0.5,0.4"),
        ("tripod", "space.kind = tripod", "2.0943951023931953", "2:0.55", "1:1.6"))
}

# the identity, ball-projection and proximal families in one and three
# dimensions, u outside the ball; the three-dimensional distances are
# float sums, which are compensated from Python 3.12 on
DIMENSION_TEXTS = {
    f"euclidean{dim}-{family}": f"""
        space.kind = euclidean
        space.dim = {dim}
        {lines}
        schedule.preset = harmonic
        run.u = {u}
        run.x0 = {x0}
        run.steps = 2000
    """ for dim, center, u, x0 in ((1, "0.2", "0.9", "-1.7"),
                                   (3, "0.2,0.1,-0.3", "0.41,-0.33,0.5", "-1.1,0.9,0.25"))
    for family, lines in (
        ("identity", "family.kind = identity"),
        ("projection", f"family.kind = projection\nfamily.center = {center}\n"
                       "family.radius = 0.3"),
        ("proximal", f"family.kind = proximal\nfamily.center = {center}"))
}


def csv_bytes(text: str) -> bytes:
    """write_csv of the run the scenario text describes."""
    sc = scenario_from_text(text)
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, sc.steps,
               scenario_hash=sc.scenario_hash)
    buf = io.StringIO()
    traj.write_csv(buf)
    return buf.getvalue().encode()


# ---------------------------------------------------------------------------
# Reports, rate tables and audits
# ---------------------------------------------------------------------------


def geometry_bytes(seed: int, samples: int) -> bytes:
    """The geometry suite's checks, as the `checks` of its verify report."""
    return json.dumps(suite_checks(["geometry"], seed, samples, 1e-9), indent=2).encode()


def verify_bytes(samples: int) -> bytes:
    """The report of `tmlab verify --suite all --samples <samples>`."""
    buf = io.StringIO()
    write_verify_report(buf, list(SUITES), 0, samples, 1e-9)
    return buf.getvalue().encode()


# a K = 1 constant family: the golden rate chain
GOLDEN_ROW_CFG = """
space.kind = euclidean
space.dim = 1
family.kind = constant
schedule.preset = constant-gamma-harmonic-beta
run.u = 0
run.x0 = 1
"""

# K = 2 and a proximal family, whose chi_T is nonzero
PROXIMAL_K2_CFG = """
space.kind = euclidean
space.dim = 2
family.kind = proximal
family.center = 0,0
schedule.preset = harmonic
run.u = 0.5,0
run.x0 = 1.5,0
run.K = 2
"""

RATES_CONFIGS = {"golden-row": GOLDEN_ROW_CFG, "proximal-K2": PROXIMAL_K2_CFG}
# --cf and --phi of each pinned table (None: no --phi)
RATES_FLAGS = {
    "phi-const": ("const:0", "const:0"),
    "phi-default": ("const:0", None),
    "cf-affine-phi-id": ("affine:2,0", "id"),
}
ALL_RATES = ("chi", "Sigma", "Sigma_tilde", "Sigma_star", "Sigma_tilde_star",
             "Psi", "Psi_star", "mu", "mu_star")


def rates_bytes(config: str, flags: str) -> bytes:
    """The table of `tmlab rates --which <all nine> --k-max 3 --cf <cf>
    [--phi <phi>]` on the named config."""
    cf, phi = RATES_FLAGS[flags]
    buf = io.StringIO()
    write_rate_table(buf, scenario_from_text(RATES_CONFIGS[config]), 3, list(ALL_RATES),
                     parse_counterfunction(cf), None if phi is None else parse_counterfunction(phi))
    return buf.getvalue().encode()


def audit_variants():
    """Both presets, and for each condition a bundle that fails it."""
    h = preset("harmonic")
    return {
        "harmonic": h,
        "constant": preset("constant-gamma-harmonic-beta"),
        "C1_q": replace(h, sigma=Identity()),
        "C1_q*": replace(h, sigma_star=lambda m, k, cap=None: m),
        "C2_q": replace(h, chi_beta=Const(0)),
        "C3_q": replace(h, lam=lambda n: 0.5 + 0.5 / (n + 1)),
        "C4_q": replace(h, eta=Const(0)),
        # eta(k) = k - 1 holds exactly, but 1 - beta_1 exceeds 1/3 by an ulp
        # in floats: only the tolerance passes it
        "C4_q-ulp": replace(h, eta=Table(tuple(max(k - 1, 0) for k in range(10_002)))),
        "C5_q": replace(h, Lambda=1),
        "C7_q-series": replace(h, chi_gamma=Const(0)),
        "C7_q-G": replace(h, G=1),
        "C8_q": replace(h, gamma=lambda n: 1.0 / (n + 1), Gamma=1),
        "C9_q": replace(h, B=Const(1)),
        # beta_0 = 0 zeroes every product prefix from 1 on
        "zero-beta-0": replace(
            h, beta=lambda n: 0.0 if n == 0 else (n + 1) / (n + 2),
            beta_exact=lambda n: Fraction(0) if n == 0 else Fraction(n + 1, n + 2)),
    }


AUDIT_HORIZONS = (10, 1000, 2000, 10000)
AUDIT_TOLS = ("1e-09", "0.0")


# one bundle a variant, read by its audits at every horizon and tolerance
_variants = functools.lru_cache(maxsize=None)(audit_variants)


def audit_bytes(variant: str, horizon: int, tol: str) -> bytes:
    """json.dumps of the audit's report."""
    report = audit_schedule(_variants()[variant], horizon, float(tol))
    return json.dumps(report.to_json()).encode()


def ceil_bytes() -> bytes:
    """The decimal digits of ceil(2 e**47051), the largest value the rates
    benchmark forms."""
    return R._decimal(R._ceil_scaled_exp(2, 47051, None)).encode()


# ---------------------------------------------------------------------------
# The artifacts by name, and the manifest
# ---------------------------------------------------------------------------

ARTIFACTS = {
    **{f"matrix/{name}": functools.partial(csv_bytes, text + "run.steps = 2000\n")
       for name, text in SCENARIO_TEXTS.items()},
    **{f"engine/{name}": functools.partial(csv_bytes, text)
       for name, text in {**RESOLVENT_TEXTS, **CONSTANT_TEXTS, **DIMENSION_TEXTS}.items()},
    # two seeds at 400 samples; 2,500, which the checkers draw in three
    # blocks; and the CLI's default 10,000, in ten
    **{f"geometry/{seed}/{samples}": functools.partial(geometry_bytes, seed, samples)
       for seed, samples in ((0, 400), (1, 400), (0, 2500), (0, 10000))},
    "verify/all/2000": functools.partial(verify_bytes, 2000),
    **{f"rates/{config}/{flags}": functools.partial(rates_bytes, config, flags)
       for config in RATES_CONFIGS for flags in RATES_FLAGS},
    **{f"audit/{variant}/{horizon}/{tol}": functools.partial(audit_bytes, variant, horizon, tol)
       for variant in _variants() for horizon in AUDIT_HORIZONS for tol in AUDIT_TOLS},
    "ceil-2e-47051": ceil_bytes,
}


def build(name: str) -> bytes:
    """The named artifact's bytes, computed afresh."""
    return ARTIFACTS[name]()


@functools.lru_cache(maxsize=None)
def artifact(name: str) -> bytes:
    """The named artifact's bytes, computed once a process: the tests that
    compare other output with an artifact read this copy."""
    return build(name)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load() -> dict:
    """The manifest: {name: {regime: digest}}."""
    return json.loads(MANIFEST.read_text())


def problem(name: str, data: bytes, manifest: dict):
    """None when the bytes have the digest the manifest pins for them on
    this regime; else what is wrong.  An entry with no digest for this
    regime is a problem, never a pass."""
    pinned = manifest.get(name, {}).get(regime())
    if pinned is None:
        return f"{name}: no digest pinned for the {regime()} regime"
    got = digest(data)
    if got != pinned:
        return f"{name}: sha256 {got}, pinned {pinned}"
    return None


def mismatches() -> list:
    """Each artifact, built afresh, whose bytes do not have the digest the
    manifest pins on this regime, as a message naming it."""
    manifest = load()
    return [msg for name in ARTIFACTS
            if (msg := problem(name, build(name), manifest)) is not None]


def record() -> None:
    """Write this regime's digest of every artifact, keeping the other
    regime's; names the recorder no longer builds are dropped."""
    old = load() if MANIFEST.exists() else {}
    manifest = {name: {**old.get(name, {}), regime(): digest(build(name))}
                for name in ARTIFACTS}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Check or record the byte pins.")
    parser.add_argument("--record", action="store_true",
                        help="write this regime's digests into tests/pins.json")
    args = parser.parse_args(argv)
    if args.record:
        record()
        print(f"recorded {len(ARTIFACTS)} digests for the {regime()} regime")
        return 0
    bad = mismatches()
    for msg in bad:
        print(msg)
    print(f"{len(ARTIFACTS) - len(bad)} of {len(ARTIFACTS)} pins hold on the {regime()} regime")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
