"""The bytes `tmlab rates` and `tmlab verify` write, built without click: the
rate table, and the four verification suites with their JSON report.  The
two commands are thin wrappers over `write_rate_table` and
`write_verify_report`, and so is the byte-pin recorder (tests/pins.py), so
the pinned bytes and the command's output come from one code path.
"""

from __future__ import annotations

import csv
import json
import random
from typing import Optional, TextIO

from . import rates as R
from . import verify as V
from .engine import check_boundedness, check_hilbert_special_case, run
from .geometry import Euclidean, Point, SampleSpec, make_model, run_all_geometry_checks
from .rates import Counterfunction
from .scenario import Scenario, scenario_from_text
from .schedules import audit_schedule, preset

# the asymptotic-regularity table, then the two metastability rates
RATE_NAMES = tuple(R.RATES) + ("mu", "mu_star")


def _rate_value(name: str, k: int, sc: Scenario, f: Counterfunction,
                phi: Optional[Counterfunction]) -> R.RateValue:
    if name in R.RATES:
        return R.rate(name, k, sc.bundle, sc.K, sc.chi_T_fn, sc.bit_cap)
    return getattr(R, name)(k, f, sc.bundle, sc.K, sc.chi_T_fn,
                            Phi_override=phi, bit_cap=sc.bit_cap)


def write_rate_table(stream: TextIO, sc: Scenario, k_max: int, which: list,
                     f: Counterfunction, phi: Optional[Counterfunction]) -> None:
    """The CSV table of the rates named in ``which`` for k = 0..k_max, one
    row at a time, with big naturals as decimal strings; ``f`` is the
    counterfunction of the metastability rates and ``phi`` their optional
    single-map regularity rate."""
    writer = csv.writer(stream)
    writer.writerow(["k"] + which)
    for k in range(k_max + 1):
        row = [str(k)]
        for name in which:
            row.append(_rate_value(name, k, sc, f, phi).render())
        writer.writerow(row)


# ---------------------------------------------------------------------------
# Verification suites: each yields (check_id, passed, detail) in report order
# ---------------------------------------------------------------------------


def _geometry_models():
    """The models whose axioms the geometry suite samples."""
    return [Euclidean(3), make_model("disk"), make_model("tripod")]


def _suite_geometry(seed, samples, tol):
    for model in _geometry_models():
        spec = SampleSpec(seed=seed, count=samples)
        for rep in run_all_geometry_checks(model, spec, tol):
            yield f"geometry/{model.describe()}/{rep.axiom}", rep.passed, rep.to_json()


def _suite_schedules(seed, samples, tol):
    horizon = max(10, samples)
    for name in ("harmonic", "constant-gamma-harmonic-beta"):
        for res in audit_schedule(preset(name), horizon, tol).results:
            yield f"schedules/{name}/{res.condition_id}", res.passed, res.to_json()


def _builtin_scenarios():
    """Small scenarios used by the engine and lemma suites."""
    texts = {
        "identity-line": """
            space.kind = euclidean
            space.dim = 1
            family.kind = identity
            schedule.preset = harmonic
            run.u = 0
            run.x0 = 1
        """,
        "rotation-plane": """
            space.kind = euclidean
            space.dim = 2
            family.kind = rotation
            family.angle = 1.5707963267948966
            schedule.preset = harmonic
            run.u = 0,0
            run.x0 = 1,0
        """,
        "proximal-plane": """
            space.kind = euclidean
            space.dim = 2
            family.kind = proximal
            family.center = 0,0
            schedule.preset = harmonic
            run.u = 0,0
            run.x0 = 1,0
        """,
    }
    return {name: scenario_from_text(text) for name, text in texts.items()}


def _suite_engine(seed, samples, tol):
    scenarios = _builtin_scenarios()

    sc = scenarios["identity-line"]
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 200)
    worst = max(abs(x - 1.0 / (n + 1)) for n, x in enumerate(traj.x))
    yield "engine/identity-closed-form", worst <= 1e-12, {"max_deviation": worst}

    for name in ("identity-line", "rotation-plane", "proximal-plane"):
        sc = scenarios[name]
        rep = check_hilbert_special_case(
            sc.space, sc.family, sc.bundle, sc.x0, steps=100, tol=1e-10
        )
        yield f"engine/hilbert-cross-check/{name}", rep.passed, rep.to_json()

    sc = scenarios["proximal-plane"]
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 2000,
               scenario_hash=sc.scenario_hash)
    rep = check_boundedness(traj, sc.M, tol)
    yield "engine/boundedness/proximal-plane", rep.passed, rep.to_json()


def _suite_lemmas(seed, samples, tol):
    bundle = preset("harmonic")

    inst = V.telescoping_instance(1000)
    for k in (0, 3, 10, 25, 50):
        res = V.check_xu_lemma(
            inst, k=k, n=0, q=999, sigma_star=bundle.sigma_star, tol=tol
        )
        # the telescoping instance is built to meet the lemma's hypotheses
        yield (f"lemmas/xu-telescoping/k={k}",
               res.passed and res.hypothesis_status == "met", res.to_json())
    for i in range(20):
        k, q = 2, 900
        inst = V.random_instance(seed + i, 1000, k=k, q=q)
        res = V.check_xu_lemma(
            inst, k=k, n=0, q=q, sigma_star=bundle.sigma_star, tol=tol
        )
        yield f"lemmas/xu-random/{i}", res.passed, res.to_json()

    scenarios = _builtin_scenarios()
    rng = random.Random(seed)
    for name, sc in scenarios.items():
        traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 500,
                   scenario_hash=sc.scenario_hash)
        for i in range(3):
            x = sc.space.sample(rng, 2.0)
            res = V.check_recursive_inequalities(traj, sc.family, sc.bundle, x, tol)
            yield f"lemmas/recursive-inequalities/{name}/{i}", res.passed, res.to_json()

    sc = scenarios["rotation-plane"]
    v1 = Point.euclidean(1e-4, 0.0)
    v2 = Point.euclidean(0.0, 1e-4)
    res = V.check_convex_afp(
        sc.space, sc.family, v1, v2, sc.p, K=2, k=3, n_max=5, t_grid=11
    )
    yield "lemmas/convex-afp/rotation", res.passed, res.to_json()

    space = Euclidean(2)
    x = Point.euclidean(0.0, 0.0)
    y = Point.euclidean(1.0, 0.0)
    u = Point.euclidean(-1.0, 0.5)
    res = V.check_variational(space, x, y, u, x, K=2, k=4, t_grid=11, tol=tol)
    yield "lemmas/variational/projection-characterization", res.passed, res.to_json()


SUITES = {
    "geometry": _suite_geometry,
    "schedules": _suite_schedules,
    "engine": _suite_engine,
    "lemmas": _suite_lemmas,
}


def suite_checks(names: list, seed: int, samples: int, tol: float) -> list:
    """The report entries of the named suites, in order: one
    {"check_id", "pass", "detail"} dict a check."""
    return [{"check_id": check_id, "pass": passed, "detail": detail}
            for name in names
            for check_id, passed, detail in SUITES[name](seed, samples, tol)]


def write_verify_report(stream: TextIO, names: list, seed: int, samples: int,
                        tol: float) -> dict:
    """Run the named suites and write their JSON report to ``stream``; the
    report is returned, and its "pass" is whether every check passed."""
    checks = suite_checks(names, seed, samples, tol)
    report = {
        "suites": names,
        "seed": seed,
        "samples": samples,
        "tol": tol,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    stream.write(json.dumps(report, indent=2, default=str) + "\n")
    return report
