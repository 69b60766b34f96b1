"""Command-line driver: trajectories, rate tables, verification suites and
metastability experiments, from a flat dotted-key config file.

Exit codes: 0 success/pass, 1 verification failure, 2 config/flag error,
3 runtime solver failure.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import random
import sys
from contextlib import contextmanager
from typing import Optional

import click

from . import rates as R
from . import verify as V
from .engine import check_boundedness, check_hilbert_special_case, run
from .geometry import Euclidean, Point, SampleSpec, make_model, run_all_geometry_checks
from .scenario import ConfigError, Scenario, build_scenario, load_config, scenario_from_text
from .schedules import audit_schedule, preset

log = logging.getLogger("tmlab")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


@click.group()
@click.option(
    "--log-level",
    type=click.Choice(["error", "warn", "info", "debug"]),
    default="warn",
    help="Diagnostics verbosity (standard error only).",
)
def main(log_level: str):
    level = {"error": logging.ERROR, "warn": logging.WARNING,
             "info": logging.INFO, "debug": logging.DEBUG}[log_level]
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def _load_scenario(config_path: str) -> Scenario:
    try:
        return build_scenario(load_config(config_path))
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)


def _counterfunction(ctx, param, value):
    """The parsed --cf or --phi text; one the grammar refuses is a flag error,
    and an empty --phi is no override."""
    if param.name == "phi" and not value:
        return None
    try:
        return R.parse_counterfunction(value)
    except R.RateError as exc:
        raise click.BadParameter(str(exc)) from None


@contextmanager
def _output(path: Optional[str], option: str):
    """The file at path, or standard output for None and "-"; a path that
    cannot be opened is a flag error naming the option."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise click.BadParameter(f"cannot write {path!r}: {exc.strerror}.",
                                 param_hint=f"'{option}'") from None
    with fh:
        yield fh


@main.command("run")
@click.argument("config_path", type=click.Path())
@click.option("--steps", type=click.IntRange(min=1), default=None,
              help="Override run.steps.")
@click.option("--out", type=click.Path(), default=None, help="Trajectory CSV file.")
def cmd_run(config_path, steps, out):
    """Generate a trajectory and write it as CSV."""
    sc = _load_scenario(config_path)
    n_steps = steps if steps is not None else sc.steps
    with _output(out, "--out") as stream:
        traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, n_steps,
                   scenario_hash=sc.scenario_hash)
        traj.write_csv(stream)
    if traj.error:
        click.echo(f"solver failure: {traj.error}", err=True)
        sys.exit(EXIT_SOLVER)
    sys.exit(EXIT_OK)


# the asymptotic-regularity table, then the two metastability rates
RATE_NAMES = tuple(R.RATES) + ("mu", "mu_star")


def _rate_value(name, k, sc: Scenario, f, phi):
    if name in R.RATES:
        return R.rate(name, k, sc.bundle, sc.K, sc.chi_T_fn, sc.bit_cap)
    return getattr(R, name)(k, f, sc.bundle, sc.K, sc.chi_T_fn,
                            Phi_override=phi, bit_cap=sc.bit_cap)


def _rate_names(ctx, param, value):
    """The --which names in order; an empty list or an unknown name is a
    flag error."""
    names = [w.strip() for w in value.split(",") if w.strip()]
    if not names:
        raise click.BadParameter(f"{value!r} names no rate.")
    for name in names:
        if name not in RATE_NAMES:
            raise click.BadParameter(f"unknown rate {name!r}.")
    return names


@main.command("rates")
@click.argument("config_path", type=click.Path())
@click.option("--k-max", type=click.IntRange(min=0), default=5,
              help="Tabulate k = 0..k_max.")
@click.option("--which", default="Sigma_star", callback=_rate_names,
              help="Comma-separated rate names: " + ",".join(RATE_NAMES))
@click.option("--cf", default="const:0", callback=_counterfunction,
              help="Counterfunction for the metastability rates (mini-grammar).")
@click.option("--phi", default=None, callback=_counterfunction,
              help="Optional override for the single-map regularity rate "
                   "used inside mu / mu_star (mini-grammar).")
@click.option("--out", type=click.Path(), default=None)
def cmd_rates(config_path, k_max, which, cf, phi, out):
    """Tabulate rate values as CSV (big naturals as decimal strings)."""
    sc = _load_scenario(config_path)
    with _output(out, "--out") as stream:
        writer = csv.writer(stream)
        writer.writerow(["k"] + which)
        for k in range(k_max + 1):
            row = [str(k)]
            for name in which:
                row.append(_rate_value(name, k, sc, cf, phi).render())
            writer.writerow(row)
    sys.exit(EXIT_OK)


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


def _finite_non_negative(ctx, param, value):
    # FloatRange(min=0) would let nan through: every comparison with it is
    # false, so each check would pass or fail on nan alone
    if not 0.0 <= value < math.inf:
        raise click.BadParameter(f"{value} is not a finite number >= 0.")
    return value


SUITES = {
    "geometry": _suite_geometry,
    "schedules": _suite_schedules,
    "engine": _suite_engine,
    "lemmas": _suite_lemmas,
}


@main.command("verify")
@click.option("--suite", "suite_name", required=True,
              type=click.Choice(list(SUITES) + ["all"]))
@click.option("--seed", type=int, default=0)
@click.option("--samples", type=click.IntRange(min=1), default=10_000)
@click.option("--tol", type=float, default=1e-9, callback=_finite_non_negative,
              help="Slack every check allows (finite, >= 0).")
@click.option("--report", "report_path", type=click.Path(), default=None)
def cmd_verify(suite_name, seed, samples, tol, report_path):
    """Run a verification suite and emit a JSON report."""
    names = list(SUITES) if suite_name == "all" else [suite_name]
    with _output(report_path, "--report") as fh:
        checks = [{"check_id": check_id, "pass": passed, "detail": detail}
                  for name in names
                  for check_id, passed, detail in SUITES[name](seed, samples, tol)]
        report = {
            "suites": names,
            "seed": seed,
            "samples": samples,
            "tol": tol,
            "checks": checks,
            "pass": all(c["pass"] for c in checks),
        }
        fh.write(json.dumps(report, indent=2, default=str) + "\n")
    for c in checks:
        log.info("%s: %s", c["check_id"], "pass" if c["pass"] else "FAIL")
    sys.exit(EXIT_OK if report["pass"] else EXIT_FAIL)


@main.command("metastable")
@click.argument("config_path", type=click.Path())
@click.option("--k", type=click.IntRange(min=0), default=0)
@click.option("--cf", default="const:0", callback=_counterfunction,
              help="Counterfunction (mini-grammar).")
@click.option("--cap", type=click.IntRange(min=1), default=10_000,
              help="Search horizon.")
@click.option("--phi", default=None, callback=_counterfunction,
              help="Optional single-map regularity rate override (mini-grammar).")
@click.option("--report", "report_path", type=click.Path(), default=None)
def cmd_metastable(config_path, k, cf, cap, phi, report_path):
    """Search the metastability index and compare it with the computed rate."""
    sc = _load_scenario(config_path)
    with _output(report_path, "--report") as fh:
        traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, sc.steps,
                   scenario_hash=sc.scenario_hash)
        if traj.error:
            click.echo(f"solver failure: {traj.error}", err=True)
            sys.exit(EXIT_SOLVER)
        query = V.MetastabilityQuery(k=k, f=cf, cap=cap)
        bound = R.mu_star(
            k, cf, sc.bundle, sc.K, sc.chi_T_fn,
            Phi_override=phi, bit_cap=sc.bit_cap,
        )
        result = V.check_mu(traj, query, bound, tol=sc.tol)
        fh.write(json.dumps(result.to_json(), indent=2) + "\n")
    sys.exit(EXIT_OK if result.passed else EXIT_FAIL)


if __name__ == "__main__":  # pragma: no cover
    main()
