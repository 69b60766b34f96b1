"""Command-line driver: trajectories, rate tables, verification suites and
metastability experiments, from a flat dotted-key config file.

Exit codes: 0 success/pass, 1 verification failure, 2 config/flag error,
3 runtime solver failure.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from contextlib import contextmanager
from typing import Optional

import click

from . import rates as R
from . import verify as V
from .engine import run
from .reports import RATE_NAMES, SUITES, write_rate_table, write_verify_report
from .scenario import ConfigError, Scenario, build_scenario, load_config

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
        write_rate_table(stream, sc, k_max, which, cf, phi)
    sys.exit(EXIT_OK)


def _finite_non_negative(ctx, param, value):
    # FloatRange(min=0) would let nan through: every comparison with it is
    # false, so each check would pass or fail on nan alone
    if not 0.0 <= value < math.inf:
        raise click.BadParameter(f"{value} is not a finite number >= 0.")
    return value


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
        report = write_verify_report(fh, names, seed, samples, tol)
    for c in report["checks"]:
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
