"""The checkers that compute each distance once, against the bodies they
replaced.  The references below are those bodies, copied unchanged; every
report, witness included, must be equal to the float bit."""

import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from test_acceptance import SCENARIO_TEXTS
from test_cli import BrokenModel
from tmlab import verify as V
from tmlab.engine import Trajectory, run
from tmlab.geometry import (
    Euclidean,
    Point,
    SampleSpec,
    _collect,
    _rng_for,
    check_cn,
    check_quasilin_axioms,
    make_model,
)
from tmlab.mappings import MappingFamily
from tmlab.scenario import scenario_from_text
from tmlab.schedules import ConditionResult, audit_schedule, preset

# the reference took sigma* products in floats above this horizon
EXACT_PRODUCT_HORIZON = 10_000

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def ref_check_recursive_inequalities(traj, family, bundle, x, tol=1e-9):
    space = traj.space
    u = traj.anchor
    d = space.dist
    d2 = lambda a, b: d(a, b) ** 2
    worst = (-math.inf, None)
    records = list(traj.records)
    for rec in records[:-1]:
        n = rec.n
        beta = bundle.beta(n)
        x_next = records[n + 1].x
        Tx = family.apply(n, x)
        ql = space.quasilin(x, u, x, rec.x)
        du = d(rec.u, x)
        dT = d(Tx, x)
        w_n = 2.0 * du * dT + dT * dT
        res1 = d(x_next, x) - (du + dT)
        res2 = d2(rec.u, x) - (
            beta * d2(rec.x, x)
            + 2.0 * beta * (1.0 - beta) * ql
            + (1.0 - beta) ** 2 * d2(x, u)
        )
        res3 = d2(x_next, x) - (
            beta * (d2(rec.x, x) + int(bundle.B(n)) * w_n)
            + (1.0 - beta) * (2.0 * beta * ql)
            + (1.0 - beta) * d2(x, u)
        )
        for part, res in (("i", res1), ("ii", res2), ("iii", res3)):
            if res > worst[0]:
                worst = (res, {"n": n, "part": part})
    return V.CheckResult(
        check_id="recursive-inequalities",
        passed=worst[0] <= tol,
        witness=None if worst[0] <= tol else worst[1],
        horizons={"length": len(traj)},
        details={"max_residual": worst[0]},
        scenario_hash=traj.scenario_hash,
    )


def ref_check_cn(space, spec, tol=1e-9):
    rng = _rng_for(spec)
    worst_minus = (0.0, None)
    worst_plus = (0.0, None)
    worst_eq = (0.0, None)
    R = spec.radius
    for _ in range(spec.count):
        x, y, z = (space.sample(rng, R) for _ in range(3))
        lam = rng.random()
        desc = {"x": x.data, "y": y.data, "z": z.data, "lambda": lam}
        m = space.midpoint(x, y)
        d2 = lambda a, b: space.dist(a, b) ** 2
        res_minus = d2(z, m) - (0.5 * d2(z, x) + 0.5 * d2(z, y) - 0.25 * d2(x, y))
        if res_minus > worst_minus[0]:
            worst_minus = (res_minus, desc)
        if abs(res_minus) > worst_eq[0]:
            worst_eq = (abs(res_minus), desc)
        c = space.comb(x, y, lam)
        res_plus = d2(z, c) - (
            (1 - lam) * d2(z, x) + lam * d2(z, y) - lam * (1 - lam) * d2(x, y)
        )
        if res_plus > worst_plus[0]:
            worst_plus = (res_plus, desc)
    reports = [
        _collect("CN-", spec.count, tol, [worst_minus]),
        _collect("CN+", spec.count, tol, [worst_plus]),
    ]
    if space.kind == "euclidean":
        reports.append(_collect("CN- equality", spec.count, tol, [worst_eq]))
    return reports


def ref_check_quasilin_axioms(space, spec, tol=1e-9):
    rng = _rng_for(spec)
    names = ("ql-square", "ql-symmetry", "ql-antisymmetry",
             "ql-additivity", "cauchy-schwarz")
    rows = {n: (0.0, None) for n in names}

    def note(name, v, inputs):
        if v > rows[name][0]:
            rows[name] = (v, inputs)

    R = spec.radius
    ql = space.quasilin
    for _ in range(spec.count):
        x, y, u, v, w = (space.sample(rng, R) for _ in range(5))
        desc = {"x": x.data, "y": y.data, "u": u.data, "v": v.data, "w": w.data}
        note("ql-square", abs(ql(x, y, x, y) - space.dist(x, y) ** 2), desc)
        note("ql-symmetry", abs(ql(x, y, u, v) - ql(u, v, x, y)), desc)
        note("ql-antisymmetry", abs(ql(x, y, u, v) + ql(y, x, u, v)), desc)
        note("ql-additivity",
             abs(ql(x, y, u, v) + ql(x, y, v, w) - ql(x, y, u, w)), desc)
        note("cauchy-schwarz",
             ql(x, y, u, v) - space.dist(x, y) * space.dist(u, v), desc)

    return [_collect(n, spec.count, tol, [rows[n]]) for n in names]


def ref_audit_sigma_star(bundle, horizon, tol):
    exact = bundle.beta_exact if horizon <= EXACT_PRODUCT_HORIZON else None
    if exact is not None:
        prefixes = [Fraction(1)] * (horizon + 2)
        for i in range(horizon + 1):
            prefixes[i + 1] = prefixes[i] * exact(i)

        def prod(m, N):  # product over [m, N]
            if prefixes[m] == 0:
                return Fraction(0)
            return prefixes[N + 1] / prefixes[m]

        def leq(value, bound):
            return value <= bound

    else:
        logs = [0.0] * (horizon + 2)
        for i in range(horizon + 1):
            b = bundle.beta(i)
            logs[i + 1] = logs[i] + (math.log(b) if b > 0 else -math.inf)

        def prod(m, N):
            return math.exp(logs[N + 1] - logs[m])

        def leq(value, bound):
            return value <= float(bound) + tol

    for m in range(horizon + 1):
        k = 0
        while True:
            N = bundle.sigma_star(m, k)
            if N > horizon:
                break
            if N >= m and not leq(prod(m, N), Fraction(1, k + 1)):
                return ConditionResult(
                    "C1_q*", horizon, False,
                    {"m": m, "k": k, "N": N, "product": float(prod(m, N))},
                )
            k += 1
    return ConditionResult("C1_q*", horizon, True)


def sigma_star_result(bundle, horizon, tol):
    return {r.condition_id: r for r in audit_schedule(bundle, horizon, tol).results}["C1_q*"]


def same(got, want):
    """Equal JSON text: floats compare by repr, so -0.0 differs from 0.0."""
    as_text = lambda r: json.dumps(
        [x.to_json() for x in r] if isinstance(r, list) else r.to_json(),
        sort_keys=True,
    )
    assert as_text(got) == as_text(want)


# ---------------------------------------------------------------------------
# Recursive inequalities
# ---------------------------------------------------------------------------


class DoublingFamily(MappingFamily):
    """x -> 2x on a Euclidean model: not nonexpansive."""

    def __init__(self, space):
        super().__init__(space, space.base_point())

    def apply(self, n, x):
        return Point("euclidean", tuple([2.0 * c for c in x.data]))


@pytest.fixture(scope="module")
def matrix_trajectories():
    out = {}
    for name, text in SCENARIO_TEXTS.items():
        sc = scenario_from_text(text)
        out[name] = (sc, run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 300,
                             scenario_hash=sc.scenario_hash))
    return out


@pytest.mark.parametrize("name", sorted(SCENARIO_TEXTS))
def test_recursive_inequalities_match_reference(matrix_trajectories, name):
    sc, traj = matrix_trajectories[name]
    rng = random.Random(name)
    for _ in range(5):
        x = sc.space.sample(rng, 2.0)
        same(V.check_recursive_inequalities(traj, sc.family, sc.bundle, x),
             ref_check_recursive_inequalities(traj, sc.family, sc.bundle, x))


def test_recursive_inequalities_failure_witness_matches_reference():
    space = Euclidean(2)
    family = DoublingFamily(space)
    bundle = preset("harmonic")
    traj = run(space, family, bundle, Point.euclidean(0.5, 0.0),
               Point.euclidean(1.0, -0.5), 60)
    x = Point.euclidean(0.3, 0.2)
    got = V.check_recursive_inequalities(traj, family, bundle, x)
    assert not got.passed and got.witness is not None
    same(got, ref_check_recursive_inequalities(traj, family, bundle, x))


def test_recursive_inequalities_on_short_trajectories():
    sc = scenario_from_text(SCENARIO_TEXTS["disk-rotation"])
    full = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 1)
    x = sc.space.sample(random.Random(3), 2.0)
    for length in (2, 1, 0):
        # the run's first rows, copied column by column
        traj = Trajectory(full.space, full.family, full.bundle, full.anchor, full.x0)
        for name in ("x", "u", "Tu"):
            getattr(traj, name).extend(getattr(full, name)[:length * full.width])
        for name in ("d_step", "d_Tn", "d_p"):
            getattr(traj, name).extend(getattr(full, name)[:length])
        assert len(traj) == length
        same(V.check_recursive_inequalities(traj, sc.family, sc.bundle, x),
             ref_check_recursive_inequalities(traj, sc.family, sc.bundle, x))


# ---------------------------------------------------------------------------
# Geometry checkers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["euclidean", "disk", "tripod"])
@pytest.mark.parametrize("seed", [0, 1])
def test_geometry_checkers_match_reference(kind, seed):
    model = make_model(kind, 3)
    spec = SampleSpec(seed=seed, count=400)
    same(check_cn(model, spec), ref_check_cn(model, spec))
    same(check_quasilin_axioms(model, spec), ref_check_quasilin_axioms(model, spec))


def test_geometry_failure_witness_matches_reference():
    model, spec = BrokenModel(2), SampleSpec(seed=5, count=200)
    got = check_cn(model, spec)
    assert any(not r.passed for r in got)
    same(got, ref_check_cn(model, spec))
    same(check_quasilin_axioms(model, spec), ref_check_quasilin_axioms(model, spec))


# ---------------------------------------------------------------------------
# sigma* audit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["harmonic", "constant-gamma-harmonic-beta"])
@pytest.mark.parametrize("horizon", [10, 1000, EXACT_PRODUCT_HORIZON,
                                     EXACT_PRODUCT_HORIZON + 1])
def test_sigma_star_audit_matches_reference(name, horizon):
    bundle = preset(name)
    got = sigma_star_result(bundle, horizon, 1e-9)
    assert got.passed
    same(got, ref_audit_sigma_star(bundle, horizon, 1e-9))


@pytest.mark.parametrize("horizon", [10, EXACT_PRODUCT_HORIZON + 1])
def test_sigma_star_audit_failure_witness_matches_reference(horizon):
    bundle = replace(preset("harmonic"), sigma_star=lambda m, k, cap=None: m)
    got = sigma_star_result(bundle, horizon, 1e-9)
    assert not got.passed
    same(got, ref_audit_sigma_star(bundle, horizon, 1e-9))


def test_sigma_star_audit_zero_prefix_matches_reference():
    # beta_0 = 0 zeroes every prefix from 1 on: each product is 0
    bundle = replace(
        preset("harmonic"),
        beta=lambda n: 0.0 if n == 0 else (n + 1) / (n + 2),
        beta_exact=lambda n: Fraction(0) if n == 0 else Fraction(n + 1, n + 2),
    )
    got = sigma_star_result(bundle, 200, 1e-9)
    assert got.passed
    same(got, ref_audit_sigma_star(bundle, 200, 1e-9))
