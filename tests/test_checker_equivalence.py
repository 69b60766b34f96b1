"""The checkers that compute each distance once, note their worst case in
the AxiomReport they return, or decide an AR check from one suffix scan,
against the bodies they replaced.  The references below are those bodies,
copied unchanged with the helpers _rng_for, _collect and _suffix_first_hit
they called; every report, witness included, must be equal to the float
bit."""

import cmath
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import SCENARIO_TEXTS
from test_cli import BrokenModel
from tmlab import verify as V
from tmlab.engine import (EngineError, Trajectory, check_boundedness,
                          check_hilbert_special_case, run)
from tmlab.geometry import (
    _TRIPOD_LENGTH,
    DISK_MARGIN,
    SAMPLE_BLOCK,
    AxiomReport,
    Euclidean,
    GeometryError,
    Point,
    SampleSpec,
    check_cn,
    check_quasilin_axioms,
    check_uniform_convexity,
    check_w_axioms,
    make_model,
)
from tmlab.mappings import (IdentityFamily, MappingFamily, RotationFamily,
                            check_condition_c1, check_nonexpansive)
from tmlab.rates import CapExceeded, Psi_star, RateValue
from tmlab.scenario import scenario_from_text
from tmlab.schedules import ConditionResult, audit_schedule, preset
from tmlab.verify import CheckResult, VerifyError

# the reference took sigma* products in floats above this horizon
EXACT_PRODUCT_HORIZON = 10_000

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def _rng_for(spec: SampleSpec) -> random.Random:
    return random.Random(spec.seed)


def _collect(name, samples, tol, records) -> AxiomReport:
    worst = max(records, key=lambda r: r[0]) if records else (0.0, None)
    return AxiomReport(
        axiom=name,
        samples=samples,
        max_violation=worst[0],
        worst_case_inputs=worst[1],
        tol=tol,
    )



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
        m = space.comb(x, y, 0.5)
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


def ref_check_w_axioms(space, spec, tol=1e-9):
    rng = _rng_for(spec)
    rows = {name: (0.0, None) for name in ("W1", "W2", "W3", "W4")}

    def note(name, v, inputs):
        if v > rows[name][0]:
            rows[name] = (v, inputs)

    R = spec.radius
    for _ in range(spec.count):
        x, y, z, w = (space.sample(rng, R) for _ in range(4))
        lam, theta = rng.random(), rng.random()
        desc = {
            "x": x.data, "y": y.data, "z": z.data, "w": w.data,
            "lambda": lam, "theta": theta,
        }
        cxy = space.comb(x, y, lam)
        note("W1", space.dist(z, cxy)
             - ((1 - lam) * space.dist(z, x) + lam * space.dist(z, y)), desc)
        note("W2", abs(space.dist(cxy, space.comb(x, y, theta))
                       - abs(lam - theta) * space.dist(x, y)), desc)
        note("W3", space.dist(cxy, space.comb(y, x, 1.0 - lam)), desc)
        note("W4", space.dist(space.comb(x, z, lam), space.comb(y, w, lam))
             - ((1 - lam) * space.dist(x, y) + lam * space.dist(z, w)), desc)

    return [
        _collect(name, spec.count, tol, [rows[name]]) for name in rows
    ]


def ref_check_uniform_convexity(space, spec, tol=1e-9):
    rng = _rng_for(spec)
    worst = (0.0, None)
    R = spec.radius
    for _ in range(spec.count):
        a = space.sample(rng, R)
        r = rng.uniform(0.05 * R, R)
        x = space.sample_near(rng, a, r)
        y = space.sample_near(rng, a, r)
        dxy = space.dist(x, y)
        eps = dxy / r
        if eps > 2.0:
            continue  # cannot happen inside the ball; numerical safety
        m = space.comb(x, y, 0.5)
        v = space.dist(a, m) - (1.0 - eps * eps / 8.0) * r
        if v > worst[0]:
            worst = (v, {"a": a.data, "x": x.data, "y": y.data, "r": r, "eps": eps})
    return [_collect("uniform convexity eps^2/8", spec.count, tol, [worst])]


def ref_check_nonexpansive(family, n_max, spec, tol=1e-9):
    rng = _rng_for(spec)
    space = family.space
    worst = (0.0, None)
    for _ in range(spec.count):
        x = space.sample(rng, spec.radius)
        y = space.sample(rng, spec.radius)
        dxy = space.dist(x, y)
        for n in range(n_max + 1):
            slack = space.dist(family.apply(n, x), family.apply(n, y)) - dxy
            if slack > worst[0]:
                worst = (slack, {"x": x.data, "y": y.data, "n": n})
    return AxiomReport(
        axiom=f"nonexpansive[{family.name}]",
        samples=spec.count,
        max_violation=worst[0],
        worst_case_inputs=worst[1],
        tol=tol,
    )


def ref_check_condition_c1(family, gammas, n_max, spec, tol=1e-9):
    for n in range(n_max + 1):
        if gammas(n) <= 0:
            raise GeometryError(f"gamma_{n} must be positive")
    rng = _rng_for(spec)
    space = family.space
    worst = (0.0, None)
    for _ in range(spec.count):
        x = space.sample(rng, spec.radius)
        images = [family.apply(n, x) for n in range(n_max + 1)]
        for n in range(n_max + 1):
            gn = gammas(n)
            dref = space.dist(images[n], x)
            for m in range(n_max + 1):
                lhs = space.dist(images[n], images[m])
                rhs = abs(gammas(m) - gn) / gn * dref
                if lhs - rhs > worst[0]:
                    worst = (lhs - rhs, {"x": x.data, "n": n, "m": m})
    return AxiomReport(
        axiom=f"condition-c1[{family.name}]",
        samples=spec.count,
        max_violation=worst[0],
        worst_case_inputs=worst[1],
        tol=tol,
    )


def ref_check_hilbert_special_case(space, family, bundle, x0, steps, tol=1e-10):
    if not isinstance(space, Euclidean):
        raise EngineError("the coordinate cross-check needs a Euclidean model")
    origin = space.base_point()
    traj = run(space, family, bundle, origin, x0, steps)
    if traj.error:
        raise EngineError(traj.error)

    xs = list(traj.points(traj.x))
    y = tuple(x0.data)
    worst = (-math.inf, None)
    for n in range(steps + 1):
        dev = space.dist(xs[n], Point("euclidean", y))
        slack = dev - tol * (1 + n)  # allowance grows with accumulated rounding
        if slack > worst[0]:
            worst = (slack, {"n": n, "deviation": dev})
        beta, lam = bundle.beta(n), bundle.lam(n)
        scaled = tuple(beta * c for c in y)
        image = family.apply(n, Point("euclidean", scaled)).data
        y = tuple(
            (1.0 - lam) * s + lam * t for s, t in zip(scaled, image)
        )
    return AxiomReport(
        axiom=f"hilbert-special-case[{family.name}]",
        samples=steps + 1,
        max_violation=worst[0],
        worst_case_inputs=worst[1],
        tol=0.0,
    )


def ref_check_boundedness(traj, K_like, tol=1e-9):
    space, p = traj.space, traj.family.fixed_point
    worst = 0.0
    for d_p, u_n in zip(traj.d_p, traj.points(traj.u)):
        worst = max(worst, d_p - K_like, space.dist(u_n, p) - K_like)
    return AxiomReport(
        axiom="boundedness",
        samples=len(traj),
        max_violation=worst,
        worst_case_inputs=None,
        tol=tol,
    )


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


def _suffix_first_hit(values, bound) -> int:
    """Least n such that every value from n on stays below the bound; a
    NaN counts as a value above it."""
    hit = len(values)
    for value in reversed(values):
        if not value <= bound:
            break
        hit -= 1
    return hit


def ref_ar_check(check_id, values, rate, k, cap, tol, scenario_hash) -> CheckResult:
    bound = 1.0 / (k + 1) + tol
    end = len(values)
    start_cap = min(cap, end)
    if rate.is_astronomical:
        start = start_cap
        flagged = "rate astronomical; bound comparison vacuous"
    else:
        start = min(int(rate.value), start_cap)
        flagged = ""
    if end <= start:
        raise VerifyError(
            f"{check_id}: trajectory of length {end} too short for start {start}"
        )
    bad = next((i for i in range(start, end) if not values[i] <= bound), None)
    first_hit = _suffix_first_hit(values, bound)
    bound_ok = rate >= first_hit  # RateValue order; Astronomical dominates
    passed = bad is None and bound_ok
    if not passed:  # the first NaN is the witness over any number
        bad = next((i for i, value in enumerate(values) if value != value), bad)
    return CheckResult(
        check_id=check_id,
        passed=passed,
        witness=None if bad is None else {"n": bad, "value": values[bad]},
        horizons={"suffix_start": start, "cap": cap, "length": end},
        details={
            "k": k,
            "first_hit": first_hit,
            "rate": rate.render(),
            "flag": flagged,
        },
        scenario_hash=scenario_hash,
    )


def ref_check_Tm_ar(traj, family, m, rate, k, cap, tol=1e-9):
    # the body before families declared members_coincide; its _ar_check is
    # ref_ar_check, held to the same outcome by the hypothesis test below
    space = traj.space
    values = [space.dist(x, family.apply(m, x)) for x in traj.points(traj.x)]
    return ref_ar_check(f"Tm-ar[m={m}]", values, rate, k, cap, tol, traj.scenario_hash)


def ref_check_chi_T_series(traj, family, chi_T_fn, k_max, tol=1e-8):
    dist, apply = traj.space.dist, family.apply
    terms = [
        dist(apply(n + 1, u_n), Tu_n)
        for n, (u_n, Tu_n) in enumerate(zip(traj.points(traj.u), traj.points(traj.Tu)))
    ]
    tails = [0.0] * (len(terms) + 1)
    for i in range(len(terms) - 1, -1, -1):
        tails[i] = tails[i + 1] + terms[i]
    worst = AxiomReport("chi-T-series", k_max + 1, max_violation=-math.inf, tol=tol)
    for k in range(k_max + 1):
        try:
            start = chi_T_fn(k)
        except CapExceeded:
            continue
        if start >= len(terms):
            continue
        worst.note(tails[start] - 1.0 / (k + 1),
                   {"k": k, "start": start, "tail_sum": tails[start]})
    witness = None if worst.passed else worst.worst_case_inputs
    if witness is not None and witness["tail_sum"] != witness["tail_sum"]:
        # a NaN tail: name the first NaN term it sums
        start = witness["start"]
        witness["n"] = next(n for n in range(start, len(terms)) if terms[n] != terms[n])
    return CheckResult(
        check_id="chi-T-series",
        passed=worst.passed,
        witness=witness,
        horizons={"length": len(terms), "k_max": k_max},
        details={"max_residual": worst.max_violation},
        scenario_hash=traj.scenario_hash,
    )


def same(got, want):
    """Equal JSON text: floats compare by repr, so -0.0 differs from 0.0."""
    as_text = lambda r: json.dumps(
        [x.to_json() for x in r] if isinstance(r, list) else r.to_json(),
        sort_keys=True,
    )
    assert as_text(got) == as_text(want)


# ---------------------------------------------------------------------------
# AR checks
# ---------------------------------------------------------------------------


def _ar_outcome(check, values, rate, k, cap, tol):
    """("raise", message) or the result's kind and JSON text."""
    try:
        res = check("ar", values, rate, k, cap, tol, "f00d")
    except VerifyError as exc:
        return "raise", str(exc)
    return ("pass" if res.passed else "fail"), json.dumps(res.to_json(), sort_keys=True)


def test_one_scan_ar_decision_is_the_reference():
    seen = set()

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def check(data):
        k = data.draw(st.integers(0, 5))
        tol = data.draw(st.sampled_from([0.0, 1e-9]))
        bound = 1.0 / (k + 1) + tol
        within = [bound, math.nextafter(bound, -math.inf), 0.0, -math.inf]
        beyond = [math.nextafter(bound, math.inf), math.nan, math.inf]
        # any values, then values within the bound, so that some draws pass
        head = data.draw(st.lists(st.sampled_from(within + beyond), max_size=30))
        tail = data.draw(st.lists(st.sampled_from(within), max_size=30))
        values = head + tail or [data.draw(st.sampled_from(within + beyond))]
        n = len(values)
        rate = data.draw(st.integers(0, n + 3).map(RateValue.finite)
                         | st.just(RateValue.astronomical("2^(2^20)")))
        cap = data.draw(st.integers(1, n + 3))
        got = _ar_outcome(V._ar_check, values, rate, k, cap, tol)
        assert got == _ar_outcome(ref_ar_check, values, rate, k, cap, tol)
        seen.add(got[0])

    check()
    assert {"pass", "fail"} <= seen


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


class InfiniteAtZero(MappingFamily):
    """T_0 maps every point to (inf,), T_n for n >= 1 is the identity, on
    Euclidean(1)."""

    def __init__(self, space):
        super().__init__(space, space.base_point())

    def apply(self, n, x):
        return Point("euclidean", (math.inf,)) if n == 0 else x


def hand_trajectory(family, bundle, xs, us):
    """A trajectory of Euclidean(1) whose x_n and u_n are the given floats,
    anchored at 0; the columns the inequalities do not read are zero."""
    space = family.space
    traj = Trajectory(space, family, bundle, space.base_point(), Point.euclidean(xs[0]))
    traj.x.extend(xs)
    traj.u.extend(us)
    for name in ("Tu", "d_step", "d_Tn", "d_p"):
        getattr(traj, name).extend([0.0] * len(xs))
    return traj


def test_recursive_inequalities_tie_across_parts_matches_reference():
    # beta = 1/2, x = u = 0 and T_n the identity: the residuals are
    # |x_{n+1}| - |u_n|, u_n^2 - x_n^2/2 and x_{n+1}^2 - x_n^2/2, and their
    # largest, 1.0, is part iii at row 0 and part i at row 1
    space = Euclidean(1)
    bundle = replace(preset("harmonic"), beta=lambda n: 0.5)
    family = IdentityFamily(space)
    traj = hand_trajectory(family, bundle, [0.0, 1.0, 1.0, 0.0], [0.5, 0.0, 0.0, 0.0])
    x = space.base_point()
    got = V.check_recursive_inequalities(traj, family, bundle, x)
    assert got.details["max_residual"] == 1.0 and got.witness == {"n": 0, "part": "iii"}
    same(got, ref_check_recursive_inequalities(traj, family, bundle, x))


def test_recursive_inequalities_nan_before_the_largest_value():
    # d(T_0 x, x) = inf and d(u_0, x) = 0 make w_0 = 2 * 0 * inf + inf NaN,
    # so part iii is NaN at row 0; part i's largest, 1.0, is at row 1.  The
    # reference skips NaN: it names that largest value, and the check names
    # the NaN, which comes first
    space = Euclidean(1)
    bundle = replace(preset("harmonic"), beta=lambda n: 0.5)
    family = InfiniteAtZero(space)
    traj = hand_trajectory(family, bundle, [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.5, 0.0])
    x = space.base_point()
    got = V.check_recursive_inequalities(traj, family, bundle, x)
    want = ref_check_recursive_inequalities(traj, family, bundle, x)
    assert want.witness == {"n": 1, "part": "i"} and want.details["max_residual"] == 1.0
    assert got.witness == {"n": 0, "part": "iii"} and math.isnan(got.details["max_residual"])
    assert not got.passed
    got.witness, got.details = want.witness, want.details
    same(got, want)


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
# Tm-AR and the chi_T series
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIO_TEXTS))
def test_Tm_ar_and_chi_T_series_match_reference(matrix_trajectories, name):
    sc, traj = matrix_trajectories[name]
    for m in (0, 5):
        for k in (0, 3):
            # the row's rate, and a rate of 0, which fails with a witness value
            for rate in (Psi_star(k, sc.bundle, sc.K, sc.chi_T_fn), RateValue.finite(0)):
                same(V.check_Tm_ar(traj, sc.family, m, rate, k=k, cap=len(traj) - 1),
                     ref_check_Tm_ar(traj, sc.family, m, rate, k=k, cap=len(traj) - 1))
    for fn in (sc.chi_T_fn, lambda k: 0, lambda k: 7 * k):
        same(V.check_chi_T_series(traj, sc.family, fn, k_max=20),
             ref_check_chi_T_series(traj, sc.family, fn, k_max=20))


class NaNBelow(MappingFamily):
    """The identity, except that a point whose first coordinate is below
    0.1 goes to a point of NaN coordinates; its members coincide."""

    members_coincide = True

    def __init__(self, space):
        super().__init__(space, space.base_point())

    def apply(self, n, x):
        return Point(x.kind, (math.nan,) * len(x.data)) if x.data[0] < 0.1 else x


class NaNBelowPerRow(NaNBelow):
    """The same maps, not declared to coincide: the checks apply T_n on
    every row."""

    members_coincide = False


@pytest.mark.parametrize("kind,dim", [("euclidean", 1), ("euclidean", 2), ("euclidean", 3),
                                      ("disk", 2)])
def test_nan_images_of_coinciding_members_match_reference(kind, dim):
    # u = 0 and x_0 = (0.9, 0, ...): u_n and x_n approach u along the axis,
    # so u_n crosses 0.1 first, its image is NaN, and every row after it is
    # NaN
    space = make_model(kind, dim)
    at = lambda *c: Point(kind, (c + (0.0,) * dim)[:dim])
    fam, bundle = NaNBelow(space), preset("harmonic")
    traj = run(space, fam, bundle, space.base_point(), at(0.9), 40)
    first = next(n for n, t in enumerate(traj.Tu[::dim]) if t != t)  # first NaN T_n u_n
    assert traj.error is None and 0 < first < len(traj) - 2
    for m in (0, 5):
        for rate in (RateValue.finite(3), RateValue.finite(first + 3)):
            got = V.check_Tm_ar(traj, fam, m, rate, k=0, cap=len(traj) - 1)
            assert not got.passed and math.isnan(got.witness["value"])
            same(got, ref_check_Tm_ar(traj, fam, m, rate, k=0, cap=len(traj) - 1))
    for fn, start in ((fam.chi_T_fn(bundle, K=1), 0), (lambda k: first + 2, first + 2)):
        got = V.check_chi_T_series(traj, fam, fn, k_max=3)
        assert not got.passed and math.isnan(got.details["max_residual"])
        assert got.witness["start"] == start and got.witness["n"] == max(first, start)
        same(got, ref_check_chi_T_series(traj, fam, fn, k_max=3))
    # the reference skips NaN residuals (see
    # test_recursive_inequalities_nan_before_the_largest_value), so the NaN
    # witnesses are held to the check's per-row path, and the reference to
    # the rows before the first NaN one
    twin = NaNBelowPerRow(space)
    finite = Trajectory(space, fam, bundle, traj.anchor, traj.x0)
    for name in ("x", "u", "Tu"):
        getattr(finite, name).extend(getattr(traj, name)[:first * dim])
    for name in ("d_step", "d_Tn", "d_p"):
        getattr(finite, name).extend(getattr(traj, name)[:first])
    above, below = at(0.5, 0.1), at(0.0, 0.1)
    for x, witness in ((above, {"n": first, "part": "i"}), (below, {"n": 0, "part": "i"})):
        got = V.check_recursive_inequalities(traj, fam, bundle, x)
        assert got.witness == witness and math.isnan(got.details["max_residual"])
        same(got, V.check_recursive_inequalities(traj, twin, bundle, x))
    same(V.check_recursive_inequalities(finite, fam, bundle, above),
         ref_check_recursive_inequalities(finite, fam, bundle, above))
    got = V.check_recursive_inequalities(finite, fam, bundle, below)
    assert got.witness == {"n": 0, "part": "i"}
    same(got, V.check_recursive_inequalities(finite, twin, bundle, below))


@pytest.mark.parametrize("kind,rows", [
    ("tripod", [(0, 1.0), (1, math.inf), (2, math.nan), (0, 0.5)]),
    ("euclidean", [(1.0, -2.0), (-math.inf, 0.0), (0.0, math.nan), (-0.0, 3.0)]),
    ("disk", [(0.5, 0.0), (math.nan, 0.0), (0.0, -math.inf), (-0.0, 0.25)]),
])
def test_chi_T_series_terms_on_rows_that_are_not_finite_match_reference(kind, rows):
    # the identity's run has T_n u_n = u_n: a row with an infinite or NaN
    # coordinate gives a NaN term, dist(t, t), and a finite row 0.0
    space = make_model(kind, 2)
    fam = IdentityFamily(space)
    traj = Trajectory(space, fam, preset("harmonic"), space.base_point(), space.base_point())
    for row in rows:
        traj.x.extend(row)
        traj.u.extend(row)
        traj.Tu.extend(row)
    for name in ("d_step", "d_Tn", "d_p"):
        getattr(traj, name).extend([0.0] * len(rows))
    for fn in (lambda k: 0, lambda k: 3):
        got = V.check_chi_T_series(traj, fam, fn, k_max=2)
        same(got, ref_check_chi_T_series(traj, fam, fn, k_max=2))
    assert V.check_chi_T_series(traj, fam, lambda k: 0, k_max=0).witness["n"] == 1


@pytest.mark.parametrize("kind", ["euclidean", "disk"])
def test_a_coinciding_family_not_the_runs_is_applied_on_every_row(kind):
    # a rotation by 0.5 checked on the run of a rotation by 1.0: reading the
    # run's d_Tn or Tu column would report the rotation by 1.0
    space = make_model(kind, 2)
    bundle = preset("harmonic")
    ran, other = RotationFamily(space, 1.0), RotationFamily(space, 0.5)
    traj = run(space, ran, bundle, space.base_point(), Point(kind, (0.8, 0.3)), 200)
    for m in (0, 5):
        rate = RateValue.finite(0)
        got = V.check_Tm_ar(traj, other, m, rate, k=3, cap=200)
        same(got, ref_check_Tm_ar(traj, other, m, rate, k=3, cap=200))
        as_run = V.check_Tm_ar(traj, ran, m, rate, k=3, cap=200)
        assert got.witness["value"] != as_run.witness["value"]
    zero = other.chi_T_fn(bundle, K=1)
    got = V.check_chi_T_series(traj, other, zero, k_max=5)
    same(got, ref_check_chi_T_series(traj, other, zero, k_max=5))
    as_run = V.check_chi_T_series(traj, ran, zero, k_max=5)
    assert as_run.details["max_residual"] == -1 / 6
    assert got.details["max_residual"] != as_run.details["max_residual"]


# ---------------------------------------------------------------------------
# Geometry checkers
# ---------------------------------------------------------------------------


GEOMETRY_CHECKERS = [
    (check_w_axioms, ref_check_w_axioms),
    (check_cn, ref_check_cn),
    (check_uniform_convexity, ref_check_uniform_convexity),
    (check_quasilin_axioms, ref_check_quasilin_axioms),
]


@pytest.mark.parametrize("kind", ["euclidean", "disk", "tripod"])
@pytest.mark.parametrize("seed", [0, 1])
def test_geometry_checkers_match_reference(kind, seed):
    model = make_model(kind, 3)
    spec = SampleSpec(seed=seed, count=400)
    for check, ref in GEOMETRY_CHECKERS:
        same(check(model, spec), ref(model, spec))


@pytest.mark.parametrize("kind", ["euclidean", "disk", "tripod"])
@pytest.mark.parametrize("count", [1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2500])
def test_geometry_checkers_match_reference_in_blocks(kind, count):
    # one sample, one whole block, a block and one sample, and three blocks
    model = make_model(kind, 3)
    spec = SampleSpec(seed=0, count=count)
    for check, ref in GEOMETRY_CHECKERS:
        same(check(model, spec), ref(model, spec))


def test_geometry_failure_witness_matches_reference():
    model, spec = BrokenModel(2), SampleSpec(seed=5, count=200)
    for check, ref in GEOMETRY_CHECKERS:
        got = check(model, spec)
        if check is not check_quasilin_axioms:  # reads distances only
            assert any(not r.passed and r.worst_case_inputs for r in got), check.__name__
        same(got, ref(model, spec))


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def ref_sample(space, rng, radius):
    if space.kind == "tripod":
        return Point.tripod(rng.randrange(3), radius * rng.random())
    return ref_sample_near(space, rng, space.base_point(), radius)


def ref_sample_near(space, rng, center, radius):
    if space.kind == "euclidean":
        vec = [rng.gauss(0.0, 1.0) for _ in range(space.dim)]
        norm = math.sqrt(sum([c * c for c in vec])) or 1.0
        r = radius * rng.random() ** (1.0 / space.dim)
        return Point(
            "euclidean",
            tuple([c + r * v / norm for c, v in zip(center.data, vec)]),
        )
    if space.kind == "disk":
        ang = rng.uniform(0.0, 2.0 * math.pi)
        hyp = radius * rng.random()
        w = math.tanh(0.5 * hyp) * cmath.exp(1j * ang)
        zc = complex(*center.data)
        z = (w + zc) / (1.0 + zc.conjugate() * w)
        # clamp just inside the margin; only reachable for extreme radii
        if abs(z) >= 1.0 - 2.0 * DISK_MARGIN:
            z *= (1.0 - 2.0 * DISK_MARGIN) / abs(z)
        return Point("disk", (z.real, z.imag))
    leg, s = center.data
    delta = rng.uniform(-radius, radius)
    if s + delta >= 0.0:
        return Point.tripod(leg, s + delta)
    return Point.tripod(rng.randrange(3), -(s + delta))


def draw(sampler, rng):
    """The Point a sampler draws, or the GeometryError it raises, with the
    generator's state after the draw."""
    try:
        out = sampler(rng)
    except GeometryError as exc:
        out = exc
    return repr(out), rng.getstate()


# radius 0.0 draws zero lengths: coordinates 0.0 + (+-0.0), and the
# tripod's zero arm length
SAMPLE_RADII = [0.0, 1e-300, 1e-12, 0.3, 2.0, 7.5, 40.0, 1e12, 1e300]


@pytest.mark.parametrize("space", [Euclidean(1), Euclidean(2), Euclidean(3), Euclidean(4),
                                   make_model("disk"), make_model("tripod")],
                         ids=["euclidean1", "euclidean2", "euclidean3", "euclidean4",
                              "disk", "tripod"])
def test_samplers_match_reference(space):
    """A seeded stream of draws, each from a point the stream drew, gives
    the Points of the reference samplers, repr for repr (so type for type
    and -0.0 apart from 0.0), and leaves the generator in the same state
    after every draw: through sample and sample_near, and through one
    sampler's draw closure, whose tuples are the Points' data.  Between the
    closure's draws, outside calls to gauss() and random() start each draw
    once with gauss_next set and once with it None.  The disk's radii from
    40 on reach its clamp.  sample and sample_near refuse the radius 0.0,
    and the tripod's inf, before drawing; at 0.0 the closure draws zero
    lengths, and at inf the tripod's closure raises GeometryError."""
    radii = SAMPLE_RADII + [math.inf] if space.kind == "tripod" else SAMPLE_RADII
    rng, ref_rng = random.Random(12), random.Random(12)
    center = ref_center = space.base_point()
    for _ in range(25):
        for radius in radii:
            if 0 < radius < math.inf:
                got = draw(lambda r: space.sample(r, radius), rng)
                assert got == draw(lambda r: ref_sample(space, r, radius), ref_rng)
                near = draw(lambda r: space.sample_near(r, center, radius), rng)
                assert near == draw(lambda r: ref_sample_near(space, r, ref_center, radius),
                                    ref_rng)
            else:
                refused = (repr(GeometryError(
                    f"sample radius must be positive and finite, not {radius!r}")),
                    ref_rng.getstate())
                assert draw(lambda r: space.sample(r, radius), rng) == refused
                assert draw(lambda r: space.sample_near(r, center, radius), rng) == refused
            nxt = space.sample(rng, 2.0)
            assert repr(nxt) == repr(ref_center := ref_sample(space, ref_rng, 2.0))
            center = nxt
    assert rng.getstate() == ref_rng.getstate()

    def outside(kept):
        # gauss() until gauss_next is set (kept) or None, then a random()
        while (rng.gauss_next is None) == kept:
            assert rng.gauss(0.0, 1.0) == ref_rng.gauss(0.0, 1.0)
        assert rng.random() == ref_rng.random()

    rng, ref_rng = random.Random(13), random.Random(13)
    sample = space.sampler(rng)
    center, ref_center = space.base_point().data, space.base_point()
    for _ in range(10):
        for radius in radii:
            for kept in (True, False):
                outside(kept)
                got = draw(lambda r: Point(space.kind, sample(radius)), rng)
                assert got == draw(lambda r: ref_sample(space, r, radius), ref_rng)
                outside(kept)
                near = draw(lambda r: Point(space.kind, sample(radius, center)), rng)
                assert near == draw(lambda r: ref_sample_near(space, r, ref_center, radius),
                                    ref_rng)
                if radius == math.inf:
                    assert got[0] == near[0] == repr(GeometryError(_TRIPOD_LENGTH))
            outside(False)
            nxt = sample(2.0)
            assert repr(nxt) == repr((ref_center := ref_sample(space, ref_rng, 2.0)).data)
            assert rng.getstate() == ref_rng.getstate()
            center = nxt


class ZeroRandom(random.Random):
    """random() is always 0.0, so random.gauss's Box-Muller draws pairs of
    normals of -0.0 (its radius is sqrt(-2.0 * log(1.0)), sqrt(-0.0)): gauss
    returns them as 0.0 + z, 0.0, and keeps the second as -0.0."""

    def random(self):
        return 0.0


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_euclidean_sampler_keeps_the_signed_zeros_of_gauss(dim):
    # around a center of -0.0 coordinates a normal's sign shows: -0.0 plus
    # r * v / norm is 0.0 for v = 0.0 and -0.0 for v = -0.0.  gauss_next is
    # compared by repr, since -0.0 == 0.0
    space, center = Euclidean(dim), Point.euclidean(*[-0.0] * dim)
    rng, ref_rng = ZeroRandom(3), ZeroRandom(3)
    sample = space.sampler(rng)
    for kept in (True, False, True, False):
        while (rng.gauss_next is None) == kept:
            assert repr(rng.gauss(0.0, 1.0)) == repr(ref_rng.gauss(0.0, 1.0))
        got = sample(1.0, center.data)
        assert repr(got) == repr(ref_sample_near(space, ref_rng, center, 1.0).data)
        assert repr(rng.gauss_next) == repr(ref_rng.gauss_next)


# ---------------------------------------------------------------------------
# Mapping and engine checkers
# ---------------------------------------------------------------------------


class ScalingFamily(MappingFamily):
    """x -> (n + 1) x on a Euclidean model: its members differ, so (C1)
    fails for any step sizes."""

    def __init__(self, space):
        super().__init__(space, space.base_point())

    def apply(self, n, x):
        return Point("euclidean", tuple([(n + 1) * c for c in x.data]))


@pytest.mark.parametrize("name", sorted(SCENARIO_TEXTS))
def test_mapping_checkers_match_reference(name):
    sc = scenario_from_text(SCENARIO_TEXTS[name])
    spec = SampleSpec(seed=7, count=60)
    same(check_nonexpansive(sc.family, 4, spec), ref_check_nonexpansive(sc.family, 4, spec))
    same(check_condition_c1(sc.family, sc.bundle.gamma, 4, spec),
         ref_check_condition_c1(sc.family, sc.bundle.gamma, 4, spec))


def test_mapping_failure_witness_matches_reference():
    space, spec = Euclidean(2), SampleSpec(seed=5, count=100)
    doubling, scaling = DoublingFamily(space), ScalingFamily(space)
    gammas = preset("harmonic").gamma
    got = check_nonexpansive(doubling, 3, spec)
    assert not got.passed and got.worst_case_inputs is not None
    same(got, ref_check_nonexpansive(doubling, 3, spec))
    got = check_condition_c1(scaling, gammas, 3, spec)
    assert not got.passed and got.worst_case_inputs is not None
    same(got, ref_check_condition_c1(scaling, gammas, 3, spec))


@pytest.mark.parametrize("name", [n for n in sorted(SCENARIO_TEXTS) if n.startswith("euclidean")])
def test_hilbert_special_case_matches_reference(name):
    sc = scenario_from_text(SCENARIO_TEXTS[name])
    same(check_hilbert_special_case(sc.space, sc.family, sc.bundle, sc.x0, 100),
         ref_check_hilbert_special_case(sc.space, sc.family, sc.bundle, sc.x0, 100))


def test_hilbert_special_case_failure_witness_matches_reference():
    space, bundle = BrokenModel(2), preset("harmonic")
    family, x0 = DoublingFamily(space), Point.euclidean(1.0, 0.25)
    got = check_hilbert_special_case(space, family, bundle, x0, 60)
    assert not got.passed and got.worst_case_inputs is not None
    same(got, ref_check_hilbert_special_case(space, family, bundle, x0, 60))


@pytest.mark.parametrize("name", sorted(SCENARIO_TEXTS))
def test_boundedness_matches_reference(matrix_trajectories, name):
    sc, traj = matrix_trajectories[name]
    for K_like in (sc.M, 0.5 * sc.M):
        same(check_boundedness(traj, K_like), ref_check_boundedness(traj, K_like))


def test_boundedness_failure_matches_reference():
    space = Euclidean(2)
    traj = run(space, DoublingFamily(space), preset("harmonic"), Point.euclidean(0.5, 0.0),
               Point.euclidean(1.0, -0.5), 60)
    got = check_boundedness(traj, 1.0)
    assert not got.passed
    same(got, ref_check_boundedness(traj, 1.0))


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
