"""The four workloads: seeded config generators and the ops of one pass.

A workload's ``setup(tm, seed)`` draws points, centres and radii from the
seed within fixed ranges, hands tmlab only the generated config text, does
the workload's precompute, and returns the list of ops that make one pass.
The mix of models, families, rotation angles, rate names, k range and bit
cap is fixed here, so every seed does the same kind of work.  ``tm`` is the
namespace of tmlab modules, looked up at call time so the traced run sees
its wrappers.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import oracle

GOLDEN_PATH = Path(__file__).with_name("golden.json")
DEFAULT_SEED = 0

TRAJECTORY_STEPS = 2000
RESOLVENT_STEPS = 100
VERIFY_STEPS = 1000
GEOMETRY_SAMPLES = 400
AUDIT_HORIZON = 1000
BIT_CAP = 2 ** 20

# x0 sits at distance 1.2..1.8 from the fixed point and u within 0.9 of it,
# so K = ceil(M) = 2 on every seed and the rate work does not drift with it
X0_DIST = (1.2, 1.8)
U_DIST = (0.0, 0.9)


@dataclass
class Op:
    """One timed call.  ``check`` returns None or what was wrong, and
    ``digest`` fingerprints the output.  ``known`` names the exception type
    the current tmlab is known to raise on this op: it counts as a failed
    op, not as a wrong output."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    digest: Callable[[object], str]
    known: Optional[str] = None


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def config_text(cfg: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


# ---------------------------------------------------------------------------
# Seeded points
# ---------------------------------------------------------------------------


def _fmt(*xs):
    return ",".join(repr(float(x)) for x in xs)


def _point_at(rng, model, center, r):
    """A config point at distance r from ``center`` (given in oracle form)."""
    theta = rng.uniform(0.0, 2.0 * math.pi)
    if model == "euclidean":
        return _fmt(center[0] + r * math.cos(theta), center[1] + r * math.sin(theta))
    if model == "disk":
        w = math.tanh(0.5 * r) * complex(math.cos(theta), math.sin(theta))
        z = (w + center) / (1.0 + center.conjugate() * w)
        return _fmt(z.real, z.imag)
    leg, s = center
    if r <= s or rng.random() < 0.5:
        # along the centre's own leg, outward
        return f"{leg}:{s + r!r}"
    other = (leg + rng.randrange(1, 3)) % 3 if s > 0 else rng.randrange(3)
    return f"{other}:{r - s!r}"


def _center(rng, model):
    if model == "euclidean":
        r, t = rng.uniform(0.0, 0.3), rng.uniform(0.0, 2.0 * math.pi)
        return (r * math.cos(t), r * math.sin(t))
    if model == "disk":
        r, t = rng.uniform(0.0, 0.15), rng.uniform(0.0, 2.0 * math.pi)
        return complex(r * math.cos(t), r * math.sin(t))
    return (rng.randrange(3), rng.uniform(0.0, 0.3))


def _center_text(model, c):
    if model == "euclidean":
        return _fmt(*c)
    if model == "disk":
        return _fmt(c.real, c.imag)
    return f"{c[0]}:{c[1]!r}"


# Rotation angles are fixed, not drawn: the resolvent's inner solve needs
# more or fewer iterations with the angle, which would make a seed's cost
# differ from another's.  The tripod rotation shifts legs by one third.
ANGLE = {"euclidean": "1.0", "disk": "1.0", "tripod": repr(2.0 * math.pi / 3.0)}


def _space(model):
    return {"space.kind": model, "space.dim": "2"} if model == "euclidean" else {
        "space.kind": model}


def _origin(model):
    return {"euclidean": (0.0, 0.0), "disk": 0j, "tripod": (0, 0.0)}[model]


def _anchored(rng, model, cfg, fixed, steps, u_dist=U_DIST):
    cfg["schedule.preset"] = "harmonic"
    cfg["run.u"] = _point_at(rng, model, fixed, rng.uniform(*u_dist))
    cfg["run.x0"] = _point_at(rng, model, fixed, rng.uniform(*X0_DIST))
    cfg["run.steps"] = str(steps)
    return cfg


def _ball(rng, cfg, key):
    """Draw a projection ball's radius into cfg[key], and return the range
    of u's distance from its centre: always outside the ball.  A u inside
    would let the iterates settle in the ball, where the projection returns
    its argument without a geodesic step, and the op's cost would depend on
    the seed."""
    radius = rng.uniform(0.3, 0.6)
    cfg[key] = repr(radius)
    return (radius + 0.1, U_DIST[1])


MODELS = ("euclidean", "disk", "tripod")


def matrix_configs(seed, steps):
    """The 12-scenario acceptance matrix: 3 models x identity, rotation,
    projection and proximal (half squared distance) families."""
    rng = random.Random(f"matrix:{seed}")
    out = {}
    for model in MODELS:
        for fam in ("identity", "rotation", "projection", "proximal"):
            cfg = dict(_space(model), **{"family.kind": fam})
            fixed, u_dist = _origin(model), U_DIST
            if fam == "rotation":
                cfg["family.angle"] = ANGLE[model]
            elif fam in ("projection", "proximal"):
                fixed = _center(rng, model)
                cfg["family.center"] = _center_text(model, fixed)
                if fam == "projection":
                    u_dist = _ball(rng, cfg, "family.radius")
            out[f"{model}-{fam}"] = _anchored(rng, model, cfg, fixed, steps, u_dist)
    return out


def trajectory_configs(seed, steps):
    """The matrix plus a second Euclidean rotation: thirteen scenarios, so
    the median op falls inside the rotations' latencies, in the middle of
    the range, rather than in the gap between two scenarios."""
    out = matrix_configs(seed, steps)
    rng = random.Random(f"trajectory:{seed}")
    cfg = dict(_space("euclidean"), **{"family.kind": "rotation",
                                       "family.angle": ANGLE["euclidean"]})
    out["euclidean-rotation-2"] = _anchored(rng, "euclidean", cfg, _origin("euclidean"), steps)
    return out


# u's distance from a rotation's fixed point, in a narrow range: the inner
# solve takes more iterations the farther u is (about 10% more from 0.06 to
# 0.88 on the tripod), and the op's cost should not depend on the seed
RESOLVENT_U_DIST = (0.5, 0.6)

RESOLVENT_SCENARIOS = tuple((m, b) for m in MODELS for b in ("rotation", "projection")) + (
    ("disk", "rotation"),)


def resolvent_configs(seed, steps):
    """Resolvents of a rotation and of a ball projection in each model, and
    a second disk rotation: seven scenarios, so the median op falls inside
    one scenario's latencies rather than between the fast projection ones
    and the slow rotation ones."""
    rng = random.Random(f"resolvent:{seed}")
    out = {}
    for model, base in RESOLVENT_SCENARIOS:
        cfg = dict(_space(model), **{"family.kind": "resolvent", "family.base.kind": base})
        fixed, u_dist = _origin(model), U_DIST
        if base == "rotation":
            cfg["family.base.angle"] = ANGLE[model]
            u_dist = RESOLVENT_U_DIST
        else:
            fixed = _center(rng, model)
            cfg["family.base.center"] = _center_text(model, fixed)
            u_dist = _ball(rng, cfg, "family.base.radius")
        name = f"{model}-resolvent-{base}"
        out[name + "-2" if name in out else name] = _anchored(rng, model, cfg, fixed, steps,
                                                              u_dist)
    return out


def rates_configs(seed):
    """Two rate scenarios: K = 1 with a constant family under constant gamma
    (its k = 0 row is the golden row), and K = 2 with a proximal family
    under harmonic gamma (a nonzero series modulus chi_T)."""
    rng = random.Random(f"rates:{seed}")
    golden = {"space.kind": "euclidean", "space.dim": "1",
              "family.kind": "constant",
              "schedule.preset": "constant-gamma-harmonic-beta",
              "run.u": repr(rng.uniform(-0.5, 0.5)),
              "run.x0": repr(rng.choice((-1, 1)) * rng.uniform(0.5, 1.0)),
              "run.bit_cap": str(BIT_CAP)}
    fixed = _center(rng, "tripod")
    prox = dict(_space("tripod"), **{"family.kind": "proximal",
                                    "family.center": _center_text("tripod", fixed)})
    prox = _anchored(rng, "tripod", prox, fixed, 100)
    prox["run.bit_cap"] = str(BIT_CAP)
    return {"constant-K1": golden, "tripod-proximal-K2": prox}


def build(tm, cfg):
    return tm.scenario.build_scenario(tm.scenario.parse_config_text(config_text(cfg)))


# ---------------------------------------------------------------------------
# Output checks shared by the trajectory workloads
# ---------------------------------------------------------------------------


def _load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def _parse_csv(text):
    lines = text.splitlines()
    rows = [[float(c) for c in line.split(",")] for line in lines[2:]]
    return lines[0], lines[1], rows


class TrajectoryGate:
    """Judges one scenario's output.  The first output is compared with the
    reference run (and, for euclidean and identity runs, the closed forms);
    every later output must then be byte-identical to it."""

    TOL = 1e-9

    def __init__(self, name, cfg, steps, golden=None):
        self.name, self.cfg, self.steps = name, cfg, steps
        self.golden = golden  # the pinned default-seed output, if any
        self.accepted = None  # digest of the first output that passed
        self.verdict = None

    def judge(self, digest, csv_text, sc_hash):
        if self.accepted is not None:
            return None if digest == self.accepted else (
                f"{self.name}: output differs from the first pass")
        if self.verdict is None:
            self.verdict = self._first(digest, csv_text, sc_hash)
            if self.verdict is None:
                self.accepted = digest
        return self.verdict

    def _first(self, digest, csv_text, sc_hash):
        comment, header, rows = _parse_csv(csv_text)
        model = self.cfg["space.kind"]
        if not comment.startswith("# model=") or f"scenario={sc_hash}" not in comment:
            return f"{self.name}: bad CSV comment line {comment!r}"
        if not header.startswith("n,") or not header.endswith(",d_step,d_Tn,d_p"):
            return f"{self.name}: bad CSV header {header!r}"
        err = oracle.max_row_error(rows, oracle.trajectory(self.cfg, self.steps))
        if err > self.TOL:
            return f"{self.name}: differs from the reference iteration by {err:.3g}"
        if self.cfg["family.kind"] == "identity":
            err = oracle.identity_closed_form(self.cfg, rows)
            if err > self.TOL:
                return f"{self.name}: identity closed form off by {err:.3g}"
        if self.golden is not None:
            if model == "disk":
                final = rows[-1][1:3]
                off = max(abs(a - b) for a, b in zip(final, self.golden["final"]))
                if off > self.golden["tol"]:
                    return f"{self.name}: final disk point off by {off:.3g}"
            elif digest != self.golden["sha256"]:
                return f"{self.name}: CSV sha256 differs from the recorded one"
        return None


def _traj_csv(traj):
    buf = io.StringIO()
    traj.write_csv(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------


def setup_trajectory(tm, seed):
    golden = _load_golden().get("trajectory", {})
    ops = []
    for name, cfg in trajectory_configs(seed, TRAJECTORY_STEPS).items():
        sc = build(tm, cfg)
        gate = TrajectoryGate(name, cfg, TRAJECTORY_STEPS,
                              golden[name] if seed == DEFAULT_SEED else None)

        def call(sc=sc):
            traj = tm.engine.run(sc.space, sc.family, sc.bundle, sc.u, sc.x0,
                                 sc.steps, scenario_hash=sc.scenario_hash)
            return traj, _traj_csv(traj)

        def check(out, gate=gate, sc=sc):
            traj, text = out
            if traj.error:
                return f"{gate.name}: SolverFailure {traj.error}"
            return gate.judge(_sha(text), text, sc.scenario_hash)

        ops.append(Op(f"trajectory/{name}", call, check, _text_digest))
    return ops


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------


def setup_resolvent(tm, seed):
    golden = _load_golden().get("resolvent", {})
    ops = []
    for name, cfg in resolvent_configs(seed, RESOLVENT_STEPS).items():
        sc = build(tm, cfg)
        gate = TrajectoryGate(name, cfg, RESOLVENT_STEPS,
                              golden[name] if seed == DEFAULT_SEED else None)

        def call(sc=sc):
            return tm.engine.run(sc.space, sc.family, sc.bundle, sc.u, sc.x0,
                                 sc.steps, scenario_hash=sc.scenario_hash)

        def check(traj, gate=gate, sc=sc):
            if traj.error:
                return f"{gate.name}: SolverFailure {traj.error}"
            text = _traj_csv(traj)
            return gate.judge(_sha(text), text, sc.scenario_hash)

        ops.append(Op(f"resolvent/{name}", call, check, _records_digest))
    return ops


def _records_digest(traj):
    h = hashlib.sha256()
    for rec in traj.records:
        h.update(struct.pack(f"{len(rec.x.data) + 3}d", *rec.x.data,
                             rec.d_step, rec.d_Tn, rec.d_p))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

META_FS = ("const:0", "id", "affine:2,0")
PHIS = (None, "const:0")
K_RANGE = range(6)
# the frozen k = 0 row of the K = 1 constant-gamma scenario: chi, Sigma_star,
# Sigma_tilde_star, Psi_star, and mu_star with Phi = const:0
GOLDEN_COLUMNS = ("chi", "Sigma_star", "Sigma_tilde_star", "Psi_star", "mu_star")
GOLDEN_SCENARIO = "constant-K1"


def _rate_check(label, want, rendered_expr, sc, K):
    """want() gives the exact value, or "astro" for an expected Astronomical
    verdict; it runs at the first check, outside the timed call and set-up.
    K is the oracle's, from the config: the scenario must agree with it."""
    expected = []

    def check(out):
        value, text = out
        if sc.K != K:
            return f"{label}: scenario K = {sc.K}, the config gives K = {K}"
        if not expected:
            expected.append(want())
        exact = expected[0]
        if exact == "astro":
            if not value.is_astronomical or text != f"ASTRO:{rendered_expr}":
                return f"{label}: expected Astronomical, got {text[:40]}"
            return None
        if value.is_astronomical or value.value != exact:
            return f"{label}: value differs from the closed form"
        if text != oracle.decimal_string(exact):
            return f"{label}: rendering differs from the value"
        return None

    return check


def setup_rates(tm, seed):
    """Every name in cli.RATE_NAMES for k = 0..5 at bit cap 2^20; mu and
    mu_star for f in META_FS, with the default Phi and with Phi = const:0.
    Plus Sigma(0) of the K = 1 scenario at cap 2^26.  The K = 1 scenario's
    k = 0 values are checked against the literal golden row."""
    R = tm.rates
    golden = dict(zip(GOLDEN_COLUMNS, map(int, oracle.GOLDEN_ROW.split(",")[1:])))
    ops = []
    for sname, cfg in rates_configs(seed).items():
        sc = build(tm, cfg)
        K = oracle.scenario_K(cfg)
        ref = oracle.RateOracle(cfg["schedule.preset"], K,
                                has_gammas=cfg["family.kind"] == "proximal")
        for name in tm.cli.RATE_NAMES:
            if name in ("mu", "mu_star"):
                combos = [(f, phi) for f in META_FS for phi in PHIS]
            else:
                combos = [(None, None)]
            for k in K_RANGE:
                for f_text, phi_text in combos:
                    pinned = None
                    if sname == GOLDEN_SCENARIO and k == 0 and (name != "mu_star" or phi_text):
                        pinned = golden.get(name)
                    ops.append(_rate_op(tm, R, sc, sname, ref, name, k, f_text, phi_text,
                                        pinned))
        if sname == GOLDEN_SCENARIO:

            def call(sc=sc):
                v = tm.rates.Sigma(0, sc.bundle, sc.K, sc.chi_T_fn, 2 ** 26)
                return v, v.render()

            ops.append(Op(f"rates/{sname}/Sigma/k=0/cap=2^26", call,
                          _rate_check("Sigma(0) at 2^26", oracle.golden_self_test, "",
                                      sc, K),
                          _text_digest))
    return ops


def _rate_op(tm, R, sc, sname, ref, name, k, f_text, phi_text, pinned=None):
    """One rate op.  ``pinned`` is the golden row's literal value, which
    replaces the oracle's as the expected value."""
    label = f"rates/{sname}/{name}/k={k}"
    known = None
    if name in ("mu", "mu_star"):
        label += f"/f={f_text}/phi={phi_text or 'default'}"
        f = R.parse_counterfunction(f_text)
        phi = R.parse_counterfunction(phi_text) if phi_text else None
        if phi is None:
            if ref.tower_squarings(k) <= math.log2(sc.bit_cap) + 1:
                raise AssertionError("tower too short for the Astronomical argument")
            want = lambda: "astro"
            # the seed's known failure: the default Phi feeds a >1e308 integer
            # into int(n * 1.4427) and raises OverflowError
            known = "OverflowError" if name == "mu" else None
        elif name == "mu":
            want = lambda: ref.mu_const_phi(k)
            if oracle.sigma_digits(ref.mu_arg(k)) > 4300:
                # CPython's int-to-str digit limit: render() raises ValueError
                known = "ValueError"
        else:
            want = lambda: ref.mu_star_const_phi(k)
        expr = f"{name}(k={k},f={f.render()})"

        def call():
            v = getattr(tm.rates, name)(k, f, sc.bundle, sc.K, sc.chi_T_fn,
                                        Phi_override=phi, bit_cap=sc.bit_cap)
            return v, v.render()
    else:
        want = lambda: getattr(ref, name)(k)
        expr = f"{name}(k={k})"

        def call():
            v = getattr(tm.rates, name)(k, sc.bundle, sc.K, sc.chi_T_fn, sc.bit_cap)
            return v, v.render()

    if pinned is not None:
        want = lambda: pinned
    return Op(label, call, _rate_check(label, want, expr, sc, ref.K), _text_digest, known)


def _text_digest(out):
    return _sha(out[1])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_FS = ("const:0", "affine:1,10", "affine:2,1")
VERIFY_KS = range(4)


class ResultGate:
    """A check call is right when it reports a pass with the expected
    hypothesis status and returns the same report on every pass."""

    def __init__(self, label, status="met", extra=None):
        self.label, self.status, self.extra = label, status, extra
        self.first = None

    def __call__(self, result):
        reports = result if isinstance(result, list) else [result]
        for rep in reports:
            if not rep.passed:
                return f"{self.label}: check failed: {json.dumps(rep.to_json(), default=str)[:200]}"
            if self.status and getattr(rep, "hypothesis_status", self.status) != self.status:
                return f"{self.label}: hypothesis status {rep.hypothesis_status}"
        digest = result_digest(result)
        if self.first is None:
            if self.extra is not None:
                why = self.extra(result)
                if why:
                    return f"{self.label}: {why}"
            self.first = digest
        elif digest != self.first:
            return f"{self.label}: report differs from the first pass"
        return None


def result_digest(result):
    reports = result if isinstance(result, list) else [result]
    return _sha(json.dumps([r.to_json() for r in reports], default=str, sort_keys=True))


def _oracle_point(model, data):
    if model == "disk":
        return complex(data[0], data[1])
    if model == "tripod":
        return oracle.TripodRef.pt(int(data[0]), data[1])
    return tuple(data)


def setup_verify(tm, seed):
    """The content of `tmlab verify --suite all` (geometry axioms, schedule
    audits, engine cross-checks, recurrence lemmas) plus the trajectory
    checks, on trajectories and rate values computed here."""
    R, V, G, S, E = tm.rates, tm.verify, tm.geometry, tm.schedules, tm.engine
    rng = random.Random(f"verify:{seed}")
    ops = []

    def add(label, call, status="met", extra=None):
        gate = ResultGate(label, status, extra)
        ops.append(Op(f"verify/{label}", call, gate, result_digest))

    for kind in ("euclidean", "disk", "tripod"):
        model = G.make_model(kind, 3)
        spec = G.SampleSpec(seed=seed, count=GEOMETRY_SAMPLES)
        add(f"geometry/{kind}",
            lambda model=model, spec=spec: tm.geometry.run_all_geometry_checks(model, spec, 1e-9),
            status=None)
    for name in ("harmonic", "constant-gamma-harmonic-beta"):
        bundle = S.preset(name)
        add(f"schedules/{name}",
            lambda b=bundle: tm.schedules.audit_schedule(b, AUDIT_HORIZON, 1e-9),
            status=None)

    cfgs = matrix_configs(seed, VERIFY_STEPS)
    matrix = {n: build(tm, c) for n, c in cfgs.items()}
    for name in ("euclidean-identity", "euclidean-rotation", "euclidean-proximal"):
        sc = matrix[name]
        add(f"engine/hilbert/{name}",
            lambda sc=sc: tm.engine.check_hilbert_special_case(
                sc.space, sc.family, sc.bundle, sc.x0, steps=100, tol=1e-10),
            status=None)

    trajs = {}
    for name, sc in matrix.items():
        trajs[name] = E.run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, sc.steps,
                            scenario_hash=sc.scenario_hash)
        if trajs[name].error:
            raise RuntimeError(f"{name}: {trajs[name].error}")
    sc = matrix["euclidean-proximal"]
    add("engine/boundedness/euclidean-proximal",
        lambda sc=sc: tm.engine.check_boundedness(trajs["euclidean-proximal"], sc.M, 1e-9),
        status=None)

    bundle = S.preset("harmonic")
    inst = V.telescoping_instance(1000)
    for k in (0, 3, 10, 25, 50):
        add(f"lemmas/xu-telescoping/k={k}",
            lambda k=k: tm.verify.check_xu_lemma(
                inst, k=k, n=0, q=999, sigma_star=bundle.sigma_star, tol=1e-9))
    for i in range(20):
        rnd = V.random_instance(seed + i, 1000, k=2, q=900)
        add(f"lemmas/xu-random/{i}",
            lambda rnd=rnd: tm.verify.check_xu_lemma(
                rnd, k=2, n=0, q=900, sigma_star=bundle.sigma_star, tol=1e-9),
            status=None)
    rot = matrix["euclidean-rotation"]
    v1, v2 = G.Point.euclidean(1e-4, 0.0), G.Point.euclidean(0.0, 1e-4)
    add("lemmas/convex-afp/rotation",
        lambda: tm.verify.check_convex_afp(rot.space, rot.family, v1, v2, rot.p,
                                           K=2, k=3, n_max=5, t_grid=11))
    plane = G.Euclidean(2)
    x, y, u = (G.Point.euclidean(*c) for c in ((0.0, 0.0), (1.0, 0.0), (-1.0, 0.5)))
    add("lemmas/variational",
        lambda: tm.verify.check_variational(plane, x, y, u, x, K=2, k=4, t_grid=11, tol=1e-9))

    fs = {t: (R.parse_counterfunction(t), oracle.counterfunction(t)) for t in VERIFY_FS}
    phi0 = R.Const(0)
    for name, sc in matrix.items():
        traj, fam, cap = trajs[name], sc.family, sc.steps
        model = cfgs[name]["space.kind"]
        ks = list(VERIFY_KS)
        step_rates = {k: R.Sigma_star(k, sc.bundle, sc.K, sc.chi_T_fn) for k in ks}
        fam_rates = {k: R.Sigma_tilde_star(k, sc.bundle, sc.K, sc.chi_T_fn) for k in ks}
        tm_rates = {k: R.Psi_star(k, sc.bundle, sc.K, sc.chi_T_fn) for k in ks}
        for k in ks:
            add(f"{name}/ar/k={k}", lambda k=k, traj=traj, rate=step_rates[k]:
                tm.verify.check_ar(traj, rate, k=k, cap=cap, tol=1e-9))
            add(f"{name}/family-ar/k={k}", lambda k=k, traj=traj, fam=fam, rate=fam_rates[k]:
                tm.verify.check_family_ar(traj, fam, rate, k=k, cap=cap, tol=1e-9))
        for m in (0, 5):
            for k in (0, 3):
                add(f"{name}/Tm-ar/m={m}/k={k}", lambda m=m, k=k, traj=traj, fam=fam, rate=tm_rates[k]:
                    tm.verify.check_Tm_ar(traj, fam, m, rate, k=k, cap=cap, tol=1e-9))
        add(f"{name}/chi-T-series", lambda traj=traj, sc=sc: tm.verify.check_chi_T_series(
            traj, sc.family, sc.chi_T_fn, k_max=20, tol=1e-8))
        for i in range(2):
            ref = sc.space.sample(rng, 2.0)
            add(f"{name}/recursive-inequalities/{i}",
                lambda traj=traj, sc=sc, ref=ref: tm.verify.check_recursive_inequalities(
                    traj, sc.family, sc.bundle, ref, tol=1e-9))
        for k in ks:
            for f_text, (f, f_ref) in fs.items():
                mu = R.mu_star(k, f, sc.bundle, sc.K, sc.chi_T_fn, Phi_override=phi0)
                query = V.MetastabilityQuery(k=k, f=f, cap=cap)

                def same_as_brute_force(res, k=k, f=f_ref, traj=traj, model=model):
                    points = [_oracle_point(model, rec.x.data) for rec in traj.records]
                    want = oracle.first_metastable(points, oracle.MODELS[model], k, f, cap)
                    got = res.details.get("searched_n")
                    return None if got == want else f"searched n {got}, brute force {want}"

                add(f"{name}/mu/k={k}/f={f_text}",
                    lambda traj=traj, query=query, mu=mu: tm.verify.check_mu(traj, query, mu, tol=1e-9),
                    extra=same_as_brute_force)
    return ops


CONFIGS = {
    "trajectory": lambda seed: trajectory_configs(seed, TRAJECTORY_STEPS),
    "resolvent": lambda seed: resolvent_configs(seed, RESOLVENT_STEPS),
    "rates": rates_configs,
    "verify": lambda seed: matrix_configs(seed, VERIFY_STEPS),
}

WORKLOADS = {
    "trajectory": setup_trajectory,
    "resolvent": setup_resolvent,
    "rates": setup_rates,
    "verify": setup_verify,
}
