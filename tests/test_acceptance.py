"""Acceptance suite: one test per criterion, at the stated tolerances.

The golden rate values are recomputed here by a straight-line big-integer
oracle that shares no code with the package, then compared both against the
frozen constants and against the library output.
"""

import math
import random
import time

import pytest
from click.testing import CliRunner

from pins import SCENARIO_TEXTS
from tmlab import rates as R
from tmlab import verify as V
from tmlab.cli import main as cli_main
from tmlab.engine import check_hilbert_special_case, run
from tmlab.geometry import SampleSpec, make_model, run_all_geometry_checks
from tmlab.scenario import scenario_from_text
from tmlab.schedules import preset

AR_CAP = 100_000


@pytest.fixture(scope="module")
def matrix():
    return {name: scenario_from_text(text)
            for name, text in SCENARIO_TEXTS.items()}


@pytest.fixture(scope="module")
def long_trajectories(matrix):
    out = {}
    for name, sc in matrix.items():
        traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, AR_CAP,
                   scenario_hash=sc.scenario_hash)
        assert traj.error is None, (name, traj.error)
        out[name] = traj
    return out


# ---------------------------------------------------------------------------
# 1. Geometry axioms
# ---------------------------------------------------------------------------


def test_criterion_1_geometry_axioms():
    t0 = time.monotonic()
    spec = SampleSpec(seed=2024, count=10_000)
    for kind in ("euclidean", "disk", "tripod"):
        model = make_model(kind, 3)
        for rep in run_all_geometry_checks(model, spec, tol=1e-9):
            assert rep.passed, (
                f"{kind}/{rep.axiom}: violation {rep.max_violation} "
                f"at {rep.worst_case_inputs}"
            )
    # the flat model satisfies the midpoint inequality with equality
    from tmlab.geometry import Euclidean, check_cn

    eq = {r.axiom: r for r in check_cn(Euclidean(3), spec)}["CN- equality"]
    assert eq.max_violation <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0, f"geometry checks took {elapsed:.1f}s"
    print(f"[criterion 1] geometry axioms: PASS ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Engine closed form and coordinate cross-check
# ---------------------------------------------------------------------------


def test_criterion_2_engine_closed_form(matrix):
    sc = scenario_from_text("""
        space.kind = euclidean
        space.dim = 1
        family.kind = identity
        schedule.preset = harmonic
        run.u = 0
        run.x0 = 1
    """)
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 1000)
    worst = max(abs(rec.x.data[0] - 1.0 / (rec.n + 1))
                for rec in traj.records)
    assert worst <= 1e-12, worst

    for name in ("euclidean-identity", "euclidean-rotation",
                 "euclidean-proximal"):
        sc = matrix[name]
        rep = check_hilbert_special_case(
            sc.space, sc.family, sc.bundle, sc.x0, steps=100, tol=1e-10
        )
        assert rep.passed, (name, rep.max_violation)
    print(f"[criterion 2] engine closed form: PASS (max dev {worst:.2e})")


# ---------------------------------------------------------------------------
# 3. Golden rate chain with an independent oracle
# ---------------------------------------------------------------------------


def _oracle_chain():
    """Straight-line recomputation of the rate chain for constant step
    sizes, harmonic anchor weights and K = 1 (so the family modulus is 0,
    chi_lambda = 0, chi_beta(k) = k, sigma*(m, k) = (m+1)(k+1), eta(k) = k,
    Lambda = 2, Gamma = G = 1, B = 2)."""

    def chi(k):
        return 8 * (k + 1) - 1

    def sigma_star(m, k):
        return (m + 1) * (k + 1)

    def Sig_star(k):
        return sigma_star(chi(3 * k + 2), 6 * (k + 1) - 1) + 1

    def tilde(k):
        return max(0, Sig_star(2 * 2 * (k + 1) - 1), 4 * 2 * (k + 1) - 1)

    def Psi_star(k):
        return max(tilde((1 + 2) * (k + 1) - 1), 0)

    def mu_star_zero_cf():
        k = 0
        kt = 4 * (k + 1) ** 2 - 1
        eta_val = 24 * (kt + 1) - 1
        omega3 = 0  # the regularity-rate plug-in is the constant 0
        m = max(omega3, eta_val)
        return sigma_star(m, 12 * (kt + 1) - 1) + 1

    return {
        "chi": chi(0),
        "Sigma_star": Sig_star(0),
        "Sigma_tilde_star": tilde(0),
        "Psi_star": Psi_star(0),
        "mu_star": mu_star_zero_cf(),
    }


GOLDEN = {"chi": 7, "Sigma_star": 145, "Sigma_tilde_star": 2305,
          "Psi_star": 20737, "mu_star": 4609}


def test_criterion_3_golden_rate_chain(tmp_path):
    assert _oracle_chain() == GOLDEN

    cfg = tmp_path / "golden.cfg"
    cfg.write_text("""
space.kind = euclidean
space.dim = 1
family.kind = constant
schedule.preset = constant-gamma-harmonic-beta
run.u = 0
run.x0 = 1
""")
    res = CliRunner().invoke(cli_main, [
        "rates", str(cfg), "--k-max", "0",
        "--which", "chi,Sigma_star,Sigma_tilde_star,Psi_star,mu_star",
        "--cf", "const:0", "--phi", "const:0",
    ])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[1] == "0,7,145,2305,20737,4609"

    # with the default regularity-rate plug-in the metastability bound is a
    # near-squaring tower and exceeds the default bit cap (the 2**26 cap was
    # checked once out of band: still not representable, clause vacuous)
    bundle = preset("constant-gamma-harmonic-beta")
    got = R.mu_star(0, R.Const(0), bundle, 1, lambda k: 0, bit_cap=2 ** 20)
    assert got.is_astronomical
    assert got.render().startswith("ASTRO:")

    # a value that is astronomical at a tiny cap and oracle-equal when
    # representable: Sigma(0) = ceil(2 e^27) + 1
    assert R.Sigma(0, bundle, 1, lambda k: 0, bit_cap=16).is_astronomical
    sigma0 = R.Sigma(0, bundle, 1, lambda k: 0, bit_cap=2 ** 26)
    assert sigma0.value == math.ceil(2 * math.e ** 27) + 1
    print("[criterion 3] golden rate chain: PASS")


# ---------------------------------------------------------------------------
# 4. Recurrence-lemma suite
# ---------------------------------------------------------------------------


def test_criterion_4_xu_suite():
    t0 = time.monotonic()
    bundle = preset("harmonic")
    inst = V.telescoping_instance(1100)
    for k in range(51):
        res = V.check_xu_lemma(inst, k=k, n=0, q=1000,
                               sigma_star=bundle.sigma_star)
        assert res.passed and res.hypothesis_status == "met", k

    met = 0
    for seed in range(100):
        k, q = 2, 900
        rnd = V.random_instance(seed, 1000, k=k, q=q)
        res = V.check_xu_lemma(rnd, k=k, n=0, q=q,
                               sigma_star=bundle.sigma_star)
        assert res.passed, seed
        met += res.hypothesis_status == "met"
    assert met == 100  # hypotheses are generator-enforced
    elapsed = time.monotonic() - t0
    assert elapsed <= 30.0, f"recurrence suite took {elapsed:.1f}s"
    print(f"[criterion 4] recurrence-lemma suite: PASS ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. AR-rate soundness across the scenario matrix
# ---------------------------------------------------------------------------


def test_criterion_5_ar_rate_soundness(matrix, long_trajectories):
    flagged = []
    for name, sc in matrix.items():
        traj = long_trajectories[name]
        for k in range(6):
            step_rate = R.Sigma_star(k, sc.bundle, sc.K, sc.chi_T_fn)
            res = V.check_ar(traj, step_rate, k=k, cap=AR_CAP, tol=1e-9)
            assert res.passed, (name, k, res.witness, res.details)

            fam_rate = R.Sigma_tilde_star(k, sc.bundle, sc.K, sc.chi_T_fn)
            res = V.check_family_ar(traj, sc.family, fam_rate, k=k,
                                    cap=AR_CAP, tol=1e-9)
            assert res.passed, (name, k, res.witness, res.details)
            if res.details["flag"]:
                flagged.append((name, k, res.details["flag"]))
        # d(x_n, T_m x_n) from Psi_star(0) on (57,601 on every row)
        tm_rate = R.Psi_star(0, sc.bundle, sc.K, sc.chi_T_fn)
        for m in (0, 5):
            res = V.check_Tm_ar(traj, sc.family, m, tm_rate, k=0, cap=AR_CAP, tol=1e-9)
            assert res.passed, (name, m, res.witness, res.details)
    print(f"[criterion 5] AR-rate soundness: PASS "
          f"({len(matrix)} scenarios, {len(flagged)} vacuous-bound flags)")


# ---------------------------------------------------------------------------
# 6. Series Cauchy-modulus audit across the scenario matrix
# ---------------------------------------------------------------------------


def test_criterion_6_chi_T_audit(matrix, long_trajectories):
    assert matrix["euclidean-proximal"].bundle.gamma(0) == 2.0  # gamma_n = 1 + 1/(n+1)
    worst = -math.inf
    for name, sc in matrix.items():
        res = V.check_chi_T_series(long_trajectories[name], sc.family, sc.chi_T_fn,
                                   k_max=20, tol=1e-8)
        assert res.passed, (name, res.witness, res.details)
        worst = max(worst, res.details["max_residual"])
    print(f"[criterion 6] series Cauchy modulus: PASS "
          f"({len(matrix)} scenarios, max residual {worst:.2e})")


# ---------------------------------------------------------------------------
# 7. Recursive inequalities along every scenario
# ---------------------------------------------------------------------------


def test_criterion_7_recursive_inequalities(matrix):
    for name, sc in matrix.items():
        traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 1000,
                   scenario_hash=sc.scenario_hash)
        rng = random.Random(42)
        for i in range(10):
            x = sc.space.sample(rng, 2.0)
            res = V.check_recursive_inequalities(
                traj, sc.family, sc.bundle, x, tol=1e-9
            )
            assert res.passed, (name, i, res.witness, res.details)
    print("[criterion 7] recursive inequalities: PASS "
          f"({len(matrix)} scenarios x 10 reference points)")


# ---------------------------------------------------------------------------
# 8. Metastability search vs computed bound
# ---------------------------------------------------------------------------


def test_criterion_8_metastability(matrix, long_trajectories):
    fs = [R.Const(0), R.Identity(), R.Affine(2, 0)]
    # mu_star reads k, f, the bundle (a preset without overrides on every
    # row), K, and chi_T, which is zero exactly when the family has no gammas
    bounds = {}
    for name, sc in matrix.items():
        traj = long_trajectories[name]
        for k in range(4):
            for f in fs:
                q = V.MetastabilityQuery(k=k, f=f, cap=1_000_000)
                search = V.search_metastable(traj, q, tol=1e-9)
                assert search.found is not None, (name, k, f.render())
                key = (k, f.render(), sc.bundle.name, sc.K, sc.family.gammas is None)
                if key not in bounds:
                    bounds[key] = R.mu_star(k, f, sc.bundle, sc.K, sc.chi_T_fn)
                assert bounds[key] >= search.found, (name, k, f.render())
    print("[criterion 8] metastability search vs bound: PASS")
