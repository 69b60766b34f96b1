"""Verification checks: AR rates, metastability, synthetic recurrences,
trajectory inequalities."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from test_acceptance import SCENARIO_TEXTS
from test_geometry import CountingRotation
from tmlab import rates as R
from tmlab import verify as V
from tmlab.engine import run
from tmlab.geometry import Euclidean, Point
from tmlab.mappings import MappingFamily, ProximalFamily, RotationFamily
from tmlab.scenario import scenario_from_text
from tmlab.schedules import preset

IDENTITY_LINE = """
space.kind = euclidean
space.dim = 1
family.kind = identity
schedule.preset = harmonic
run.u = 0
run.x0 = 1
"""


@pytest.fixture(scope="module")
def identity_traj():
    sc = scenario_from_text(IDENTITY_LINE)
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 6000,
               scenario_hash=sc.scenario_hash)
    return sc, traj


# ---------------------------------------------------------------------------
# Asymptotic regularity
# ---------------------------------------------------------------------------


def test_ar_first_hit_identity(identity_traj):
    sc, traj = identity_traj
    rate = R.Sigma_star(5, sc.bundle, sc.K, sc.chi_T_fn)
    assert rate.value == 5185
    res = V.check_ar(traj, rate, k=5, cap=5000)
    assert res.passed
    # d_step = 1/((n+1)(n+2)) <= 1/6 first at n = 1
    assert res.details["first_hit"] == 1


def test_ar_astronomical_rate_vacuous(identity_traj):
    sc, traj = identity_traj
    astro = R.RateValue.astronomical("huge")
    res = V.check_ar(traj, astro, k=3, cap=1000)
    assert res.passed
    assert "vacuous" in res.details["flag"]


def test_ar_detects_broken_rate(identity_traj):
    sc, traj = identity_traj
    res = V.check_ar(traj, R.RateValue.finite(0), k=5, cap=1000)
    assert not res.passed  # d_step at n=0 is 1/2 > 1/6


def test_family_ar_identity_trivial(identity_traj):
    sc, traj = identity_traj
    rate = R.Sigma_tilde_star(2, sc.bundle, sc.K, sc.chi_T_fn)
    res = V.check_family_ar(traj, sc.family, rate, k=2, cap=1000)
    assert res.passed
    assert res.details["first_hit"] == 0


PROXIMAL_PLANE = """
space.kind = euclidean
family.kind = proximal
family.center = 0,0
schedule.preset = harmonic
run.u = 0,0
run.x0 = 1,0
run.steps = 200
"""


def test_Tm_ar_proximal():
    sc = scenario_from_text(PROXIMAL_PLANE)
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, sc.steps,
               scenario_hash=sc.scenario_hash)
    for m in (0, 5):
        for k in (0, 3):
            rate = R.Psi_star(k, sc.bundle, sc.K, sc.chi_T_fn)
            res = V.check_Tm_ar(traj, sc.family, m, rate, k=k, cap=sc.steps)
            assert res.passed, (m, k, res.details)
    # T_5 moves x0 = (1, 0) by 7/13 of its distance to the center: more than
    # 1/4, so a rate of 0 fails at k = 3 with n = 0 as the witness
    x0 = traj.records[0].x
    assert sc.space.dist(x0, sc.family.apply(5, x0)) > 1 / 4
    res = V.check_Tm_ar(traj, sc.family, 5, R.RateValue.finite(0), k=3, cap=sc.steps)
    assert not res.passed
    assert res.check_id == "Tm-ar[m=5]"
    assert res.witness["n"] == 0


def test_ar_insufficient_data(identity_traj):
    sc, traj = identity_traj
    big = R.RateValue.finite(10 ** 9)
    with pytest.raises(V.VerifyError):
        V.check_ar(traj, big, k=0, cap=10 ** 9)
    # a negative cap would start the suffix at a negative index
    with pytest.raises(V.VerifyError, match="cap -1 is negative"):
        V.check_ar(traj, R.RateValue.finite(0), k=0, cap=-1)


@pytest.fixture(scope="module")
def proximal_run():
    sc = scenario_from_text(PROXIMAL_PLANE)
    return sc, run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, sc.steps)


def test_ar_checks_refuse_a_negative_k(proximal_run):
    # 1/(k + 1) has no meaning for k = -1, where it divided by zero
    sc, traj = proximal_run
    rate = R.RateValue.finite(0)
    for check in (lambda k: V.check_ar(traj, rate, k=k, cap=10),
                  lambda k: V.check_family_ar(traj, sc.family, rate, k=k, cap=10),
                  lambda k: V.check_Tm_ar(traj, sc.family, 0, rate, k=k, cap=10)):
        for k in (-1, -2):
            with pytest.raises(V.VerifyError, match=f"k {k} is negative"):
                check(k)


def test_Tm_ar_refuses_a_negative_m(proximal_run):
    # the harmonic gamma_{-1} = 1 + 1/0 divided by zero, and gamma_{-2} = 0
    # made T_{-2} the identity, so the check passed
    sc, traj = proximal_run
    for m in (-1, -2):
        with pytest.raises(V.VerifyError, match=rf"Tm-ar\[m={m}\]: m {m} is negative"):
            V.check_Tm_ar(traj, sc.family, m, R.RateValue.finite(0), k=0, cap=10)


def test_chi_T_series_refuses_a_negative_k_max(proximal_run):
    # k_max = -1 checked no k and passed with max_residual -inf
    sc, traj = proximal_run
    with pytest.raises(V.VerifyError, match="k_max -1 is negative"):
        V.check_chi_T_series(traj, sc.family, sc.chi_T_fn, k_max=-1)


# ---------------------------------------------------------------------------
# Metastability
# ---------------------------------------------------------------------------


def test_search_singleton_windows(identity_traj):
    _, traj = identity_traj
    for k in (0, 9, 50):
        q = V.MetastabilityQuery(k=k, f=R.Identity(), cap=100)
        assert V.search_metastable(traj, q).found == 0


def test_search_vacuous_window():
    sc = scenario_from_text(IDENTITY_LINE)
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 50)
    # f(n) = 0 < n for n >= 1, and the n = 0 window is the singleton {x_0}
    q = V.MetastabilityQuery(k=10, f=R.Const(0), cap=40)
    assert V.search_metastable(traj, q).found == 0


def test_search_least_index_semantics(identity_traj):
    # with windows forced past the trivial prefix, the brute-force least
    # index for k=9, f(n)=2n over x_n = 1/(n+1) is n=4:
    # 1/(n+1) - 1/(2n+1) <= 1/10 first holds there for n >= 1
    _, traj = identity_traj
    q = V.MetastabilityQuery(k=9, f=R.Affine(2, 0), cap=100)
    res = V.search_metastable(traj, q)
    assert res.found == 0  # the n = 0 window [0, 0] is a singleton
    values = [
        1.0 / (n + 1) - 1.0 / (2 * n + 1) <= 0.1 + 1e-9 for n in range(1, 8)
    ]
    assert values.index(True) + 1 == 4


def test_search_monotone_in_cap(identity_traj):
    _, traj = identity_traj
    f = R.Affine(1, 30)
    for k in (2, 5):
        found = []
        for cap in (10, 100, 1000):
            q = V.MetastabilityQuery(k=k, f=f, cap=cap)
            found.append(V.search_metastable(traj, q).found)
        hits = [n for n in found if n is not None]
        assert all(n == hits[0] for n in hits)


def test_search_truncation_flag(identity_traj):
    _, traj = identity_traj
    q = V.MetastabilityQuery(k=100000, f=R.Affine(10, 10 ** 6), cap=10)
    res = V.search_metastable(traj, q)
    assert res.found is None
    assert res.truncated


def test_check_mu_pass_and_fail(identity_traj):
    sc, traj = identity_traj
    q = V.MetastabilityQuery(k=0, f=R.Const(0), cap=1000)
    bound = R.mu_star(0, R.Const(0), sc.bundle, sc.K, sc.chi_T_fn,
                      Phi_override=R.Const(0))
    res = V.check_mu(traj, q, bound)
    assert res.passed
    assert res.details["searched_n"] == 0

    # adversarial broken bound: a window that only closes later
    space = Euclidean(2)
    fam = RotationFamily(space, math.pi / 2)
    rot_traj = run(space, fam, preset("harmonic"),
                   Point.euclidean(0, 0), Point.euclidean(1, 0), 500)
    q2 = V.MetastabilityQuery(k=9, f=R.Affine(1, 3), cap=400)
    search = V.search_metastable(rot_traj, q2)
    assert search.found is not None and search.found > 0
    broken = V.check_mu(rot_traj, q2, R.RateValue.finite(0))
    assert not broken.passed


def test_check_mu_astronomical_flag(identity_traj):
    sc, traj = identity_traj
    q = V.MetastabilityQuery(k=1, f=R.Const(0), cap=100)
    res = V.check_mu(traj, q, R.RateValue.astronomical("big"))
    assert res.passed
    assert "not informative" in res.details["flag"]


# ---------------------------------------------------------------------------
# Synthetic recurrence instances
# ---------------------------------------------------------------------------


def test_telescoping_closed_form():
    inst = V.telescoping_instance(100)
    for n in range(101):
        assert inst.s[n] == pytest.approx(1.0 / (n + 1), abs=1e-12)


def test_xu_lemma_telescoping_all_k():
    inst = V.telescoping_instance(1100)
    b = preset("harmonic")
    for k in range(51):
        res = V.check_xu_lemma(inst, k=k, n=0, q=1000,
                               sigma_star=b.sigma_star)
        assert res.passed and res.hypothesis_status == "met"
        assert res.horizons["threshold"] == 3 * k + 4


def test_xu_lemma_divergence_variant():
    inst = V.telescoping_instance(3000)
    b = preset("harmonic")
    res = V.check_xu_lemma(inst, k=1, n=0, q=2900, sigma=b.sigma)
    assert res.passed


def test_xu_lemma_boundary_r():
    k, q, length = 2, 800, 900
    r_bound = 1.0 / (3 * (k + 1))
    a = [1.0 / (n + 2) for n in range(length)]
    v = [0.0] * length
    r = [r_bound] * length
    s = [1.0]
    for n in range(length):
        s.append((1 - a[n]) * (s[n] + v[n]) + a[n] * r[n])
    inst = V.SyntheticXuInstance(s=s, a=a, v=v, r=r, S=1)
    res = V.check_xu_lemma(inst, k=k, n=0, q=q,
                           sigma_star=preset("harmonic").sigma_star)
    assert res.passed and res.hypothesis_status == "met"


def test_xu_lemma_hypotheses_unmet():
    length = 50
    a = [1.0 / (n + 2) for n in range(length)]
    r = [1.0] * length
    s = [1.0]
    for n in range(length):
        s.append((1 - a[n]) * s[n] + a[n] * r[n])
    inst = V.SyntheticXuInstance(s=s, a=a, v=[0.0] * length, r=r, S=1)
    res = V.check_xu_lemma(inst, k=5, n=0, q=40,
                           sigma_star=preset("harmonic").sigma_star)
    assert res.passed
    assert res.hypothesis_status == "unmet"


def test_xu_lemma_argument_validation():
    inst = V.telescoping_instance(50)
    b = preset("harmonic")
    with pytest.raises(V.VerifyError):
        V.check_xu_lemma(inst, k=0, n=0, q=10)
    with pytest.raises(V.VerifyError):
        V.check_xu_lemma(inst, k=0, n=0, q=10, sigma=b.sigma,
                         sigma_star=b.sigma_star)
    with pytest.raises(V.VerifyError):
        V.check_xu_lemma(inst, k=0, n=0, q=100, sigma_star=b.sigma_star)


def _xu_instance(length=30, v=None, r=None):
    """The telescoping instance of the given length with v and r replaced
    (the recurrence still holds: s does not grow as v or r do)."""
    inst = V.telescoping_instance(length)
    return V.SyntheticXuInstance(s=inst.s, a=inst.a, v=inst.v if v is None else v,
                                 r=inst.r if r is None else r, S=inst.S)


def _planted(length, **values):
    column = [0.0] * length
    for i, value in values.items():
        column[int(i[1:])] = value
    return column


def _ref_xu_witness(inst, k, n, q, tol=1e-9):
    """The hypotheses' witness as a per-index loop finds it: the first
    index in [n, q] whose v, or else r, passes its bound; None when none
    does (a NaN never passes)."""
    v_bound, r_bound = V._window_bounds(k, q)
    for i in range(n, q + 1):
        if i < len(inst.v) and inst.v[i] > v_bound + tol:
            return {"i": i, "v": inst.v[i]}
        if i < len(inst.r) and inst.r[i] > r_bound + tol:
            return {"i": i, "r": inst.r[i]}
    return None


NAN = math.nan


@pytest.mark.parametrize("v, r, n, q, witness", [
    # a violation in v, in r, and in both at one index: v is named
    (_planted(30, i5=1.0), None, 0, 20, {"i": 5, "v": 1.0}),
    (None, _planted(30, i7=1.0), 0, 20, {"i": 7, "r": 1.0}),
    (_planted(30, i4=1.0, i9=2.0), _planted(30, i4=2.0), 0, 20, {"i": 4, "v": 1.0}),
    # a NaN first makes the window's max NaN, which hides a later violation
    (_planted(30, i0=NAN, i6=1.0), None, 0, 20, {"i": 6, "v": 1.0}),
    (_planted(30, i3=NAN, i6=1.0), _planted(30, i3=1.0), 3, 20, {"i": 3, "r": 1.0}),
    (_planted(30, i0=NAN), None, 0, 20, None),
    # a NaN inside the window is no violation, before or after one
    (_planted(30, i3=NAN), None, 0, 20, None),
    (_planted(30, i3=NAN, i8=1.0), None, 0, 20, {"i": 8, "v": 1.0}),
    (None, _planted(30, i2=NAN, i8=1.0, i9=NAN), 0, 20, {"i": 8, "r": 1.0}),
    # n > 0: a violation before n or past q is outside the window
    (_planted(30, i2=1.0, i21=1.0), _planted(30, i4=1.0), 5, 20, None),
    (_planted(30, i2=1.0, i12=1.0), None, 5, 20, {"i": 12, "v": 1.0}),
    (_planted(30, i5=math.inf), None, 5, 20, {"i": 5, "v": math.inf}),
    # v or r shorter than q + 1: the window reads what is there
    (None, _planted(31, i30=1.0), 0, 30, {"i": 30, "r": 1.0}),
    (_planted(31, i30=1.0), None, 0, 30, {"i": 30, "v": 1.0}),
    (_planted(30, i29=NAN), _planted(31, i30=NAN), 25, 30, None),
])
def test_xu_lemma_hypotheses_witness(v, r, n, q, witness):
    inst = _xu_instance(v=v, r=r)
    res = V.check_xu_lemma(inst, k=0, n=n, q=q, sigma_star=preset("harmonic").sigma_star)
    assert _ref_xu_witness(inst, 0, n, q) == witness
    assert res.passed
    if witness is None:
        assert res.hypothesis_status == "met" and res.witness is None
    else:
        assert res.hypothesis_status == "unmet"
        assert res.witness == witness and res.horizons == {"n": n, "q": q}


_xu_values = st.sampled_from([0.0, 0.001, 0.02, 0.5, math.inf, math.nan])


@given(st.lists(_xu_values, min_size=30, max_size=31),
       st.lists(_xu_values, min_size=30, max_size=31),
       st.integers(0, 32), st.integers(0, 30), st.integers(0, 3))
def test_xu_lemma_hypotheses_are_the_per_index_loop(v, r, n, q, k):
    inst = _xu_instance(v=v, r=r)
    res = V.check_xu_lemma(inst, k=k, n=n, q=q, sigma_star=preset("harmonic").sigma_star)
    witness = _ref_xu_witness(inst, k, n, q)
    assert res.hypothesis_status == ("met" if witness is None else "unmet")
    if witness is not None:
        assert res.witness == witness


def test_xu_lemma_refuses_a_negative_n():
    with pytest.raises(V.VerifyError, match="n -1 is negative"):
        V.check_xu_lemma(_xu_instance(), k=0, n=-1, q=10,
                         sigma_star=preset("harmonic").sigma_star)


def test_random_instance_is_valid_and_seeded():
    a = V.random_instance(7, 300, k=2, q=250)
    b = V.random_instance(7, 300, k=2, q=250)
    assert a.s == b.s
    assert V.random_instance(8, 300, k=2, q=250).s != a.s


def test_instance_generation_rejects_violations():
    with pytest.raises(V.VerifyError):
        V.SyntheticXuInstance(s=[0.0, 1.0], a=[0.5], v=[0.0], r=[0.0], S=1)


# ---------------------------------------------------------------------------
# Trajectory inequalities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["euclidean", "disk", "tripod"])
def test_recursive_inequalities(kind):
    import random

    if kind == "euclidean":
        text = IDENTITY_LINE
    elif kind == "disk":
        text = """
space.kind = disk
family.kind = proximal
family.center = 0,0
schedule.preset = harmonic
run.u = 0.2,0
run.x0 = 0.4,0.1
"""
    else:
        text = """
space.kind = tripod
family.kind = rotation
family.angle = 2.0943951023931953
schedule.preset = harmonic
run.u = 0:0
run.x0 = 1:1.0
"""
    sc = scenario_from_text(text)
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 300,
               scenario_hash=sc.scenario_hash)
    rng = random.Random(1)
    for _ in range(5):
        x = sc.space.sample(rng, 2.0)
        res = V.check_recursive_inequalities(traj, sc.family, sc.bundle, x)
        assert res.passed, (kind, res.details)


def test_recursive_inequalities_at_fixed_point(identity_traj):
    sc, traj = identity_traj
    res = V.check_recursive_inequalities(traj, sc.family, sc.bundle, sc.p)
    assert res.passed


PROXIMAL_PLANE = """
space.kind = euclidean
space.dim = 2
family.kind = proximal
family.center = 0,0
schedule.preset = harmonic
run.u = 0.5,0
run.x0 = 1,0
run.steps = 200
"""


@pytest.mark.parametrize("B", ["max(const:2,pow:200)", "max(const:2,pow:20000000)"])
def test_recursive_inequalities_take_B_past_the_float_range(B):
    # B(n) = n^200 passes the float range at n = 35, where int(B(n)) * w_n
    # overflows; pow:20000000 passes it at n = 2 with 20 million bits, and
    # is evaluated under the cap.  There the term B(n) w_n of (iii) is huge
    # or +inf, so its residual is hugely negative, and where w_n = 0 (x = p)
    # it is 0.0: the report is that of B capped at 2^1000, whose residuals
    # are hugely negative, or equal, there
    sc = scenario_from_text(PROXIMAL_PLANE + f"schedule.B = {B}\n")
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 200)
    below = replace(sc.bundle, B=R.Table(tuple(
        min(R.capped(sc.bundle.B, n, 1100, 1 << 1100), 1 << 1000) for n in range(201))))
    rng = random.Random(5)
    for x in [sc.p, sc.u] + [sc.space.sample(rng, 2.0) for _ in range(3)]:
        res = V.check_recursive_inequalities(traj, sc.family, sc.bundle, x)
        assert res.passed
        assert res.to_json() == V.check_recursive_inequalities(traj, sc.family, below, x).to_json()


@pytest.mark.parametrize("B_n,w_n,beta,want", [
    (1 << 1050, 2.0 ** -1070, 0.5, 2.0 ** -20),  # a subnormal w_n: a small product
    (1 << 1024, 5e-324, 0.5, 2.0 ** -50),
    (1 << 1100, 2.0 ** -1074, 0.5, 2.0 ** 26),
    (1 << V._B_CAP, 5e-324, 0.5, math.inf),  # B(n) past the cap
    (1 << 1100, 1.0, 0.5, math.inf),
    (1 << 1100, 0.0, 0.5, 0.0),
    (1 << 1100, 1.0, 0.0, 0.0),
])
def test_past_float_term_examples(B_n, w_n, beta, want):
    assert V._past_float_term(w_n, B_n, beta) == want
    assert math.isnan(V._past_float_term(math.nan, B_n, beta))


@given(st.integers(1 << 1024, 1 << V._B_CAP), st.floats(min_value=0.0, allow_infinity=False))
@example(1 << 1050, 2.0 ** -1070)
@example((1 << 1024) + 1, 5e-324)
def test_past_float_term_is_the_exact_product(B_n, w_n):
    # the exact product rounded to a float, to a few ulps or the subnormal
    # step, and inf exactly where it overflows (up to an ulp at the edge)
    got = V._past_float_term(w_n, B_n, 0.5)
    exact = Fraction(B_n) * Fraction(w_n)
    if got == math.inf:
        assert exact >= Fraction(2) ** 1024 * (1 - Fraction(1, 1 << 50))
    else:
        assert abs(Fraction(got) - exact) <= max(exact / (1 << 51), Fraction(math.ulp(0.0)))


# ---------------------------------------------------------------------------
# Approximate-fixed-point lemmas
# ---------------------------------------------------------------------------


def test_convex_afp_trivial_and_near():
    space = Euclidean(2)
    fam = RotationFamily(space, math.pi / 2)
    p = fam.fixed_point
    res = V.check_convex_afp(space, fam, p, p, p, K=1, k=5, n_max=5)
    assert res.passed and res.hypothesis_status == "met"

    v1, v2 = Point.euclidean(1e-4, 0), Point.euclidean(0, 1e-4)
    res = V.check_convex_afp(space, fam, v1, v2, p, K=1, k=3, n_max=5,
                             t_grid=11)
    assert res.passed and res.hypothesis_status == "met"


def test_convex_afp_premise_violated():
    space = Euclidean(2)
    fam = RotationFamily(space, math.pi / 2)
    p = fam.fixed_point
    far = Point.euclidean(0.9, 0)
    res = V.check_convex_afp(space, fam, far, p, p, K=1, k=5, n_max=3)
    assert res.passed
    assert res.hypothesis_status == "unmet"


def test_variational_projection_characterization():
    space = Euclidean(2)
    x, y = Point.euclidean(0, 0), Point.euclidean(1, 0)
    u = Point.euclidean(-1.0, 0.5)
    res = V.check_variational(space, x, y, u, x, K=2, k=4)
    assert res.passed and res.hypothesis_status == "met"
    assert res.details["quasilin"] <= 0.0


def test_variational_x_equals_u():
    space = Euclidean(2)
    x = Point.euclidean(0.2, 0.1)
    y = Point.euclidean(1, 1)
    res = V.check_variational(space, x, y, x, x, K=2, k=3)
    assert res.passed
    assert res.details["quasilin"] == pytest.approx(0.0, abs=1e-12)


def test_variational_premise_violated():
    space = Euclidean(2)
    # u on the far side of y: x does not minimize along [x, y]
    x, y, u = Point.euclidean(0, 0), Point.euclidean(1, 0), Point.euclidean(2, 0)
    res = V.check_variational(space, x, y, u, x, K=2, k=4)
    assert res.passed
    assert res.hypothesis_status == "unmet"


# ---------------------------------------------------------------------------
# Series Cauchy modulus
# ---------------------------------------------------------------------------


def test_chi_T_series_proximal():
    space = Euclidean(2)
    bundle = preset("harmonic")
    fam = ProximalFamily(space, space.base_point(), bundle.gamma)
    traj = run(space, fam, bundle, Point.euclidean(0.5, 0),
               Point.euclidean(1, 0), 5000)
    fn = fam.chi_T_fn(bundle, K=1)
    res = V.check_chi_T_series(traj, fam, fn, k_max=10, tol=1e-8)
    assert res.passed, res.details


def test_chi_T_series_detects_broken_modulus():
    space = Euclidean(2)
    bundle = preset("harmonic")
    fam = ProximalFamily(space, space.base_point(), bundle.gamma)
    traj = run(space, fam, bundle, Point.euclidean(2.0, 0),
               Point.euclidean(2, 1), 5000)
    res = V.check_chi_T_series(traj, fam, lambda k: 0, k_max=200, tol=1e-12)
    assert not res.passed  # the whole series exceeds 1/(k+1) for large k


def test_chi_T_series_skips_a_modulus_past_its_cap():
    # chi_T(k) = 2k + 1 under a 3-bit cap: k = 0..3 are checked, and k >= 4
    # is skipped as a start past the trajectory would be
    space = Euclidean(2)
    bundle = preset("harmonic")
    fam = ProximalFamily(space, space.base_point(), bundle.gamma)
    traj = run(space, fam, bundle, Point.euclidean(0.5, 0), Point.euclidean(1, 0), 500)
    fn = fam.chi_T_fn(bundle, K=1, cap=3)
    assert fn(3) == 7
    with pytest.raises(R.CapExceeded):
        fn(4)
    capped = V.check_chi_T_series(traj, fam, fn, k_max=10, tol=1e-8)
    first_four = V.check_chi_T_series(traj, fam, fam.chi_T_fn(bundle, K=1), k_max=3,
                                      tol=1e-8)
    assert capped.passed and capped.details == first_four.details


# ---------------------------------------------------------------------------
# Families whose members coincide
# ---------------------------------------------------------------------------


class CountingRotationPerRow(CountingRotation):
    """The same maps, undeclared as coinciding, whose images call image on
    each row's data."""

    members_coincide = False
    images = MappingFamily.images


class CountingProximal(ProximalFamily):
    """A proximal family that counts the calls of its image, which apply
    calls."""

    calls = 0

    def image(self, n, data):
        self.calls += 1
        return super().image(n, data)


class CountingProximalPerRow(CountingProximal):
    """The same maps, whose images call image on each row's data."""

    images = MappingFamily.images


def test_checks_apply_coinciding_members_at_most_once():
    # on the run's own family, Tm-AR reads d_Tn and the chi_T series the Tu
    # column, and the recursive inequalities apply T_0 once; a family that
    # does not declare it is applied on every row, with the same reports.
    # A proximal family maps whole columns and never calls apply, with the
    # reports of its per-row twin
    space, bundle = Euclidean(2), preset("harmonic")
    o = space.base_point()
    pairs = {
        "rotation": (CountingRotation(space, 1.0), CountingRotationPerRow(space, 1.0)),
        "proximal": (CountingProximal(space, o, bundle.gamma),
                     CountingProximalPerRow(space, o, bundle.gamma)),
    }
    calls, reports = {}, {}
    for kind, pair in pairs.items():
        for fam in pair:
            traj = run(space, fam, bundle, o, Point.euclidean(1.0, 0.0), 50)
            checks = {
                "Tm-ar": lambda: V.check_Tm_ar(traj, fam, 3, R.RateValue.finite(0), k=0, cap=50),
                "chi-T-series": lambda: V.check_chi_T_series(traj, fam, lambda k: 0, k_max=2),
                "recursive": lambda: V.check_recursive_inequalities(
                    traj, fam, bundle, Point.euclidean(0.5, 0.5)),
            }
            for name, check in checks.items():
                fam.calls = 0
                reports.setdefault((kind, name), []).append(check().to_json())
                calls.setdefault((kind, name), []).append(fam.calls)
    assert calls == {
        ("rotation", "Tm-ar"): [0, 51], ("rotation", "chi-T-series"): [0, 51],
        ("rotation", "recursive"): [1, 50],
        ("proximal", "Tm-ar"): [0, 51], ("proximal", "chi-T-series"): [0, 51],
        ("proximal", "recursive"): [0, 50],
    }
    assert all(first == second for first, second in reports.values())


@pytest.mark.parametrize("name,calls", [("disk-rotation", 3), ("disk-proximal", 4),
                                        ("tripod-rotation", 3), ("tripod-proximal", 4)])
def test_recursive_inequalities_compute_each_distance_column_once(name, calls):
    # d(x_n, x), d(u_n, x), d(x_n, u) inside quasilins, and d(T_n x, x) for
    # a family whose members differ: quasilins takes d(x_n, x) from the check
    sc = scenario_from_text(SCENARIO_TEXTS[name])
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 50)
    space, x = traj.space, sc.family.fixed_point
    counted = []

    def dists(column, p):
        counted.append(p)
        return type(space).dists(space, column, p)

    space.dists = dists
    try:
        assert V.check_recursive_inequalities(traj, sc.family, sc.bundle, x).passed
    finally:
        del space.dists
    assert len(counted) == calls


# ---------------------------------------------------------------------------
# NaN residuals fail every check
# ---------------------------------------------------------------------------


class NaNFromThree(MappingFamily):
    """The identity for n < 3 and (nan, nan) from n = 3 on: d_step and d_Tn
    are NaN from row 3, and x_n from row 4."""

    name = "nan-from-3"

    def __init__(self, space):
        super().__init__(space, space.base_point())

    def apply(self, n, x):
        return Point.euclidean(math.nan, math.nan) if n >= 3 else x


@pytest.fixture(scope="module")
def nan_run():
    space = Euclidean(2)
    fam, bundle = NaNFromThree(space), preset("harmonic")
    traj = run(space, fam, bundle, Point.euclidean(0.5, 0.0), Point.euclidean(1.0, 0.0), 20)
    assert traj.error is None and math.isnan(traj.d_step[3]) and traj.d_step[2] < 1
    return fam, bundle, traj


def _nan_witness(res, n):
    assert not res.passed
    assert res.witness["n"] == n and math.isnan(res.witness["value"])
    assert res.details["first_hit"] == 21  # NaN to the last row


def test_ar_fails_on_nan_steps(nan_run):
    _, _, traj = nan_run
    _nan_witness(V.check_ar(traj, R.RateValue.finite(5), k=0, cap=20), 3)


def test_family_ar_fails_on_nan_steps(nan_run):
    fam, _, traj = nan_run
    _nan_witness(V.check_family_ar(traj, fam, R.RateValue.finite(5), k=0, cap=20), 3)


def test_Tm_ar_fails_on_nan_points(nan_run):
    # T_0 is the identity, so the first NaN is d(x_4, x_4)
    fam, _, traj = nan_run
    _nan_witness(V.check_Tm_ar(traj, fam, 0, R.RateValue.finite(5), k=0, cap=20), 4)


def test_chi_T_series_fails_on_nan_terms(nan_run):
    fam, bundle, traj = nan_run
    res = V.check_chi_T_series(traj, fam, fam.chi_T_fn(bundle, K=1), k_max=5)
    assert not res.passed and math.isnan(res.details["max_residual"])
    assert res.witness["k"] == 0 and math.isnan(res.witness["tail_sum"])
    # the first NaN term: d(T_3 u_2, T_2 u_2)
    assert res.witness["start"] == 0 and res.witness["n"] == 2
    # a tail from row 5 names its own first NaN term, not the series'
    res = V.check_chi_T_series(traj, fam, lambda k: 5, k_max=0)
    assert res.witness["start"] == 5 and res.witness["n"] == 5


@pytest.mark.parametrize("name", ["euclidean-rotation", "disk-rotation", "tripod-rotation"])
@pytest.mark.parametrize("planted", [math.inf, -math.inf, math.nan])
def test_chi_T_series_of_coinciding_members_forms_no_distance(name, planted):
    # each term is d(t, t) for the row t of Tu, given without pair_dists:
    # 0.0 on a finite row, and NaN on a row with a coordinate planted
    # infinite or NaN, as pair_dists(Tu, Tu) gives it; the check then fails
    # and its witness names that row
    sc = scenario_from_text(SCENARIO_TEXTS[name])
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 20)
    space, w, calls = traj.space, traj.width, []
    assert sc.family.members_coincide and traj.error is None

    def pair_dists(a, b):
        calls.append(len(a))
        return type(space).pair_dists(space, a, b)

    space.pair_dists = pair_dists
    try:
        res = V.check_chi_T_series(traj, sc.family, lambda k: 0, k_max=3)
        assert res.passed and res.details["max_residual"] == -0.25
        traj.Tu[7 * w + w - 1] = planted
        res = V.check_chi_T_series(traj, sc.family, lambda k: 0, k_max=3)
    finally:
        del space.pair_dists
    assert calls == []
    terms = space.pair_dists(traj.Tu, traj.Tu)
    assert [n for n, t in enumerate(terms) if t != 0.0] == [7] and math.isnan(terms[7])
    assert not res.passed and math.isnan(res.details["max_residual"])
    assert res.witness["start"] == 0 and res.witness["n"] == 7


def test_recursive_inequalities_fail_on_nan_residuals(nan_run):
    fam, bundle, traj = nan_run
    res = V.check_recursive_inequalities(traj, fam, bundle, Point.euclidean(0.0, 0.0))
    assert not res.passed and math.isnan(res.details["max_residual"])
    assert res.witness == {"n": 3, "part": "i"}


def test_metastable_windows_fail_on_nan_distances(nan_run):
    # every window [n, n + 5] reaches x_4, so none holds and the search
    # runs out of trajectory
    _, _, traj = nan_run
    q = V.MetastabilityQuery(k=0, f=R.Affine(1, 5), cap=20)
    search = V.search_metastable(traj, q)
    assert search.found is None and search.truncated
    assert not V.check_mu(traj, q, R.RateValue.finite(20)).passed
