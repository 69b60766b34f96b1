"""Mapping families: nonexpansiveness, step-size compatibility, solvers."""

import math
import random
import re
import sys
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmlab.geometry import (Euclidean, GeometryError, PoincareDisk, Point, SampleSpec,
                            SpaceModel, Tripod)
from tmlab.mappings import (
    ConstantFamily,
    IdentityFamily,
    MetricProjectionFamily,
    ProximalFamily,
    ResolventFamily,
    RotationFamily,
    SolverFailure,
    check_afp_membership,
    check_condition_c1,
    check_nonexpansive,
)
from tmlab.scenario import scenario_from_text
from tmlab.schedules import preset

SMALL = SampleSpec(seed=3, count=200)

HARMONIC_GAMMA = preset("harmonic").gamma


def euclid2():
    return Euclidean(2)


# ---------------------------------------------------------------------------
# Construction and fixed points
# ---------------------------------------------------------------------------


def test_identity_fixed_point_defaults_to_base():
    fam = IdentityFamily(euclid2())
    assert fam.fixed_point.data == (0.0, 0.0)
    x = Point.euclidean(1.0, -2.0)
    assert fam.apply(17, x) is x


def test_rotation_requires_dim_two():
    with pytest.raises(GeometryError):
        RotationFamily(Euclidean(3), 1.0)


def test_rotation_fixes_base_point():
    for space in (euclid2(), PoincareDisk(), Tripod()):
        fam = RotationFamily(space, 2.0 * math.pi / 3.0)
        p = fam.fixed_point
        assert space.dist(p, fam.apply(0, p)) <= 1e-12


def test_tripod_rotation_is_leg_shift():
    fam = RotationFamily(Tripod(), 2.0 * math.pi / 3.0)
    assert fam.apply(0, Point.tripod(0, 1.5)).data == (1, 1.5)
    # a third of a turn takes leg 2 to leg 0: a point of the tripod
    assert fam.apply(0, Point.tripod(2, 1.5)) == Point.tripod(0, 1.5)


@pytest.mark.parametrize("turns", [0, 1, 2])
def test_tripod_rotation_keeps_the_center_on_leg_0(turns):
    fam = RotationFamily(Tripod(), turns * 2.0 * math.pi / 3.0)
    assert fam._shift == turns
    center = Point.tripod(0, 0.0)
    assert fam.apply(0, center) == center
    # a point built without the factory, on the center of leg 2
    assert fam.apply(0, Point("tripod", (2, 0.0))) == center


@settings(max_examples=500)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(sys.float_info.max / 3.0)
@example(math.nextafter(sys.float_info.max / 3.0, math.inf))
@example(-sys.float_info.max)
def test_tripod_shift_is_the_nearest_third_of_a_turn_for_every_finite_angle(angle):
    shift = RotationFamily(Tripod(), angle)._shift
    thirds = 3.0 * angle
    if math.isfinite(thirds):
        assert shift == round(thirds / (2.0 * math.pi)) % 3
    else:
        assert shift in (0, 1, 2)


def test_tripod_rotation_refuses_a_foreign_point():
    # apply checks its point before it maps it, as dist and comb do
    sp = Tripod()
    with pytest.raises(GeometryError, match="point of model 'euclidean' used in model 'tripod'"):
        RotationFamily(sp, 2.0 * math.pi / 3.0).apply(0, Point.euclidean(1.0, 0.5))


@pytest.mark.parametrize("space,via_resolvent,named", [
    (Euclidean(2), False, "point with 3 coordinates used in model euclidean(2)"),
    (Tripod(), False, "point of model 'euclidean' used in model 'tripod'"),
    (Euclidean(2), True, "point with 3 coordinates used in model euclidean(2)"),
], ids=["euclidean", "tripod", "resolvent-of-rotation"])
def test_rotation_of_a_three_coordinate_point_raises_geometry_error(space, via_resolvent,
                                                                    named):
    fam = RotationFamily(space, 1.0)
    if via_resolvent:
        fam = ResolventFamily(space, fam, HARMONIC_GAMMA)
    with pytest.raises(GeometryError, match=re.escape(named)):
        fam.apply(0, Point.euclidean(1.0, 2.0, 3.0))


def test_projection_inside_ball_is_identity():
    space = euclid2()
    fam = MetricProjectionFamily(space, Point.euclidean(0, 0), 1.0)
    x = Point.euclidean(0.3, 0.4)
    assert fam.apply(0, x) is x
    y = fam.apply(0, Point.euclidean(3.0, 4.0))
    assert space.dist(y, fam.fixed_point) == pytest.approx(1.0, abs=1e-12)


def test_proximal_half_squared_norm_closed_form():
    space = euclid2()
    fam = ProximalFamily(space, Point.euclidean(0, 0), lambda n: 1.0)
    # prox of d^2(., 0)/2 at step 1 is x / 2
    got = fam.apply(5, Point.euclidean(2.0, -4.0))
    assert got.data == pytest.approx((1.0, -2.0))


def test_resolvent_matches_linear_solve():
    # base map T = rotation by theta; the resolvent solves
    # z = (1 - c) x + c R z, a 2x2 linear system with exact inverse
    space = euclid2()
    theta = 1.0
    base = RotationFamily(space, theta)
    fam = ResolventFamily(space, base, lambda n: 1.0)
    x = (1.2, -0.7)
    c = 0.5
    cos, sin = math.cos(theta), math.sin(theta)
    # (I - cR) z = (1-c) x
    a11, a12 = 1 - c * cos, c * sin
    a21, a22 = -c * sin, 1 - c * cos
    det = a11 * a22 - a12 * a21
    rhs = ((1 - c) * x[0], (1 - c) * x[1])
    z = (
        (a22 * rhs[0] - a12 * rhs[1]) / det,
        (-a21 * rhs[0] + a11 * rhs[1]) / det,
    )
    got = fam.apply(0, Point.euclidean(*x))
    assert got.data == pytest.approx(z, abs=1e-10)


@pytest.mark.parametrize("x,gamma", [
    ((1.2, -0.9), 1.0),
    ((1.2, -0.9), 0.25),
    ((-3.0, 4.0), 3.0),
    ((0.3, 0.1), 1.0),
    ((0.0, -0.5), 2.0),
])
def test_resolvent_of_ball_projection_closed_form(x, gamma):
    # J(x) = x / |x| * ((1 - c)|x| + c r) outside the ball of radius r at
    # the origin, J(x) = x inside it, with c = gamma / (1 + gamma)
    space = euclid2()
    r = 0.5
    ball = MetricProjectionFamily(space, Point.euclidean(0, 0), r)
    fam = ResolventFamily(space, ball, lambda n: gamma)
    norm = math.hypot(*x)
    c = gamma / (1.0 + gamma)
    scale = ((1 - c) * norm + c * r) / norm if norm > r else 1.0
    got = fam.apply(0, Point.euclidean(*x))
    assert got.data == pytest.approx((x[0] * scale, x[1] * scale), abs=1e-10)
    assert fam.fixed_point.data == (0.0, 0.0)


def test_resolvent_reports_solver_failure():
    space = euclid2()
    base = RotationFamily(space, 1.0)
    fam = ResolventFamily(
        space, base, lambda n: 1.0, inner_tol=1e-16, max_iterations=3,
    )
    with pytest.raises(SolverFailure) as exc:
        fam.apply(0, Point.euclidean(5.0, 5.0))
    e = exc.value
    assert e.iterations == 3
    assert e.residual > 0
    # a contraction: the residuals shrink, so the last one is the best
    assert e.first > e.best == e.residual
    assert f"(first {e.first:.3e}, best {e.best:.3e})" in str(e)
    # the kernel reports what the reference loop over comb and dist reports
    with pytest.raises(SolverFailure) as ref:
        SpaceModel.fixed_point(space, (5.0, 5.0), base.image, 0.5, 1e-16, 3)
    got, want = ((f.residual, f.iterations, f.first, f.best, str(f))
                 for f in (e, ref.value))
    assert got == want


# ---------------------------------------------------------------------------
# Empirical checks
# ---------------------------------------------------------------------------


def families_for(space):
    yield IdentityFamily(space)
    if not isinstance(space, Euclidean) or space.dim == 2:
        yield RotationFamily(space, math.pi / 2)
    yield MetricProjectionFamily(space, space.base_point(), 0.5)
    yield ProximalFamily(space, space.base_point(), HARMONIC_GAMMA)


@pytest.mark.parametrize("space", [euclid2(), PoincareDisk(), Tripod()],
                         ids=["euclidean", "disk", "tripod"])
def test_families_are_nonexpansive(space):
    for fam in families_for(space):
        rep = check_nonexpansive(fam, 5, SMALL, tol=1e-9)
        assert rep.passed, rep.axiom


def test_proximal_satisfies_step_size_compatibility():
    for space in (euclid2(), PoincareDisk(), Tripod()):
        fam = ProximalFamily(space, space.base_point(), HARMONIC_GAMMA)
        rep = check_condition_c1(fam, HARMONIC_GAMMA, 8, SMALL, tol=1e-9)
        assert rep.passed, (space.kind, rep.max_violation)


def test_condition_c1_fails_for_unrelated_family():
    # a rotation family is not driven by the step sizes at all, so the
    # compatibility inequality has no reason to hold
    fam = ConstantFamily(euclid2(), IdentityFamily(euclid2()))

    class TwoMaps(ConstantFamily):
        members_coincide = False  # apply reads n

        def apply(self, n, x):
            if n == 0:
                return x
            return Point.euclidean(0.0, 0.0)

    fam = TwoMaps(euclid2(), IdentityFamily(euclid2()))
    rep = check_condition_c1(fam, lambda n: 1.0, 3, SMALL)
    assert not rep.passed


def test_afp_membership():
    space = euclid2()
    fam = RotationFamily(space, math.pi / 2)
    p = fam.fixed_point
    assert check_afp_membership(fam, p, p, K=1, k=10, n_max=5)
    near = Point.euclidean(1e-3, 0.0)
    assert check_afp_membership(fam, near, p, K=1, k=100, n_max=5)
    far = Point.euclidean(5.0, 0.0)
    assert not check_afp_membership(fam, far, p, K=1, k=10, n_max=5)


def test_chi_T_fn_is_zero_without_step_sizes():
    fam = IdentityFamily(euclid2())
    fn = fam.chi_T_fn(preset("harmonic"), K=2)
    assert [fn(k) for k in range(4)] == [0, 0, 0, 0]


def test_chi_T_fn_uses_gamma_modulus():
    space = euclid2()
    fam = ProximalFamily(space, space.base_point(), HARMONIC_GAMMA)
    b = preset("harmonic")
    fn = fam.chi_T_fn(b, K=2)
    # max{N_Gamma, chi_gamma(2*K*Gamma*(k+1) - 1)} with chi_gamma = id
    assert fn(0) == 2 * 2 * 1 * 1 - 1
    assert fn(3) == 2 * 2 * 1 * 4 - 1


# ---------------------------------------------------------------------------
# Families whose members coincide
# ---------------------------------------------------------------------------


def coinciding_families(space):
    """Every shipped family that declares members_coincide, on a model of
    dimension 2."""
    projection = MetricProjectionFamily(space, space.base_point(), 0.5)
    rotation = RotationFamily(space, 1.0)
    return [IdentityFamily(space), projection, rotation,
            ConstantFamily(space, projection), ConstantFamily(space, rotation)]


def bits(p):
    """A point's kind and data, floats by their hex form: equal exactly when
    the two points are equal to the bit."""
    return p.kind, tuple(v.hex() if isinstance(v, float) else (type(v), v) for v in p.data)


@settings(max_examples=200)
@given(st.sampled_from([euclid2(), PoincareDisk(), Tripod()]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.integers(0, 2 ** 32), st.sampled_from([0.3, 2.0, 5.0]))
def test_coinciding_members_give_the_same_image_to_the_bit(space, n, m, seed, radius):
    x = space.sample(random.Random(seed), radius)
    for fam in coinciding_families(space):
        assert fam.members_coincide, fam.name
        assert bits(fam.apply(n, x)) == bits(fam.apply(m, x)), fam.name


ORIGIN_TEXT = {"euclidean": "0,0", "disk": "0,0", "tripod": "0:0"}
START_TEXT = {"euclidean": "0.4,0", "disk": "0.4,0", "tripod": "1:0.4"}
FAMILY_KEYS = {
    "identity": ["family.kind = identity"],
    "constant-identity": ["family.kind = constant"],
    "constant-rotation": ["family.kind = constant", "family.angle = 1.0"],
    "rotation": ["family.kind = rotation", "family.angle = 1.0"],
    "projection": ["family.kind = projection", "family.center = {o}", "family.radius = 0.5"],
    "proximal": ["family.kind = proximal", "family.center = {o}"],
    "resolvent-rotation": ["family.kind = resolvent", "family.base.kind = rotation"],
    "resolvent-projection": ["family.kind = resolvent", "family.base.kind = projection",
                             "family.base.center = {o}", "family.base.radius = 0.5"],
}


def _family(model, kind):
    """The family that scenario builds from FAMILY_KEYS[kind] on the model."""
    o = ORIGIN_TEXT[model]
    lines = [f"space.kind = {model}", "schedule.preset = harmonic",
             f"run.u = {o}", f"run.x0 = {START_TEXT[model]}"]
    lines += [line.format(o=o) for line in FAMILY_KEYS[kind]]
    return scenario_from_text("\n".join(lines)).family


@pytest.mark.parametrize("model", sorted(ORIGIN_TEXT))
@pytest.mark.parametrize("kind", sorted(FAMILY_KEYS))
def test_members_coincide_exactly_when_there_are_no_step_sizes(model, kind):
    # chi_T_fn's zero modulus for a family without gammas rests on the same
    # fact: T_{n+1} u = T_n u, so every term of the chi_T series is zero
    fam = _family(model, kind)
    assert fam.members_coincide is (fam.gammas is None)
    assert fam.members_coincide is not kind.startswith(("proximal", "resolvent"))


@pytest.mark.parametrize("model", sorted(ORIGIN_TEXT))
@pytest.mark.parametrize("kind", sorted(FAMILY_KEYS))
def test_images_are_apply_on_each_row_to_the_bit(model, kind):
    # the identity, rotation, projection and proximal families map the
    # column by their closed forms, and a constant family or a resolvent
    # calls its image on each row's data; indices 0 and 1 are the least,
    # where gamma_n changes most.  The rows come from the model's draw
    # closure, which sample wraps and which, unlike sample, takes the
    # radius 0.0: its rows have zero lengths
    fam = _family(model, kind)
    space, draw = fam.space, fam.space.sampler(random.Random(7))
    rows = [Point(space.kind, draw(r)) for r in (0.0, 0.3, 1.0, 2.0, 5.0) for _ in range(4)]
    rows.append(fam.fixed_point)
    ns = [0, 1, 2, 5, 10 ** 6] * 4 + [3]
    column = array("d")
    for z in rows:
        column.extend(z.data)
    got = fam.images(column, ns)
    assert type(got) is array and got.typecode == "d"
    want = [c for n, z in zip(ns, rows) for c in fam.apply(n, z).data]
    assert [float(c).hex() for c in got] == [float(c).hex() for c in want]
    assert fam.images(array("d"), []) == array("d")
    # the edge rows one at a time, since a row whose apply raises makes the
    # whole column's images raise
    for z in edge_rows(space):
        for n in (0, 1):
            try:
                want = fam.apply(n, z).data
            except Exception as exc:
                with pytest.raises(Exception) as info:
                    fam.images(array("d", z.data), [n])
                assert type(info.value) is type(exc), (z, n)
            else:
                got = fam.images(array("d", z.data), [n])
                assert [c.hex() for c in got] == [float(c).hex() for c in want], (z, n)


class SquaredLamComb:
    """A combination that walks lam ** 2 of the geodesic, not lam, on the
    model it is mixed into; the column kernels read it through the reference
    pair_combs, as a model that changes _comb is to take it."""

    pair_combs = SpaceModel.pair_combs

    def _comb(self, a, b, lam):
        return super()._comb(a, b, lam * lam)


class SquaredLamEuclidean(SquaredLamComb, Euclidean):
    pass


class SquaredLamDisk(SquaredLamComb, PoincareDisk):
    pass


class SquaredLamTripod(SquaredLamComb, Tripod):
    pass


@pytest.mark.parametrize("space", [SquaredLamEuclidean(2), SquaredLamDisk(), SquaredLamTripod()],
                         ids=lambda space: space.kind)
def test_images_are_apply_on_a_model_that_changes_comb(space):
    # the proximal and projection images go through the model's combs and
    # dists, which follow its pair_combs and so its comb
    center = space.base_point()
    draw = space.sampler(random.Random(11))
    rows = [Point(space.kind, draw(r)) for r in (0.3, 1.0, 2.0) for _ in range(3)] + [center]
    ns = [0, 1, 2, 5, 10 ** 6, 3, 4, 7, 9, 8]
    column = array("d")
    for z in rows:
        column.extend(z.data)
    for fam in (ProximalFamily(space, center, HARMONIC_GAMMA),
                MetricProjectionFamily(space, center, 0.5)):
        got = fam.images(column, ns)
        want = [c for n, z in zip(ns, rows) for c in fam.apply(n, z).data]
        assert [c.hex() for c in got] == [float(c).hex() for c in want], fam.name


def edge_rows(space):
    """-0.0 coordinates, a row at distance 0.5 (the FAMILY_KEYS radius) from
    the origin (the FAMILY_KEYS center) and the origin itself, and rows with
    a NaN and an infinite coordinate (on the tripod, its arm)."""
    nan, inf = math.nan, math.inf
    if isinstance(space, Tripod):
        return [Point("tripod", (0, -0.0)), Point("tripod", (1, 0.5)), Point("tripod", (0, 0.0)),
                Point("tripod", (1, nan)), Point("tripod", (2, inf))]
    if isinstance(space, PoincareDisk):
        # the first float up from 9 ulps below tanh(0.25) whose distance to
        # the origin is 0.5
        c = math.tanh(0.25)
        for _ in range(9):
            c = math.nextafter(c, 0.0)
        for _ in range(64):
            d = space.dist(Point("disk", (0.0, c)), space.base_point())
            if d == 0.5:
                break
            c = math.nextafter(c, 1.0)
        else:
            pytest.fail("no float of the 64 up from 9 ulps below tanh(0.25) is at disk "
                        f"distance 0.5 from the origin: the last reached {d!r}")
        on_sphere = Point("disk", (0.0, c))
    else:
        on_sphere = Point("euclidean", (0.0, -0.5))
    kind = space.kind
    return [Point(kind, (-0.0, -0.0)), Point(kind, (-0.0, 0.25)), on_sphere,
            Point(kind, (0.0, 0.0)), Point(kind, (nan, 0.1)), Point(kind, (0.2, inf)),
            Point(kind, (-inf, 0.0))]


@pytest.mark.parametrize("model", sorted(ORIGIN_TEXT))
@pytest.mark.parametrize("kind", sorted(FAMILY_KEYS))
def test_images_reject_a_column_whose_rows_are_not_one_an_index(model, kind):
    # fewer and more indices than rows, and indices for an empty column: the
    # default images and the proximal combs keep one contract
    fam = _family(model, kind)
    column = array("d", fam.fixed_point.data * 3)
    assert len(fam.images(column, range(3))) == len(column)
    for col, ns in ((column, range(2)), (column, range(5)), (array("d"), [0])):
        with pytest.raises(GeometryError, match="needs"):
            fam.images(col, ns)


class NaNFamily(IdentityFamily):
    """Maps every point to a point with NaN coordinates."""

    def apply(self, n, x):
        return Point("euclidean", (math.nan,) * len(x.data))


def test_a_nan_image_fails_nonexpansive_and_c1():
    fam = NaNFamily(euclid2())
    for rep in (check_nonexpansive(fam, 3, SMALL),
                check_condition_c1(fam, HARMONIC_GAMMA, 3, SMALL)):
        assert math.isnan(rep.max_violation), rep.axiom
        assert not rep.passed, rep.axiom
        # the first noted tuple: the first sample at n = 0 (and m = 0)
        assert rep.worst_case_inputs["n"] == 0
