"""Space models: distances, combinations, sampling and axiom checkers."""

import math
import random
import struct
import tracemalloc
from array import array
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmlab.geometry import (
    _TRIPOD_LENGTH,
    DISK_MARGIN,
    SAMPLE_BLOCK,
    AxiomReport,
    Euclidean,
    GeometryError,
    PoincareDisk,
    Point,
    SampleSpec,
    SolverFailure,
    SpaceModel,
    Tripod,
    check_cn,
    check_quasilin_axioms,
    check_uniform_convexity,
    check_w_axioms,
    make_model,
    run_all_geometry_checks,
)
from tmlab.mappings import MetricProjectionFamily, ResolventFamily, RotationFamily

SMALL = SampleSpec(seed=11, count=400)

coords = st.floats(-3.0, 3.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


def test_disk_point_rejects_boundary():
    with pytest.raises(GeometryError):
        Point.disk(1.0, 0.0)
    with pytest.raises(GeometryError):
        Point.disk(0.8, 0.61)


def test_tripod_point_normalizes_center():
    assert Point.tripod(2, 0.0).data == (0, 0.0)
    with pytest.raises(GeometryError):
        Point.tripod(3, 1.0)
    with pytest.raises(GeometryError):
        Point.tripod(0, -0.5)


# one model, two of its points and a point of another model, per model
MODEL_POINTS = {
    "euclidean": (Euclidean(2), Point.euclidean(0, 0), Point.euclidean(1, 2),
                  Point.tripod(0, 0.0)),
    "disk": (PoincareDisk(), Point.disk(0.1, 0.2), Point.disk(-0.3, 0.4),
             Point.euclidean(0.1, 0.2)),
    "tripod": (Tripod(), Point.tripod(0, 1.0), Point.tripod(2, 0.5),
               Point.disk(0.0, 0.0)),
}


@pytest.mark.parametrize("op", ["comb", "dist"])
@pytest.mark.parametrize("kind", sorted(MODEL_POINTS))
def test_model_point_mismatch_rejected(kind, op):
    sp, x, _, foreign = MODEL_POINTS[kind]
    call = sp.comb if op == "comb" else (lambda a, b, lam: sp.dist(a, b))
    with pytest.raises(GeometryError):
        call(x, foreign, 0.5)
    with pytest.raises(GeometryError):
        call(foreign, x, 0.5)


@pytest.mark.parametrize("lam", [-0.1, 1.5, math.nan])
@pytest.mark.parametrize("kind", sorted(MODEL_POINTS))
def test_comb_lambda_validation(kind, lam):
    sp, x, y, _ = MODEL_POINTS[kind]
    with pytest.raises(GeometryError):
        sp.comb(x, y, lam)


@pytest.mark.parametrize("op", ["comb", "dist"])
def test_euclidean_coordinate_count_mismatch_rejected(op):
    # unchecked, zip truncates: dist((3, 4, 12), (0, 0)) would be 5.0
    e = Euclidean(2)
    x, y = Point.euclidean(3, 4, 12), Point.euclidean(0, 0)
    call = e.comb if op == "comb" else (lambda a, b, lam: e.dist(a, b))
    with pytest.raises(GeometryError):
        call(x, y, 0.5)
    with pytest.raises(GeometryError):
        call(y, x, 0.5)


@pytest.mark.parametrize("kind", sorted(MODEL_POINTS))
def test_quasilin_rejects_a_foreign_point_in_any_position(kind):
    sp, x, y, foreign = MODEL_POINTS[kind]
    for i in range(4):
        pts = [x, y, y, x]
        pts[i] = foreign
        with pytest.raises(GeometryError):
            sp.quasilin(*pts)


def test_euclidean_quasilin_rejects_another_dimension():
    e = Euclidean(2)
    p2, p3 = Point.euclidean(0, 0), Point.euclidean(3, 4, 12)
    with pytest.raises(GeometryError):
        e.quasilin(p3, p3, p3, p3)
    for i in range(4):
        pts = [p2, p2, p2, p2]
        pts[i] = p3
        with pytest.raises(GeometryError):
            e.quasilin(*pts)


def test_point_is_immutable():
    p = Point.euclidean(1.0, 2.0)
    with pytest.raises(AttributeError):
        p.kind = "disk"
    with pytest.raises(AttributeError):
        p.data = (0.0, 0.0)
    assert p == Point.euclidean(1.0, 2.0)


def test_point_is_hashable():
    a, b = Point.euclidean(1, 2), Point.euclidean(1.0, 2.0)
    assert hash(a) == hash(b)
    assert len({a, b, Point.tripod(0, 1.0), Point.disk(0.5, 0.0)}) == 3
    assert {a: "x"}[b] == "x"


# ---------------------------------------------------------------------------
# Euclidean
# ---------------------------------------------------------------------------


@given(coords, coords, coords, coords, st.floats(0.0, 1.0))
def test_euclidean_comb_is_linear_interpolation(x0, x1, y0, y1, lam):
    e = Euclidean(2)
    c = e.comb(Point.euclidean(x0, x1), Point.euclidean(y0, y1), lam)
    assert c.data[0] == pytest.approx((1 - lam) * x0 + lam * y0, abs=1e-12)
    assert c.data[1] == pytest.approx((1 - lam) * x1 + lam * y1, abs=1e-12)


@given(coords, coords, coords, coords, coords, coords, coords, coords)
def test_euclidean_quasilin_fast_path_matches_generic(a, b, c, d, e, f, g, h):
    sp = Euclidean(2)
    x, y = Point.euclidean(a, b), Point.euclidean(c, d)
    u, v = Point.euclidean(e, f), Point.euclidean(g, h)
    from tmlab.geometry import quasilin_from_distances

    generic = quasilin_from_distances(
        sp.dist(x, v), sp.dist(y, u), sp.dist(x, u), sp.dist(y, v)
    )
    assert sp.quasilin(x, y, u, v) == pytest.approx(generic, abs=1e-9)


# ---------------------------------------------------------------------------
# Reference bodies
#
# The bodies of dist, comb and quasilin before the 2-D and 3-D Euclidean
# branches: the general comprehensions in every dimension, dist's and
# comb's as the coordinate kernels _dist and _comb, which the Point methods,
# the step loop and (through the reference pair_combs) the column
# combinations call; fixed_point is the reference loop over them.  The
# branches must give the same floats, to the bit, and raise where they
# raise.
# ---------------------------------------------------------------------------


class RefEuclidean(Euclidean):
    fixed_point = SpaceModel.fixed_point
    pair_combs = SpaceModel.pair_combs

    def _dist(self, xd: tuple, yd: tuple) -> float:
        return math.sqrt(sum([(a - b) ** 2 for a, b in zip(xd, yd)]))

    def _comb(self, xd: tuple, yd: tuple, lam: float) -> tuple:
        if not 0.0 <= lam <= 1.0:
            self._check_lambda(lam)
        mu = 1.0 - lam
        return tuple([mu * a + lam * b for a, b in zip(xd, yd)])

    def quasilin(self, x: Point, y: Point, u: Point, v: Point) -> float:
        # fast path: the coordinate dot product (y - x) . (v - u)
        xd, yd, ud, vd = x.data, y.data, u.data, v.data
        n = self.dim
        if (x.kind != "euclidean" or y.kind != "euclidean"
                or u.kind != "euclidean" or v.kind != "euclidean"
                or len(xd) != n or len(yd) != n or len(ud) != n or len(vd) != n):
            self._require(x, y, u, v)
        return sum([(b - a) * (d - c) for a, b, c, d in zip(xd, yd, ud, vd)])


class RefTripod(Tripod):
    fixed_point = SpaceModel.fixed_point

    def _comb(self, xd: tuple, yd: tuple, lam: float) -> tuple:
        if not 0.0 <= lam <= 1.0:
            self._check_lambda(lam)
        (lx, sx), (ly, sy) = xd, yd
        if lx == ly or sx == 0.0 or sy == 0.0:
            leg = ly if sx == 0.0 else lx
            s = (1.0 - lam) * sx + lam * sy
        else:
            # path through the center, total length sx + sy
            delta = lam * (sx + sy)
            if delta <= sx:
                leg, s = lx, sx - delta
            else:
                leg, s = ly, delta - sx
        # the checks of Point.tripod on a computed length
        if s == 0.0:
            leg = 0  # all legs share the center
        elif not 0.0 < s < math.inf:
            raise GeometryError(_TRIPOD_LENGTH)
        return (leg, s)


def _bits(value):
    # every nan is one outcome: which nan a sum of two nans returns is not
    # fixed by the Python code (on 3.11, 0.0 + a + b with a = +nan and
    # b = -nan gives -nan on its first calls and +nan once the interpreter
    # specializes the addition), and every nan prints as "nan" in the CSV
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def _outcome(call):
    """The outcome of a kernel call: each float as its bytes, so that -0.0
    differs from 0.0; or the OverflowError it raised."""
    try:
        out = call()
    except OverflowError:
        return "OverflowError"
    if isinstance(out, Point):
        return out.kind, [_bits(c) for c in out.data]
    if isinstance(out, tuple):  # a point's data
        return [_bits(c) for c in out]
    return _bits(out)


# every float, with extra weight on signed zeros, the smallest subnormal,
# infinities, nan and magnitudes whose square overflows (|t| > 1.34e154)
any_float = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5e154, -1e200,
     1.7976931348623157e308, math.inf, -math.inf, math.nan])
unit = st.floats(0.0, 1.0) | st.just(-0.0)
# four points x, y, u, v of one dimension, 2 or 3
quad = st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(*[st.builds(
    lambda *c: Point("euclidean", c), *[any_float] * n)] * 4))


@settings(max_examples=300)
@given(quad, unit)
# (y - x) * (v - u) is 0.0 * -1.0 = -0.0 in both coordinates: sum gives 0.0
@example((Point.euclidean(0.0, 0.0), Point.euclidean(0.0, 0.0), Point.euclidean(1.0, 1.0),
          Point.euclidean(0.0, 0.0)), 0.5)
# the first square overflows
@example((Point.euclidean(1e200, 0.0), Point.euclidean(-1e200, 0.0), Point.euclidean(0.0, 0.0),
          Point.euclidean(0.0, 0.0)), 1.0)
# quasilin's terms are 1.0, 1e-16 and 1e-16: from Python 3.12 on sum
# compensates and gives 1.0000000000000002, where a + chain gives 1.0
@example((Point.euclidean(0.0, 0.0, 0.0), Point.euclidean(1.0, 1e-8, 1e-8),
          Point.euclidean(0.0, 0.0, 0.0), Point.euclidean(1.0, 1e-8, 1e-8)), 0.5)
def test_euclidean_2d_branch_is_bitwise_the_comprehension(points, lam):
    x, y, u, v = points
    fast, ref = Euclidean(len(x.data)), RefEuclidean(len(x.data))
    for op, args in (("dist", (x, y)), ("comb", (x, y, lam)), ("quasilin", (x, y, u, v))):
        assert _outcome(lambda: getattr(fast, op)(*args)) == _outcome(
            lambda: getattr(ref, op)(*args)), op


def test_euclidean_rejects_points_of_another_dimension():
    for dim, other in ((2, 3), (3, 2)):
        sp = Euclidean(dim)
        a, b = Point.euclidean(*range(1, other + 1)), Point.euclidean(*[0] * other)
        resolvent = ResolventFamily(sp, MetricProjectionFamily(sp, sp.base_point(), 1.0),
                                    lambda n: 1.0)
        for call in (lambda: sp.dist(a, b), lambda: sp.comb(a, b, 0.5),
                     lambda: sp.quasilin(a, b, a, b), lambda: resolvent.apply(0, a)):
            with pytest.raises(GeometryError,
                               match=rf"{other} coordinates used in model euclidean\({dim}\)"):
                call()


@pytest.mark.parametrize("dim", [2.5, 3.0, True, False, "3", None],
                         ids=["2.5", "3.0", "True", "False", "str", "None"])
def test_euclidean_refuses_a_dimension_that_is_not_an_int(dim):
    # 2.5 used to build as euclidean(2.5) and raise TypeError on its first
    # sample; True used to build as a model of dimension True
    with pytest.raises(GeometryError, match=rf"dimension must be an int, not {dim!r}"):
        Euclidean(dim)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, 0, -1.0],
                         ids=["nan", "inf", "-inf", "0.0", "0", "-1.0"])
def test_sample_spec_refuses_a_radius_that_is_not_positive_and_finite(radius):
    # a NaN radius used to fail every W axiom on Euclidean space and the
    # disk; an infinite one ended the disk's and the tripod's suites in an
    # exception from the middle of a checker
    with pytest.raises(GeometryError,
                       match=rf"sample radius must be positive and finite, not {radius!r}"):
        SampleSpec(seed=0, count=10, radius=radius)


@pytest.mark.parametrize("space", [Euclidean(2), PoincareDisk(), Tripod()],
                         ids=["euclidean", "disk", "tripod"])
@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "-inf", "0.0", "-1.0"])
def test_samplers_refuse_a_radius_that_is_not_positive_and_finite(space, radius):
    # the disk used to draw (nan, nan) at a NaN radius and Euclidean(2)
    # (inf, -inf) at an infinite one; both now refuse before drawing
    rng = random.Random(0)
    state = rng.getstate()
    message = rf"sample radius must be positive and finite, not {radius!r}"
    with pytest.raises(GeometryError, match=message):
        space.sample(rng, radius)
    with pytest.raises(GeometryError, match=message):
        space.sample_near(rng, space.base_point(), radius)
    assert rng.getstate() == state


# ---------------------------------------------------------------------------
# The fixed-point kernels
#
# Each model's fixed_point against SpaceModel.fixed_point, the loop over the
# model's own _comb and _dist on data: the same result to the bit, or the
# same error with the same fields.  A rotation hands its Turn to the kernel,
# which calls no image when it converges; every other solve, and a kernel's
# stall, which the reference loop replays, passes the same iterates to the
# base's image.  A point of another model or width never reaches the solve:
# the resolvent's apply refuses it.
# ---------------------------------------------------------------------------

FP_MODELS = {"disk": PoincareDisk(), "euclidean2": Euclidean(2), "tripod": Tripod(),
             "euclidean1": Euclidean(1), "euclidean3": Euclidean(3)}
FOREIGN = [Point("disk", (0.1, 0.2)), Point("tripod", (1, 0.5)),
           Point("euclidean", (1.0, 2.0, 3.0)), Point("euclidean", (0.5, -0.5))]


def _base_map(space, kind, seed):
    """A base image(n, data), the log of the data it is given, and the
    rotation's Turn (None for every other map)."""
    rng, log, turn = random.Random(seed), [], None
    if kind == "rotation" and not (isinstance(space, Euclidean) and space.dim != 2):
        rot = RotationFamily(space, rng.uniform(0.0, 2.0 * math.pi))
        image, turn = rot.image, rot.turn
    elif kind == "identity":
        image = lambda n, z: z  # noqa: E731
    elif kind == "scatter":  # not a contraction: residuals rise and fall
        image = lambda n, z: space.sample(rng, 2.0).data  # noqa: E731
    else:
        image = MetricProjectionFamily(space, space.sample(rng, 1.0),
                                       rng.choice([1e-3, 0.5, 2.0])).image
    if kind == "foreign":  # a foreign point's data from the k-th call on
        k, other, inner = rng.randrange(1, 6), rng.choice(FOREIGN), image
        image = lambda n, z: other.data if len(log) >= k else inner(n, z)  # noqa: E731

    def logged(n, z):
        log.append(_outcome(lambda: z))
        return image(n, z)

    return logged, log, turn


def _refused(space, x):
    """The GeometryError message with which apply refuses x, or None when
    x is a point of the model."""
    if x.kind != space.kind:
        return f"point of model {x.kind!r} used in model {space.kind!r}"
    if len(x.data) != space.width:
        return f"point with {len(x.data)} coordinates used in model {space.describe()}"
    return None


def _apply_refuses(space, x, base, message):
    # the resolvent's apply raises before its solve is reached
    fam = ResolventFamily(space, base, lambda n: 1.0)
    assert _settled(lambda: fam.apply(0, x)) == ("GeometryError", message)


def _settled(solve):
    """The outcome of a solve: its result's bits; the message, residual
    bits and iterations of its SolverFailure (a triple); or the type and
    message of another error."""
    try:
        return _outcome(solve)
    except SolverFailure as exc:
        return (str(exc), [_bits(v) for v in (exc.residual, exc.first, exc.best)],
                exc.iterations)
    except (GeometryError, TypeError, ValueError, ZeroDivisionError) as exc:
        return (type(exc).__name__, str(exc))


def _solve(solve, space, kind, seed, xd, c, tol, max_iterations):
    image, log, turn = _base_map(space, kind, seed)
    return _settled(lambda: solve(xd, image, c, tol, max_iterations, turn)), log, turn


# tolerances whose square is 0 (5e-324) or subnormal (1e-160, 1e-155), under
# the plane kernel's floor 2^-1000, or whose 4 tol^2 overflows (1e200), and
# ones that most first steps meet
EXTREME_TOLS = [5e-324, 1e-160, 1e-155, 1.0, 2.0, 1e200]


@pytest.mark.parametrize("kind", ["rotation", "projection", "identity", "scatter", "foreign"])
@pytest.mark.parametrize("model", sorted(FP_MODELS))
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 19), st.floats(0.01, 8.0),
       unit | st.sampled_from([0.5, 1.5, -0.1, math.nan, math.inf]),
       st.sampled_from([0.0, 1e-300, 1e-12] + EXTREME_TOLS) | st.floats(0.0, 1e-2),
       st.integers(0, 200))
def test_fixed_point_kernels_are_bitwise_the_reference(model, kind, seed, pick, radius, c,
                                                        tol, max_iterations):
    space = FP_MODELS[model]
    # a foreign x one time in five
    x = FOREIGN[pick] if pick < len(FOREIGN) else space.sample(random.Random(seed), radius)
    refused = _refused(space, x)
    if refused is not None:
        _apply_refuses(space, x, MetricProjectionFamily(space, space.base_point(), 1.0),
                       refused)
        return
    args = (space, kind, seed, x.data, c, tol, max_iterations)
    got, log, turn = _solve(space.fixed_point, *args)
    want, want_log, _ = _solve(partial(SpaceModel.fixed_point, space), *args)
    assert got == want
    # a kernel that converges calls no image; one that stalls hands the
    # solve to the reference loop, which replays it
    native = turn is not None and 0.0 <= c <= 1.0
    assert log == ([] if native and isinstance(got, list) else want_log)


# The native rotation: a resolvent of a rotation hands the kernel its Turn,
# and the kernel turns its own iterate instead of calling apply.

class CountingRotation(RotationFamily):
    """A rotation that counts the calls of its image."""

    calls = 0

    def image(self, n, data):
        self.calls += 1
        return super().image(n, data)


@pytest.mark.parametrize("model", ["disk", "euclidean2", "tripod"])
@settings(max_examples=150, deadline=None)
@given(st.floats(-10.0, 10.0) | st.sampled_from([-0.0, math.pi, 2.0 * math.pi / 3.0, 1e308]),
       st.integers(0, 2 ** 32), st.integers(0, 19), st.floats(0.01, 8.0),
       st.sampled_from([0.0, 1e300, math.inf, math.nan, -0.25, -3.0]) | st.floats(0.0, 50.0),
       st.sampled_from([0.0, 1e-300, 1e-12] + EXTREME_TOLS), st.integers(1, 200))
def test_resolvent_of_a_rotation_is_bitwise_the_reference_loop(model, angle, seed, pick,
                                                                radius, gamma, tol,
                                                                max_iterations):
    # c = gamma / (1 + gamma) is 0 for gamma 0, 1 for 1e300, nan for inf
    # and nan, and outside [0, 1] for the negative gammas
    space = FP_MODELS[model]
    x = FOREIGN[pick] if pick < len(FOREIGN) else space.sample(random.Random(seed), radius)
    rot = CountingRotation(space, angle)
    refused = _refused(space, x)
    if refused is not None:
        _apply_refuses(space, x, rot, refused)
        assert rot.calls == 0
        return
    got = _settled(lambda: ResolventFamily(space, rot, lambda n: gamma, tol,
                                           max_iterations).apply(0, x).data)
    native_calls, c = rot.calls, gamma / (1.0 + gamma)
    assert got == _settled(lambda: SpaceModel.fixed_point(
        space, x.data, rot.image, c, tol, max_iterations))
    if 0.0 <= c <= 1.0:
        # the kernel's own rotation calls no image; a stall is replayed by
        # the reference loop: max_iterations images and one for the residual
        assert native_calls == (max_iterations + 1 if len(got) == 3 else 0)


# signed zeros, subnormals, the least normal and large magnitudes
EDGE = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 0.25, -0.6,
        1.5e154, -1e300, 1.7976931348623157e308]


def _first_step(space, x, rot, c, tol):
    # tol = inf returns the first iterate _comb(x, R(x), c), and tol = -inf
    # fails with d(x, _comb(x, R(x), c)) as its first residual
    xd = x.data
    return (_settled(lambda: space.fixed_point(xd, rot.image, c, tol, 1, rot.turn)),
            _settled(lambda: SpaceModel.fixed_point(space, xd, rot.image, c, tol, 1)))


@pytest.mark.parametrize("model", ["disk", "euclidean2"])
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(EDGE), st.sampled_from(EDGE),
       st.floats(-7.0, 7.0) | st.sampled_from([-0.0, math.pi / 2, math.pi, 1e308]),
       st.sampled_from([1.0, 0.5, 0.0]), st.sampled_from([math.inf, -math.inf]))
def test_native_plane_and_disk_rotation_is_apply_bitwise(model, a, b, angle, c, tol):
    space = FP_MODELS[model]
    got, want = _first_step(space, Point(space.kind, (a, b)), RotationFamily(space, angle),
                            c, tol)
    assert got == want


@pytest.mark.parametrize("s", [0.0, -0.0, 5e-324, 1e-310, 0.75, 1e300,
                               1.7976931348623157e308])
@pytest.mark.parametrize("leg", [0, 1, 2])
@pytest.mark.parametrize("turns", [0, 1, 2])
def test_native_tripod_rotation_is_apply_bitwise(turns, leg, s):
    space, x = Tripod(), Point("tripod", (leg, s))
    rot = RotationFamily(space, turns * 2.0 * math.pi / 3.0)
    assert rot._shift == turns
    for c in (1.0, 0.5, 0.0):
        for tol in (math.inf, -math.inf):
            got, want = _first_step(space, x, rot, c, tol)
            assert got == want
    if s == 0.0:
        # the center is on leg 0, whatever the shift
        assert space.fixed_point(x.data, rot.image, 1.0, math.inf, 1,
                                 rot.turn) == Point.tripod(0, 0.0).data


@pytest.mark.parametrize("model, base, message", [
    # a tripod's leg shift is not the plane rotation, and its image would
    # read the plane's data unchecked
    ("euclidean2", RotationFamily(Tripod(), 2.0 * math.pi / 3.0),
     "resolvent base of model tripod used in model euclidean(2)"),
    ("euclidean2", MetricProjectionFamily(Euclidean(3), Point.euclidean(0, 0, 0), 1.0),
     "resolvent base of model euclidean(3) used in model euclidean(2)"),
    ("tripod", RotationFamily(PoincareDisk(), 1.0),
     "resolvent base of model disk used in model tripod"),
], ids=["tripod-in-plane", "3d-in-plane", "disk-in-tripod"])
def test_a_base_of_another_model_is_refused_when_the_resolvent_is_built(model, base,
                                                                         message):
    with pytest.raises(GeometryError) as exc:
        ResolventFamily(FP_MODELS[model], base, lambda n: 1.0)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# The column kernels
#
# dists(column, p), pair_dists(a, b), combs(column, p, lams),
# pair_combs(a, b, lams), quasilins(column, x, u, dxz) and, on Euclidean
# space, pair_quasilins(a, b, c, d) on flat coordinate columns against
# dist(z, p), dist(z, w), comb(z, p, lam), comb(z, w, lam),
# quasilin(x, u, x, z) and quasilin(z, w, s, t) on the rows' Points z, w, s
# and t: the same floats to the bit (every nan one outcome), or an error.
# dxz is the column of d(x, z) that dists(column, x) gives.  pair_dists(a, b)
# is pair_dists(b, a) to the bit: the quasilin axiom checker reads d(b, a)
# as d(a, b).
# ---------------------------------------------------------------------------

COLUMN_MODELS = {"euclidean1": Euclidean(1), "euclidean2": Euclidean(2),
                 "euclidean3": Euclidean(3), "euclidean4": Euclidean(4),
                 "disk": PoincareDisk(), "tripod": Tripod()}


def _euclidean_points(dim):
    return st.builds(lambda *c: Point("euclidean", c), *[any_float | coords] * dim)


def _disk_point(gap, angle):
    # 1 - |z|^2 about gap; a point past the margin is pulled back onto it
    r = math.sqrt(1.0 - gap)
    a, b = r * math.cos(angle), r * math.sin(angle)
    if a * a + b * b >= 1.0 - DISK_MARGIN:
        a, b = a * (1.0 - DISK_MARGIN), b * (1.0 - DISK_MARGIN)
    return Point("disk", (a, b))


def _tripod_point(leg, s):
    return Point("tripod", (0 if s == 0.0 else leg, s))


COLUMN_POINTS = {
    **{f"euclidean{d}": _euclidean_points(d) for d in (1, 2, 3, 4)},
    # near the margin, where dist may raise from atanh, and anywhere inside
    "disk": st.builds(_disk_point,
                      st.sampled_from([DISK_MARGIN, 2e-12, 1e-9, 1e-6]) | st.floats(1e-12, 1.0),
                      st.floats(-4.0, 4.0))
    | st.sampled_from([Point("disk", (math.nan, 0.25)), Point("disk", (0.0, -0.0)),
                       Point("disk", (math.nan, math.nan))]),
    # the center on leg 0, as the engine stores it, with +0.0 and -0.0
    "tripod": st.builds(_tripod_point, st.integers(0, 2),
                        st.floats(0.0, 10.0) | st.sampled_from(
                            [0.0, -0.0, 5e-324, 1e300, math.inf, math.nan])),
}


def _values(call):
    """Each float of a kernel's list as its bits, or "raised".  An error is
    one outcome whatever its type: the disk's abs() of a complex with a nan
    part raises OverflowError instead of giving nan when errno is still
    ERANGE from an earlier atanh(1.0), which raised ValueError, so the type
    depends on the order of the calls (CPython 3.10 to 3.13 keep that stale
    errno)."""
    try:
        return [_bits(v) for v in call()]
    except (ArithmeticError, ValueError):
        return "raised"


def _hexes(call):
    """Each value of a kernel's list as float.hex (every nan is "nan"), or
    the type of the error it raises."""
    try:
        return [float(v).hex() for v in call()]
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("model", sorted(COLUMN_MODELS))
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_column_kernels_are_bitwise_dist_and_quasilin(model, data):
    space, point = COLUMN_MODELS[model], COLUMN_POINTS[model]
    rows = data.draw(st.lists(point, max_size=8))
    # p, x and u are sometimes a row, so that a row equals them
    fixed = point | st.sampled_from(rows) if rows else point
    p, x, u = data.draw(fixed), data.draw(fixed), data.draw(fixed)
    # the other columns' rows, and a lam a row, the ends of [0, 1] included
    others, thirds, fourths = (
        data.draw(st.lists(fixed, min_size=len(rows), max_size=len(rows))) for _ in range(3))
    lams = data.draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                              min_size=len(rows), max_size=len(rows)))
    column, other = _column(rows), _column(others)
    assert _values(lambda: space.dists(column, p)) == _values(
        lambda: [space.dist(z, p) for z in rows])
    assert _values(lambda: space.pair_dists(column, other)) == _values(
        lambda: [space.dist(z, w) for z, w in zip(rows, others)])
    assert _hexes(lambda: space.pair_dists(other, column)) == _hexes(
        lambda: space.pair_dists(column, other))
    assert _values(lambda: space.combs(column, p, lams)) == _values(
        lambda: [c for z, lam in zip(rows, lams) for c in space.comb(z, p, lam).data])
    # the pair kernels raise the error type the Point method raises, and
    # the reference pair_combs, which calls comb, gives the native floats
    want = _hexes(lambda: [c for z, w, lam in zip(rows, others, lams)
                           for c in space.comb(z, w, lam).data])
    assert _hexes(lambda: space.pair_combs(column, other, lams)) == want
    assert _hexes(lambda: SpaceModel.pair_combs(space, column, other, lams)) == want
    if isinstance(space, Euclidean):
        assert _hexes(lambda: space.pair_quasilins(
            column, other, _column(thirds), _column(fourths))) == _hexes(
            lambda: [space.quasilin(z, w, s, t)
                     for z, w, s, t in zip(rows, others, thirds, fourths)])
    want = _values(lambda: [space.quasilin(x, u, x, z) for z in rows])
    try:
        dxz = space.dists(column, x)
    except (ArithmeticError, ValueError):
        # a disk dist that raises raises in quasilin too; a Euclidean square
        # may overflow where the dot product does not, and dxz is not read
        if not isinstance(space, Euclidean):
            assert want == "raised"
            return
        dxz = [math.nan] * len(rows)
    assert _values(lambda: space.quasilins(column, x, u, dxz)) == want


def _column(points):
    column = array("d")
    for z in points:
        column.extend(z.data)
    return column


@pytest.mark.parametrize("kind", sorted(MODEL_POINTS))
def test_column_kernels_reject_a_foreign_point(kind):
    sp, x, y, foreign = MODEL_POINTS[kind]
    column = array("d", x.data + y.data)
    dxz = [0.0, 1.0]
    for call in (lambda: sp.dists(column, foreign),
                 lambda: sp.quasilins(column, foreign, y, dxz),
                 lambda: sp.quasilins(column, x, foreign, dxz),
                 lambda: sp.combs(column, foreign, [0.5, 0.5]),
                 # pair_dists takes no point: a second column of another
                 # length is its foreign input, as is a lam too few for
                 # combs, and a dxz of one value too few or too many for
                 # quasilins, an empty column's included
                 lambda: sp.pair_dists(column, column[:-1]),
                 lambda: sp.combs(column, x, [0.5]),
                 # a column that ends in a partial row
                 lambda: sp.dists(column[:-1], x),
                 lambda: sp.quasilins(column, x, y, dxz[:1]),
                 lambda: sp.quasilins(column, x, y, dxz + [0.0]),
                 lambda: sp.quasilins(array("d"), x, y, [0.0]),
                 lambda: sp.quasilins(array("d"), foreign, y, []),
                 # the pair kernels: a column of another length in any
                 # position, or lams one too few or too many
                 lambda: sp.pair_combs(column, column[:-1], [0.5, 0.5]),
                 lambda: sp.pair_combs(column[:-1], column, [0.5, 0.5]),
                 lambda: sp.pair_combs(column, column, [0.5]),
                 lambda: sp.pair_combs(column, column, [0.5] * 3),
                 lambda: SpaceModel.pair_combs(sp, column, column[:-1], [0.5, 0.5]),
                 lambda: SpaceModel.pair_combs(sp, column, column, [0.5]),
                 lambda: SpaceModel.pair_combs(sp, column, column, [0.5] * 3),
                 # Euclidean pair_quasilins: a column of another length in
                 # any position
                 *[lambda i=i: sp.pair_quasilins(
                     *[column[:-1] if j == i else column for j in range(4)])
                   for i in range(4) if kind == "euclidean"]):
        with pytest.raises(GeometryError):
            call()
    # a lam outside [0, 1] raises the error comb raises, from either form
    for lam in (-0.5, 1.5, math.nan):
        with pytest.raises(GeometryError) as want:
            sp.comb(x, y, lam)
        for pair_combs in (sp.pair_combs, partial(SpaceModel.pair_combs, sp)):
            with pytest.raises(GeometryError) as got:
                pair_combs(column, column, [0.5, lam])
            assert str(got.value) == str(want.value)
    if kind == "euclidean":
        p3 = Point.euclidean(1, 2, 3)
        for call in (lambda: sp.dists(column, p3), lambda: sp.quasilins(column, p3, x, dxz),
                     lambda: sp.quasilins(column, x, p3, dxz),
                     lambda: sp.combs(column, p3, [0.5])):
            with pytest.raises(GeometryError, match="3 coordinates used in model euclidean"):
                call()


@pytest.mark.parametrize("kind", sorted(MODEL_POINTS))
def test_column_length_errors_name_the_callers_column_and_lams(kind):
    # dists and combs check the caller's column (whole rows) and lams (one
    # a row) before they repeat p's data, and name their lengths
    sp, x, _, _ = MODEL_POINTS[kind]
    with pytest.raises(GeometryError) as info:
        sp.dists(array("d", [1.0, 2.0, 3.0]), x)
    assert str(info.value) == f"column of 3 values where {sp.describe()} needs whole rows of 2"
    with pytest.raises(GeometryError) as info:
        sp.combs(_column([x, x]), x, [0.5])
    assert str(info.value) == (f"column of 4 values where {sp.describe()} needs 2 "
                               "for lams of length 1")


NAN_ROWS = {"euclidean": Point("euclidean", (math.nan, 1.0)),
            "disk": Point("disk", (math.nan, 0.25)),
            "tripod": Point("tripod", (1, math.nan))}


@pytest.mark.parametrize("kind", sorted(MODEL_POINTS))
def test_quasilins_of_a_nan_row_is_quasilin(kind):
    # a NaN row gives NaN, as quasilin(x, u, x, z) does, whether the model
    # reads it from dxz (disk, tripod) or from its dot product (Euclidean);
    # the rows around it stay finite
    sp, x, y, _ = MODEL_POINTS[kind]
    rows = [y, NAN_ROWS[kind], x]
    column = _column(rows)
    dxz = sp.dists(column, x)
    assert math.isnan(dxz[1])
    got = sp.quasilins(column, x, y, dxz)
    assert [_bits(v) for v in got] == [_bits(sp.quasilin(x, y, x, z)) for z in rows]
    assert math.isnan(got[1]) and not math.isnan(got[0]) and not math.isnan(got[2])


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("kind", ["disk", "tripod"])
def test_quasilin_axioms_read_10_distance_columns_a_block(kind, traced, monkeypatch):
    # a model whose quasilin is built from distances forms each distance
    # column once a block, also when a tracer has wrapped SpaceModel.quasilin
    # (the wrapper is then what the model inherits); the reports are the
    # untouched model's
    spec = SampleSpec(seed=0, count=SAMPLE_BLOCK + 1)
    want = [rep.to_json() for rep in check_quasilin_axioms(make_model(kind), spec)]
    if traced:
        quasilin = SpaceModel.quasilin
        monkeypatch.setattr(SpaceModel, "quasilin",
                            lambda self, *pts: quasilin(self, *pts))
    space, calls = make_model(kind), []

    def pair_dists(a, b):
        calls.append(len(a))
        return type(space).pair_dists(space, a, b)

    space.pair_dists = pair_dists
    got = [rep.to_json() for rep in check_quasilin_axioms(space, spec)]
    width = len(space.base_point().data)
    assert calls == [SAMPLE_BLOCK * width] * 10 + [width] * 10
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# Poincare disk
# ---------------------------------------------------------------------------


def test_disk_distance_along_diameter():
    # d(0, r) = 2 artanh(r) for points on a diameter through the origin
    sp = PoincareDisk()
    for r in (0.1, 0.5, 0.9):
        got = sp.dist(sp.base_point(), Point.disk(r, 0.0))
        assert got == pytest.approx(2 * math.atanh(r), abs=1e-12)


def test_disk_comb_endpoints_and_additivity():
    sp = PoincareDisk()
    x, y = Point.disk(0.3, -0.2), Point.disk(-0.5, 0.4)
    assert sp.dist(sp.comb(x, y, 0.0), x) <= 1e-12
    assert sp.dist(sp.comb(x, y, 1.0), y) <= 1e-12
    total = sp.dist(x, y)
    m = sp.comb(x, y, 0.35)
    assert sp.dist(x, m) == pytest.approx(0.35 * total, abs=1e-10)
    assert sp.dist(m, y) == pytest.approx(0.65 * total, abs=1e-10)


def _errno_at_erange():
    """Leave errno at ERANGE, as a disk dist whose ratio rounds to 1.0
    leaves it when its atanh raises."""
    try:
        math.atanh(1.0)
    except ValueError:
        pass


def test_disk_nan_coordinate_gives_nan_after_a_failed_atanh():
    # abs of a complex with a NaN part returns without clearing errno, so
    # a stale ERANGE used to raise OverflowError from dist and dists
    sp = PoincareDisk()
    bad, p = Point("disk", (math.nan, 0.25)), Point.disk(0.0, 0.0)
    good, q = Point.disk(0.5, 0.25), Point.disk(0.1, -0.3)
    _errno_at_erange()
    assert math.isnan(sp.dist(bad, p))
    _errno_at_erange()
    nan_row, finite_row = sp.dists(array("d", bad.data + good.data), p)
    assert math.isnan(nan_row) and finite_row == sp.dist(good, p)
    _errno_at_erange()
    assert all(math.isnan(c) for c in sp.comb(bad, p, 0.5).data)
    _errno_at_erange()
    assert math.isnan(sp.quasilin(bad, p, good, q))


@pytest.mark.parametrize("space, center", [
    (Euclidean(3), Point.euclidean(0.0, 0.0)),
    (Euclidean(2), Point.euclidean(0.0, 0.0, 0.0)),
    (Euclidean(2), Point.disk(0.1, 0.2)),
    (PoincareDisk(), Point.tripod(1, 0.5)),
    (PoincareDisk(), Point.euclidean(0.1, 0.2)),
    (Tripod(), Point.euclidean(1.0, 0.5)),
    (Tripod(), Point.disk(0.1, 0.2)),
], ids=["euclidean3-2d", "euclidean2-3d", "euclidean2-disk", "disk-tripod", "disk-euclidean",
        "tripod-euclidean", "tripod-disk"])
def test_sample_near_refuses_a_center_of_another_model(space, center):
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(GeometryError, match="used in model"):
        space.sample_near(rng, center, 1.0)
    assert rng.getstate() == state


def test_disk_sample_near_stays_within_radius():
    sp = PoincareDisk()
    rng = random.Random(5)
    c = Point.disk(0.6, 0.1)
    for _ in range(300):
        p = sp.sample_near(rng, c, 1.5)
        assert sp.dist(c, p) <= 1.5 + 1e-9


# ---------------------------------------------------------------------------
# Tripod
# ---------------------------------------------------------------------------


def test_tripod_distances_exact():
    sp = Tripod()
    a = Point.tripod(0, 2.0)
    b = Point.tripod(0, 0.5)
    c = Point.tripod(1, 1.0)
    assert sp.dist(a, b) == 1.5
    assert sp.dist(a, c) == 3.0
    assert sp.dist(c, sp.base_point()) == 1.0


def test_tripod_comb_crosses_center():
    sp = Tripod()
    a = Point.tripod(0, 2.0)
    c = Point.tripod(1, 1.0)
    # quarter of the way from a to c: still on leg 0 at arm 1.25
    q = sp.comb(a, c, 0.25)
    assert q.data == (0, 1.25)
    # beyond the center: leg 1
    far = sp.comb(a, c, 0.9)
    assert far.data[0] == 1
    assert far.data[1] == pytest.approx(0.7)


def test_tripod_comb_ending_at_center_is_leg_0():
    sp = Tripod()
    # through the center, stopping on it
    assert sp.comb(Point.tripod(1, 1.0), Point.tripod(2, 1.0), 0.5).data == (0, 0.0)
    # along leg 2 into the center
    assert sp.comb(Point.tripod(2, 1.0), sp.base_point(), 1.0).data == (0, 0.0)
    assert sp.comb(Point.tripod(2, 1.0), Point.tripod(2, 2.0), 0.0).data == (2, 1.0)


def test_tripod_comb_rejects_non_finite_length():
    # the path through the center is 2e308 long, past the largest float
    sp = Tripod()
    with pytest.raises(GeometryError):
        sp.comb(Point.tripod(0, 1e308), Point.tripod(1, 1e308), 0.75)


@given(st.integers(0, 2), st.floats(0.0, 3.0), st.integers(0, 2),
       st.floats(0.0, 3.0), st.floats(0.0, 1.0))
def test_tripod_comb_lies_on_geodesic(l1, s1, l2, s2, lam):
    sp = Tripod()
    x, y = Point.tripod(l1, s1), Point.tripod(l2, s2)
    c = sp.comb(x, y, lam)
    assert sp.dist(x, c) + sp.dist(c, y) == pytest.approx(sp.dist(x, y), abs=1e-9)
    assert sp.dist(x, c) == pytest.approx(lam * sp.dist(x, y), abs=1e-9)


# ---------------------------------------------------------------------------
# Axiom checkers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["euclidean", "disk", "tripod"])
def test_axiom_checkers_pass(kind):
    model = make_model(kind, 3)
    for rep in run_all_geometry_checks(model, SMALL, 1e-9):
        assert rep.passed, f"{kind}/{rep.axiom}: {rep.max_violation}"


def test_euclidean_cn_minus_is_equality():
    reps = check_cn(Euclidean(2), SMALL, 1e-9)
    by_name = {r.axiom: r for r in reps}
    assert by_name["CN- equality"].max_violation <= 1e-9


def test_curved_models_have_no_equality_claim():
    for kind in ("disk", "tripod"):
        names = [r.axiom for r in check_cn(make_model(kind), SMALL)]
        assert "CN- equality" not in names
        assert {"CN-", "CN+"} <= set(names)


def test_broken_comb_is_detected():
    class Broken(Euclidean):
        pair_combs = SpaceModel.pair_combs  # the checkers' kernel calls _comb

        def _comb(self, a, b, lam):
            return a if lam < 1.0 else b

    reps = check_w_axioms(Broken(2), SMALL, 1e-9)
    assert any(not r.passed for r in reps)


def test_checkers_are_deterministic():
    a = check_uniform_convexity(PoincareDisk(), SMALL)[0]
    b = check_uniform_convexity(PoincareDisk(), SMALL)[0]
    assert a.max_violation == b.max_violation
    assert a.worst_case_inputs == b.worst_case_inputs


def test_report_json_shape():
    rep = check_quasilin_axioms(Euclidean(2), SMALL)[0]
    js = rep.to_json()
    assert set(js) == {"axiom", "samples", "max_violation",
                       "worst_case_inputs", "pass"}
    assert js["pass"] is True


def test_note_keeps_the_first_largest_violation():
    rep = AxiomReport("a", 5)
    assert rep.max_violation == 0.0 and rep.worst_case_inputs is None
    rep.note(-1.0, {"i": 0})
    rep.note(0.0, {"i": 1})
    assert rep.worst_case_inputs is None  # not above the starting 0.0
    rep.note(2.0, {"i": 2})
    rep.note(2.0, {"i": 3})
    rep.note(1.0, {"i": 4})
    assert (rep.max_violation, rep.worst_case_inputs) == (2.0, {"i": 2})
    assert not rep.passed


def test_note_keeps_the_first_nan():
    rep = AxiomReport("a", 4)
    rep.note(1.0, {"i": 0})
    rep.note(math.nan, {"i": 1})
    rep.note(math.nan, {"i": 2})
    rep.note(math.inf, {"i": 3})
    assert math.isnan(rep.max_violation) and rep.worst_case_inputs == {"i": 1}
    assert not rep.passed and rep.to_json()["pass"] is False


note_values = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0]) | st.floats()


@st.composite
def note_columns(draw):
    rows = draw(st.integers(0, 7))
    return [draw(st.lists(note_values, min_size=rows, max_size=rows))
            for _ in range(draw(st.integers(1, 4)))]


def float_bits(value):
    return struct.pack("<d", value)


@settings(max_examples=400, deadline=None)
@given(note_columns(), st.sampled_from([0.0, -0.0, -math.inf, 1.0, math.nan]),
       st.booleans(), st.booleans())
@example([[0.0, 2.0, 1.0], [1.0, 0.0, 2.0]], -math.inf, False, True)  # equal maxima
@example([[2.0, 0.0], [0.0, 2.0], [1.0, 2.0]], 0.0, False, True)
@example([[-0.0, 0.0], [0.0, -0.0]], -math.inf, False, True)  # 0.0 tied with -0.0
@example([[1.0, math.nan, 3.0], [math.nan, 2.0, 0.0]], 0.0, False, True)
@example([[math.inf, 5.0], [1.0, math.nan]], -math.inf, True, True)
@example([[math.inf, -math.inf], [1.0, 2.0]], 0.0, False, True)  # a NaN sum, no NaN
@example([[-math.inf] * 3, [-math.inf] * 3], -math.inf, False, True)
@example([[], [], []], 0.0, False, True)
def test_note_rows_equals_note_in_row_order(columns, start, as_arrays, with_inputs):
    """note_rows keeps the bits and inputs that note keeps when called on
    row 0 of every column, then row 1, and so on; it asks for the inputs
    of the values it keeps only."""
    want = AxiomReport("a", 1, max_violation=start)
    for n in range(len(columns[0])):
        for c, column in enumerate(columns):
            want.note(column[n], (n, c) if with_inputs else None)
    asked = []

    def inputs(n, c):
        asked.append((n, c))
        return (n, c)

    got = AxiomReport("a", 1, max_violation=start)
    got.note_rows([array("d", c) for c in columns] if as_arrays else columns,
                  inputs if with_inputs else None)
    assert float_bits(got.max_violation) == float_bits(want.max_violation)
    assert got.worst_case_inputs == want.worst_case_inputs
    assert len(asked) <= len(columns)
    assert not asked or asked[-1] == want.worst_case_inputs


class NaNComb(Euclidean):
    """A combination whose coordinates are NaN."""

    pair_combs = SpaceModel.pair_combs  # the checkers' kernel calls _comb

    def _comb(self, a, b, lam):
        return (math.nan,) * self.dim


def test_a_nan_violation_fails_the_check():
    reps = {r.axiom: r for r in run_all_geometry_checks(NaNComb(2), SMALL, 1e-9)}
    for name in ("W1", "W2", "W3", "W4", "CN-", "CN+", "CN- equality",
                 "uniform convexity eps^2/8"):
        assert math.isnan(reps[name].max_violation), name
        assert not reps[name].passed, name
        assert reps[name].worst_case_inputs is not None, name
    # quasilinearization reads distances only, so it still passes
    assert reps["ql-square"].passed


class LateNaNComb(Euclidean):
    """A combination that is NaN on the points drawn from draw ``start``
    on, and geodesic before: a checker that draws k points a sample and
    is given start = k * n sees its first NaN at sample n."""

    pair_combs = SpaceModel.pair_combs  # the checkers' kernel calls _comb

    def __init__(self, start):
        super().__init__(2)
        self.start, self.drawn = start, {}

    def sampler(self, rng):
        # the checkers' one sampling hook: every point they draw passes here
        draw = super().sampler(rng)

        def noted(radius, center=None):
            data = draw(radius, center)
            self.drawn[data] = len(self.drawn)
            return data
        return noted

    def _comb(self, a, b, lam):
        if self.drawn[a] >= self.start:
            return (math.nan, math.nan)
        return super()._comb(a, b, lam)


def _drawn_inputs(check, space, spec, n):
    """The inputs of sample n of check, drawn as the checker draws them, one
    sample at a time."""
    rng, R = random.Random(spec.seed), spec.radius
    for _ in range(n + 1):
        if check is check_uniform_convexity:
            a = space.sample(rng, R)
            r = rng.uniform(0.05 * R, R)
            x, y = space.sample_near(rng, a, r), space.sample_near(rng, a, r)
            desc = {"a": a.data, "x": x.data, "y": y.data, "r": r,
                    "eps": space.dist(x, y) / r}
        else:
            desc = {key: space.sample(rng, R).data
                    for key in ("x", "y", "z", "w")[:4 if check is check_w_axioms else 3]}
            desc["lambda"] = rng.random()
            if check is check_w_axioms:
                desc["theta"] = rng.random()
    return desc


@pytest.mark.parametrize("check, per_sample", [(check_w_axioms, 4), (check_cn, 3),
                                               (check_uniform_convexity, 3)],
                         ids=["w-axioms", "cn", "uniform-convexity"])
def test_a_nan_in_a_later_block_names_its_first_sample(check, per_sample):
    # the first NaN is sample 1,100, in the second block of 2,500 samples
    spec = SampleSpec(seed=3, count=2500)
    model = LateNaNComb(per_sample * 1100)
    reps = check(model, spec)
    want = _drawn_inputs(check, Euclidean(2), spec, 1100)
    for rep in reps:
        assert math.isnan(rep.max_violation) and not rep.passed, rep.axiom
        assert list(rep.worst_case_inputs.items()) == list(want.items()), rep.axiom


def test_geometry_checkers_hold_one_block_of_samples():
    # the peak is one block's columns, whatever the sample count
    def peak(count):
        tracemalloc.start()
        try:
            run_all_geometry_checks(Tripod(), SampleSpec(seed=0, count=count))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4096) < 1.5 * peak(1024)
