"""Trajectory generation, the coordinate cross-check and CSV output."""

import csv
import io
import math
import tracemalloc
from array import array

import pytest

import pins
from pins import RESOLVENT_TEXTS, SCENARIO_TEXTS
from test_geometry import RefEuclidean, RefTripod
from tmlab import scenario as scenario_module
from tmlab import verify as V
from tmlab.engine import (
    IMAGE_BLOCK,
    EngineError,
    Trajectory,
    TrajectoryRecord,
    check_boundedness,
    check_hilbert_special_case,
    run,
)
from tmlab.geometry import Euclidean, GeometryError, PoincareDisk, Point, SpaceModel, Tripod
from tmlab.mappings import (
    IdentityFamily,
    MappingFamily,
    MetricProjectionFamily,
    ProximalFamily,
    ResolventFamily,
    RotationFamily,
    SolverFailure,
)
from tmlab.rates import Affine, RateValue
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


def identity_scenario():
    return scenario_from_text(IDENTITY_LINE)


def test_identity_closed_form():
    sc = identity_scenario()
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 1000)
    for rec in traj.records:
        assert abs(rec.x.data[0] - 1.0 / (rec.n + 1)) <= 1e-12


def test_trajectory_lengths_and_columns():
    sc = identity_scenario()
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 20)
    assert len(traj) == 21
    rec = traj.records[3]
    # d_step = x_3 - x_4 = 1/4 - 1/5, d_Tn = 0, d_p = x_3
    assert rec.d_step == pytest.approx(1 / 4 - 1 / 5, abs=1e-12)
    assert rec.d_Tn == 0.0
    assert rec.d_p == pytest.approx(1 / 4, abs=1e-12)


def test_run_rejects_nonpositive_steps():
    sc = identity_scenario()
    with pytest.raises(EngineError):
        run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 0)


def test_solver_failure_recorded_not_raised():
    space = Euclidean(2)
    base = RotationFamily(space, 1.0)
    fam = ResolventFamily(
        space, base, lambda n: 1.0, inner_tol=1e-18, max_iterations=2,
    )
    traj = run(space, fam, preset("harmonic"),
               Point.euclidean(0, 0), Point.euclidean(1, 0), 50)
    assert traj.error is not None
    assert "residual" in traj.error
    assert "after 2 iterations (first " in traj.error and ", best " in traj.error
    assert len(traj) < 51
    assert_whole_rows(traj)
    buf = io.StringIO()
    traj.write_csv(buf)
    assert buf.getvalue() == reference_csv(traj)

    # a failure in apply(5, x_5), for d_Tn, after T_5 u_5 has returned:
    # step 5 leaves no value in any column.  The loop applies T_n u_n for
    # every step, and images then T_n x_n from row 0 up to the failing row
    fam = FailingSecondApply(space, RotationFamily(space, 1.0), step=5)
    traj = run(space, fam, preset("harmonic"),
               Point.euclidean(0, 0), Point.euclidean(1, 0), 50)
    assert traj.error == str(SolverFailure(1.0, 9, 2.0, 1.0))
    assert fam.calls == [(n, 0) for n in range(51)] + [(n, 1) for n in range(6)]
    assert len(traj) == 5
    assert_whole_rows(traj)
    buf = io.StringIO()
    traj.write_csv(buf)
    assert buf.getvalue() == reference_csv(traj)


class FailingApplies(MappingFamily):
    """A base family whose call i of step n raises failures[(n, i)]: call 0
    is engine.run's T_n u_n, in its loop, and call 1 the T_n x_n for d_Tn,
    made by images after the loop; records each call as (n, i)."""

    def __init__(self, space, base, failures):
        super().__init__(space, base.fixed_point)
        self.base, self.failures, self.calls, self.counts = base, failures, [], {}

    def apply(self, n, x):
        i = self.counts[n] = self.counts.get(n, -1) + 1
        self.calls.append((n, i))
        if (n, i) in self.failures:
            raise self.failures[n, i]
        return self.base.apply(n, x)


class FailingSecondApply(FailingApplies):
    """The family whose second apply of one step, T_n x_n, raises
    SolverFailure."""

    failing_call = 1

    def __init__(self, space, base, step):
        super().__init__(space, base,
                         {(step, self.failing_call): SolverFailure(1.0, 9, 2.0, 1.0)})


class FailingFirstApply(FailingSecondApply):
    """The same family failing in the first apply of its step, engine.run's
    T_n u_n."""

    failing_call = 0


def _point_method_calls(text, steps, monkeypatch):
    """The Point-level comb, dist and apply calls of the run of the scenario
    text, each wrapped to count it."""
    sc = scenario_from_text(text)
    calls = []
    for owner, attr in ((SpaceModel, "comb"), (SpaceModel, "dist"), (MappingFamily, "apply")):
        def counted(*args, method=getattr(owner, attr), attr=attr):
            calls.append(attr)
            return method(*args)
        monkeypatch.setattr(owner, attr, counted)
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, steps)
    assert traj.error is None and len(traj) == steps + 1
    got = list(calls)
    # the wrappers are the methods the shipped classes run
    sc.space.comb(sc.u, sc.x0, 0.5), sc.space.dist(sc.u, sc.x0), sc.family.apply(0, sc.u)
    assert calls[len(got):] == ["comb", "dist", "apply"]
    return got


@pytest.mark.parametrize("name", sorted(SCENARIO_TEXTS))
def test_the_step_loop_calls_no_point_method(name, monkeypatch):
    # u, x0 and p are checked once; the loop, images and the distance
    # columns then run on coordinates, with no Point-level comb, dist or apply
    assert _point_method_calls(SCENARIO_TEXTS[name], 200, monkeypatch) == []


@pytest.mark.parametrize("name", sorted(RESOLVENT_TEXTS))
def test_the_resolvent_solve_calls_no_point_method(name, monkeypatch):
    # the reference solve of a ball-projection base and the rotation kernels
    # run on x's data and the base's image
    assert _point_method_calls(RESOLVENT_TEXTS[name], 100, monkeypatch) == []


def test_a_family_that_defines_apply_alone_drives_run_and_images():
    # image's default applies apply to the rebuilt Point: the loop's T_n u_n,
    # then images' T_n x_n, each through FailingApplies.apply
    space, bundle = Euclidean(2), preset("harmonic")
    base = ProximalFamily(space, space.base_point(), bundle.gamma)
    u, x0 = Point.euclidean(0.5, 0.0), Point.euclidean(-1.0, 2.0)
    fam = FailingApplies(space, base, {})
    traj = run(space, fam, bundle, u, x0, 10)
    assert fam.calls == [(n, 0) for n in range(11)] + [(n, 1) for n in range(11)]
    ref = reference_run(space, base, bundle, u, x0, 10)
    assert typed(list(traj.records)) == typed(ref)
    fam.calls = []
    got = fam.images(traj.x, range(11))
    assert fam.calls == [(n, 2) for n in range(11)]
    assert list(got) == [c for rec in ref for c in base.apply(rec.n, rec.x).data]


@pytest.mark.parametrize("space, center, u, x0", [
    (Euclidean(2), Point.euclidean(0.3, -0.1), Point.euclidean(1.2, 0.7),
     Point.euclidean(-1.0, 2.0)),
    (PoincareDisk(), Point.disk(0.2, 0.1), Point.disk(-0.6, 0.5), Point.disk(0.5, -0.4)),
    (Tripod(), Point.tripod(1, 0.4), Point.tripod(2, 1.1), Point.tripod(0, 0.9)),
], ids=["euclidean", "disk", "tripod"])
def test_a_base_that_defines_apply_alone_drives_the_resolvent_solve(space, center, u, x0):
    # the solve calls the base's default image, which applies apply to the
    # rebuilt Point: the same run as the projection's own image gives
    bundle = preset("harmonic")
    ball = MetricProjectionFamily(space, center, 0.3)
    base = FailingApplies(space, ball, {})
    got = run(space, ResolventFamily(space, base, bundle.gamma), bundle, u, x0, 20)
    want = run(space, ResolventFamily(space, ball, bundle.gamma), bundle, u, x0, 20)
    assert got.error is None and len(got) == 21
    assert {n for n, _ in base.calls} == {0} and len(base.calls) >= 2 * 21
    got_csv, want_csv = io.StringIO(), io.StringIO()
    got.write_csv(got_csv), want.write_csv(want_csv)
    assert got_csv.getvalue() == want_csv.getvalue()
    g = bundle.gamma(3)
    assert base.image(3, x0.data) == ball.image(3, x0.data)
    assert (ResolventFamily(space, base, bundle.gamma).apply(3, x0).data
            == SpaceModel.fixed_point(space, x0.data, ball.image, g / (1.0 + g), 1e-12, 10_000))


def test_a_family_that_defines_neither_image_nor_apply_raises_not_implemented():
    class Bare(MappingFamily):
        pass

    space = Euclidean(2)
    fam, p = Bare(space, space.base_point()), Point.euclidean(1.0, 0.0)
    for call in (lambda: fam.apply(0, p), lambda: fam.image(0, p.data),
                 lambda: fam.images(array("d", p.data), [0]),
                 lambda: run(space, fam, preset("harmonic"), p, p, 3)):
        with pytest.raises(NotImplementedError, match="Bare defines neither image nor apply"):
            call()


D_STEP_RUNS = {
    "euclidean1": (Euclidean(1), Point.euclidean(0.5), Point.euclidean(-2.0)),
    "euclidean2": (Euclidean(2), Point.euclidean(0.5, 0.0), Point.euclidean(-1.0, 2.0)),
    "euclidean3": (Euclidean(3), Point.euclidean(0.5, 0.0, 1.0),
                   Point.euclidean(-1.0, 2.0, 0.25)),
    "disk": (PoincareDisk(), Point.disk(0.3, -0.2), Point.disk(-0.5, 0.6)),
    # u and x0 on other legs than the centre's: steps cross the centre
    "tripod": (Tripod(), Point.tripod(1, 0.5), Point.tripod(2, 1.5)),
}


@pytest.mark.parametrize("model", sorted(D_STEP_RUNS))
def test_d_step_is_the_distance_of_each_row_to_its_successor(model):
    # d_step is read after the loop; the reference computes dist(x_n,
    # x_{n+1}) inside it, on the step's Points
    space, u, x0 = D_STEP_RUNS[model]
    bundle = preset("harmonic")
    fam = ProximalFamily(space, space.base_point(), bundle.gamma)
    traj = run(space, fam, bundle, u, x0, 60)
    ref = reference_run(space, fam, bundle, u, x0, 60)
    assert traj.error is None and len(traj) == len(ref) == 61
    assert_whole_rows(traj)
    assert typed(list(traj.d_step)) == typed([rec.d_step for rec in ref])


@pytest.mark.parametrize("model", sorted(D_STEP_RUNS))
@pytest.mark.parametrize("failing,step", [(FailingFirstApply, 0), (FailingFirstApply, 7),
                                          (FailingSecondApply, 7)])
def test_d_step_of_a_failed_run_ends_at_the_x_of_the_failed_step(model, failing, step):
    # a failure in step 0 leaves every column empty; one in step n leaves
    # rows 0 to n - 1, the last of which steps to x_n, which no row holds
    space, u, x0 = D_STEP_RUNS[model]
    bundle = preset("harmonic")
    base = ProximalFamily(space, space.base_point(), bundle.gamma)
    traj = run(space, failing(space, base, step), bundle, u, x0, 60)
    assert traj.error == str(SolverFailure(1.0, 9, 2.0, 1.0)) and len(traj) == step
    assert_whole_rows(traj)
    ref = reference_run(space, failing(space, base, step), bundle, u, x0, 60)
    assert len(ref) == step
    assert typed(list(traj.d_step)) == typed([rec.d_step for rec in ref])
    if step:
        last = ref[-1]
        x_n = space.comb(last.u, base.apply(last.n, last.u), bundle.lam(last.n))
        assert typed(traj.d_step[-1]) == typed(space.dist(last.x, x_n))


X_FAILURE, U_FAILURE = SolverFailure(1.0, 9, 2.0, 1.0), SolverFailure(3.0, 4, 5.0, 3.0)


@pytest.mark.parametrize("model", sorted(D_STEP_RUNS))
@pytest.mark.parametrize("failures,rows,error", [
    # T_4 x_4 fails, and the later T_9 u_9: step 4 comes first
    ({(4, 1): X_FAILURE, (9, 0): U_FAILURE}, 4, X_FAILURE),
    # T_0 x_0 fails before any later T_n u_n
    ({(0, 1): X_FAILURE, (3, 0): U_FAILURE}, 0, X_FAILURE),
    # T_6 u_6 and T_6 x_6 both fail: T_6 u_6 comes first in its step
    ({(6, 0): U_FAILURE, (6, 1): X_FAILURE}, 6, U_FAILURE),
], ids=["x-then-later-u", "x0-then-later-u", "u-and-x-of-one-step"])
def test_the_first_failure_in_step_order_ends_the_run(model, failures, rows, error):
    # the loop runs every T_n u_n before images runs any T_n x_n; the rows
    # and the error are still those of the first failure in step order
    space, u, x0 = D_STEP_RUNS[model]
    bundle = preset("harmonic")
    base = ProximalFamily(space, space.base_point(), bundle.gamma)
    traj = run(space, FailingApplies(space, base, failures), bundle, u, x0, 60)
    ref = reference_run(space, FailingApplies(space, base, failures), bundle, u, x0, 60)
    assert traj.error == str(error)
    assert len(traj) == len(ref) == rows
    assert_whole_rows(traj)
    assert typed(list(traj.records)) == typed(ref)
    buf = io.StringIO()
    traj.write_csv(buf)
    assert buf.getvalue() == reference_csv(traj)


BLOCK_RUN = (Euclidean(2), preset("harmonic"), Point.euclidean(0, 0), Point.euclidean(1, 0),
             3 * IMAGE_BLOCK)


@pytest.mark.parametrize("failing", [FailingFirstApply, FailingSecondApply])
@pytest.mark.parametrize("row", [5, IMAGE_BLOCK - 1, IMAGE_BLOCK, IMAGE_BLOCK + 5])
def test_a_failure_lets_at_most_one_block_of_steps_run_past_it(failing, row):
    # images maps each block of IMAGE_BLOCK rows once the loop has filled it,
    # so after T_row x_row fails no step past the end of row's block runs,
    # and after T_row u_row fails no step past row runs
    space, bundle, u, x0, steps = BLOCK_RUN
    fam = failing(space, RotationFamily(space, 1.0), step=row)
    traj = run(space, fam, bundle, u, x0, steps)
    # each block's T_n u_n, then its T_n x_n, up to the failing call
    u_fails = failing.failing_call == 0
    blocks = [range(start, start + IMAGE_BLOCK)
              for start in range(0, row + 1, IMAGE_BLOCK)]
    assert fam.calls == (
        [(n, i) for block in blocks[:-1] for i in (0, 1) for n in block]
        + [(n, 0) for n in blocks[-1] if not u_fails or n <= row]
        + [(n, 1) for n in blocks[-1] if n < row or (n == row and not u_fails)]
    )
    assert traj.error == str(SolverFailure(1.0, 9, 2.0, 1.0))
    ref = reference_run(space, failing(space, RotationFamily(space, 1.0), step=row),
                        bundle, u, x0, steps)
    assert len(traj) == len(ref) == row
    assert_whole_rows(traj)
    assert typed(list(traj.records)) == typed(ref)


def test_a_run_crosses_the_blocks_unchanged():
    # each block's T_n u_n, then its T_n x_n, and the rows of the reference
    space, bundle, u, x0, steps = BLOCK_RUN
    fam = FailingApplies(space, RotationFamily(space, 1.0), {})
    traj = run(space, fam, bundle, u, x0, steps)
    blocks = [range(start, min(start + IMAGE_BLOCK, steps + 1))
              for start in range(0, steps + 1, IMAGE_BLOCK)]
    assert fam.calls == [(n, i) for block in blocks for i in (0, 1) for n in block]
    ref = reference_run(space, RotationFamily(space, 1.0), bundle, u, x0, steps)
    assert typed(list(traj.records)) == typed(ref)


def assert_whole_rows(traj):
    for column in (traj.x, traj.u, traj.Tu):
        assert len(column) == len(traj) * traj.width
    for column in (traj.d_step, traj.d_Tn, traj.d_p):
        assert len(column) == len(traj)


def test_csv_format():
    sc = identity_scenario()
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 3,
               scenario_hash="abc123")
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# model=euclidean(1) scenario=abc123"
    assert lines[1] == "n,x0,d_step,d_Tn,d_p"
    assert len(lines) == 2 + 4
    # 17-significant-digit round trip
    first = lines[2].split(",")
    assert first[0] == "0"
    assert float(first[1]) == traj.records[0].x.data[0]
    third = lines[4].split(",")
    assert float(third[2]) == traj.records[2].d_step


@pytest.mark.parametrize("u, x0", [
    # unchecked, a 3-coordinate x0 in Euclidean(2) gives rows one column short
    (Point.euclidean(0, 0), Point.euclidean(3, 4, 12)),
    (Point.euclidean(0, 0, 0), Point.euclidean(3, 4, 12)),
    (Point.tripod(0, 0.0), Point.euclidean(1, 0)),
    (Point.euclidean(0, 0), Point.disk(0.5, 0.0)),
], ids=["3d-x0", "3d-u-and-x0", "tripod-u", "disk-x0"])
def test_run_rejects_points_of_another_model_or_dimension(u, x0):
    # fixed point u: with u and x0 both 3-d, every step would go through
    space = Euclidean(2)
    with pytest.raises(GeometryError):
        run(space, IdentityFamily(space, u), preset("harmonic"), u, x0, 5)


def test_run_rejects_a_fixed_point_of_another_dimension_before_step_0():
    # d_p is computed after the loop, so the fixed point is checked up front
    space = Euclidean(2)
    fam = FailingSecondApply(space, IdentityFamily(space, Point.euclidean(0, 0, 0)), step=-1)
    with pytest.raises(GeometryError):
        run(space, fam, preset("harmonic"), Point.euclidean(0, 0), Point.euclidean(1, 0), 5)
    assert fam.calls == []


def reference_csv(traj):
    """The csv.writer loop Trajectory.write_csv used before its one-template
    rewrite, kept as the byte reference."""
    stream = io.StringIO()
    stream.write(f"# model={traj.space.describe()} scenario={traj.scenario_hash}\n")
    writer = csv.writer(stream)
    ncoords = len(traj.records[0].x.data) if traj.records else 0
    header = ["n"] + [f"x{i}" for i in range(ncoords)] + [
        "d_step", "d_Tn", "d_p"
    ]
    writer.writerow(header)
    for rec in traj.records:
        writer.writerow(
            [rec.n]
            + [f"{float(c):.17g}" for c in rec.x.data]
            + [f"{rec.d_step:.17g}", f"{rec.d_Tn:.17g}", f"{rec.d_p:.17g}"]
        )
    return stream.getvalue()


ODD_VALUES = (-0.0, 5e-324, 1e300, math.inf, 0.1, -1.0 / 3.0, 123456789.0)


def _odd_records(points):
    return [
        TrajectoryRecord(n, x, x, ODD_VALUES[n % 7], ODD_VALUES[(n + 3) % 7],
                         ODD_VALUES[(n + 5) % 7])
        for n, x in enumerate(points)
    ]


def _trajectory(space, points):
    """The rows of _odd_records(points) written into a trajectory's columns."""
    x0 = points[0] if points else space.base_point()
    traj = Trajectory(space, None, None, x0, x0, scenario_hash="f00d")
    for rec in _odd_records(points):
        for column in (traj.x, traj.u, traj.Tu):
            column.extend(rec.x.data)
        traj.d_step.append(rec.d_step)
        traj.d_Tn.append(rec.d_Tn)
        traj.d_p.append(rec.d_p)
    return traj


ODD_POINTS = {
    "tripod-int-legs": (Tripod(), [Point.tripod(1, 2.5), Point.tripod(0, 0.0),
                                   Point.tripod(2, 1e300), Point.tripod(1, 5e-324)]),
    "euclidean-1d": (Euclidean(1), [Point.euclidean(v) for v in ODD_VALUES]),
    "euclidean-3d": (Euclidean(3), [Point.euclidean(*ODD_VALUES[i:i + 3]) for i in range(5)]),
    "empty": (Euclidean(2), []),
}


@pytest.mark.parametrize("name", list(ODD_POINTS))
def test_csv_bytes_match_csv_writer(name):
    space, points = ODD_POINTS[name]
    traj = _trajectory(space, points)
    buf = io.StringIO()
    traj.write_csv(buf)
    assert buf.getvalue() == reference_csv(traj)
    if not points:
        assert buf.getvalue() == "# model=euclidean(2) scenario=f00d\nn,d_step,d_Tn,d_p\r\n"


def test_csv_bytes_match_csv_writer_on_a_run():
    space = Euclidean(2)
    fam = RotationFamily(space, 1.0)
    traj = run(space, fam, preset("harmonic"), Point.euclidean(0.3, -0.2),
               Point.euclidean(-1.0, 1.5), 200)
    buf = io.StringIO()
    traj.write_csv(buf)
    assert buf.getvalue() == reference_csv(traj)


def test_csv_deterministic():
    sc = identity_scenario()
    outs = []
    for _ in range(2):
        traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, 50)
        buf = io.StringIO()
        traj.write_csv(buf)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]


class RefDisk(PoincareDisk):
    """The disk's own bodies, solving through the reference loop."""

    fixed_point = SpaceModel.fixed_point


class RefRotation(RotationFamily):
    """RotationFamily.apply before its points were built by tuple.__new__,
    as the coordinate map image: the tripod's image checked by Point.tripod."""

    def image(self, n, data):
        if self._on_tripod:
            leg, s = data
            return Point.tripod((leg + self._shift) % 3, s).data
        a, b = data
        return (a * self._cos - b * self._sin, a * self._sin + b * self._cos)


BYTE_IDENTITY_TEXTS = {
    **{name: text + "run.steps = 2000\n" for name, text in SCENARIO_TEXTS.items()
       if name.startswith(("euclidean-", "tripod-"))},
    **RESOLVENT_TEXTS,
}


def _run_csv(text):
    sc = scenario_from_text(text)
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, sc.steps,
               scenario_hash=sc.scenario_hash)
    buf = io.StringIO()
    traj.write_csv(buf)
    return type(sc.space), buf.getvalue()


@pytest.mark.parametrize("name", sorted(BYTE_IDENTITY_TEXTS))
def test_csv_bytes_match_the_reference_model_bodies(name, monkeypatch):
    # the same scenario run twice: on the shipped models, whose bytes are
    # the pinned artifact's, and on subclasses carrying the general
    # comprehensions and Point(...) constructions, whose resolvent solve is
    # the reference loop SpaceModel.fixed_point.  The disk's matrix rows are
    # checked by their pins alone
    text = BYTE_IDENTITY_TEXTS[name]
    shipped = pins.artifact(("matrix/" if name in SCENARIO_TEXTS else "engine/") + name).decode()
    refs = {"euclidean": lambda: RefEuclidean(2), "disk": RefDisk, "tripod": RefTripod}
    monkeypatch.setattr(scenario_module, "make_model", lambda kind: refs[kind]())
    monkeypatch.setattr(scenario_module, "Euclidean", RefEuclidean)
    monkeypatch.setattr(scenario_module, "RotationFamily", RefRotation)
    ref_type, ref = _run_csv(text)
    assert ref_type.fixed_point is SpaceModel.fixed_point
    shipped, ref = shipped.splitlines(), ref.splitlines()
    assert len(shipped) > 100
    # lists, not one long string: pytest reports the first differing row
    assert shipped == ref


@pytest.mark.parametrize("family_kind", ["identity", "rotation", "proximal"])
def test_hilbert_cross_check(family_kind):
    space = Euclidean(2)
    bundle = preset("harmonic")
    if family_kind == "identity":
        fam = IdentityFamily(space)
    elif family_kind == "rotation":
        fam = RotationFamily(space, math.pi / 2)
    else:
        fam = ProximalFamily(space, space.base_point(), bundle.gamma)
    rep = check_hilbert_special_case(
        space, fam, bundle, Point.euclidean(1.0, 0.25), steps=100, tol=1e-10
    )
    assert rep.passed, rep.max_violation


def test_hilbert_cross_check_requires_euclidean():
    from tmlab.geometry import Tripod
    from tmlab.mappings import IdentityFamily as IF

    with pytest.raises(EngineError):
        check_hilbert_special_case(
            Tripod(), IF(Tripod()), preset("harmonic"),
            Point.tripod(0, 1.0), steps=5,
        )


def test_boundedness_along_runs():
    space = Euclidean(2)
    bundle = preset("harmonic")
    fam = ProximalFamily(space, space.base_point(), bundle.gamma)
    u, x0 = Point.euclidean(0.5, 0.0), Point.euclidean(1.0, 1.0)
    M = max(space.dist(u, fam.fixed_point), space.dist(x0, fam.fixed_point))
    traj = run(space, fam, bundle, u, x0, 2000)
    rep = check_boundedness(traj, M, tol=1e-9)
    assert rep.passed


def test_boundedness_fails_on_a_nan_anchor_distance():
    # the second of a step's two terms: a max() over them would drop it
    space = Euclidean(2)
    bundle = preset("harmonic")
    fam = ProximalFamily(space, space.base_point(), bundle.gamma)
    u, x0 = Point.euclidean(0.5, 0.0), Point.euclidean(1.0, 1.0)
    traj = run(space, fam, bundle, u, x0, 20)
    traj.u[6] = math.nan  # u_3's first coordinate
    rep = check_boundedness(traj, math.sqrt(2.0), tol=1e-9)
    assert math.isnan(rep.max_violation)
    assert not rep.passed


# ---------------------------------------------------------------------------
# Columns
# ---------------------------------------------------------------------------


def reference_run(space, family, bundle, u, x0, steps):
    """engine.run's step loop as it was when a trajectory kept one
    TrajectoryRecord a step: the rows the columns must give back."""
    records = []
    comb, dist, apply = space.comb, space.dist, family.apply
    beta, lam = bundle.beta, bundle.lam
    p = family.fixed_point
    x = x0
    try:
        for n in range(steps + 1):
            beta_n, lam_n = beta(n), lam(n)
            u_n = comb(u, x, beta_n)
            x_next = comb(u_n, apply(n, u_n), lam_n)
            records.append(TrajectoryRecord(
                n, x, u_n, dist(x, x_next), dist(x, apply(n, x)), dist(x, p)
            ))
            x = x_next
    except SolverFailure:
        pass
    return records


def typed(value):
    """value with the type and repr of every leaf: == on the result tells
    1 from 1.0 and -0.0 from 0.0."""
    if isinstance(value, TrajectoryRecord):
        value = (value.n, value.x, value.u, value.d_step, value.d_Tn, value.d_p)
    if isinstance(value, (tuple, list)):
        return type(value), [typed(v) for v in value]
    return type(value), repr(value)


ROUND_TRIP_TEXTS = {
    **{name: text + "run.steps = 200\n" for name, text in SCENARIO_TEXTS.items()},
    **RESOLVENT_TEXTS,
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_TEXTS))
def test_columns_give_back_the_reference_rows_and_points(name):
    sc = scenario_from_text(ROUND_TRIP_TEXTS[name])
    traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, sc.steps)
    ref = reference_run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, sc.steps)
    assert traj.error is None and len(traj) == len(ref) == sc.steps + 1
    assert typed(list(traj.records)) == typed(ref)
    assert typed([traj.records[i] for i in (0, 7, -1, -len(ref))]) == typed(
        [ref[i] for i in (0, 7, -1, -len(ref))])
    # a prefix read, as a metastability search makes, then every row
    assert typed(list(traj.points(traj.x, 0, 3))) == typed([rec.x for rec in ref[:3]])
    assert typed(list(traj.points(traj.x))) == typed([rec.x for rec in ref])
    assert typed(list(traj.points(traj.u))) == typed([rec.u for rec in ref])
    assert typed(list(traj.points(traj.Tu))) == typed(
        [sc.family.apply(rec.n, rec.u) for rec in ref])
    assert typed(list(traj.d_step)) == typed([rec.d_step for rec in ref])
    with pytest.raises(IndexError):
        traj.records[len(ref)]


@pytest.mark.parametrize("name", list(ODD_POINTS))
def test_columns_give_back_odd_values(name):
    # int tripod legs, -0.0, subnormals and inf, in points and distances
    space, points = ODD_POINTS[name]
    traj = _trajectory(space, points)
    assert typed(list(traj.records)) == typed(_odd_records(points))
    assert typed(list(traj.points(traj.x))) == typed(points)


@pytest.mark.parametrize("name", ["euclidean-rotation", "disk-rotation", "tripod-rotation"])
def test_a_run_retains_at_most_150_bytes_a_step(name):
    # six float columns hold 9 doubles a step on these models; one
    # TrajectoryRecord a step, with its two Points, retained about 527
    # bytes.  The checks that read the run must leave nothing on it: a
    # list of the x_n or u_n Points would add about 175 bytes a step
    sc = scenario_from_text(SCENARIO_TEXTS[name])
    steps = 20_000
    rate = RateValue.astronomical("unread")
    query = V.MetastabilityQuery(k=3, f=Affine(1, 100), cap=steps)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = run(sc.space, sc.family, sc.bundle, sc.u, sc.x0, steps)
        V.check_Tm_ar(traj, sc.family, 1, rate, k=0, cap=steps)
        V.check_chi_T_series(traj, sc.family, sc.chi_T_fn, k_max=5)
        V.check_recursive_inequalities(traj, sc.family, sc.bundle, sc.u)
        check_boundedness(traj, sc.M)
        assert V.search_metastable(traj, query).found is not None
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert traj.error is None and len(traj) == steps + 1
    assert retained / steps <= 150, retained / steps
