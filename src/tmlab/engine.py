"""Trajectory generation for the anchored iteration

    u_n = (1 - beta_n) u + beta_n x_n
    x_{n+1} = (1 - lambda_n) u_n + lambda_n T_n u_n

over any space model, family and schedule, with the coordinate recursion
x_{n+1} = (1 - lambda_n) beta_n x_n + lambda_n T_n(beta_n x_n) available as
an independent cross-check in Euclidean models with anchor 0.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional, TextIO

from .geometry import AxiomReport, Euclidean, Point, SpaceModel
from .mappings import MappingFamily, SolverFailure
from .schedules import ScheduleBundle


# the rows the step loop fills before the family's images maps them: a
# failure in images lets at most this many steps run past the failing row
IMAGE_BLOCK = 1024


class EngineError(RuntimeError):
    pass


@dataclass(slots=True)
class TrajectoryRecord:
    n: int
    x: Point
    u: Point  # u_n = (1 - beta_n) anchor + beta_n x_n
    d_step: float  # d(x_n, x_{n+1})
    d_Tn: float  # d(x_n, T_n x_n)
    d_p: float  # d(x_n, p)


class Trajectory:
    """A run stored as float columns, one row per step n.

    ``x``, ``u`` and ``Tu`` hold the coordinates of x_n, u_n and T_n u_n
    row-major, ``width`` values a row (a tripod row is its leg, then its
    arm length); ``d_step``, ``d_Tn`` and ``d_p`` hold d(x_n, x_{n+1}),
    d(x_n, T_n x_n) and d(x_n, p), which ``run`` reads from the x column
    with the model's column kernels.  A reader that needs Points streams
    them with ``points``; a reader of distances to a fixed point hands a
    column to the model's ``dists`` or ``quasilins``.  The trajectory holds
    nothing besides its columns and metadata, whatever has read it."""

    def __init__(self, space: SpaceModel, family: MappingFamily,
                 bundle: ScheduleBundle, anchor: Point, x0: Point,
                 scenario_hash: str = ""):
        self.space, self.family, self.bundle = space, family, bundle
        self.anchor, self.x0, self.scenario_hash = anchor, x0, scenario_hash
        self.error: Optional[str] = None
        self.width = len(x0.data)
        self.x, self.u, self.Tu = array("d"), array("d"), array("d")
        self.d_step, self.d_Tn, self.d_p = array("d"), array("d"), array("d")

    def __len__(self):
        """The number of rows: those of the x column, the one the step loop
        fills (the distance columns are read from it)."""
        return len(self.x) // self.width

    def points(self, column: array, start: int = 0,
               stop: Optional[int] = None) -> Iterator[Point]:
        """The Points of rows start to stop - 1 (all rows by default) of the
        coordinate column x, u or Tu, each rebuilt by the model's ``points``
        as the iterator reaches it and equal to the engine's type for type."""
        w = self.width
        stop = len(self) if stop is None else stop
        return self.space.points(column[start * w:stop * w])

    @property
    def records(self) -> list:
        """The rows as TrajectoryRecords, built on each read, for readers of
        the row form such as the benchmark scripts."""
        return list(map(TrajectoryRecord, range(len(self)), self.points(self.x),
                        self.points(self.u), self.d_step, self.d_Tn, self.d_p))

    def write_csv(self, stream: TextIO):
        """The comment line, then the header and one row per step in the
        bytes csv.writer gives them: CRLF row ends, no field needs quotes."""
        model = self.space.describe()
        ncoords = self.width if len(self) else 0
        header = ["n"] + [f"x{i}" for i in range(ncoords)] + [
            "d_step", "d_Tn", "d_p"
        ]
        row = "%d" + ",%.17g" * (ncoords + 3) + "\r\n"
        lines = [f"# model={model} scenario={self.scenario_hash}\n",
                 ",".join(header) + "\r\n"]
        lines += [
            row % r for r in zip(range(len(self)), *[iter(self.x)] * ncoords,
                                 self.d_step, self.d_Tn, self.d_p)
        ]
        stream.write("".join(lines))


def run(
    space: SpaceModel,
    family: MappingFamily,
    bundle: ScheduleBundle,
    u: Point,
    x0: Point,
    steps: int,
    scenario_hash: str = "",
) -> Trajectory:
    """Trajectory of length steps + 1 with all derived distance columns.

    u, x0 and the fixed point are checked once, before step 0 (a point of
    another model or dimension raises GeometryError).  The step loop then
    computes only u_n, T_n u_n and x_{n+1} on data tuples, by the model's
    _comb, the family's image and _comb again (each _comb checks its lam),
    and builds no Point.  d_Tn, d_step and d_p are read from the x column,
    by the family's ``images`` at n = 0, 1, ... and the model's
    ``pair_dists`` and ``dists``; the loop runs in blocks of IMAGE_BLOCK
    rows and ``images`` maps each block once the loop has filled it.  A
    solver failure ends the run at the first failing step, in step order,
    with T_n u_n before T_n x_n: a failure in the loop ends it at its step,
    and one in ``images``, which reports the rows it mapped before it, at
    the row it failed on, when that comes first, so at most one block's
    steps run past it.  The partial trajectory, whole rows only, is kept
    on the returned object with that failure's message."""
    if steps < 1:
        raise EngineError("steps must be >= 1")
    p = family.fixed_point
    space._require(u, x0, p)
    traj = Trajectory(space, family, bundle, u, x0, scenario_hash=scenario_hash)
    comb, image = space._comb, family.image
    beta, lam = bundle.beta, bundle.lam
    w, u, x = traj.width, u.data, x0.data
    for start in range(0, steps + 1, IMAGE_BLOCK):
        # a block's coordinates go to lists, which take a tuple's floats
        # faster than an array does, and then to the columns
        xs, us, Tus = [], [], []
        try:
            for n in range(start, min(start + IMAGE_BLOCK, steps + 1)):
                u_n = comb(u, x, beta(n))
                Tu_n = image(n, u_n)
                x_next = comb(u_n, Tu_n, lam(n))
                # the row is appended only once every call of the step returned
                xs += x
                us += u_n
                Tus += Tu_n
                x = x_next
        except SolverFailure as exc:
            traj.error = str(exc)
        block = array("d", xs)
        # the x the last row steps to: x_{n+1}, or x_n when step n failed
        end = x
        try:
            images = family.images(block, range(start, start + len(block) // w))
        except SolverFailure as exc:
            # T_j x_j failed on row j, before any step after j: rows j on go,
            # and row j - 1 steps to x_j
            images, traj.error = exc.images, str(exc)
            cut = len(images)
            end = block[cut:cut + w]
            del block[cut:], us[cut:], Tus[cut:]
        traj.x.extend(block)
        traj.u.fromlist(us)
        traj.Tu.fromlist(Tus)
        traj.d_Tn.extend(space.pair_dists(block, images))
        if traj.error:
            break
    # row n's successor is row n + 1, and the last row's is end (no row when
    # step 0 failed)
    traj.d_step.extend(space.pair_dists(traj.x, (traj.x + array("d", end))[w:]))
    traj.d_p.extend(space.dists(traj.x, p))
    return traj


def check_hilbert_special_case(
    space: Euclidean,
    family: MappingFamily,
    bundle: ScheduleBundle,
    x0: Point,
    steps: int,
    tol: float = 1e-10,
) -> AxiomReport:
    """Run the geodesic recursion with anchor 0 next to the coordinate
    recursion x_{n+1} = (1-lambda) beta x + lambda T(beta x) and compare.

    The coordinate route uses raw vector arithmetic, independent of comb.
    """
    if not isinstance(space, Euclidean):
        raise EngineError("the coordinate cross-check needs a Euclidean model")
    origin = space.base_point()
    traj = run(space, family, bundle, origin, x0, steps)
    if traj.error:
        raise EngineError(traj.error)

    y, ys = x0.data, array("d", x0.data)
    for n in range(steps):
        beta, lam = bundle.beta(n), bundle.lam(n)
        scaled = tuple(beta * c for c in y)
        y = [(1.0 - lam) * s + lam * t for s, t in zip(scaled, family.image(n, scaled))]
        ys.extend(y)
    devs = space.pair_dists(traj.x, ys)
    report = AxiomReport(f"hilbert-special-case[{family.name}]", steps + 1,
                         max_violation=-math.inf, tol=0.0)
    # the allowance grows with accumulated rounding
    report.note_rows([[dev - tol * (1 + n) for n, dev in enumerate(devs)]],
                     lambda n, _: {"n": n, "deviation": devs[n]})
    return report


def check_boundedness(traj: Trajectory, K_like: float, tol: float = 1e-9):
    """d(x_n, p) and d(u_n, p) stay below max{d(x0,p), d(u,p)} along runs
    with an exact common fixed point."""
    report = AxiomReport("boundedness", len(traj), tol=tol)
    d_u = traj.space.dists(traj.u, traj.family.fixed_point)
    report.note_rows([[d - K_like for d in traj.d_p], [d - K_like for d in d_u]], None)
    return report
