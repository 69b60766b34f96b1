"""Trajectory generation for the anchored iteration

    u_n = (1 - beta_n) u + beta_n x_n
    x_{n+1} = (1 - lambda_n) u_n + lambda_n T_n u_n

over any space model, family and schedule, with the coordinate recursion
x_{n+1} = (1 - lambda_n) beta_n x_n + lambda_n T_n(beta_n x_n) available as
an independent cross-check in Euclidean models with anchor 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, TextIO

from .geometry import AxiomReport, Euclidean, Point, SpaceModel
from .mappings import MappingFamily, SolverFailure
from .schedules import ScheduleBundle


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


@dataclass
class Trajectory:
    space: SpaceModel
    family: MappingFamily
    bundle: ScheduleBundle
    anchor: Point
    x0: Point
    records: list = field(default_factory=list)
    error: Optional[str] = None
    scenario_hash: str = ""

    def __len__(self):
        return len(self.records)

    def write_csv(self, stream: TextIO):
        """The comment line, then the header and one row per record in the
        bytes csv.writer gives them: CRLF row ends, no field needs quotes."""
        model = self.space.describe()
        ncoords = len(self.records[0].x.data) if self.records else 0
        header = ["n"] + [f"x{i}" for i in range(ncoords)] + [
            "d_step", "d_Tn", "d_p"
        ]
        row = "%d" + ",%.17g" * (ncoords + 3) + "\r\n"
        lines = [f"# model={model} scenario={self.scenario_hash}\n",
                 ",".join(header) + "\r\n"]
        lines += [
            row % (rec.n, *rec.x.data, rec.d_step, rec.d_Tn, rec.d_p)
            for rec in self.records
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

    A solver failure aborts the run; the partial trajectory is kept on the
    returned object together with the error record.  An anchor or start
    point of another model or dimension raises GeometryError before step 0.
    """
    if steps < 1:
        raise EngineError("steps must be >= 1")
    space._require(u, x0)
    traj = Trajectory(space, family, bundle, u, x0, scenario_hash=scenario_hash)
    append = traj.records.append
    comb, dist, apply = space.comb, space.dist, family.apply
    beta, lam = bundle.beta, bundle.lam
    p = family.fixed_point
    x = x0
    try:
        for n in range(steps + 1):
            beta_n, lam_n = beta(n), lam(n)
            u_n = comb(u, x, beta_n)
            x_next = comb(u_n, apply(n, u_n), lam_n)
            append(TrajectoryRecord(
                n, x, u_n, dist(x, x_next), dist(x, apply(n, x)), dist(x, p)
            ))
            x = x_next
    except SolverFailure as exc:
        traj.error = str(exc)
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

    y = tuple(x0.data)
    worst = (-math.inf, None)
    for n in range(steps + 1):
        dev = space.dist(traj.records[n].x, Point("euclidean", y))
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


def check_boundedness(traj: Trajectory, K_like: float, tol: float = 1e-9):
    """d(x_n, p) and d(u_n, p) stay below max{d(x0,p), d(u,p)} along runs
    with an exact common fixed point."""
    space, p = traj.space, traj.family.fixed_point
    worst = 0.0
    for rec in traj.records:
        worst = max(worst, rec.d_p - K_like, space.dist(rec.u, p) - K_like)
    return AxiomReport(
        axiom="boundedness",
        samples=len(traj.records),
        max_violation=worst,
        worst_case_inputs=None,
        tol=tol,
    )
