"""Concrete CAT(0) space models and empirical checkers for their axioms.

Three models are shipped: Euclidean(d), the Poincare disk, and the tripod
(three half-lines glued at a common center).  Each model provides the
distance, the geodesic convex combination, and quasilinearization; the
checkers sample pseudo-random tuples and report the worst violation of
each axiom.
"""

from __future__ import annotations

import cmath
import math
import random
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterator, NamedTuple, Optional

DISK_MARGIN = 1e-12
_TRIPOD_LENGTH = "tripod arm length must be finite and >= 0"


class GeometryError(ValueError):
    pass


class SolverFailure(RuntimeError):
    """A fixed-point solve did not reach its tolerance.  ``residual`` is
    d(z, comb(x, T(z), c)) at the last iterate z and ``iterations`` the
    number of steps taken; ``first`` and ``best`` are the residual of the
    first step and the least residual seen (the two equal ``residual``
    when no step was taken)."""

    def __init__(self, residual: float, iterations: int, first: float, best: float):
        super().__init__(
            f"resolvent solve stalled at residual {residual:.3e} "
            f"after {iterations} iterations (first {first:.3e}, best {best:.3e})"
        )
        self.residual = residual
        self.iterations = iterations
        self.first = first
        self.best = best


class Turn(NamedTuple):
    """A rotation about the base point in the kernels' native terms: its
    cosine and sine (and unit = complex(cos, sin)) for the plane and the
    disk, and its leg shift for the tripod.  RotationFamily builds one."""

    cos: float
    sin: float
    unit: complex
    shift: int


class Point(NamedTuple):
    """A model-tagged point: euclidean coordinates, a disk pair, or a
    (leg, arm length) pair for the tripod.  Immutable and hashable.  The
    factories below validate parsed input (and Point.tripod the tripod's
    samples); the models and Point.tripod build their results with
    tuple.__new__(Point, (kind, data)), which skips the Python-level __new__
    of the NamedTuple."""

    kind: str  # "euclidean" | "disk" | "tripod"
    data: tuple

    @staticmethod
    def euclidean(*coords: float) -> "Point":
        return Point("euclidean", tuple([float(c) for c in coords]))

    @staticmethod
    def disk(a: float, b: float) -> "Point":
        if a * a + b * b >= 1.0 - DISK_MARGIN:
            raise GeometryError(f"disk point ({a}, {b}) too close to the boundary")
        return Point("disk", (float(a), float(b)))

    @staticmethod
    def tripod(leg: int, length: float) -> "Point":
        if length < 0 or not math.isfinite(length):
            raise GeometryError(_TRIPOD_LENGTH)
        if leg not in (0, 1, 2):
            raise GeometryError("tripod leg must be 0, 1 or 2")
        if length == 0.0:
            leg = 0  # all legs share the center
        return tuple.__new__(Point, ("tripod", (leg, float(length))))


@dataclass(frozen=True)
class SampleSpec:
    seed: int
    count: int
    radius: float = 2.0

    def __post_init__(self):
        if self.count < 1:
            raise GeometryError("sample count must be >= 1")
        _require_radius(self.radius)


def _require_radius(radius: float) -> None:
    if not 0 < radius < math.inf:
        # a NaN radius fails every W axiom, an infinite one ends a checker in
        # a domain error: neither says anything of the model
        raise GeometryError(f"sample radius must be positive and finite, not {radius!r}")


@dataclass
class AxiomReport:
    """The worst violation a sampled check has seen, and its inputs.  The
    checkers build their reports first and note each violation as they go."""

    axiom: str
    samples: int
    max_violation: float = 0.0
    worst_case_inputs: Optional[dict] = None
    tol: float = 1e-9

    def note(self, value: float, inputs: Optional[dict]) -> None:
        """Keep ``value`` and ``inputs`` when ``value`` is the largest yet
        (the first among equals).  The first NaN is kept over any number,
        so a NaN violation fails the check."""
        worst = self.max_violation
        if value > worst or (value != value and worst == worst):
            self.max_violation = value
            self.worst_case_inputs = inputs

    def note_rows(self, columns, inputs) -> None:
        """Keep what ``note`` keeps when called on the equal-length columns
        in row order (row 0 of every column, then row 1, ...), the value in
        row n of column c with inputs ``inputs(n, c)`` (None when ``inputs``
        is None).  Only a column's first NaN, or else its first largest
        value, can be kept: each is found at C speed (a NaN makes the sum
        NaN; max and index give the first largest), the candidates are
        noted in (row, column) order, and ``inputs`` is called only for a
        candidate that is kept."""
        candidates = []
        for c, column in enumerate(columns):
            if not column:
                continue
            total, n = sum(column), None
            if total != total:  # a NaN, or +inf and -inf
                n = next((i for i, v in enumerate(column) if v != v), None)
            if n is None:
                n = column.index(max(column))
            candidates.append((n, c))
        for n, c in sorted(candidates):
            value, worst = columns[c][n], self.max_violation
            if value > worst or (value != value and worst == worst):
                self.max_violation = value
                self.worst_case_inputs = None if inputs is None else inputs(n, c)

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "samples": self.samples,
            "max_violation": self.max_violation,
            "worst_case_inputs": self.worst_case_inputs,
            "pass": self.passed,
        }


class SpaceModel:
    """Common interface of the shipped models; immutable after construction.
    A model writes each formula once, on data tuples: _dist(a, b) and
    _comb(a, b, lam), which checks lam but no point.  dist and comb check
    the Points and call them, so a model changes a formula in its kernel."""

    kind: str
    width: int  # the floats of a point's data

    def _dist(self, a: tuple, b: tuple) -> float:
        raise NotImplementedError

    def _comb(self, a: tuple, b: tuple, lam: float) -> tuple:
        """The data of the geodesic point (1 - lam) a + lam b."""
        raise NotImplementedError

    def dist(self, x: Point, y: Point) -> float:
        xd, yd, kind, w = x.data, y.data, self.kind, self.width
        if x.kind != kind or y.kind != kind or len(xd) != w or len(yd) != w:
            self._require(x, y)
        return self._dist(xd, yd)

    def comb(self, x: Point, y: Point, lam: float) -> Point:
        """The geodesic point (1 - lam) x + lam y; x itself if _comb gives x.data."""
        xd, yd, kind, w = x.data, y.data, self.kind, self.width
        if x.kind != kind or y.kind != kind or len(xd) != w or len(yd) != w:
            self._require(x, y)
        data = self._comb(xd, yd, lam)
        return x if data is xd else tuple.__new__(Point, (kind, data))

    def sampler(self, rng: random.Random) -> Callable[..., tuple]:
        """draw(radius, center=None): the data of one pseudo-random point
        of this model, drawn from rng, in the ball of the given radius
        around center (the data of a point of this model, not checked) or,
        when center is None, around the model's base point.  The radius is
        not checked either: draw's callers pass SampleSpec radii.  draw
        builds no Point: the axiom checkers add its tuples to their
        columns.  It is a model's one sampling formula, which sample and
        sample_near wrap, and a model that intercepts draws overrides this
        method.

        The shipped models write out the random.Random methods their
        formulas were first written with (gauss, randrange(3), uniform), as
        CPython 3.10-3.13's random.py has them: the same calls on rng, in
        the same order, give the same floats and leave rng in the same
        state, gauss_next included."""
        raise NotImplementedError

    def sample(self, rng: random.Random, radius: float) -> Point:
        """A pseudo-random point in the ball of the given radius around the
        model's base point.  The radius must be positive and finite, as a
        SampleSpec's, and is checked before rng is drawn from."""
        _require_radius(radius)
        return tuple.__new__(Point, (self.kind, self.sampler(rng)(radius)))

    def sample_near(self, rng: random.Random, center: Point, radius: float) -> Point:
        """A pseudo-random point in the ball of the given radius around
        center.  center and the radius, which must be positive and finite,
        are checked before rng is drawn from."""
        self._require(center)
        _require_radius(radius)
        return tuple.__new__(Point, (self.kind, self.sampler(rng)(radius, center.data)))

    def base_point(self) -> Point:
        raise NotImplementedError

    @cached_property
    def _origin(self) -> Point:
        """The base point a sampler draws around, built with the first
        sampler (a model of huge dimension may never draw)."""
        return self.base_point()

    # -- generic pieces -----------------------------------------------------
    # dist and comb test point kinds and widths inline, on the hot path, and
    # call _require to raise when that test fails; the kernels call
    # _check_lambda when lam is outside [0, 1].

    def _require(self, *pts: Point):
        for p in pts:
            if p.kind != self.kind:
                raise GeometryError(f"point of model {p.kind!r} used in model {self.kind!r}")
        for p in pts:
            if len(p.data) != self.width:
                raise GeometryError(
                    f"point with {len(p.data)} coordinates used in model {self.describe()}")

    def _check_lambda(self, lam: float):
        if not (0.0 <= lam <= 1.0):
            raise GeometryError(f"combination parameter {lam} outside [0, 1]")

    def _require_length(self, column, length: int):
        # a column kernel's second column, or its lams, must match its rows
        if len(column) != length:
            raise GeometryError(
                f"column of {len(column)} values where {self.describe()} needs {length}")

    def quasilin(self, x: Point, y: Point, u: Point, v: Point) -> float:
        """<xy, uv> = (d2(x,v) + d2(y,u) - d2(x,u) - d2(y,v)) / 2.  The four
        distances check the point kinds."""
        return quasilin_from_distances(
            self.dist(x, v), self.dist(y, u), self.dist(x, u), self.dist(y, v)
        )

    # -- column kernels -----------------------------------------------------
    # dists, pair_dists, combs, pair_combs and quasilins read flat
    # coordinate columns (sequences of floats), the layout Trajectory stores
    # (a point's data a row; a tripod row is its leg, then its arm length),
    # and build no Point.  Each gives, to the bit, what dist(z, p),
    # dist(z, w), comb(z, p, lam), comb(z, w, lam) and quasilin(x, u, x, z)
    # give on the rows' Points; p, x and u are checked once, and a column
    # that is not whole rows, or a second column, lams or dxz of the wrong
    # length, raises.  pair_dists(a, b) is pair_dists(b, a) to the bit.
    # dists and combs are pair_dists and pair_combs against p's data
    # repeated once a row.  The shipped models write out pair_dists and
    # pair_combs; a subclass that changes _dist changes pair_dists, and one
    # that changes _comb takes the reference form, pair_combs =
    # SpaceModel.pair_combs, which calls _comb on the rows' data.
    # A model that overrides quasilin, as Euclidean space does, also gives
    # pair_quasilins, the column of quasilin(z, w, s, t), for
    # check_quasilin_axioms.

    def rows(self, column) -> Iterator[tuple]:
        """The data of the column's rows, built as the iterator reaches them."""
        return zip(*[iter(column)] * self.width)

    def points(self, column) -> Iterator[Point]:
        """The Points of the column's rows, their data given by rows."""
        return map(tuple.__new__, repeat(Point), zip(repeat(self.kind), self.rows(column)))

    def dists(self, column, p: Point) -> list:
        """d(z, p) for every row z of the column.  p's data is repeated as
        floats, the type a column holds (a tripod leg included)."""
        self._require(p)
        if len(column) % self.width:
            raise GeometryError(f"column of {len(column)} values where {self.describe()} "
                                f"needs whole rows of {self.width}")
        return self.pair_dists(column, array("d", p.data) * (len(column) // self.width))

    def pair_dists(self, a, b) -> list:
        """d(z, w) for every row z of column a and the row w of column b
        at the same index; columns of unequal lengths raise."""
        raise NotImplementedError

    def combs(self, column, p: Point, lams) -> array:
        """The column of comb(z, p, lam) for every row z of the column and
        its lam in the sequence lams, which has one lam a row."""
        self._require(p)
        if len(column) != self.width * len(lams):
            raise GeometryError(f"column of {len(column)} values where {self.describe()} "
                                f"needs {self.width * len(lams)} for lams of length {len(lams)}")
        return array("d", self.pair_combs(column, array("d", p.data) * len(lams), lams))

    def pair_combs(self, a, b, lams) -> list:
        """The coordinates of comb(z, w, lam), row after row, for every row
        z of column a, the row w of column b at the same index and its lam
        in lams.  This reference form calls _comb on the rows' data, given
        by rows; the shipped models override it with their native form."""
        self._require_length(b, len(a))
        self._require_length(a, self.width * len(lams))
        out, comb = [], self._comb
        for z, w, lam in zip(self.rows(a), self.rows(b), lams):
            out += comb(z, w, lam)
        return out

    def quasilins(self, column, x: Point, u: Point, dxz) -> list:
        """<xu, xz> for every row z of the column and its d(x, z) in dxz, as
        dists(column, x) gives it: quasilin_from_distances(d(x, z), d(u, x),
        d(x, x), d(u, z)) written out, d(u, z) read from dists (dist is
        symmetric to the bit).  d(u, x) and d(x, x) are computed once, and
        only when there is a row, as quasilin computes them; d(x, x) is 0.0
        for every point a model accepts, but not for an infinite tripod arm."""
        self._require(x)
        duz = self.dists(column, u)
        self._require_length(dxz, len(duz))
        if not duz:
            return []
        dux, dxx = self.dist(u, x), self.dist(x, x)
        c, e = dux * dux, dxx * dxx
        return [0.5 * (a * a + c - e - b * b) for a, b in zip(dxz, duz)]

    def describe(self) -> str:
        return self.kind

    def fixed_point(self, xd: tuple, image, c: float, tol: float, max_iterations: int,
                    turn: Optional[Turn] = None) -> tuple:
        """The Banach iteration z <- _comb(xd, image(0, z), c) from z = xd,
        on data checked by the caller (apply, engine.run) and building no
        Point: the first iterate within tol of its predecessor, or
        SolverFailure after max_iterations steps.  image is a base family's
        image.  When it is a rotation of this model, ``turn`` may carry its
        constants, and the shipped models then run a kernel that turns its
        native iterate itself, with the same floating-point operations, in
        the same order, as this loop, and calls no image; a kernel that
        reaches max_iterations hands the solve to this loop, which replays
        it and raises the SolverFailure.  This loop ignores ``turn``."""
        comb, dist = self._comb, self._dist
        first = best = None
        z = xd
        for _ in range(max_iterations):
            z_next = comb(xd, image(0, z), c)
            d = dist(z, z_next)
            if d <= tol:
                return z_next
            if first is None:
                first = best = d
            elif d < best:
                best = d
            z = z_next
        # first and best are the first and the least residual of the steps
        # taken, best kept by `<` so that a nan first residual stays best;
        # with no step taken both are the residual at the last iterate
        last = dist(z, comb(xd, image(0, z), c))
        if first is None:
            first = best = last
        elif last < best:
            best = last
        raise SolverFailure(last, max_iterations, first, best)


def quasilin_from_distances(dxv, dyu, dxu, dyv) -> float:
    return 0.5 * (dxv * dxv + dyu * dyu - dxu * dxu - dyv * dyv)


class Euclidean(SpaceModel):
    def __init__(self, dim: int):
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise GeometryError(f"dimension must be an int, not {dim!r}")
        if dim < 1:
            raise GeometryError("dimension must be >= 1")
        self.dim = self.width = dim
        self.kind = "euclidean"

    def describe(self) -> str:
        return f"euclidean({self.dim})"

    def base_point(self) -> Point:
        return Point.euclidean(*([0.0] * self.dim))

    def _dist(self, a, b):
        n = self.dim
        if n == 2:
            # the comprehension written out: no frame, the same floats,
            # since sum's 0 + t0 + t1 equals t0 + t1 for squares t >= +0.0.
            # That holds for the compensated sum of Python 3.12 on too: it
            # makes one float addition here, t0 + t1, whose correction is
            # that addition's exact rounding error, and adding it back
            # rounds to the same float (an inf or NaN correction is dropped)
            (a0, a1), (b0, b1) = a, b
            return math.sqrt((a0 - b0) ** 2 + (a1 - b1) ** 2)
        if n == 3:
            # three terms: sum over a tuple, which has no frame and sums as
            # sum over the comprehension's list does on every Python; from
            # 3.12 on sum compensates, so a + chain would not give its floats
            (a0, a1, a2), (b0, b1, b2) = a, b
            return math.sqrt(sum(((a0 - b0) ** 2, (a1 - b1) ** 2, (a2 - b2) ** 2)))
        return math.sqrt(sum([(c - d) ** 2 for c, d in zip(a, b)]))

    def _comb(self, a, b, lam):
        if not 0.0 <= lam <= 1.0:
            self._check_lambda(lam)
        mu, n = 1.0 - lam, self.dim
        if n == 2:
            (a0, a1), (b0, b1) = a, b
            return (mu * a0 + lam * b0, mu * a1 + lam * b1)
        if n == 3:
            (a0, a1, a2), (b0, b1, b2) = a, b
            return (mu * a0 + lam * b0, mu * a1 + lam * b1, mu * a2 + lam * b2)
        return tuple([mu * c + lam * d for c, d in zip(a, b)])

    def quasilin(self, x: Point, y: Point, u: Point, v: Point) -> float:
        # pair_quasilins' dot product (y - x) . (v - u), on one row each
        self._require(x, y, u, v)
        return self.pair_quasilins(x.data, y.data, u.data, v.data)[0]

    def pair_dists(self, a, b) -> list:
        self._require_length(b, len(a))
        sqrt = math.sqrt
        if self.dim == 2:
            return [sqrt((a0 - b0) ** 2 + (a1 - b1) ** 2)
                    for a0, a1, b0, b1 in zip(a[::2], a[1::2], b[::2], b[1::2])]
        if self.dim == 3:
            # dist's 3-D branch: a sum over a tuple, no comprehension frame
            return [sqrt(sum(((a0 - b0) ** 2, (a1 - b1) ** 2, (a2 - b2) ** 2)))
                    for a0, a1, a2, b0, b1, b2 in zip(a[::3], a[1::3], a[2::3],
                                                      b[::3], b[1::3], b[2::3])]
        n = self.dim
        return [sqrt(sum([(c - d) ** 2 for c, d in zip(r, s)]))
                for r, s in zip(zip(*[iter(a)] * n), zip(*[iter(b)] * n))]

    def pair_combs(self, a, b, lams) -> list:
        self._require_length(b, len(a))
        self._require_length(a, self.dim * len(lams))
        for lam in lams:
            if not 0.0 <= lam <= 1.0:
                self._check_lambda(lam)
        # comb's formula, one coordinate column at a time, 1 - lam once a row
        n, out = self.dim, list(a)
        mus = [1.0 - lam for lam in lams]
        for i in range(n):
            out[i::n] = [mu * c + lam * d for c, d, mu, lam in zip(a[i::n], b[i::n], mus, lams)]
        return out

    def pair_quasilins(self, x, y, u, v) -> list:
        # quasilin's dot product (w - z) . (t - s) on each row
        for column in (y, u, v):
            self._require_length(column, len(x))
        n = self.dim
        if n == 3:
            # a sum over a tuple, as in quasilin
            return [sum(((b0 - a0) * (d0 - c0), (b1 - a1) * (d1 - c1), (b2 - a2) * (d2 - c2)))
                    for a0, a1, a2, b0, b1, b2, c0, c1, c2, d0, d1, d2 in zip(
                        x[::3], x[1::3], x[2::3], y[::3], y[1::3], y[2::3],
                        u[::3], u[1::3], u[2::3], v[::3], v[1::3], v[2::3])]
        x, y, u, v = (zip(*[iter(column)] * n) for column in (x, y, u, v))
        return [sum([(b - a) * (d - c) for a, b, c, d in zip(r, s, t, w)])
                for r, s, t, w in zip(x, y, u, v)]

    def quasilins(self, column, x: Point, u: Point, dxz) -> list:
        # quasilin's dot product (u - x) . (z - x), u - x hoisted; dxz unread
        self._require(x, u)
        self._require_length(dxz, len(column) // self.dim)
        xd = x.data
        e = [b - a for a, b in zip(xd, u.data)]
        if self.dim == 2:
            # sum's 0 + t0 + t1 written out
            (x0, x1), (e0, e1) = xd, e
            return [0.0 + e0 * (z0 - x0) + e1 * (z1 - x1)
                    for z0, z1 in zip(column[::2], column[1::2])]
        return [sum([f * (d - c) for f, c, d in zip(e, xd, row)])
                for row in zip(*[iter(column)] * self.dim)]

    def fixed_point(self, xd, image, c, tol, max_iterations, turn=None):
        # 2-D rotation kernel: the iterate as two floats, turned by
        # RotationFamily.image's formula, _comb's and _dist's 2-D branches
        # inline (mu * x hoisted); c and the widths are checked once (a bad
        # c raises from the reference loop's first _comb, after
        # image(0, xd)).  The step's sqrt is taken only when its square is
        # within near: sqrt(s) <= tol needs s <= 4 tol^2, and the floor
        # 2^-1000 covers a tol^2 that underflows (tol < 2^-500 < sqrt(s)
        # for s above it).  A stall is replayed by the reference loop,
        # which raises its SolverFailure
        if turn is None or self.dim != 2 or len(xd) != 2 or not 0.0 <= c <= 1.0:
            return super().fixed_point(xd, image, c, tol, max_iterations)
        (a0, a1), mu, sqrt = xd, 1.0 - c, math.sqrt
        m0, m1, cos, sin = mu * a0, mu * a1, turn.cos, turn.sin
        near = max(4.0 * tol * tol, 2.0 ** -1000)
        z0, z1 = a0, a1
        for _ in range(max_iterations):
            b0, b1 = z0 * cos - z1 * sin, z0 * sin + z1 * cos
            n0, n1 = m0 + c * b0, m1 + c * b1
            s = (z0 - n0) ** 2 + (z1 - n1) ** 2
            if s <= near and sqrt(s) <= tol:
                return (n0, n1)
            z0, z1 = n0, n1
        return super().fixed_point(xd, image, c, tol, max_iterations)

    def sampler(self, rng):
        # a direction of dim normals over its norm, and a length of radius
        # times random() ** (1 / dim).  The normals are random.gauss's
        # Box-Muller written out: a normal kept in rng.gauss_next is read
        # and cleared, else a pair is drawn from two random() calls, and
        # its second normal kept; each normal is gauss's mu + z * sigma at
        # (0.0, 1.0), 0.0 + z, which makes -0.0 0.0
        n, origin, power = self.dim, self._origin.data, 1.0 / self.dim
        random, log, sqrt, cos, sin = rng.random, math.log, math.sqrt, math.cos, math.sin
        two_pi = 2.0 * math.pi
        if n == 3:
            def draw(radius, center=None):
                z = rng.gauss_next
                x2pi = random() * two_pi
                g2rad = sqrt(-2.0 * log(1.0 - random()))
                if z is None:
                    g0, g1 = 0.0 + cos(x2pi) * g2rad, 0.0 + sin(x2pi) * g2rad
                    x2pi = random() * two_pi
                    g2rad = sqrt(-2.0 * log(1.0 - random()))
                    g2 = 0.0 + cos(x2pi) * g2rad
                    rng.gauss_next = sin(x2pi) * g2rad
                else:
                    g0, g1, g2 = 0.0 + z, 0.0 + cos(x2pi) * g2rad, 0.0 + sin(x2pi) * g2rad
                    rng.gauss_next = None
                # the general form's sums, over a tuple
                norm = sqrt(sum((g0 * g0, g1 * g1, g2 * g2))) or 1.0
                r = radius * random() ** power
                c0, c1, c2 = origin if center is None else center
                return (c0 + r * g0 / norm, c1 + r * g1 / norm, c2 + r * g2 / norm)
            return draw

        def draw(radius, center=None):
            z = rng.gauss_next
            vec = [] if z is None else [0.0 + z]
            z = None
            while len(vec) < n:
                x2pi = random() * two_pi
                g2rad = sqrt(-2.0 * log(1.0 - random()))
                vec.append(0.0 + cos(x2pi) * g2rad)
                z = sin(x2pi) * g2rad
                if len(vec) < n:
                    vec.append(0.0 + z)
                    z = None
            rng.gauss_next = z
            norm = sqrt(sum([c * c for c in vec])) or 1.0
            r = radius * random() ** power
            return tuple([c + r * v / norm
                          for c, v in zip(origin if center is None else center, vec)])
        return draw


class PoincareDisk(SpaceModel):
    """The open unit disk with the hyperbolic metric d(z, w) =
    2 artanh |(z - w) / (1 - conj(w) z)|."""

    width = 2

    def __init__(self):
        self.kind = "disk"

    def base_point(self) -> Point:
        return Point("disk", (0.0, 0.0))

    def _dist(self, a, b):
        zx, zy = complex(*a), complex(*b)
        try:
            num = abs(zx - zy)
        except OverflowError:
            # a NaN part: abs leaves errno as it was, and raises when a
            # failed atanh left it at ERANGE (|zx - zy| < 2 never overflows)
            return math.nan
        den = abs(1.0 - zy.conjugate() * zx)
        return 2.0 * math.atanh(num / den)

    def pair_dists(self, a, b) -> list:
        # dist's formula row by row; a NaN row is NaN, as in dist, since abs
        # of a NaN part can raise on a stale errno
        self._require_length(b, len(a))
        atanh = math.atanh
        return [math.nan if (w := z - y) != w
                else 2.0 * atanh(abs(w) / abs(1.0 - y.conjugate() * z))
                for z, y in zip(map(complex, a[::2], a[1::2]), map(complex, b[::2], b[1::2]))]

    def pair_combs(self, a, b, lams) -> list:
        # _comb's steps row by row, a's conjugate once a row
        self._require_length(b, len(a))
        self._require_length(a, 2 * len(lams))
        atanh, tanh = math.atanh, math.tanh
        out = []
        for zx, zy, lam in zip(map(complex, a[::2], a[1::2]),
                               map(complex, b[::2], b[1::2]), lams):
            if not 0.0 <= lam <= 1.0:
                self._check_lambda(lam)
            czx = zx.conjugate()
            w = (zy - zx) / (1.0 - czx * zy)
            r = abs(w)
            if r != 0.0:
                w2 = w / r * tanh(0.5 * lam * (2.0 * atanh(r)))
                zx = (w2 + zx) / (1.0 + czx * w2)
            out += (zx.real, zx.imag)
        return out

    def _comb(self, a, b, lam):
        # Moebius-translate a to the origin, walk lam of the distance along
        # the diameter, translate back (the division resets errno for abs)
        if not 0.0 <= lam <= 1.0:
            self._check_lambda(lam)
        zx, zy = complex(*a), complex(*b)
        w = (zy - zx) / (1.0 - zx.conjugate() * zy)
        r = abs(w)
        if r == 0.0:
            return a
        total = 2.0 * math.atanh(r)
        step = math.tanh(0.5 * lam * total)
        w2 = w / r * step
        z = (w2 + zx) / (1.0 + zx.conjugate() * w2)
        return (z.real, z.imag)

    def fixed_point(self, xd, image, c, tol, max_iterations, turn=None):
        # rotation kernel: the iterate as a complex number, turned by a
        # product with the turn's unit, whose floats are
        # RotationFamily.image's (a*cos - b*sin, a*sin + b*cos); x's
        # conjugate hoisted, _comb and _dist inline.  c and the width are
        # checked once (a bad c raises from the reference loop's first
        # _comb, after image(0, xd)).  The step's atanh is taken only when
        # its Euclidean length is within near = 2 tol: on the disk
        # |1 - conj(n) z| < 2, so its quotient exceeds step / 2 and
        # 2 atanh(q) >= 2q > tol once step > 2 tol.  A stall is replayed by
        # the reference loop, which raises its SolverFailure.  xd itself is
        # returned for x's own value, as _comb returns its first argument
        # when it does not move
        if turn is None or len(xd) != 2 or not 0.0 <= c <= 1.0:
            return super().fixed_point(xd, image, c, tol, max_iterations)
        zx = complex(*xd)
        czx, half_c, atanh, tanh = zx.conjugate(), 0.5 * c, math.atanh, math.tanh
        unit, near = turn.unit, 2.0 * tol
        cur = zx
        for _ in range(max_iterations):
            zy = cur * unit
            w = (zy - zx) / (1.0 - czx * zy)
            r = abs(w)
            if r == 0.0:
                nxt = zx
            else:
                w2 = w / r * tanh(half_c * (2.0 * atanh(r)))
                nxt = (w2 + zx) / (1.0 + czx * w2)
            step = abs(cur - nxt)
            if step <= near and 2.0 * atanh(step / abs(1.0 - nxt.conjugate() * cur)) <= tol:
                return xd if nxt is zx else (nxt.real, nxt.imag)
            cur = nxt
        return super().fixed_point(xd, image, c, tol, max_iterations)

    def sampler(self, rng):
        # an angle of random.uniform(0.0, 2 pi), written out as uniform's
        # a + (b - a) * random(), and a hyperbolic length of radius times
        # random(), Moebius-translated from the origin to center
        random, tanh, exp = rng.random, math.tanh, cmath.exp
        two_pi, origin = 2.0 * math.pi, complex(*self._origin.data)
        edge = 1.0 - 2.0 * DISK_MARGIN

        def draw(radius, center=None):
            ang = 0.0 + two_pi * random()
            hyp = radius * random()
            w = tanh(0.5 * hyp) * exp(1j * ang)
            zc = origin if center is None else complex(*center)
            z = (w + zc) / (1.0 + zc.conjugate() * w)
            # clamp just inside the margin; only reachable for extreme radii
            if abs(z) >= edge:
                z *= edge / abs(z)
            return (z.real, z.imag)
        return draw


class Tripod(SpaceModel):
    """Three half-lines glued at a center: the simplest non-Hilbert CAT(0)
    model.  Intra-leg distance |s - t|, inter-leg distance s + t."""

    width = 2

    def __init__(self):
        self.kind = "tripod"

    def base_point(self) -> Point:
        return Point("tripod", (0, 0.0))

    def _dist(self, a, b):
        (lx, sx), (ly, sy) = a, b
        if lx == ly or sx == 0.0 or sy == 0.0:
            return abs(sx - sy)
        return sx + sy

    def rows(self, column) -> Iterator[tuple]:
        # a leg read from the column is a float; the data's leg is an int
        return zip(map(int, column[::2]), column[1::2])

    def pair_dists(self, a, b) -> list:
        self._require_length(b, len(a))
        return [abs(s - t) if l == m or s == 0.0 or t == 0.0 else s + t
                for l, s, m, t in zip(a[::2], a[1::2], b[::2], b[1::2])]

    def pair_combs(self, a, b, lams) -> list:
        # _comb's steps row by row; a leg read from a column is a float
        self._require_length(b, len(a))
        self._require_length(a, 2 * len(lams))
        inf, out = math.inf, []
        for lx, sx, ly, sy, lam in zip(a[::2], a[1::2], b[::2], b[1::2], lams):
            if not 0.0 <= lam <= 1.0:
                self._check_lambda(lam)
            if lx == ly or sx == 0.0 or sy == 0.0:
                leg = ly if sx == 0.0 else lx
                s = (1.0 - lam) * sx + lam * sy
            else:
                delta = lam * (sx + sy)
                if delta <= sx:
                    leg, s = lx, sx - delta
                else:
                    leg, s = ly, delta - sx
            if s == 0.0:
                leg = 0
            elif not 0.0 < s < inf:
                raise GeometryError(_TRIPOD_LENGTH)
            out += (leg, s)
        return out

    def _comb(self, a, b, lam):
        if not 0.0 <= lam <= 1.0:
            self._check_lambda(lam)
        (lx, sx), (ly, sy) = a, b
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

    def fixed_point(self, xd, image, c, tol, max_iterations, turn=None):
        # rotation kernel: the iterate as (leg, s), its leg shifted as
        # RotationFamily.image does (the center stays on leg 0), _comb and
        # _dist inline (mu * sx hoisted); c and the width are checked once
        # (a bad c raises from the reference loop's first _comb, after
        # image(0, xd)).  A stall is replayed by the reference loop, which
        # raises its SolverFailure
        if turn is None or len(xd) != 2 or not 0.0 <= c <= 1.0:
            return super().fixed_point(xd, image, c, tol, max_iterations)
        (lx, sx), inf = xd, math.inf
        msx, shift = (1.0 - c) * sx, turn.shift
        lz, sz = lx, sx
        for _ in range(max_iterations):
            ly, sy = (lz + shift) % 3 if sz != 0.0 else 0, sz
            if lx == ly or sx == 0.0 or sy == 0.0:
                leg = ly if sx == 0.0 else lx
                s = msx + c * sy
            else:
                delta = c * (sx + sy)
                if delta <= sx:
                    leg, s = lx, sx - delta
                else:
                    leg, s = ly, delta - sx
            if s == 0.0:
                leg = 0
            elif not 0.0 < s < inf:
                raise GeometryError(_TRIPOD_LENGTH)
            d = abs(sz - s) if lz == leg or sz == 0.0 or s == 0.0 else sz + s
            if d <= tol:
                return (leg, s)
            lz, sz = leg, s
        return super().fixed_point(xd, image, c, tol, max_iterations)

    def sampler(self, rng):
        # around the base point, a leg of random.randrange(3) and an arm of
        # radius times random(); around a center, its arm moved by
        # random.uniform(-radius, radius), written out as uniform's
        # a + (b - a) * random(), and a negative arm reflected onto a leg
        # of randrange(3).  randrange(3) is written out as
        # random.py's _randbelow_with_getrandbits(3): two bits until they
        # are below 3.  The length is checked as Point.tripod checks it,
        # after the leg is drawn
        random, getrandbits, inf = rng.random, rng.getrandbits, math.inf

        def draw(radius, center=None):
            if center is None:
                leg = getrandbits(2)
                while leg >= 3:
                    leg = getrandbits(2)
                s = radius * random()
            else:
                leg, s = center
                s += -radius + (radius - -radius) * random()
                if not s >= 0.0:
                    leg = getrandbits(2)
                    while leg >= 3:
                        leg = getrandbits(2)
                    s = -s
            if not 0.0 <= s < inf:
                raise GeometryError(_TRIPOD_LENGTH)
            if s == 0.0:
                leg = 0  # all legs share the center
            return (leg, s)
        return draw


def make_model(kind: str, dim: int = 2) -> SpaceModel:
    kind = kind.lower()
    if kind in ("euclidean", "euclid"):
        return Euclidean(dim)
    if kind in ("disk", "poincare-disk", "poincare"):
        return PoincareDisk()
    if kind == "tripod":
        return Tripod()
    raise GeometryError(f"unknown space kind {kind!r}")


# ---------------------------------------------------------------------------
# Axiom checkers
#
# Each checker draws its samples in blocks of SAMPLE_BLOCK, with the rng
# calls of one sample at a time, into one coordinate column per variable:
# each point is one call of the draw space.sampler returns, its tuple added
# to the column.
# It computes each axiom's residuals on a block as a column, through the
# model's pair kernels, and notes it with note_rows; a kept row's
# worst_case_inputs are rebuilt from the columns.  Memory is one block's.
# ---------------------------------------------------------------------------

SAMPLE_BLOCK = 1024


def _blocks(count: int) -> Iterator[int]:
    """The sizes of the blocks that draw count samples in order."""
    for start in range(0, count, SAMPLE_BLOCK):
        yield min(SAMPLE_BLOCK, count - start)


def _sample_inputs(space: SpaceModel, rows: int, points: dict, scalars: dict):
    """note_rows' inputs for a block of rows samples: row n's entry of
    every column, under its key, in the order of points and then scalars;
    a point's data is rebuilt from its coordinate column by space.rows
    (a tripod leg as an int)."""
    def inputs(n, _column):
        desc = {}
        for key, column in points.items():
            width = len(column) // rows
            desc[key] = next(space.rows(column[n * width:(n + 1) * width]))
        for key, column in scalars.items():
            desc[key] = column[n]
        return desc
    return inputs


def check_w_axioms(space: SpaceModel, spec: SampleSpec, tol: float = 1e-9):
    """Sample tuples (x, y, z, w, lam, theta) and measure the worst violation
    of each convexity axiom of the combination operation."""
    rng = random.Random(spec.seed)
    reports = [AxiomReport(name, spec.count, tol=tol) for name in ("W1", "W2", "W3", "W4")]
    w1, w2, w3, w4 = reports
    R, draw, rand = spec.radius, space.sampler(rng), rng.random
    pair_combs, pair_dists = space.pair_combs, space.pair_dists
    for rows in _blocks(spec.count):
        xs, ys, zs, ws, lams, thetas = [], [], [], [], [], []
        for _ in range(rows):
            xs += draw(R)
            ys += draw(R)
            zs += draw(R)
            ws += draw(R)
            lams.append(rand())
            thetas.append(rand())
        inputs = _sample_inputs(space, rows, {"x": xs, "y": ys, "z": zs, "w": ws},
                                {"lambda": lams, "theta": thetas})
        cxy, dxy = pair_combs(xs, ys, lams), pair_dists(xs, ys)
        w1.note_rows([[a - ((1 - lam) * b + lam * c) for a, b, c, lam in zip(
            pair_dists(zs, cxy), pair_dists(zs, xs), pair_dists(zs, ys), lams)]], inputs)
        w2.note_rows([[abs(a - abs(lam - theta) * b) for a, b, lam, theta in zip(
            pair_dists(cxy, pair_combs(xs, ys, thetas)), dxy, lams, thetas)]], inputs)
        w3.note_rows([pair_dists(cxy, pair_combs(ys, xs, [1.0 - lam for lam in lams]))],
                     inputs)
        w4.note_rows([[a - ((1 - lam) * b + lam * c) for a, b, c, lam in zip(
            pair_dists(pair_combs(xs, zs, lams), pair_combs(ys, ws, lams)), dxy,
            pair_dists(zs, ws), lams)]], inputs)
    return reports


def check_cn(space: SpaceModel, spec: SampleSpec, tol: float = 1e-9):
    """Check the midpoint inequality (CN-) and its lambda-weighted form
    (CN+); a positive violation means the inequality failed.  For flat
    models an extra "CN- equality" entry records the absolute residual of
    the midpoint inequality, which is an identity there (in the curved
    models the inequality is strict, so no equality claim is made)."""
    rng = random.Random(spec.seed)
    minus, plus, eq = (AxiomReport(name, spec.count, tol=tol)
                       for name in ("CN-", "CN+", "CN- equality"))
    flat = space.kind == "euclidean"
    R, draw, rand = spec.radius, space.sampler(rng), rng.random
    pair_combs, pair_dists = space.pair_combs, space.pair_dists
    for rows in _blocks(spec.count):
        xs, ys, zs, lams = [], [], [], []
        for _ in range(rows):
            xs += draw(R)
            ys += draw(R)
            zs += draw(R)
            lams.append(rand())
        inputs = _sample_inputs(space, rows, {"x": xs, "y": ys, "z": zs}, {"lambda": lams})
        d2_zx = [d ** 2 for d in pair_dists(zs, xs)]
        d2_zy = [d ** 2 for d in pair_dists(zs, ys)]
        d2_xy = [d ** 2 for d in pair_dists(xs, ys)]
        res_minus = [d ** 2 - (0.5 * a + 0.5 * b - 0.25 * c) for d, a, b, c in zip(
            pair_dists(zs, pair_combs(xs, ys, [0.5] * rows)), d2_zx, d2_zy, d2_xy)]
        minus.note_rows([res_minus], inputs)
        if flat:
            eq.note_rows([[abs(v) for v in res_minus]], inputs)
        plus.note_rows([[d ** 2 - ((1 - lam) * a + lam * b - lam * (1 - lam) * c)
                         for d, a, b, c, lam in zip(
                             pair_dists(zs, pair_combs(xs, ys, lams)), d2_zx, d2_zy, d2_xy,
                             lams)]], inputs)
    return [minus, plus, eq] if flat else [minus, plus]


def check_uniform_convexity(space: SpaceModel, spec: SampleSpec, tol: float = 1e-9):
    """Sample (r, a, x, y) with x, y in the ball of radius r around a and
    check d(a, midpoint) <= (1 - eps^2/8) r for eps = d(x, y)/r.  A sample
    with eps > 2, which cannot occur inside the ball, is skipped (its
    residual is -inf, which no report keeps)."""
    rng = random.Random(spec.seed)
    report = AxiomReport("uniform convexity eps^2/8", spec.count, tol=tol)
    R, draw, rand = spec.radius, space.sampler(rng), rng.random
    # r is rng.uniform(0.05 R, R), written out as uniform's a + (b - a) * random()
    low = 0.05 * R
    span = R - low
    pair_combs, pair_dists = space.pair_combs, space.pair_dists
    for rows in _blocks(spec.count):
        as_, xs, ys, rs = [], [], [], []
        for _ in range(rows):
            a = draw(R)
            r = low + span * rand()
            as_ += a
            xs += draw(r, a)
            ys += draw(r, a)
            rs.append(r)
        eps = [d / r for d, r in zip(pair_dists(xs, ys), rs)]
        report.note_rows([[-math.inf if e > 2.0 else d - (1.0 - e * e / 8.0) * r
                           for d, e, r in zip(
                               pair_dists(as_, pair_combs(xs, ys, [0.5] * rows)), eps, rs)]],
                         _sample_inputs(space, rows, {"a": as_, "x": xs, "y": ys},
                                        {"r": rs, "eps": eps}))
    return [report]


def _distance_quasilins(pair_dists, xs, ys, us, vs, ws):
    """The columns <xy, uv>, <xy, xy>, <uv, xy>, <yx, uv>, <xy, vw> and
    <xy, uw>, then d(x, y) and d(u, v), on a model whose quasilin is
    SpaceModel.quasilin: quasilin_from_distances written out on the squares
    of 10 pair_dists columns, each quasilin's four distances in quasilin's
    order, d(b, a) read as d(a, b) (pair_dists is symmetric to the bit).
    d(x, x) and d(y, y) are computed: 0.0 for every point a model accepts,
    but not for an infinite tripod arm."""
    dxy, duv = pair_dists(xs, ys), pair_dists(us, vs)
    xy, xu, xv, xw, yu, yv, yw, xx, yy = (
        [d * d for d in column] for column in (
            dxy, pair_dists(xs, us), pair_dists(xs, vs), pair_dists(xs, ws),
            pair_dists(ys, us), pair_dists(ys, vs), pair_dists(ys, ws),
            pair_dists(xs, xs), pair_dists(ys, ys)))
    return ([0.5 * (a + b - c - d) for a, b, c, d in zip(xv, yu, xu, yv)],
            [0.5 * (a + b - c - d) for a, b, c, d in zip(xy, xy, xx, yy)],
            [0.5 * (a + b - c - d) for a, b, c, d in zip(yu, xv, xu, yv)],
            [0.5 * (a + b - c - d) for a, b, c, d in zip(yv, xu, yu, xv)],
            [0.5 * (a + b - c - d) for a, b, c, d in zip(xw, yv, xv, yw)],
            [0.5 * (a + b - c - d) for a, b, c, d in zip(xw, yu, xu, yw)],
            dxy, duv)


def check_quasilin_axioms(space: SpaceModel, spec: SampleSpec, tol: float = 1e-9):
    """Check the four characterizing identities of quasilinearization and
    the Cauchy-Schwarz inequality.  On a model whose quasilin is built from
    distances a block reads 10 distance columns (_distance_quasilins); on
    Euclidean space, six pair_quasilins columns and two pair_dists ones."""
    rng = random.Random(spec.seed)
    reports = [AxiomReport(name, spec.count, tol=tol)
               for name in ("ql-square", "ql-symmetry", "ql-antisymmetry",
                            "ql-additivity", "cauchy-schwarz")]
    square, symmetry, antisymmetry, additivity, cauchy_schwarz = reports
    R, draw, pair_dists = spec.radius, space.sampler(rng), space.pair_dists
    from_distances = type(space).quasilin is SpaceModel.quasilin
    for rows in _blocks(spec.count):
        xs, ys, us, vs, ws = [], [], [], [], []
        for _ in range(rows):
            xs += draw(R)
            ys += draw(R)
            us += draw(R)
            vs += draw(R)
            ws += draw(R)
        inputs = _sample_inputs(space, rows, {"x": xs, "y": ys, "u": us, "v": vs, "w": ws}, {})
        if from_distances:
            q, qxy, quv, qyx, qvw, quw, dxy, duv = _distance_quasilins(
                pair_dists, xs, ys, us, vs, ws)
        else:
            ql = space.pair_quasilins
            q, qxy, quv, qyx, qvw, quw, dxy, duv = (
                ql(xs, ys, us, vs), ql(xs, ys, xs, ys), ql(us, vs, xs, ys), ql(ys, xs, us, vs),
                ql(xs, ys, vs, ws), ql(xs, ys, us, ws), pair_dists(xs, ys), pair_dists(us, vs))
        square.note_rows([[abs(a - d ** 2) for a, d in zip(qxy, dxy)]], inputs)
        symmetry.note_rows([[abs(a - b) for a, b in zip(q, quv)]], inputs)
        antisymmetry.note_rows([[abs(a + b) for a, b in zip(q, qyx)]], inputs)
        additivity.note_rows([[abs(a + b - c) for a, b, c in zip(q, qvw, quw)]], inputs)
        cauchy_schwarz.note_rows([[a - d * e for a, d, e in zip(q, dxy, duv)]], inputs)
    return reports


def run_all_geometry_checks(space: SpaceModel, spec: SampleSpec, tol: float = 1e-9):
    reports = []
    reports += check_w_axioms(space, spec, tol)
    reports += check_cn(space, spec, tol)
    reports += check_uniform_convexity(space, spec, tol)
    reports += check_quasilin_axioms(space, spec, tol)
    return reports
