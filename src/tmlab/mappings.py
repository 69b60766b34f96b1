"""Nonexpansive mapping families over the geometry models.

Every family is an indexed collection (T_n) of 1-Lipschitz self-maps with a
known common fixed point.  The derived families (constant, resolvent) take
their base map T as a family and use its member T_0 and its fixed point.
Empirical checkers cover nonexpansiveness, the step-size compatibility
inequality
    d(T_n x, T_m x) <= (|gamma_m - gamma_n| / gamma_n) d(T_n x, x)
and approximate-fixed-point membership.
"""

from __future__ import annotations

import math
import random
from array import array
from itertools import chain
from typing import Callable, Optional

from .geometry import (
    AxiomReport,
    Euclidean,
    GeometryError,
    Point,
    SampleSpec,
    SolverFailure,  # re-exported: raised by SpaceModel.fixed_point
    SpaceModel,
    Tripod,
    Turn,
)
from .schedules import chi_T


class MappingFamily:
    """Base class: an indexed family of nonexpansive self-maps."""

    name = "family"
    # True when image does not read n, so every T_n is the one map T_0 and
    # each T_n x equals T_0 x to the bit; checks may then reuse one image
    members_coincide = False

    def __init__(self, space: SpaceModel, fixed_point: Point):
        self.space = space
        self.fixed_point = fixed_point
        self.gammas: Optional[Callable[[int], float]] = None

    def apply(self, n: int, x: Point) -> Point:
        """T_n x: x checked, then image (x itself when image gives x's data)."""
        space, xd = self.space, x.data
        if x.kind != space.kind or len(xd) != space.width:
            space._require(x)
        data = self.image(n, xd)
        return x if data is xd else tuple.__new__(Point, (space.kind, data))

    def image(self, n: int, data: tuple) -> tuple:
        """The data of T_n x for x of this data, unchecked: a family writes
        its map here (and in images), and apply follows.  This default, for a
        family that defines apply alone, applies it to the rebuilt Point."""
        if type(self).apply is MappingFamily.apply:
            raise NotImplementedError(f"{type(self).__name__} defines neither image nor apply")
        space = self.space
        y = self.apply(n, tuple.__new__(Point, (space.kind, data)))
        space._require(y)
        return y.data

    def images(self, column, ns) -> array:
        """The column of T_{n_i} z_i for every row z_i of the coordinate
        column (the Trajectory layout) and its index n_i from the iterable
        ns, one a row; a row count that is not that of ns raises
        GeometryError.  This form calls image on each row's data in row
        order, and is the only one that meets a SolverFailure: it raises it
        with ``images``, the column of the rows before the failing one, set
        on it.  A subclass that changes image changes this too, so that the
        two give the same floats."""
        ns, space = list(ns), self.space
        space._require_length(column, space.width * len(ns))
        out, image = array("d"), self.image
        try:
            for n, z in zip(ns, space.rows(column)):
                out.extend(image(n, z))
        except SolverFailure as exc:
            exc.images = out
            raise
        return out

    def chi_T_fn(self, bundle, K: int, cap: Optional[int] = None) -> Callable[[int], int]:
        """Cauchy modulus for the series sum_n d(T_{n+1} u_n, T_n u_n).

        Families whose members all coincide have a zero series; families
        driven by a step-size sequence inherit the modulus built from the
        schedule's gamma data, which raises CapExceeded past cap bits.
        """
        if self.gammas is None:
            return lambda k: 0
        return lambda k: chi_T(bundle, K, k, cap)


class IdentityFamily(MappingFamily):
    name = "identity"
    members_coincide = True

    def __init__(self, space: SpaceModel, fixed_point: Optional[Point] = None):
        super().__init__(space, fixed_point or space.base_point())

    def image(self, n, data):
        return data

    def images(self, column, ns):
        self.space._require_length(column, self.space.width * len(list(ns)))
        return array("d", column)


class ConstantFamily(MappingFamily):
    """T_n = T for the single nonexpansive map T = base_0 of a base family."""

    name = "constant"
    members_coincide = True

    def __init__(self, space, base: MappingFamily):
        super().__init__(space, base.fixed_point)
        self.base = base

    def image(self, n, data):
        return self.base.image(0, data)


class RotationFamily(MappingFamily):
    """A rotation fixing the base point: a plane rotation on Euclidean(2),
    a rotation about the origin of the disk, and a cyclic leg permutation
    on the tripod.  All are isometries fixing the base point."""

    name = "rotation"
    members_coincide = True

    def __init__(self, space: SpaceModel, angle: float):
        if isinstance(space, Euclidean) and space.dim != 2:
            raise GeometryError("rotation requires a two-dimensional model")
        super().__init__(space, space.base_point())
        self.angle = float(angle)
        self._cos = math.cos(self.angle)
        self._sin = math.sin(self.angle)
        # tripod analogue: shift legs by the nearest third of a full turn;
        # where 3 * angle overflows, the same quotient is taken the other way
        thirds = 3.0 * self.angle
        thirds = (thirds / (2.0 * math.pi) if math.isfinite(thirds)
                  else self.angle / (2.0 * math.pi / 3.0))
        self._shift = round(thirds) % 3
        self._on_tripod = isinstance(space, Tripod)
        self.turn = Turn(self._cos, self._sin, complex(self._cos, self._sin), self._shift)

    def image(self, n, data):
        # an isometry maps valid points to valid points: no factory checks
        a, b = data
        if self._on_tripod:
            # (a, b) is (leg, s); all legs share the center, which is leg 0
            # (as in Point.tripod)
            return ((a + self._shift) % 3 if b != 0.0 else 0, b)
        return (a * self._cos - b * self._sin, a * self._sin + b * self._cos)

    def images(self, column, ns):
        # image's formula on the coordinate pairs, one output column at a time
        self.space._require_length(column, 2 * len(list(ns)))
        first, second, out = column[::2], column[1::2], array("d", column)
        if self._on_tripod:
            shift = self._shift
            out[::2] = array("d", [(a + shift) % 3 if b != 0.0 else 0
                                   for a, b in zip(first, second)])
            return out
        cos, sin = self._cos, self._sin
        out[::2] = array("d", [a * cos - b * sin for a, b in zip(first, second)])
        out[1::2] = array("d", [a * sin + b * cos for a, b in zip(first, second)])
        return out


class MetricProjectionFamily(MappingFamily):
    """Metric projection onto the closed geodesic ball of the given center
    and radius, realized by moving along the geodesic toward the center;
    nonexpansive in any CAT(0) model."""

    name = "projection"
    members_coincide = True

    def __init__(self, space: SpaceModel, center: Point, radius: float):
        if radius <= 0:
            raise GeometryError("ball radius must be positive")
        space._require(center)  # image reads its data unchecked
        super().__init__(space, center)
        self.center = center
        self.radius = radius

    def image(self, n, data):
        space, c = self.space, self.center.data
        d = space._dist(data, c)
        if d <= self.radius:
            return data
        return space._comb(c, data, self.radius / d)

    def images(self, column, ns):
        # image's distance test on the whole column; the rows outside the
        # ball take image's comb, on their data
        space, c, r, comb = self.space, self.center.data, self.radius, self.space._comb
        space._require_length(column, space.width * len(list(ns)))
        return array("d", chain.from_iterable(
            z if d <= r else comb(c, z, r / d)
            for z, d in zip(space.rows(column), space.dists(column, self.center))))


class ProximalFamily(MappingFamily):
    """Proximal maps T_n = prox_{gamma_n f} of f = d^2(., center)/2: the prox
    moves x toward the center by the fraction gamma_n/(1 + gamma_n) of the
    geodesic.  (The prox of a ball indicator is MetricProjectionFamily.)"""

    name = "proximal"

    def __init__(self, space, center: Point, gammas: Callable[[int], float]):
        space._require(center)  # image reads its data unchecked
        super().__init__(space, center)
        self.center = center
        self.gammas = gammas

    def image(self, n, data):
        g = self.gammas(n)
        return self.space._comb(data, self.center.data, g / (1.0 + g))

    def images(self, column, ns):
        # image's comb on the whole column
        return self.space.combs(column, self.center,
                                [g / (1.0 + g) for g in map(self.gammas, ns)])


class ResolventFamily(MappingFamily):
    """Resolvents J_n of the nonexpansive map T = base_0 of a base family of
    this model (another is refused: its image reads data unchecked): the
    fixed point z of z -> (1 - c) x + c T(z), c = gamma_n / (1 + gamma_n),
    solved on x's data by SpaceModel.fixed_point over the base's image
    (contraction factor c < 1).  A rotation base hands the solve its Turn,
    whose kernel then rotates the iterate without calling image."""

    name = "resolvent"

    def __init__(
        self,
        space,
        base: MappingFamily,
        gammas: Callable[[int], float],
        inner_tol: float = 1e-12,
        max_iterations: int = 10_000,
    ):
        if base.space.kind != space.kind or base.space.width != space.width:
            raise GeometryError(f"resolvent base of model {base.space.describe()} "
                                f"used in model {space.describe()}")
        super().__init__(space, base.fixed_point)
        self.base = base
        self.gammas = gammas
        self.inner_tol = inner_tol
        self.max_iterations = max_iterations
        self._turn = base.turn if isinstance(base, RotationFamily) else None

    def image(self, n, data):
        g = self.gammas(n)
        return self.space.fixed_point(data, self.base.image, g / (1.0 + g),
                                      self.inner_tol, self.max_iterations, self._turn)


# ---------------------------------------------------------------------------
# Empirical checks
# ---------------------------------------------------------------------------


def check_nonexpansive(
    family: MappingFamily,
    n_max: int,
    spec: SampleSpec,
    tol: float = 1e-9,
) -> AxiomReport:
    """d(T_n x, T_n y) <= d(x, y) for sampled pairs and all n <= n_max."""
    rng = random.Random(spec.seed)
    space = family.space
    report = AxiomReport(f"nonexpansive[{family.name}]", spec.count, tol=tol)
    for _ in range(spec.count):
        x = space.sample(rng, spec.radius)
        y = space.sample(rng, spec.radius)
        dxy = space.dist(x, y)
        for n in range(n_max + 1):
            report.note(space.dist(family.apply(n, x), family.apply(n, y)) - dxy,
                        {"x": x.data, "y": y.data, "n": n})
    return report


def check_condition_c1(
    family: MappingFamily,
    gammas: Callable[[int], float],
    n_max: int,
    spec: SampleSpec,
    tol: float = 1e-9,
) -> AxiomReport:
    """d(T_n x, T_m x) <= (|gamma_m - gamma_n| / gamma_n) d(T_n x, x)."""
    for n in range(n_max + 1):
        if gammas(n) <= 0:
            raise GeometryError(f"gamma_{n} must be positive")
    rng = random.Random(spec.seed)
    space = family.space
    report = AxiomReport(f"condition-c1[{family.name}]", spec.count, tol=tol)
    for _ in range(spec.count):
        x = space.sample(rng, spec.radius)
        images = [family.apply(n, x) for n in range(n_max + 1)]
        for n in range(n_max + 1):
            gn = gammas(n)
            dref = space.dist(images[n], x)
            for m in range(n_max + 1):
                lhs = space.dist(images[n], images[m])
                rhs = abs(gammas(m) - gn) / gn * dref
                report.note(lhs - rhs, {"x": x.data, "n": n, "m": m})
    return report


def check_afp_membership(
    family: MappingFamily,
    x: Point,
    p: Point,
    K: int,
    k: int,
    n_max: int,
) -> bool:
    """x is a common 1/k-approximate fixed point (up to index n_max) lying
    in the closed ball of radius K around p."""
    if k < 1:
        raise GeometryError("k must be >= 1")
    space = family.space
    if space.dist(x, p) > K + 1e-9:
        return False
    bound = 1.0 / k
    return all(
        space.dist(x, family.apply(n, x)) <= bound for n in range(n_max + 1)
    )
