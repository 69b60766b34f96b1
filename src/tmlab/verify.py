"""Empirical verification of the quantitative statements.

Every check returns a CheckResult carrying pass/fail, hypothesis status,
the witness index on failure and the horizons used, so a single failing
instance can be re-run in isolation.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from typing import Callable, Optional, Sequence

from .geometry import AxiomReport, Point, SpaceModel
from .mappings import MappingFamily
from .rates import (CapExceeded, Counterfunction, RateValue, capped, omega1, omega2, zeta,
                    zeta_star)
from .schedules import ScheduleBundle
from .engine import Trajectory


class VerifyError(ValueError):
    pass


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    hypothesis_status: str = "met"  # "met" | "unmet" | "n/a"
    witness: Optional[dict] = None
    horizons: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    scenario_hash: str = ""

    def to_json(self):
        return {
            "check_id": self.check_id,
            "scenario_hash": self.scenario_hash,
            "pass": self.passed,
            "hypothesis_status": self.hypothesis_status,
            "witnesses": self.witness,
            "horizons": self.horizons,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# Asymptotic-regularity checks
# ---------------------------------------------------------------------------


def _suffix_first_hit(values: Sequence[float], bound: float) -> int:
    """Least n such that every value from n on stays below the bound; a
    NaN counts as a value above it."""
    hit = len(values)
    for value in reversed(values):
        if not value <= bound:
            break
        hit -= 1
    return hit


def _ar_check(check_id, values, rate, k, cap, tol, scenario_hash) -> CheckResult:
    if k < 0:
        raise VerifyError(f"{check_id}: k {k} is negative")
    if cap < 0:
        raise VerifyError(f"{check_id}: cap {cap} is negative")
    bound = 1.0 / (k + 1) + tol
    end = len(values)
    start_cap = min(cap, end)
    if rate.is_astronomical:
        start = start_cap
        flagged = "rate astronomical; bound comparison vacuous"
    else:
        start = min(int(rate.value), start_cap)
        flagged = ""
    if end <= start:
        raise VerifyError(
            f"{check_id}: trajectory of length {end} too short for start {start}"
        )
    first_hit = _suffix_first_hit(values, bound)
    # every value from start on is within the bound exactly when first_hit
    # <= start, and start <= rate, so then rate >= first_hit too
    passed = first_hit <= start
    bad = None
    if not passed:  # the first NaN, else the first violation from start on
        bad = next((i for i, value in enumerate(values) if value != value), None)
        if bad is None:
            bad = next(i for i in range(start, end) if not values[i] <= bound)
    return CheckResult(
        check_id=check_id,
        passed=passed,
        witness=None if bad is None else {"n": bad, "value": values[bad]},
        horizons={"suffix_start": start, "cap": cap, "length": end},
        details={
            "k": k,
            "first_hit": first_hit,
            "rate": rate.render(),
            "flag": flagged,
        },
        scenario_hash=scenario_hash,
    )


def check_ar(
    traj: Trajectory,
    rate: RateValue,
    k: int,
    cap: int,
    tol: float = 1e-9,
) -> CheckResult:
    """Successive-step distances d(x_n, x_{n+1}) below 1/(k+1) from the
    rate on, and the empirical first-hit index never exceeds the rate."""
    return _ar_check("ar", traj.d_step, rate, k, cap, tol, traj.scenario_hash)


def check_family_ar(
    traj: Trajectory,
    family: MappingFamily,
    rate: RateValue,
    k: int,
    cap: int,
    tol: float = 1e-9,
) -> CheckResult:
    return _ar_check("family-ar", traj.d_Tn, rate, k, cap, tol, traj.scenario_hash)


def check_Tm_ar(
    traj: Trajectory,
    family: MappingFamily,
    m: int,
    rate: RateValue,
    k: int,
    cap: int,
    tol: float = 1e-9,
) -> CheckResult:
    """d(x_n, T_m x_n) below 1/(k+1) from the rate on, for m >= 0.  On the
    run's own family, when its members coincide, T_m x_n is T_n x_n and the
    values are the run's d(x_n, T_n x_n), computed in the same argument
    order; otherwise the family maps the x column with ``images``."""
    check_id = f"Tm-ar[m={m}]"
    if m < 0:
        raise VerifyError(f"{check_id}: m {m} is negative")
    if family is traj.family and family.members_coincide:
        values = traj.d_Tn
    else:
        values = traj.space.pair_dists(traj.x, family.images(traj.x, repeat(m, len(traj))))
    return _ar_check(check_id, values, rate, k, cap, tol, traj.scenario_hash)


# ---------------------------------------------------------------------------
# Metastability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetastabilityQuery:
    k: int
    f: Counterfunction
    cap: int

    def __post_init__(self):
        if self.cap < 1:
            raise VerifyError("search cap must be >= 1")


@dataclass
class MetastabilitySearch:
    found: Optional[int]
    truncated: bool
    scanned: int


def search_metastable(
    traj: Trajectory, query: MetastabilityQuery, tol: float = 1e-9
) -> MetastabilitySearch:
    """Least n <= cap with all pairwise distances on {n, ..., f(n)} below
    1/(k+1); windows with f(n) < n hold vacuously."""
    bound = 1 / (query.k + 1) + tol
    length, space, w = len(traj), traj.space, traj.width
    dist = space._dist  # on the rows' data, which the run made
    xs = []  # x_0, x_1, ... as far as a window has reached
    truncated = False
    for n in range(min(query.cap, length) + 1):
        end = capped(query.f, n, length.bit_length(), length)
        if end < n:
            return MetastabilitySearch(found=n, truncated=False, scanned=n)
        if end >= length:
            truncated = True
            break
        if end >= len(xs):
            xs += space.rows(traj.x[len(xs) * w:(end + 1) * w])
        if _window_ok(xs[n:end + 1], dist, bound):
            return MetastabilitySearch(found=n, truncated=False, scanned=n)
    return MetastabilitySearch(found=None, truncated=truncated, scanned=n)


def _window_ok(pts, dist, bound) -> bool:
    """Every pairwise distance in pts is at most the bound; NaN is not."""
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if not dist(pts[i], pts[j]) <= bound:
                return False
    return True


def check_mu(
    traj: Trajectory,
    query: MetastabilityQuery,
    mu_value: RateValue,
    tol: float = 1e-9,
) -> CheckResult:
    """Searched metastability index against the computed rate bound."""
    search = search_metastable(traj, query, tol)
    flag = ""
    if mu_value.is_astronomical:
        flag = "bound not informative at desk scale"
    if search.found is None:
        return CheckResult(
            check_id="metastability-bound",
            passed=False,
            hypothesis_status="n/a",
            witness={"search": "none found", "truncated": search.truncated},
            horizons={"cap": query.cap, "length": len(traj)},
            details={"k": query.k, "f": query.f.render(), "mu": mu_value.render()},
            scenario_hash=traj.scenario_hash,
        )
    ok = mu_value >= search.found
    return CheckResult(
        check_id="metastability-bound",
        passed=ok,
        witness=None if ok else {"searched_n": search.found},
        horizons={"cap": query.cap, "length": len(traj)},
        details={
            "k": query.k,
            "f": query.f.render(),
            "searched_n": search.found,
            "mu": mu_value.render(),
            "flag": flag,
        },
        scenario_hash=traj.scenario_hash,
    )


# ---------------------------------------------------------------------------
# Recurrence lemma (synthetic instances)
# ---------------------------------------------------------------------------


@dataclass
class SyntheticXuInstance:
    """Sequences satisfying s_{n+1} <= (1 - a_n)(s_n + v_n) + a_n r_n by
    construction, with s_n bounded by S."""

    s: list
    a: list
    v: list
    r: list
    S: int

    def __post_init__(self):
        n = len(self.s) - 1
        if not (len(self.a) >= n and len(self.v) >= n and len(self.r) >= n):
            raise VerifyError("sequence lengths inconsistent")
        for i in range(n):
            rhs = (1 - self.a[i]) * (self.s[i] + self.v[i]) + self.a[i] * self.r[i]
            if self.s[i + 1] > rhs + 1e-12:
                raise VerifyError(f"recurrence violated at index {i}")
            if not (0 <= self.s[i] <= self.S + 1e-12):
                raise VerifyError(f"s_{i} outside [0, S]")


def telescoping_instance(length: int, s0: float = 1.0) -> SyntheticXuInstance:
    """a_n = 1/(n+2), v = r = 0: the recurrence telescopes to s_n = s0/(n+1)."""
    a = [1.0 / (n + 2) for n in range(length)]
    s = [s0]
    for n in range(length):
        s.append((1.0 - a[n]) * s[n])
    return SyntheticXuInstance(
        s=s, a=a, v=[0.0] * length, r=[0.0] * length, S=max(1, math.ceil(s0)))


def _window_bounds(k: int, q: int) -> tuple:
    """The lemma's hypotheses on [n, q]: v_i <= 1/(3(k+1)(q+1)) and
    r_i <= 1/(3(k+1))."""
    return 1.0 / (3 * (k + 1) * (q + 1)), 1.0 / (3 * (k + 1))


def random_instance(
    seed: int, length: int, k: int, q: int, slack: float = 1.0
) -> SyntheticXuInstance:
    """Seeded instance whose hypotheses (bounds on v and r over every
    window up to q) hold by construction; a_n = 1/(n+2) so the harmonic
    divergence/product rates apply."""
    rng = random.Random(seed)
    S = rng.randint(1, 4)
    v_bound, r_bound = _window_bounds(k, q)
    a = [1.0 / (n + 2) for n in range(length)]
    v = [rng.uniform(0.0, v_bound) for _ in range(length)]
    r = [rng.uniform(0.0, r_bound) for _ in range(length)]
    s = [rng.uniform(0.0, S)]
    for n in range(length):
        rhs = (1.0 - a[n]) * (s[n] + v[n]) + a[n] * r[n]
        s.append(min(float(S), rhs * rng.uniform(0.0, 1.0) ** slack))
    return SyntheticXuInstance(s=s, a=a, v=v, r=r, S=S)


def check_xu_lemma(
    instance: SyntheticXuInstance,
    k: int,
    n: int,
    q: int,
    sigma: Optional[Counterfunction] = None,
    sigma_star: Optional[Callable[[int, int, Optional[int]], int]] = None,
    tol: float = 1e-9,
) -> CheckResult:
    """If the window hypotheses hold on [n, q], the conclusion
    s_i <= 1/(k+1) must hold from the computed threshold to q.

    Pass sigma for the divergence-rate variant, sigma_star for the
    product-rate variant (exactly one of the two); n must be >= 0.
    """
    if (sigma is None) == (sigma_star is None):
        raise VerifyError("provide exactly one of sigma, sigma_star")
    if q >= len(instance.s):
        raise VerifyError("instance shorter than q")
    if n < 0:
        raise VerifyError(f"xu-lemma: n {n} is negative")
    v_bound, r_bound = _window_bounds(k, q)
    v_bound, r_bound = v_bound + tol, r_bound + tol
    # the window's maxima decide it when both meet their bounds; a NaN never
    # counts as a violation, but one first makes max NaN and hides the rest,
    # so a NaN maximum, like one past its bound, takes the loop that finds
    # the first violation (v before r at one index)
    v_max = max(instance.v[n:q + 1], default=-math.inf)
    r_max = max(instance.r[n:q + 1], default=-math.inf)
    if not (v_max <= v_bound and r_max <= r_bound):
        for i in range(n, q + 1):
            v_unmet = i < len(instance.v) and instance.v[i] > v_bound
            if v_unmet or (i < len(instance.r) and instance.r[i] > r_bound):
                key = "v" if v_unmet else "r"
                return CheckResult(
                    check_id="xu-lemma", passed=True, hypothesis_status="unmet",
                    witness={"i": i, key: getattr(instance, key)[i]},
                    horizons={"n": n, "q": q},
                )
    if sigma is not None:
        threshold = zeta(k, n, sigma, instance.S)
        variant = "divergence-rate"
    else:
        threshold = zeta_star(k, n, sigma_star, instance.S)
        variant = "product-rate"
    if threshold.is_astronomical or threshold.value > q:
        return CheckResult(
            check_id="xu-lemma", passed=True, hypothesis_status="met",
            horizons={"n": n, "q": q},
            details={"variant": variant, "threshold": threshold.render(),
                     "note": "threshold beyond q; conclusion vacuous"},
        )
    start = threshold.value
    bound = 1.0 / (k + 1) + tol
    bad = next(
        (i for i in range(start, q + 1) if instance.s[i] > bound), None
    )
    return CheckResult(
        check_id="xu-lemma",
        passed=bad is None,
        witness=None if bad is None else {"i": bad, "s": instance.s[bad]},
        horizons={"n": n, "q": q, "threshold": start},
        details={"variant": variant, "k": k, "S": instance.S},
    )


def check_chi_T_series(
    traj: Trajectory,
    family: MappingFamily,
    chi_T_fn: Callable[[int], int],
    k_max: int,
    tol: float = 1e-8,
) -> CheckResult:
    """chi_T is a Cauchy modulus for the series sum_n d(T_{n+1} u_n, T_n u_n):
    the tail from chi_T(k) on stays below 1/(k+1).  A k whose chi_T(k)
    starts past the trajectory, or passes chi_T_fn's bit cap, is skipped;
    k_max must be >= 0.  T_n u_n is the one the run computed, so family must
    be the run's.  When the family's members coincide, T_{n+1} u_n is
    T_n u_n, so each term is d(t, t) for the row t of the run's Tu column:
    0.0 on a row whose coordinates are all finite and NaN on any other, as
    pair_dists(Tu, Tu) gives it, each coordinate c entering as c - c with
    no distance formula run.  Otherwise the family maps the u column with
    ``images`` and the terms are pair_dists of that column and Tu.  The
    worst residual is kept by AxiomReport.note, so a NaN one fails, and its
    witness names the row n of the tail's first NaN term."""
    if k_max < 0:
        raise VerifyError(f"chi-T-series: k_max {k_max} is negative")
    Tu, w = traj.Tu, traj.width
    if family is traj.family and family.members_coincide:
        terms = [c - c for c in Tu[::w]]
        for i in range(1, w):
            terms = [t + (c - c) for t, c in zip(terms, Tu[i::w])]
    else:
        terms = traj.space.pair_dists(family.images(traj.u, range(1, len(traj) + 1)), Tu)
    # tails[i] = tails[i + 1] + terms[i], summed from the last term back
    tails = list(accumulate(reversed(terms), initial=0.0))[::-1]
    worst = AxiomReport("chi-T-series", k_max + 1, max_violation=-math.inf, tol=tol)
    for k in range(k_max + 1):
        try:
            start = chi_T_fn(k)
        except CapExceeded:
            continue
        if start >= len(terms):
            continue
        worst.note(tails[start] - 1.0 / (k + 1),
                   {"k": k, "start": start, "tail_sum": tails[start]})
    witness = None if worst.passed else worst.worst_case_inputs
    if witness is not None and witness["tail_sum"] != witness["tail_sum"]:
        # a NaN tail: name the first NaN term it sums
        start = witness["start"]
        witness["n"] = next(n for n in range(start, len(terms)) if terms[n] != terms[n])
    return CheckResult(
        check_id="chi-T-series",
        passed=worst.passed,
        witness=witness,
        horizons={"length": len(terms), "k_max": k_max},
        details={"max_residual": worst.max_violation},
        scenario_hash=traj.scenario_hash,
    )


# ---------------------------------------------------------------------------
# Trajectory inequality checks
# ---------------------------------------------------------------------------


def check_recursive_inequalities(
    traj: Trajectory,
    family: MappingFamily,
    bundle: ScheduleBundle,
    x: Point,
    tol: float = 1e-9,
) -> CheckResult:
    """The three per-step inequalities relating d(x_{n+1}, x), d(u_n, x)
    and the quasilinearization term, for an arbitrary reference point x.

    d(x_n, x), d(u_n, x) and <xu, x x_n> are read from the columns by dists
    and quasilins, which reuses d(x_n, x); d(x_n, x)^2 is computed once a
    row and serves steps n - 1 and n, and d(x, u) is the same for every step.
    beta_n and d(T_n x, x) are computed once a row (d(T_n x, x) once in all
    when the family's members coincide, else from the family's ``images``
    of x), and B(n) at most once, under a bit cap (see _B_column).  The
    three residual columns are noted by AxiomReport.note_rows, so the worst
    is the one note would keep row by row, and a NaN one fails."""
    u, space, w = traj.anchor, traj.space, traj.width
    dist, beta_of, B = space.dist, bundle.beta, bundle.B
    d2_xu = dist(x, u) ** 2
    dx = space.dists(traj.x, x)
    d2 = [d ** 2 for d in dx]
    # the last row's u_n and x_n start no step
    du = space.dists(traj.u[:-w], x)
    ql = space.quasilins(traj.x[:-w], x, u, dx[:-1])
    steps = range(len(du))
    if family.members_coincide:  # T_n x is T_0 x on every row
        dT = [dist(family.apply(0, x), x)] * len(steps)
    else:
        dT = space.dists(family.images(array("d", x.data) * len(steps), steps), x)
    beta = [beta_of(n) for n in steps]
    big_B = _B_column(B, len(steps))
    res1 = [d - (a + t) for d, a, t in zip(dx[1:], du, dT)]
    res2 = [a ** 2 - (b * d + 2.0 * b * (1.0 - b) * q + (1.0 - b) ** 2 * d2_xu)
            for a, b, d, q in zip(du, beta, d2, ql)]
    top = sys.float_info.max  # B(n) is an int past it (see _B_column)
    res3 = [
        dn - (b * (d + (c * v if c <= top else _past_float_term(v, c, b)))
              + (1.0 - b) * (2.0 * b * q) + (1.0 - b) * d2_xu)
        for dn, d, a, t, b, c, q in zip(d2[1:], d2, du, dT, beta, big_B, ql)
        for v in [2.0 * a * t + t * t]  # w_n
    ]
    worst = AxiomReport("recursive-inequalities", len(traj), max_violation=-math.inf, tol=tol)
    worst.note_rows((res1, res2, res3), lambda n, c: {"n": n, "part": ("i", "ii", "iii")[c]})
    return CheckResult(
        check_id="recursive-inequalities",
        passed=worst.passed,
        witness=None if worst.passed else worst.worst_case_inputs,
        horizons={"length": len(traj)},
        details={"max_residual": worst.max_violation},
        scenario_hash=traj.scenario_hash,
    )


# B(n) w_n overflows for every B(n) >= 2^2100 and float w_n > 0, whose least
# value is 2^-1074: B(n) capped at 2^2100 gives the product B(n) gives
_B_CAP = 2100


def _B_column(B: Counterfunction, rows: int) -> list:
    """B(n) for n < rows, evaluated under _B_CAP so that a huge one is never
    formed, and only up to the index B.settles from which it is constant: a
    float where B(n) is in the float range, the one int(B(n)) * w converts
    it to, and else the capped int, for _past_float_term."""
    head = rows if B.settles is None else min(B.settles + 1, rows)
    column = []
    for n in range(head):
        b = capped(B, n, _B_CAP, 1 << _B_CAP)
        try:
            column.append(float(b))
        except OverflowError:
            column.append(b)
    return column + column[-1:] * (rows - head)


def _past_float_term(w_n: float, B_n: int, beta: float) -> float:
    """B(n) w_n for a B(n) past the float range, as the product of w_n and
    B(n)'s top 53 bits scaled by 2^s: it overflows to inf only where the
    exact product does, and elsewhere differs from it by a few ulps (or by
    the subnormal step).  A NaN w_n stays NaN; where beta_n is 0 the term is
    0.0, as beta_n B(n) w_n is, so that beta_n (d + term) is 0, not NaN."""
    if w_n != w_n:
        return w_n
    if beta == 0.0:
        return 0.0
    s = B_n.bit_length() - 53
    try:
        return math.ldexp(w_n * float(B_n >> s), s)
    except OverflowError:
        return math.copysign(math.inf, w_n)


def check_convex_afp(
    space: SpaceModel,
    family: MappingFamily,
    v1: Point,
    v2: Point,
    p: Point,
    K: int,
    k: int,
    n_max: int,
    t_grid: int = 101,
) -> CheckResult:
    """If v1, v2 are strict 1/omega1(k)-approximate fixed points in the
    K-ball, every convex combination is a 1/(k+1)-approximate fixed point."""
    w1 = omega1(k, K)
    for v in (v1, v2):
        if space.dist(v, p) > K + 1e-9 or any(
            space.dist(v, family.apply(n, v)) >= 1.0 / w1
            for n in range(n_max + 1)
        ):
            return CheckResult(
                check_id="convex-afp", passed=True, hypothesis_status="unmet",
                horizons={"n_max": n_max},
                details={"k": k, "omega1": w1},
            )
    bound = 1.0 / (k + 1)
    for j in range(t_grid):
        t = j / (t_grid - 1)
        w = space.comb(v1, v2, t)
        for n in range(n_max + 1):
            val = space.dist(w, family.apply(n, w))
            if val >= bound + 1e-9:
                return CheckResult(
                    check_id="convex-afp",
                    passed=False,
                    witness={"t": t, "n": n, "value": val},
                    horizons={"n_max": n_max, "t_grid": t_grid},
                    details={"k": k},
                )
    return CheckResult(
        check_id="convex-afp", passed=True,
        horizons={"n_max": n_max, "t_grid": t_grid}, details={"k": k},
    )


def check_variational(
    space: SpaceModel,
    x: Point,
    y: Point,
    u: Point,
    p: Point,
    K: int,
    k: int,
    t_grid: int = 101,
    tol: float = 1e-9,
) -> CheckResult:
    """If x nearly minimizes the distance to u along the segment [x, y],
    then the quasilinearization term <xu, xy> is small."""
    w2 = omega2(k, K)
    if space.dist(x, p) > K + 1e-9 or space.dist(y, p) > K + 1e-9:
        return CheckResult(
            check_id="variational", passed=True, hypothesis_status="unmet",
            details={"reason": "points outside the K-ball"},
        )
    d2xu = space.dist(x, u) ** 2
    for j in range(t_grid):
        t = j / (t_grid - 1)
        w = space.comb(x, y, t)
        if d2xu > space.dist(w, u) ** 2 + 1.0 / w2:
            return CheckResult(
                check_id="variational", passed=True, hypothesis_status="unmet",
                witness={"t": t},
                details={"k": k, "omega2": w2},
            )
    val = space.quasilin(x, u, x, y)
    ok = val <= 1.0 / (k + 1) + tol
    return CheckResult(
        check_id="variational",
        passed=ok,
        witness=None if ok else {"quasilin": val},
        horizons={"t_grid": t_grid},
        details={"k": k, "quasilin": val},
    )
