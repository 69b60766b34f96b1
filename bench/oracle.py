"""Reference computations for the benchmark's output gate.

Nothing here imports tmlab.  The iteration, the three space models, the
mapping families and the closed-form rate values are written out again from
their definitions, so a wrong output of tmlab cannot also be a wrong
expectation.  Big values use the standard ``decimal`` module, not mpmath.
"""

from __future__ import annotations

import functools
import math
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext

# ---------------------------------------------------------------------------
# Space models
# ---------------------------------------------------------------------------


class EuclidRef:
    name = "euclidean"

    def base(self):
        return (0.0, 0.0)

    def dist(self, a, b):
        return math.sqrt(sum((x - y) * (x - y) for x, y in zip(a, b)))

    def comb(self, a, b, t):
        return tuple((1.0 - t) * x + t * y for x, y in zip(a, b))

    def coords(self, p):
        return list(p)


class DiskRef:
    """Points are complex numbers in the open unit disk."""

    name = "disk"

    def base(self):
        return 0j

    def dist(self, z, w):
        return 2.0 * math.atanh(abs(z - w) / abs(1.0 - w.conjugate() * z))

    def comb(self, z, w, t):
        m = (w - z) / (1.0 - z.conjugate() * w)
        r = abs(m)
        if r == 0.0:
            return z
        step = math.tanh(t * math.atanh(r))
        q = m / r * step
        return (q + z) / (1.0 + z.conjugate() * q)

    def coords(self, z):
        return [z.real, z.imag]


class TripodRef:
    """Points are (leg, length); the centre is written (0, 0.0)."""

    name = "tripod"

    @staticmethod
    def pt(leg, s):
        return (0, 0.0) if s == 0.0 else (leg, float(s))

    def base(self):
        return (0, 0.0)

    def dist(self, a, b):
        (la, sa), (lb, sb) = a, b
        if la == lb or sa == 0.0 or sb == 0.0:
            return abs(sa - sb)
        return sa + sb

    def comb(self, a, b, t):
        (la, sa), (lb, sb) = a, b
        if la == lb or sa == 0.0 or sb == 0.0:
            return self.pt(lb if sa == 0.0 else la, (1.0 - t) * sa + t * sb)
        along = t * (sa + sb)
        if along <= sa:
            return self.pt(la, sa - along)
        return self.pt(lb, along - sa)

    def coords(self, p):
        return [float(p[0]), p[1]]


MODELS = {"euclidean": EuclidRef(), "disk": DiskRef(), "tripod": TripodRef()}


def parse_point(model, text):
    if model.name == "tripod":
        leg, _, s = text.partition(":")
        return TripodRef.pt(int(leg), float(s))
    vals = [float(t) for t in text.split(",")]
    if model.name == "disk":
        return complex(vals[0], vals[1])
    return tuple(vals)


# ---------------------------------------------------------------------------
# Schedules and families
# ---------------------------------------------------------------------------


def beta(n):
    return (n + 1) / (n + 2)


def lam(n):
    return 0.5


def gamma_fn(preset):
    if preset == "harmonic":
        return lambda n: 1.0 + 1.0 / (n + 1)
    return lambda n: 1.0


def _rotation(model, angle):
    if model.name == "tripod":
        shift = round(3.0 * angle / (2.0 * math.pi)) % 3
        return lambda p: TripodRef.pt((p[0] + shift) % 3, p[1])
    c, s = math.cos(angle), math.sin(angle)
    if model.name == "disk":
        return lambda z: complex(z.real * c - z.imag * s, z.real * s + z.imag * c)
    return lambda p: (p[0] * c - p[1] * s, p[0] * s + p[1] * c)


def _projection(model, center, radius):
    def proj(p):
        d = model.dist(p, center)
        if d <= radius:
            return p
        return model.comb(center, p, radius / d)

    return proj


def family(model, cfg):
    """(T(n, x), fixed point) for a config dict."""
    kind = cfg["family.kind"]
    gam = gamma_fn(cfg.get("schedule.preset", "harmonic"))
    if kind == "identity" or (kind == "constant" and float(cfg.get("family.angle", "0")) == 0.0):
        return (lambda n, p: p), model.base()
    if kind == "rotation":
        rot = _rotation(model, float(cfg["family.angle"]))
        return (lambda n, p: rot(p)), model.base()
    if kind == "projection":
        c = parse_point(model, cfg["family.center"])
        proj = _projection(model, c, float(cfg["family.radius"]))
        return (lambda n, p: proj(p)), c
    if kind == "proximal":
        c = parse_point(model, cfg["family.center"])

        def prox(n, p):
            g = gam(n)
            return model.comb(p, c, g / (1.0 + g))

        return prox, c
    if kind == "resolvent":
        if cfg["family.base.kind"] == "rotation":
            base, fixed = _rotation(model, float(cfg["family.base.angle"])), model.base()
        else:
            fixed = parse_point(model, cfg["family.base.center"])
            base = _projection(model, fixed, float(cfg["family.base.radius"]))

        def resolvent(n, p, tol=1e-12, max_it=10_000):
            g = gam(n)
            c = g / (1.0 + g)
            z = p
            for _ in range(max_it):
                nxt = model.comb(p, base(z), c)
                if model.dist(z, nxt) <= tol:
                    return nxt
                z = nxt
            raise RuntimeError("reference resolvent solve did not converge")

        return resolvent, fixed
    raise ValueError(f"no reference for family {kind!r}")


def scenario_K(cfg):
    """K = max(1, ceil(M)), M the larger distance of x0 and u from the
    family's fixed point."""
    model = MODELS[cfg["space.kind"]]
    _, p = family(model, cfg)
    M = max(model.dist(parse_point(model, cfg[key]), p) for key in ("run.x0", "run.u"))
    return max(1, math.ceil(M))


def trajectory(cfg, steps):
    """Rows [n, coords..., d_step, d_Tn, d_p] of the anchored iteration."""
    model = MODELS[cfg["space.kind"]]
    T, p = family(model, cfg)
    u = parse_point(model, cfg["run.u"])
    x = parse_point(model, cfg["run.x0"])
    rows = []
    for n in range(steps + 1):
        un = model.comb(u, x, beta(n))
        nxt = model.comb(un, T(n, un), lam(n))
        rows.append(
            [n] + model.coords(x)
            + [model.dist(x, nxt), model.dist(x, T(n, x)), model.dist(x, p)]
        )
        x = nxt
    return rows


def identity_closed_form(cfg, rows):
    """Largest error of d(x_n, u) = d(x0, u) / (n + 1) along identity runs
    (and of the coordinates themselves in the Euclidean model)."""
    model = MODELS[cfg["space.kind"]]
    u = parse_point(model, cfg["run.u"])
    x0 = parse_point(model, cfg["run.x0"])
    d0 = model.dist(x0, u)
    worst = 0.0
    for row in rows:
        n = int(row[0])
        if model.name == "tripod":
            x = TripodRef.pt(int(row[1]), row[2])
        elif model.name == "disk":
            x = complex(row[1], row[2])
        else:
            x = tuple(row[1:-3])
            want = [a + (b - a) / (n + 1) for a, b in zip(u, x0)]
            worst = max(worst, max(abs(c - w) for c, w in zip(x, want)))
        worst = max(worst, abs(model.dist(x, u) - d0 / (n + 1)))
    return worst


def max_row_error(got, want):
    """Largest relative difference over two tables of equal shape."""
    if len(got) != len(want):
        return math.inf
    worst = 0.0
    for g, w in zip(got, want):
        if len(g) != len(w) or int(g[0]) != int(w[0]):
            return math.inf
        for a, b in zip(g[1:], w[1:]):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst


def counterfunction(text):
    """The two shapes the benchmark searches with: const:c and affine:a,b."""
    head, _, body = text.partition(":")
    if head == "const":
        return lambda n: int(body)
    if head == "affine":
        a, b = (int(t) for t in body.split(","))
        return lambda n: a * n + b
    raise ValueError(f"no reference for counterfunction {text!r}")


def first_metastable(points, model, k, f, cap):
    """Brute-force least n <= cap with all pairwise distances on
    {n, ..., f(n)} at most 1/(k+1) + 1e-9; None when no window fits."""
    bound = 1.0 / (k + 1) + 1e-9
    for n in range(min(cap, len(points)) + 1):
        end = f(n)
        if end < n:
            return n
        if end >= len(points):
            return None
        window = points[n:end + 1]
        if all(
            model.dist(a, b) <= bound
            for i, a in enumerate(window) for b in window[i + 1:]
        ):
            return n
    return None


# ---------------------------------------------------------------------------
# Rate values
# ---------------------------------------------------------------------------


def ceil_ln(m):
    with localcontext() as ctx:
        ctx.prec = 60
        v = Decimal(m).ln()
    if abs(v - v.to_integral_value()) < Decimal(10) ** -40:
        raise ArithmeticError(f"ceil(ln {m}) undecided at 60 digits")
    return int(v.to_integral_value(rounding=ROUND_CEILING))


@functools.lru_cache(maxsize=256)
def sigma(n):
    """ceil(2 e^n), exact."""
    with localcontext() as ctx:
        ctx.prec = int(n * 0.4343) + 40
        v = 2 * Decimal(n).exp()
        if v - v.to_integral_value(rounding=ROUND_FLOOR) < Decimal(10) ** -20:
            raise ArithmeticError(f"ceil(2e^{n}) undecided")
        return int(v.to_integral_value(rounding=ROUND_CEILING))


def sigma_digits(n):
    """Decimal digits of ceil(2 e^n), from its logarithm."""
    return int(math.log10(2.0) + n * math.log10(math.e)) + 1


def sigma_star(m, k):
    return (m + 1) * (k + 1)


class RateOracle:
    """Closed forms of every tabulated rate for the shipped presets: beta_n =
    (n+1)/(n+2), lambda_n = 1/2, and gamma_n = 1 + 1/(n+1) (harmonic) or 1.
    So chi_beta = eta = id, chi_lambda = 0, B = 2, Lambda = 2, Gamma = 1,
    G = 2 or 1, and chi_gamma = id or 0."""

    def __init__(self, preset, K, has_gammas):
        self.K = K
        self.G = 2 if preset == "harmonic" else 1
        self.gamma_varies = preset == "harmonic"
        self.has_gammas = has_gammas

    def chi_T(self, k):
        if self.has_gammas and self.gamma_varies:
            return 2 * self.K * (k + 1) - 1
        return 0

    def chi(self, k):
        return max(self.chi_T(2 * (k + 1) - 1), 0, 8 * self.K * (k + 1) - 1)

    def Sigma(self, k):
        K = self.K
        return sigma(self.chi(3 * k + 2) + 2 + ceil_ln(6 * K * (k + 1))) + 1

    def Sigma_star(self, k):
        return sigma_star(self.chi(3 * k + 2), 6 * self.K * (k + 1) - 1) + 1

    def _tilde(self, inner, k):
        return max(0, inner(4 * (k + 1) - 1), 8 * self.K * (k + 1) - 1)

    def Sigma_tilde(self, k):
        return self._tilde(self.Sigma, k)

    def Sigma_tilde_star(self, k):
        return self._tilde(self.Sigma_star, k)

    def Psi(self, k):
        return self._tilde(self.Sigma, (1 + 2 * self.G) * (k + 1) - 1)

    def Psi_star(self, k):
        return self._tilde(self.Sigma_star, (1 + 2 * self.G) * (k + 1) - 1)

    def _meta_m(self, k):
        kt1 = 4 * (k + 1) ** 2
        return 24 * self.K ** 2 * kt1 - 1, 12 * self.K ** 2 * kt1

    def mu_arg(self, k):
        m, c = self._meta_m(k)
        return m + ceil_ln(c)

    def mu_const_phi(self, k):
        """mu with Phi = const:0, where the omega3 tower collapses to 0."""
        return sigma(self.mu_arg(k)) + 1

    def mu_star_const_phi(self, k):
        m, c = self._meta_m(k)
        return sigma_star(m, c - 1) + 1

    def tower_squarings(self, k):
        """Iterations of the omega3 tower under the default Phi.  Each one at
        least squares the running value, so more than log2(cap) + 1 of them
        pass any bit cap: the expected verdict is Astronomical."""
        kp = 12 * 4 * (k + 1) ** 2 - 1
        K = self.K
        return K * K * (4 * K * K * (kp + 1) ** 2 + 1)


GOLDEN_ROW = "0,7,145,2305,20737,4609"


def golden_self_test():
    """The oracle must reproduce the frozen golden row (K = 1, constant
    gamma, Phi = const:0) and Sigma(0) = ceil(2 e^27) + 1 before it may
    judge anything."""
    o = RateOracle("constant-gamma-harmonic-beta", 1, has_gammas=False)
    row = ",".join(str(v) for v in (
        0, o.chi(0), o.Sigma_star(0), o.Sigma_tilde_star(0), o.Psi_star(0),
        o.mu_star_const_phi(0),
    ))
    if row != GOLDEN_ROW:
        raise AssertionError(f"oracle golden row {row} != {GOLDEN_ROW}")
    with localcontext() as ctx:
        ctx.prec = 50
        want = int((2 * Decimal(27).exp()).to_integral_value(ROUND_CEILING)) + 1
    if o.Sigma(0) != want:
        raise AssertionError("oracle Sigma(0) disagrees with ceil(2e^27) + 1")
    return want


def decimal_string(n):
    """str(n) for naturals of any size (CPython refuses str() past 4300
    digits unless the process-wide limit is lifted, which would change the
    behaviour under test)."""
    if n < 10 ** 4000:
        return str(n)
    hi, lo = divmod(n, 10 ** 4000)
    return decimal_string(hi) + str(lo).rjust(4000, "0")
