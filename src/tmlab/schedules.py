"""Parameter schedules with their quantitative moduli, plus a finite-prefix
auditor.

A bundle carries the sequences (lambda_n), (beta_n), (gamma_n) together
with every modulus the rate formulas consume:

  sigma      monotone rate of divergence of sum (1 - beta_n)
  sigma*     sigma*(m, .) is a rate of convergence for prod_{n>=m} beta_n -> 0
  chi_beta   Cauchy modulus of sum |beta_n - beta_{n+1}|
  chi_lambda Cauchy modulus of sum |lambda_n - lambda_{n+1}|
  chi_gamma  Cauchy modulus of sum |gamma_n - gamma_{n+1}|
  eta        rate of convergence for beta_n -> 1
  Lambda, N_Lambda   lambda_n >= 1/Lambda for n >= N_Lambda
  Gamma, N_Gamma     gamma_n >= 1/Gamma for n >= N_Gamma
  G          upper bound on gamma_n
  B          beta_n >= 1/B(n) for all n

The auditor tests every claim on a finite prefix and reports the first
violation per condition; it is the empirical oracle for presets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .rates import (
    CapExceeded,
    CeilScaledExp,
    Const,
    Counterfunction,
    Identity,
    monotonize,
    within_cap,
)

EXACT_PRODUCT_HORIZON = 10_000


class ScheduleError(ValueError):
    pass


@dataclass
class ScheduleBundle:
    name: str
    lam: Callable[[int], float]
    beta: Callable[[int], float]
    gamma: Callable[[int], float]
    sigma: Counterfunction
    sigma_star: Callable[[int, int, Optional[int]], int]
    chi_beta: Counterfunction
    chi_lambda: Counterfunction
    chi_gamma: Counterfunction
    eta: Counterfunction
    B: Counterfunction
    Lambda: int
    N_Lambda: int
    Gamma: int
    N_Gamma: int
    G: int
    # exact rational evaluator of beta, when the sequence is rational-valued
    beta_exact: Optional[Callable[[int], Fraction]] = None

    def __post_init__(self):
        for name in ("Lambda", "Gamma", "G"):
            if getattr(self, name) < 1:
                raise ScheduleError(f"{name} must be a positive natural")
        # monotone counterfunctions are required by the rate formulas; B in
        # particular is monotonized even though its defining condition does
        # not ask for it
        self.sigma = monotonize(self.sigma)
        self.chi_beta = monotonize(self.chi_beta)
        self.chi_lambda = monotonize(self.chi_lambda)
        self.chi_gamma = monotonize(self.chi_gamma)
        self.eta = monotonize(self.eta)
        self.B = monotonize(self.B)


def chi_T(bundle: ScheduleBundle, K: int, k: int) -> int:
    """Cauchy modulus for sum_n d(T_{n+1} u_n, T_n u_n) of a family driven
    by the bundle's gamma sequence: max{N_Gamma, chi_gamma(2K*Gamma*(k+1)-1)}."""
    if K < 1:
        raise ScheduleError("K must be >= 1")
    return max(bundle.N_Gamma, bundle.chi_gamma(2 * K * bundle.Gamma * (k + 1) - 1))


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _harmonic_sigma_star(m: int, k: int, cap: Optional[int] = None) -> int:
    """(m+1)(k+1): for beta_n = (n+1)/(n+2) the product over [m, N]
    telescopes to (m+1)/(N+2)."""
    # the product has at least bits(m+1) + bits(k+1) - 1 bits; a certain
    # overflow is refused before multiplying, as Power does
    if cap is not None and (m + 1).bit_length() + (k + 1).bit_length() - 1 > cap:
        raise CapExceeded()
    return within_cap((m + 1) * (k + 1), cap)


def _harmonic_base(gamma_const: bool) -> ScheduleBundle:
    if gamma_const:
        gamma = lambda n: 1.0
        chi_gamma = Const(0)
        Gamma, N_Gamma, G = 1, 0, 1
        name = "constant-gamma-harmonic-beta"
    else:
        gamma = lambda n: 1.0 + 1.0 / (n + 1)
        # |gamma_n - gamma_{n+1}| = 1/((n+1)(n+2)); tail from n is 1/(n+1)
        chi_gamma = Identity()
        Gamma, N_Gamma, G = 1, 0, 2
        name = "harmonic"
    return ScheduleBundle(
        name=name,
        lam=lambda n: 0.5,
        beta=lambda n: (n + 1) / (n + 2),
        gamma=gamma,
        sigma=CeilScaledExp(2),
        sigma_star=_harmonic_sigma_star,
        chi_beta=Identity(),
        chi_lambda=Const(0),
        chi_gamma=chi_gamma,
        eta=Identity(),
        B=Const(2),
        Lambda=2,
        N_Lambda=0,
        Gamma=Gamma,
        N_Gamma=N_Gamma,
        G=G,
        beta_exact=lambda n: Fraction(n + 1, n + 2),
    )


def preset(name: str) -> ScheduleBundle:
    """Named schedule presets with analytically derived moduli."""
    key = name.strip().lower()
    if key == "harmonic":
        return _harmonic_base(gamma_const=False)
    if key == "constant-gamma-harmonic-beta":
        return _harmonic_base(gamma_const=True)
    raise ScheduleError(f"unknown schedule preset {name!r}")


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------


@dataclass
class ConditionResult:
    condition_id: str
    horizon: int
    passed: bool
    first_violation: Optional[dict] = None

    def to_json(self):
        return {
            "condition_id": self.condition_id,
            "horizon": self.horizon,
            "pass": self.passed,
            "first_violation": self.first_violation,
        }


@dataclass
class AuditReport:
    bundle: str
    horizon: int
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self):
        return [r.to_json() for r in self.results]

    def __str__(self):
        return json.dumps(self.to_json(), indent=2)


def audit_schedule(
    bundle: ScheduleBundle, horizon: int, tol: float = 1e-9
) -> AuditReport:
    """Test every modulus claim of the bundle on the prefix [0, horizon]."""
    if horizon < 1:
        raise ScheduleError("horizon must be >= 1")
    results = [
        _audit_sigma(bundle, horizon, tol),
        _audit_sigma_star(bundle, horizon, tol),
        _audit_cauchy(bundle, horizon, tol, "C2_q", bundle.beta, bundle.chi_beta),
        _audit_cauchy(bundle, horizon, tol, "C3_q", bundle.lam, bundle.chi_lambda),
        _audit_eta(bundle, horizon, tol),
        _audit_floor(
            "C5_q", horizon, tol, bundle.lam, bundle.Lambda, bundle.N_Lambda
        ),
        _audit_chi_T_prereqs(bundle, horizon, tol),
        _audit_floor(
            "C8_q", horizon, tol, bundle.gamma, bundle.Gamma, bundle.N_Gamma
        ),
        _audit_beta_floor(bundle, horizon, tol),
    ]
    return AuditReport(bundle.name, horizon, results)


def _capped(f: Counterfunction, n: int, cap: int, past: int) -> int:
    """f(n), or ``past`` when f(n) has more than cap bits.  An overridden
    modulus may grow past any memory; the audit only compares it with
    bounds that fit in cap bits."""
    try:
        return f(n, cap)
    except CapExceeded:
        return past


def _audit_sigma(bundle, horizon, tol) -> ConditionResult:
    # sum_{i <= sigma(n)} (1 - beta_i) >= n wherever sigma(n) fits
    partial = 0.0
    sums = [0.0] * (horizon + 1)
    for i in range(horizon + 1):
        partial += 1.0 - bundle.beta(i)
        sums[i] = partial
    n = 0
    while True:
        s = bundle.sigma(n)
        if s > horizon:
            break
        if sums[s] < n - tol:
            return ConditionResult(
                "C1_q", horizon, False,
                {"n": n, "sigma": s, "partial_sum": sums[s]},
            )
        n += 1
    return ConditionResult("C1_q", horizon, True)


def _audit_sigma_star(bundle, horizon, tol) -> ConditionResult:
    # prod_{n=m}^{sigma*(m,k)} beta_n <= 1/(k+1) for index pairs in range
    exact = bundle.beta_exact if horizon <= EXACT_PRODUCT_HORIZON else None
    if exact is not None:
        prefixes = [Fraction(1)] * (horizon + 2)
        for i in range(horizon + 1):
            prefixes[i + 1] = prefixes[i] * exact(i)

        def prod(m, N):  # product over [m, N]
            if prefixes[m] == 0:
                return Fraction(0)
            return prefixes[N + 1] / prefixes[m]

        # prod(m, N) <= 1/(k+1) with a = prefixes[N+1], b = prefixes[m] is
        # a.num * b.den * (k+1) <= b.num * a.den: cross-multiplying keeps
        # the direction only because every prefix is >= 0 (beta_n in
        # [0, 1]).  A zero prefix b makes a zero too, and 0 <= 0 passes.
        nums = [p.numerator for p in prefixes]
        dens = [p.denominator for p in prefixes]

        def holds(m, N, k):
            return nums[N + 1] * dens[m] * (k + 1) <= nums[m] * dens[N + 1]

    else:
        logs = [0.0] * (horizon + 2)
        for i in range(horizon + 1):
            b = bundle.beta(i)
            logs[i + 1] = logs[i] + (math.log(b) if b > 0 else -math.inf)

        def prod(m, N):
            return math.exp(logs[N + 1] - logs[m])

        def holds(m, N, k):
            return prod(m, N) <= 1 / (k + 1) + tol

    sigma_star = bundle.sigma_star
    for m in range(horizon + 1):
        k = 0
        while True:
            N = sigma_star(m, k)
            if N > horizon:
                break
            if N >= m and not holds(m, N, k):
                return ConditionResult(
                    "C1_q*", horizon, False,
                    {"m": m, "k": k, "N": N, "product": float(prod(m, N))},
                )
            k += 1
    return ConditionResult("C1_q*", horizon, True)


def _audit_cauchy(bundle, horizon, tol, cid, seq, modulus) -> ConditionResult:
    # Cauchy modulus claim for sum |a_n - a_{n+1}|, windows inside [0, horizon]
    tail = [0.0] * (horizon + 2)
    for i in range(horizon, -1, -1):
        tail[i] = tail[i + 1] + abs(seq(i) - seq(i + 1))
    k = 0
    while True:
        start = _capped(modulus, k, horizon.bit_length(), horizon + 1)
        if start > horizon or k > horizon:
            break
        window = tail[start] - tail[horizon + 1]
        if window > 1.0 / (k + 1) + tol:
            return ConditionResult(
                cid, horizon, False, {"k": k, "start": start, "window_sum": window}
            )
        k += 1
    return ConditionResult(cid, horizon, True)


def _audit_eta(bundle, horizon, tol) -> ConditionResult:
    gaps = [1.0 - bundle.beta(n) for n in range(horizon + 1)]
    suffix = [0.0] * (horizon + 2)
    for i in range(horizon, -1, -1):
        suffix[i] = max(gaps[i], suffix[i + 1])
    k = 0
    while True:
        start = _capped(bundle.eta, k, horizon.bit_length(), horizon + 1)
        if start > horizon or k > horizon:
            break
        if suffix[start] > 1.0 / (k + 1) + tol:
            return ConditionResult(
                "C4_q", horizon, False,
                {"k": k, "start": start, "max_gap": suffix[start]},
            )
        k += 1
    return ConditionResult("C4_q", horizon, True)


def _audit_floor(cid, horizon, tol, seq, bound, start) -> ConditionResult:
    # int division: a bound past the float range gives a floor of 0.0
    floor = 1 / bound
    for n in range(start, horizon + 1):
        if seq(n) < floor - tol:
            return ConditionResult(
                cid, horizon, False, {"n": n, "value": seq(n), "floor": floor}
            )
    return ConditionResult(cid, horizon, True)


def _audit_chi_T_prereqs(bundle, horizon, tol) -> ConditionResult:
    # C7_q (gamma Cauchy modulus) and the upper bound gamma_n <= G
    inner = _audit_cauchy(
        bundle, horizon, tol, "C7_q", bundle.gamma, bundle.chi_gamma
    )
    if not inner.passed:
        return inner
    for n in range(horizon + 1):
        if bundle.gamma(n) - tol > bundle.G:  # exact for any size of G
            return ConditionResult(
                "C7_q", horizon, False,
                {"n": n, "gamma": bundle.gamma(n), "G": bundle.G},
            )
    return ConditionResult("C7_q", horizon, True)


def _audit_beta_floor(bundle, horizon, tol) -> ConditionResult:
    for n in range(horizon + 1):
        # 1/B(n) is 0.0 in floats past 2^1100; B(n) = 0 admits no floor
        b = _capped(bundle.B, n, 1100, 1 << 1100)
        if b == 0 or bundle.beta(n) < 1 / b - tol:
            return ConditionResult(
                "C9_q", horizon, False,
                {"n": n, "beta": bundle.beta(n), "B": int(b)},
            )
    return ConditionResult("C9_q", horizon, True)
