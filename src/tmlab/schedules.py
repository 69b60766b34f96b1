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

The auditor evaluates each sequence once on a finite prefix, tests every
claim there (each sigma* product exactly, in rational arithmetic) and
reports the first violation per condition; it is the empirical oracle for
presets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, count
from math import gcd
from typing import Callable, Optional

from .rates import (
    CapExceeded,
    CeilScaledExp,
    Const,
    Counterfunction,
    Identity,
    capped,
    monotonize,
    within_cap,
)


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
    # exact rational evaluator of beta (required): the sigma* audit decides
    # each product in rational arithmetic
    beta_exact: Callable[[int], Fraction]

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


def chi_T(bundle: ScheduleBundle, K: int, k: int, cap: Optional[int] = None) -> int:
    """Cauchy modulus for sum_n d(T_{n+1} u_n, T_n u_n) of a family driven
    by the bundle's gamma sequence: max{N_Gamma, chi_gamma(2K*Gamma*(k+1)-1)},
    or CapExceeded when it has more than cap bits."""
    if K < 1:
        raise ScheduleError("K must be >= 1")
    arg = 2 * K * bundle.Gamma * (k + 1) - 1
    return within_cap(max(bundle.N_Gamma, bundle.chi_gamma(arg, cap)), cap)


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


def audit_schedule(
    bundle: ScheduleBundle, horizon: int, tol: float = 1e-9
) -> AuditReport:
    """Test every modulus claim of the bundle on the prefix [0, horizon].

    beta, lambda and gamma are evaluated once each, on [0, horizon + 1], and
    beta_exact once on [0, horizon].  A condition fails at the first witness
    its scan yields.  Every modulus, sigma and sigma* included, is evaluated
    under a cap of bits(horizon): a value it refuses is past the horizon,
    where no claim is tested."""
    if horizon < 1:
        raise ScheduleError("horizon must be >= 1")
    H, cap = horizon, horizon.bit_length()
    beta, lam, gamma = (
        [seq(n) for n in range(H + 2)] for seq in (bundle.beta, bundle.lam, bundle.gamma)
    )

    def modulus_scan(modulus, values, key):
        # values[modulus(k)] <= 1/(k+1) for each k whose start is in range
        for k in range(H + 1):
            start = capped(modulus, k, cap, H + 1)
            if start > H:
                return
            if values[start] > 1.0 / (k + 1) + tol:
                yield {"k": k, "start": start, key: values[start]}

    def floor_scan(values, bound, first):
        # values[n] >= 1/bound for n >= first; int division: a bound past
        # the float range gives a floor of 0.0
        floor = 1 / bound
        return ({"n": n, "value": values[n], "floor": floor}
                for n in range(max(first, 0), H + 1) if values[n] < floor - tol)

    def sigma_scan():
        # sum_{i <= sigma(n)} (1 - beta_i) >= n wherever sigma(n) <= H
        sums = list(accumulate((1.0 - b for b in beta[:H + 1]), initial=0.0))[1:]
        for n in count():
            s = capped(bundle.sigma, n, cap, H + 1)
            if s > H:
                return
            if sums[s] < n - tol:
                yield {"n": n, "sigma": s, "partial_sum": sums[s]}

    def sigma_star_scan():
        # prod_{n=m}^{N} beta_n <= 1/(k+1) at N = sigma*(m, k), for m <= N <= H
        # prefixes[i] = prod_{n<i} beta_n = nums[i] / dens[i] in lowest terms
        nums, dens = [1], [1]
        for q in map(bundle.beta_exact, range(H + 1)):
            num, den = nums[-1] * q.numerator, dens[-1] * q.denominator
            g = gcd(num, den)
            nums.append(num // g)
            dens.append(den // g)
        for m in range(H + 1):
            for k in count():
                try:
                    N = bundle.sigma_star(m, k, cap)
                except CapExceeded:
                    break
                if N > H:
                    break
                # prefixes[N+1] / prefixes[m] <= 1/(k+1), cross-multiplied:
                # the direction holds because every prefix is >= 0 (beta_n in
                # [0, 1]); a zero prefix at m zeroes the one at N+1, and 0 <= 0
                if N >= m and nums[N + 1] * dens[m] * (k + 1) > nums[m] * dens[N + 1]:
                    product = nums[N + 1] * dens[m] / (dens[N + 1] * nums[m])
                    yield {"m": m, "k": k, "N": N, "product": product}

    def beta_floor_scan():
        for n in range(H + 1):
            # 1/B(n) is 0.0 in floats past 2^1100; B(n) = 0 admits no floor
            b = capped(bundle.B, n, 1100, 1 << 1100)
            if b == 0 or beta[n] < 1 / b - tol:
                yield {"n": n, "beta": beta[n], "B": int(b)}

    scans = {
        "C1_q": sigma_scan(),
        "C1_q*": sigma_star_scan(),
        "C2_q": modulus_scan(bundle.chi_beta, _tails(beta), "window_sum"),
        "C3_q": modulus_scan(bundle.chi_lambda, _tails(lam), "window_sum"),
        "C4_q": modulus_scan(bundle.eta, _suffix_max_gaps(beta), "max_gap"),
        "C5_q": floor_scan(lam, bundle.Lambda, bundle.N_Lambda),
        # the gamma Cauchy modulus, then gamma_n <= G (exact for any size of G)
        "C7_q": chain(
            modulus_scan(bundle.chi_gamma, _tails(gamma), "window_sum"),
            ({"n": n, "gamma": gamma[n], "G": bundle.G}
             for n in range(H + 1) if gamma[n] - tol > bundle.G),
        ),
        "C8_q": floor_scan(gamma, bundle.Gamma, bundle.N_Gamma),
        "C9_q": beta_floor_scan(),
    }
    return AuditReport(bundle.name, H, [
        ConditionResult(cid, H, witness is None, witness)
        for cid, scan in scans.items() for witness in [next(scan, None)]
    ])


def _tails(values: list) -> list:
    """tails[i] = sum of |values[n] - values[n+1]| over i <= n < len - 1,
    summed from the top down; the last entry is 0.0."""
    top = len(values) - 2
    diffs = (abs(values[i] - values[i + 1]) for i in range(top, -1, -1))
    return list(accumulate(diffs, initial=0.0))[::-1]


def _suffix_max_gaps(beta: list) -> list:
    """suffix[i] = max of 1 - beta_n over i <= n < len - 1; the last entry
    is 0.0."""
    top = len(beta) - 2
    gaps = (1.0 - beta[i] for i in range(top, -1, -1))
    return list(accumulate(gaps, lambda s, g: max(g, s), initial=0.0))[::-1]
