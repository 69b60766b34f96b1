"""Schedule presets and the finite-prefix modulus auditor."""

from dataclasses import replace
from fractions import Fraction

import pytest

from tmlab.rates import CapExceeded, Const, Identity, Max, Power, Table
from tmlab.schedules import (
    ScheduleBundle,
    ScheduleError,
    audit_schedule,
    chi_T,
    preset,
)


def test_preset_names():
    assert preset("harmonic").name == "harmonic"
    assert preset("constant-gamma-harmonic-beta").G == 1
    with pytest.raises(ScheduleError):
        preset("unknown")


def test_preset_sequences():
    b = preset("harmonic")
    assert b.lam(10) == 0.5
    assert b.beta(0) == 0.5
    assert b.beta_exact(3) == Fraction(4, 5)
    assert b.gamma(0) == 2.0
    assert preset("constant-gamma-harmonic-beta").gamma(99) == 1.0


@pytest.mark.parametrize("name", ["harmonic", "constant-gamma-harmonic-beta"])
def test_audit_passes_at_moderate_horizon(name):
    report = audit_schedule(preset(name), 2000, tol=1e-9)
    failing = [r.condition_id for r in report.results if not r.passed]
    assert not failing, failing


def test_audit_uses_exact_products_and_passes_without_tolerance():
    # sigma*(m,k) = (m+1)(k+1) for beta_n = (n+1)/(n+2): the product over
    # [m, N] is (m+1)/(N+2), and (m+1)/((m+1)(k+1)+2) <= 1/(k+1) exactly
    report = audit_schedule(preset("harmonic"), 500, tol=0.0)
    sigma_star_result = [r for r in report.results if r.condition_id == "C1_q*"]
    assert sigma_star_result[0].passed


def test_sigma_star_obeys_the_bit_cap():
    s = preset("harmonic").sigma_star
    assert s(3, 4) == s(3, 4, 5) == 20
    with pytest.raises(CapExceeded):
        s(3, 4, 4)
    # refused from the bit lengths, before a 1.2 Mbit product is formed
    big = 1 << 600_000
    with pytest.raises(CapExceeded):
        s(big, big, 2 ** 20)


def test_audit_detects_wrong_sigma():
    b = preset("harmonic")
    b.sigma = Identity()  # claims sum_{i<=n} (1 - beta_i) >= n: false
    report = audit_schedule(b, 200)
    bad = {r.condition_id: r for r in report.results}["C1_q"]
    assert not bad.passed
    assert bad.first_violation["n"] >= 1


def test_audit_detects_wrong_eta():
    b = preset("harmonic")
    b.eta = Const(0)  # claims 1 - beta_n <= 1/(k+1) from index 0 for all k
    report = audit_schedule(b, 200)
    assert not {r.condition_id: r for r in report.results}["C4_q"].passed


def test_audit_detects_gamma_above_bound():
    b = preset("harmonic")
    b.G = 1  # gamma_0 = 2 > 1
    report = audit_schedule(b, 50)
    assert not {r.condition_id: r for r in report.results}["C7_q"].passed


def test_audit_detects_beta_floor_violation():
    b = preset("harmonic")
    # B = 1 claims beta_n >= 1, but beta_0 = 1/2; B = 0 admits no floor
    for B in (1, 0):
        b.B = Const(B)
        # reassigning after construction skips monotonization; fine for Const
        report = audit_schedule(b, 50)
        assert not {r.condition_id: r for r in report.results}["C9_q"].passed


def test_audit_takes_bounds_past_the_float_and_memory_range():
    # weaker claims than the preset's, so each holds; a modulus past the
    # horizon is refused under a bit cap before 2^(10^12) is formed
    huge = 10 ** 400
    b = replace(preset("harmonic"), Lambda=huge, Gamma=huge, G=huge,
                eta=Power(10 ** 12), B=Max((Const(2), Power(10 ** 12))))
    assert audit_schedule(b, 2000).passed


def test_bundle_monotonizes_counterfunctions():
    b = preset("harmonic")
    b2 = ScheduleBundle(
        name="custom",
        lam=b.lam, beta=b.beta, gamma=b.gamma,
        sigma=b.sigma, sigma_star=b.sigma_star,
        chi_beta=Table((5, 1, 9)),  # not monotone
        chi_lambda=b.chi_lambda, chi_gamma=b.chi_gamma,
        eta=b.eta, B=b.B,
        Lambda=2, N_Lambda=0, Gamma=1, N_Gamma=0, G=2,
    )
    assert [b2.chi_beta(i) for i in range(4)] == [5, 5, 9, 9]


def test_bundle_rejects_bad_constants():
    b = preset("harmonic")
    with pytest.raises(ScheduleError):
        ScheduleBundle(
            name="bad", lam=b.lam, beta=b.beta, gamma=b.gamma,
            sigma=b.sigma, sigma_star=b.sigma_star,
            chi_beta=b.chi_beta, chi_lambda=b.chi_lambda,
            chi_gamma=b.chi_gamma, eta=b.eta, B=b.B,
            Lambda=0, N_Lambda=0, Gamma=1, N_Gamma=0, G=2,
        )


def test_chi_T_formula():
    b = preset("harmonic")
    for K in (1, 2):
        for k in range(5):
            expected = max(b.N_Gamma, b.chi_gamma(2 * K * b.Gamma * (k + 1) - 1))
            assert chi_T(b, K, k) == expected
    with pytest.raises(ScheduleError):
        chi_T(b, 0, 0)
