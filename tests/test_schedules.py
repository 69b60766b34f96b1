"""Schedule presets and the finite-prefix modulus auditor."""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from tmlab.rates import CapExceeded, CeilScaledExp, Const, Identity, Max, Power, Table
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
    # sigma(2) and sigma*(m, k) would be 2^(10^12): 125 GB unless refused
    b = replace(preset("harmonic"), sigma=Max((CeilScaledExp(2), Power(10 ** 12))))
    assert audit_schedule(b, 2000).passed
    b = replace(preset("harmonic"),
                sigma_star=lambda m, k, cap=None: Power(10 ** 12)(k + 2, cap))
    assert audit_schedule(b, 2000).passed


def audit_variants():
    """Both presets, and for each condition a bundle that fails it."""
    h = preset("harmonic")
    return {
        "harmonic": h,
        "constant": preset("constant-gamma-harmonic-beta"),
        "C1_q": replace(h, sigma=Identity()),
        "C1_q*": replace(h, sigma_star=lambda m, k, cap=None: m),
        "C2_q": replace(h, chi_beta=Const(0)),
        "C3_q": replace(h, lam=lambda n: 0.5 + 0.5 / (n + 1)),
        "C4_q": replace(h, eta=Const(0)),
        # eta(k) = k - 1 holds exactly, but 1 - beta_1 exceeds 1/3 by an ulp
        # in floats: only the tolerance passes it
        "C4_q-ulp": replace(h, eta=Table(tuple(max(k - 1, 0) for k in range(10_002)))),
        "C5_q": replace(h, Lambda=1),
        "C7_q-series": replace(h, chi_gamma=Const(0)),
        "C7_q-G": replace(h, G=1),
        "C8_q": replace(h, gamma=lambda n: 1.0 / (n + 1), Gamma=1),
        "C9_q": replace(h, B=Const(1)),
        # beta_0 = 0 zeroes every product prefix from 1 on
        "zero-beta-0": replace(
            h, beta=lambda n: 0.0 if n == 0 else (n + 1) / (n + 2),
            beta_exact=lambda n: Fraction(0) if n == 0 else Fraction(n + 1, n + 2)),
    }


# sha256 of json.dumps(audit_schedule(bundle, horizon, tol).to_json()) for
# each bundle of audit_variants(), recorded with the audit that ran one
# function per condition and took sigma* products in floats above 10,000
AUDIT_SHA256 = """
harmonic 10 1e-09 956664bfa05d41ed9e6db43e4ec1026a48f401e1d2502412889576a24b90d931
harmonic 10 0.0 956664bfa05d41ed9e6db43e4ec1026a48f401e1d2502412889576a24b90d931
harmonic 1000 1e-09 760d1874c8c72005e528218ebc8100e96d4845a85012e2b87dea8f8f69e957d0
harmonic 1000 0.0 760d1874c8c72005e528218ebc8100e96d4845a85012e2b87dea8f8f69e957d0
harmonic 2000 1e-09 845134b53ed3f241b01940083dac4fac1dd3c24f99163a13e8e241a18b581de5
harmonic 2000 0.0 845134b53ed3f241b01940083dac4fac1dd3c24f99163a13e8e241a18b581de5
harmonic 10000 1e-09 b848665a50bf9c85e438f2d9d739af8fd50c8b8f4c326ef5f213163860a26b7c
harmonic 10000 0.0 b848665a50bf9c85e438f2d9d739af8fd50c8b8f4c326ef5f213163860a26b7c
constant 10 1e-09 956664bfa05d41ed9e6db43e4ec1026a48f401e1d2502412889576a24b90d931
constant 10 0.0 956664bfa05d41ed9e6db43e4ec1026a48f401e1d2502412889576a24b90d931
constant 1000 1e-09 760d1874c8c72005e528218ebc8100e96d4845a85012e2b87dea8f8f69e957d0
constant 1000 0.0 760d1874c8c72005e528218ebc8100e96d4845a85012e2b87dea8f8f69e957d0
constant 2000 1e-09 845134b53ed3f241b01940083dac4fac1dd3c24f99163a13e8e241a18b581de5
constant 2000 0.0 845134b53ed3f241b01940083dac4fac1dd3c24f99163a13e8e241a18b581de5
constant 10000 1e-09 b848665a50bf9c85e438f2d9d739af8fd50c8b8f4c326ef5f213163860a26b7c
constant 10000 0.0 b848665a50bf9c85e438f2d9d739af8fd50c8b8f4c326ef5f213163860a26b7c
C1_q 10 1e-09 86c9d9e9cfe3fe4c06e7126e5983e7e73cf46fe613b70e81fb0834a33ca227a3
C1_q 10 0.0 86c9d9e9cfe3fe4c06e7126e5983e7e73cf46fe613b70e81fb0834a33ca227a3
C1_q 1000 1e-09 d082d68ded7fa2327a046ab068586722c959fcb3de5a5ef7878cbd1943012201
C1_q 1000 0.0 d082d68ded7fa2327a046ab068586722c959fcb3de5a5ef7878cbd1943012201
C1_q 2000 1e-09 c755e81a303760c418e6504618ebcaad7ab76e19a18b9405280290b2f93fa014
C1_q 2000 0.0 c755e81a303760c418e6504618ebcaad7ab76e19a18b9405280290b2f93fa014
C1_q 10000 1e-09 e27e75da4fb5624ce712979efe4e0b7b5a8e62f99988c296a1f0f72f9d2f660f
C1_q 10000 0.0 e27e75da4fb5624ce712979efe4e0b7b5a8e62f99988c296a1f0f72f9d2f660f
C1_q* 10 1e-09 daa64d00a5751226e67a0022bbf9fcfcd9549c12513b482220f682fdb0fecf10
C1_q* 10 0.0 daa64d00a5751226e67a0022bbf9fcfcd9549c12513b482220f682fdb0fecf10
C1_q* 1000 1e-09 645d90f230ddc49bc50cfad20d4c211dcda1340b28112a2ddcf24cef05fbde73
C1_q* 1000 0.0 645d90f230ddc49bc50cfad20d4c211dcda1340b28112a2ddcf24cef05fbde73
C1_q* 2000 1e-09 6dd3b0361565320076ddee68d9491c21d35f453395c62cbcdb336ffa43dc12cb
C1_q* 2000 0.0 6dd3b0361565320076ddee68d9491c21d35f453395c62cbcdb336ffa43dc12cb
C1_q* 10000 1e-09 0259bc211f042155a8b84506227ae21774b39b25a396fed466b0a65b62f32eb3
C1_q* 10000 0.0 0259bc211f042155a8b84506227ae21774b39b25a396fed466b0a65b62f32eb3
C2_q 10 1e-09 37d7af781d03a21469b2f5f774a82c8030eff0997e4a1e6a90eed6d779b485d6
C2_q 10 0.0 37d7af781d03a21469b2f5f774a82c8030eff0997e4a1e6a90eed6d779b485d6
C2_q 1000 1e-09 5e9a2361c15742848a04c7a7a8db2e5f1ebc0874510a4e77129ad86aff9dc929
C2_q 1000 0.0 5e9a2361c15742848a04c7a7a8db2e5f1ebc0874510a4e77129ad86aff9dc929
C2_q 2000 1e-09 e462bf97df151bc8f9ef0d295e52c2a56c98c511c1046623bc1dc95c2803f5c3
C2_q 2000 0.0 e462bf97df151bc8f9ef0d295e52c2a56c98c511c1046623bc1dc95c2803f5c3
C2_q 10000 1e-09 6ceb2ca9e09e39f36a4c62c1c998239ae9b49be4ec0c3b5da8ebb75fada6409e
C2_q 10000 0.0 6ceb2ca9e09e39f36a4c62c1c998239ae9b49be4ec0c3b5da8ebb75fada6409e
C3_q 10 1e-09 0bbb7830948fbac1e2d50c095b22c376d2e2cb04ed105dc0bb7a229171e53434
C3_q 10 0.0 0bbb7830948fbac1e2d50c095b22c376d2e2cb04ed105dc0bb7a229171e53434
C3_q 1000 1e-09 381045b89b46d5d8697497a5d6efe9129e280573e6c1c88d97bef55b60bab10e
C3_q 1000 0.0 381045b89b46d5d8697497a5d6efe9129e280573e6c1c88d97bef55b60bab10e
C3_q 2000 1e-09 c751d05c863255fba58fdb4effa3fef9236eafeef733f3abbaafc84bd4f14599
C3_q 2000 0.0 c751d05c863255fba58fdb4effa3fef9236eafeef733f3abbaafc84bd4f14599
C3_q 10000 1e-09 729bf66f435d729eb499a30045cebb1f91eeb26500685448257eac42ab79aab0
C3_q 10000 0.0 729bf66f435d729eb499a30045cebb1f91eeb26500685448257eac42ab79aab0
C4_q 10 1e-09 17ea4f43eb7315373787648543e98bc2060cca75623959712842b2cff1a0b2ed
C4_q 10 0.0 17ea4f43eb7315373787648543e98bc2060cca75623959712842b2cff1a0b2ed
C4_q 1000 1e-09 29225c1b11e39898dc15124987b56b3e9ad180acaada228d5b5f47edf7a7a14c
C4_q 1000 0.0 29225c1b11e39898dc15124987b56b3e9ad180acaada228d5b5f47edf7a7a14c
C4_q 2000 1e-09 cef3940c8b019906a30c6d1697091abe2fb736f679c3154597a0e1eb247c94bf
C4_q 2000 0.0 cef3940c8b019906a30c6d1697091abe2fb736f679c3154597a0e1eb247c94bf
C4_q 10000 1e-09 d203607839255a577d489300bc73bc57f9b2c26d63df72c3bd834617355489c3
C4_q 10000 0.0 d203607839255a577d489300bc73bc57f9b2c26d63df72c3bd834617355489c3
C4_q-ulp 10 1e-09 956664bfa05d41ed9e6db43e4ec1026a48f401e1d2502412889576a24b90d931
C4_q-ulp 10 0.0 372d0c42ce6140f4d5393a7968193f0a7981aec53b084d7df521fc261e8971ae
C4_q-ulp 1000 1e-09 760d1874c8c72005e528218ebc8100e96d4845a85012e2b87dea8f8f69e957d0
C4_q-ulp 1000 0.0 ae25d197b67c912c7b0d9a4bf541a1bb5158c592cfa58da85af125bfcbb18d14
C4_q-ulp 2000 1e-09 845134b53ed3f241b01940083dac4fac1dd3c24f99163a13e8e241a18b581de5
C4_q-ulp 2000 0.0 8775dde87e3b707caf0dbf523928a6a46ba21c900b9e8bebbc6fc88af37c3c76
C4_q-ulp 10000 1e-09 b848665a50bf9c85e438f2d9d739af8fd50c8b8f4c326ef5f213163860a26b7c
C4_q-ulp 10000 0.0 84dd031d0320933ceb83a8a456a4f8ad7c4a3c58c5a118f50c4ae4a7820a7231
C5_q 10 1e-09 d4de9af8c2f382419661158a81f87acb9a664d8c20e098b8adaf9d5d50bcd1ad
C5_q 10 0.0 d4de9af8c2f382419661158a81f87acb9a664d8c20e098b8adaf9d5d50bcd1ad
C5_q 1000 1e-09 e8c2e86c89e66960935349aaeb1165a1184e7b2796949d67899e1428695c595e
C5_q 1000 0.0 e8c2e86c89e66960935349aaeb1165a1184e7b2796949d67899e1428695c595e
C5_q 2000 1e-09 dc819f43ea8989685221e80a44be793f6eec14488a28579afe436823fa401b50
C5_q 2000 0.0 dc819f43ea8989685221e80a44be793f6eec14488a28579afe436823fa401b50
C5_q 10000 1e-09 ed67182d696a8b2ac2fbc76affa90fbc36bf70b39d36f3b64135ef801940874f
C5_q 10000 0.0 ed67182d696a8b2ac2fbc76affa90fbc36bf70b39d36f3b64135ef801940874f
C7_q-series 10 1e-09 4d240a7461e2cfe87a624e35c073d512c36dcfbeaa9f22481fd31cb738c1e11a
C7_q-series 10 0.0 4d240a7461e2cfe87a624e35c073d512c36dcfbeaa9f22481fd31cb738c1e11a
C7_q-series 1000 1e-09 d90455e0fc9d92a94aebcf9f1711076abd707c5ab208b0e2e7a1e9ec00cd48c5
C7_q-series 1000 0.0 d90455e0fc9d92a94aebcf9f1711076abd707c5ab208b0e2e7a1e9ec00cd48c5
C7_q-series 2000 1e-09 09075c610cd10fb63b2f1a4fb61a19ef958dfe89497a11a5590dc861452ba69b
C7_q-series 2000 0.0 09075c610cd10fb63b2f1a4fb61a19ef958dfe89497a11a5590dc861452ba69b
C7_q-series 10000 1e-09 0e9cc6f86abac73fe3b7bb373faf0a625d9766520b055adc6c297b0cc4c2f177
C7_q-series 10000 0.0 0e9cc6f86abac73fe3b7bb373faf0a625d9766520b055adc6c297b0cc4c2f177
C7_q-G 10 1e-09 1c6ad717922ef878035172ab668a337f5ce913a6827edadaf99eef9ce960c4a1
C7_q-G 10 0.0 1c6ad717922ef878035172ab668a337f5ce913a6827edadaf99eef9ce960c4a1
C7_q-G 1000 1e-09 4d6d74ab554afe6bf3097b7f0d6c8f51962f696a4028d6920a46aafecdcc3295
C7_q-G 1000 0.0 4d6d74ab554afe6bf3097b7f0d6c8f51962f696a4028d6920a46aafecdcc3295
C7_q-G 2000 1e-09 5d04f3f6781cd71e91afb222c56074f81da76c5644d4fc1b1e7d66a17e3e0403
C7_q-G 2000 0.0 5d04f3f6781cd71e91afb222c56074f81da76c5644d4fc1b1e7d66a17e3e0403
C7_q-G 10000 1e-09 360443f5b4febf585276f87ad7490b009348c64c365b6e51db91f70c43e78d15
C7_q-G 10000 0.0 360443f5b4febf585276f87ad7490b009348c64c365b6e51db91f70c43e78d15
C8_q 10 1e-09 619ab776925bfdf9bce6bad3d0b3573d31af9ec703d05aa0d126e51ef442def6
C8_q 10 0.0 619ab776925bfdf9bce6bad3d0b3573d31af9ec703d05aa0d126e51ef442def6
C8_q 1000 1e-09 f0024dd42e9a7414eedd99a12c70ee1da05240cd4c644c58863397cd392d5e55
C8_q 1000 0.0 f0024dd42e9a7414eedd99a12c70ee1da05240cd4c644c58863397cd392d5e55
C8_q 2000 1e-09 05d19f2f6d12853f109e471fa1052b79f2199ae68c93e44ac0befdac336deb8e
C8_q 2000 0.0 05d19f2f6d12853f109e471fa1052b79f2199ae68c93e44ac0befdac336deb8e
C8_q 10000 1e-09 62c8b5559be5a7acb440f332fa4de02ef884dbda443f5094d9ca34e18a7b2eb4
C8_q 10000 0.0 62c8b5559be5a7acb440f332fa4de02ef884dbda443f5094d9ca34e18a7b2eb4
C9_q 10 1e-09 b97533d23d9bbab62c1974650741369ad3b937f1b1271d3188ee43117def084e
C9_q 10 0.0 b97533d23d9bbab62c1974650741369ad3b937f1b1271d3188ee43117def084e
C9_q 1000 1e-09 4ca263ce377fb75d072ade6e6b3fb5a523367631858413859651a309d5674784
C9_q 1000 0.0 4ca263ce377fb75d072ade6e6b3fb5a523367631858413859651a309d5674784
C9_q 2000 1e-09 926632d50cf8a20195ce95cc6d643c7d73a3440783bf28ff204bd6b8c198c737
C9_q 2000 0.0 926632d50cf8a20195ce95cc6d643c7d73a3440783bf28ff204bd6b8c198c737
C9_q 10000 1e-09 22fc62a30dc033e7bbdc2eb95258e720f9c540b0bf78b53d25b1eba3f3073c28
C9_q 10000 0.0 22fc62a30dc033e7bbdc2eb95258e720f9c540b0bf78b53d25b1eba3f3073c28
zero-beta-0 10 1e-09 93c59757ef8b11c5770f367802a9ea57a0eb8828eb7d5b8ca053818e62eb6028
zero-beta-0 10 0.0 93c59757ef8b11c5770f367802a9ea57a0eb8828eb7d5b8ca053818e62eb6028
zero-beta-0 1000 1e-09 22f297fd5d339d5b3be17f98ce3ac1ef6255c20bf4bd7e630ac596fa5ad19e25
zero-beta-0 1000 0.0 22f297fd5d339d5b3be17f98ce3ac1ef6255c20bf4bd7e630ac596fa5ad19e25
zero-beta-0 2000 1e-09 6a1fb3f7837ad55538274af623de48fb1ae8d19ef20663bc72e03778da045132
zero-beta-0 2000 0.0 6a1fb3f7837ad55538274af623de48fb1ae8d19ef20663bc72e03778da045132
zero-beta-0 10000 1e-09 4bd082d98fc1e2ef3e300d64647f0a5ce1c143ba77f39c1c7f077561b9349fa8
zero-beta-0 10000 0.0 4bd082d98fc1e2ef3e300d64647f0a5ce1c143ba77f39c1c7f077561b9349fa8
"""


@pytest.mark.parametrize("horizon", [10, 1000, 2000, 10000])
def test_audit_bytes_are_pinned(horizon):
    want = {(name, tol): digest
            for name, h, tol, digest in map(str.split, AUDIT_SHA256.strip().splitlines())
            if int(h) == horizon}
    got = {}
    for name, bundle in audit_variants().items():
        for tol in ("1e-09", "0.0"):
            text = json.dumps(audit_schedule(bundle, horizon, float(tol)).to_json())
            got[name, tol] = hashlib.sha256(text.encode()).hexdigest()
    assert got == want


def test_bundle_monotonizes_counterfunctions():
    b = preset("harmonic")
    b2 = ScheduleBundle(
        name="custom",
        lam=b.lam, beta=b.beta, gamma=b.gamma,
        sigma=b.sigma, sigma_star=b.sigma_star,
        chi_beta=Table((5, 1, 9)),  # not monotone
        chi_lambda=b.chi_lambda, chi_gamma=b.chi_gamma,
        eta=b.eta, B=b.B,
        Lambda=2, N_Lambda=0, Gamma=1, N_Gamma=0, G=2, beta_exact=b.beta_exact,
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
            beta_exact=b.beta_exact,
        )


def test_chi_T_formula():
    b = preset("harmonic")
    for K in (1, 2):
        for k in range(5):
            expected = max(b.N_Gamma, b.chi_gamma(2 * K * b.Gamma * (k + 1) - 1))
            assert chi_T(b, K, k) == expected
    with pytest.raises(ScheduleError):
        chi_T(b, 0, 0)


@pytest.mark.parametrize("chi_gamma, N_Gamma", [
    (Identity(), 0), (Power(3), 0), (Power(40), 5), (Const(0), 2 ** 20), (Table((1, 7)), 300)])
def test_chi_T_under_a_cap_is_the_value_or_refused(chi_gamma, N_Gamma):
    # chi_T(k, cap) is chi_T(k), or CapExceeded exactly when that value has
    # more than cap bits
    b = replace(preset("harmonic"), chi_gamma=chi_gamma, N_Gamma=N_Gamma)
    for K in (1, 3):
        for k in range(6):
            value = chi_T(b, K, k)
            for cap in (1, 5, 9, 21, 64, 300):
                if value.bit_length() > cap:
                    with pytest.raises(CapExceeded):
                        chi_T(b, K, k, cap)
                else:
                    assert chi_T(b, K, k, cap) == value
