"""Counterfunction algebra, big-natural helpers and rate formulas."""

import decimal
import hashlib
import math
import time
from fractions import Fraction
from itertools import accumulate, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmlab import rates as R
from tmlab.schedules import preset


# ---------------------------------------------------------------------------
# ceil_ln
# ---------------------------------------------------------------------------


def test_ceil_ln_small_values():
    for m in range(1, 2000):
        assert R.ceil_ln(m) == math.ceil(math.log(m))


def test_ceil_ln_near_powers_of_e():
    # e^n is irrational, so ln(ceil(e^n)) lies strictly in (n, n+1) and
    # ln(floor(e^n)) strictly in (n-1, n); the ceilings are n+1 and n
    import mpmath

    for n in range(1, 400):
        with mpmath.workprec(n * 2 + 80):
            m = int(mpmath.ceil(mpmath.exp(n)))
        assert R.ceil_ln(m) == n + 1
        assert R.ceil_ln(m - 1) == n


def test_ceil_ln_huge():
    # ln(2^k) = k ln 2; compare against exact rational bracketing
    m = 1 << 100_000
    got = R.ceil_ln(m)
    assert got == math.ceil(100_000 * math.log(2.0))


def test_ceil_ln_rejects_zero():
    with pytest.raises(R.RateError):
        R.ceil_ln(0)


# ---------------------------------------------------------------------------
# Counterfunction nodes and parser
# ---------------------------------------------------------------------------


CF_TEXTS = [
    "id",
    "const:7",
    "affine:2,0",
    "pow:3",
    "max(id,const:5)",
    "comp(affine:3,1,pow:2)",
    "table:[4,1,9]",
    "mono(table:[4,1,9])",
    "max( id , affine:1, 2 )",
    "table: [ 4 , 1 ]",
    " comp(\tmono(table:[3, 1]) ,pow: 2)\n",
]


@pytest.mark.parametrize("text", CF_TEXTS)
def test_parser_render_round_trip(text):
    f = R.parse_counterfunction(text)
    assert R.parse_counterfunction(f.render()).render() == f.render()


def test_parser_rejects_garbage():
    long = "y" * 3000
    for bad in ("", "pow:0", "affine:-1,0", "max(id)", "table:[]", "nope:3",
                "const:-3", "table:[-3]", "table:[4,-1,9]", "max(id,const:-1)",
                f"max(id,{long})", f"max(max(id,id){long},id)", f"table:[1,{long}]"):
        with pytest.raises(R.RateError) as refused:
            R.parse_counterfunction(bad)
        # a long text or token is quoted by its head and its length
        assert len(str(refused.value)) < 400


def test_node_semantics():
    assert R.Identity()(41) == 41
    assert R.Const(9)(1234) == 9
    assert R.Affine(2, 3)(10) == 23
    assert R.Power(2)(12) == 144
    assert R.Max((R.Identity(), R.Const(5)))(3) == 5
    assert R.Compose(R.Power(2), R.Affine(1, 1))(4) == 25
    assert R.Table((4, 1, 9))(0) == 4
    assert R.Table((4, 1, 9))(50) == 9  # extends by the last value


def test_table_monotonize():
    f = R.monotonize(R.Table((4, 1, 9, 2)))
    assert [f(i) for i in range(6)] == [4, 4, 9, 9, 9, 9]


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=20),
       st.integers(0, 40))
def test_monotonize_dominates_and_is_monotone(values, n):
    f = R.Table(tuple(values))
    g = R.monotonize(f)
    assert g(n) >= f(n)
    if n > 0:
        assert g(n) >= g(n - 1)


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=20))
def test_monotonize_idempotent(values):
    f = R.monotonize(R.Table(tuple(values)))
    g = R.monotonize(f)
    for n in range(len(values) + 3):
        assert g(n) == f(n)


def test_monotonize_identity_on_monotone_trees():
    f = R.Affine(3, 1)
    assert R.monotonize(f) is f


def _trees(with_comp: bool):
    leaves = st.one_of(
        st.integers(0, 50).map(R.Const),
        st.just(R.Identity()),
        st.builds(R.Affine, st.integers(0, 3), st.integers(0, 5)),
        st.integers(1, 3).map(R.Power),
        st.lists(st.integers(0, 100), min_size=1, max_size=8).map(
            lambda v: R.Table(tuple(v))
        ),
    )

    def extend(children):
        pair = st.tuples(children, children)
        if not with_comp:
            return pair.map(R.Max)
        return st.one_of(pair.map(R.Max), pair.map(lambda fg: R.Compose(*fg)))

    return st.recursive(leaves, extend, max_leaves=6)


@given(_trees(with_comp=True))
def test_monotonize_trees_is_a_monotone_upper_bound(f):
    g = R.monotonize(f)
    vals = [g(n) for n in range(41)]
    assert vals == sorted(vals)
    assert all(v >= f(n) for n, v in enumerate(vals))


@given(_trees(with_comp=False))
def test_monotonize_is_the_running_max_without_comp(f):
    g = R.monotonize(f)
    running = accumulate((f(n) for n in range(41)), max)
    assert [g(n) for n in range(41)] == list(running)


def _tables(values):
    return st.lists(values, min_size=1, max_size=40).map(lambda v: R.Table(tuple(v)))


_OUTERS = st.one_of(st.integers(0, 2 ** 12).map(R.Const), _tables(st.integers(0, 2 ** 12)),
                    _trees(with_comp=True))
# pow:e, or comp(max(const,table),g) around such an inner, whose value is
# small though pow:e's passes the cap; or any tree of the grammar
_INNERS = st.one_of(st.recursive(st.integers(1, 40).map(R.Power), lambda g: st.builds(
    lambda c, t, g: R.Compose(R.Max((c, t)), g),
    st.integers(0, 3).map(R.Const), _tables(st.integers(0, 3)), g), max_leaves=3),
    _trees(with_comp=True))


def _exact(f, n):
    """f(n) by the definition of each node: a comp applies its outer function
    to its inner one's full value."""
    if isinstance(f, R.Compose):
        return _exact(f.outer, _exact(f.inner, n))
    if isinstance(f, R.Max):
        return max(_exact(c, n) for c in f.children)
    return f(n)


@settings(max_examples=500, deadline=None)
@given(outer=_OUTERS, inner=_INNERS, n=st.integers(0, 300), cap=st.integers(1, 40))
# the inner's value is max(0, table:[0,1](100**2)) = 1, so the value is 8,
# not the table's last value 2, though 100**2 passes 11 bits
@example(outer=R.Table((4, 8, 2)), n=100, cap=11,
         inner=R.Compose(R.Max((R.Const(0), R.Table((0, 1)))), R.Power(2)))
# the inner's value 2 passes 1 bit, where the table takes its last value 1
@example(outer=R.Table((0, 0, 1)), inner=R.Identity(), n=2, cap=1)
def test_compose_of_a_constant_or_table_is_exact_under_a_cap(outer, inner, n, cap):
    # the exact value is computable here; under the cap it is that value
    # whenever it fits, even where the inner's does not, and a refusal
    # otherwise.  f is constant from f.settles on, or never below the
    # identity where it has no such index
    f = R.Compose(outer, inner)
    exact = _exact(f, n)
    try:
        value = f(n, cap)
    except R.CapExceeded:
        assert exact.bit_length() > cap
    else:
        assert value == exact and exact.bit_length() <= cap
    if f.settles is None:
        assert exact >= n
    else:
        assert _exact(f, max(n, f.settles)) == _exact(f, f.settles)


@pytest.mark.parametrize("text", [
    "comp(table:[0,2,1]," * 99 + "pow:20000000" + ")" * 99,
    "comp(max(const:0,table:[3,7])," * 99 + "pow:20000000" + ")" * 99,
    "comp(table:[9]," * 99 + "pow:20000000" + ")" * 99,
    "max(id,comp(table:[5,6]," * 49 + "pow:20000000" + "))" * 49,
], ids=["table", "max-const-table", "one-value-table", "max-id"])
def test_deep_comp_chains_over_a_huge_inner_take_linear_time(text):
    # each comp evaluates its inner once, so a chain costs one walk per
    # argument and never forms a 2*10**7-th power.  Every outer table is
    # constant from index 2 on, as n**2 and n**(2*10**7) are for n >= 2, so
    # the chain around pow:2 takes the same values
    f = R.parse_counterfunction(text)
    start = time.perf_counter()
    values = [f(n, R.DEFAULT_BIT_CAP) for n in range(50)]
    assert time.perf_counter() - start < 1.0
    g = R.parse_counterfunction(text.replace("pow:20000000", "pow:2"))
    assert values == [_exact(g, n) for n in range(50)]


def test_power_cap_precheck():
    with pytest.raises(R.CapExceeded):
        R.Power(3)(1 << 40, cap=64)
    assert R.Power(2)(10, cap=64) == 100


def test_ceil_scaled_exp_matches_float():
    # exact against decimal at 60 digits, where the float ceiling
    # ceil(2 * math.e ** n) may be one off near an integer
    f = R.CeilScaledExp(2)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for n in range(0, 30):
            assert f(n) == _decimal_ceil(2 * decimal.Decimal(n).exp()), n


def test_ceil_scaled_exp_overflow_detected_early():
    f = R.CeilScaledExp(2)
    with pytest.raises(R.CapExceeded):
        f(10 ** 9, cap=1000)  # never tries to build the number


def test_ceil_scaled_exp_fits_a_cap_of_its_own_bit_length():
    # ceil(2e^n) from decimal at 300 digits, which settles every ceiling
    # here since no 2e^n with n < 400 lies within 1e-100 of an integer
    f = R.CeilScaledExp(2)
    with decimal.localcontext() as ctx:
        ctx.prec = 300
        for n in range(1, 400):
            want = int((2 * decimal.Decimal(n).exp()).to_integral_value(decimal.ROUND_CEILING))
            bits = want.bit_length()
            assert f(n, cap=bits) == want, n
            with pytest.raises(R.CapExceeded):
                f(n, cap=bits - 1)


def _decimal_ceil(x: decimal.Decimal) -> int:
    return int(x.to_integral_value(decimal.ROUND_CEILING))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10 ** 30), st.integers(0, 3000))
def test_ceil_scaled_exp_matches_decimal(c, n):
    # decimal at twice the digits of ceil(c e^n)
    digits = len(str(c)) + math.ceil(n * math.log10(math.e)) + 1
    with decimal.localcontext() as ctx:
        ctx.prec = 2 * digits
        want = _decimal_ceil(c * decimal.Decimal(n).exp())
    assert R.CeilScaledExp(c)(n) == want


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3000), st.integers(-1, 1), st.integers(1, 10 ** 30))
def test_ceil_ln_matches_decimal(n, delta, m):
    # ceil(e^n) + delta, in (e^(n-1), e^n + 2), lies above e^n exactly when
    # delta >= 0; a free m is checked against decimal's ln
    digits = math.ceil(n * math.log10(math.e)) + 1
    with decimal.localcontext() as ctx:
        ctx.prec = 2 * digits
        near = _decimal_ceil(decimal.Decimal(n).exp()) + delta
        ctx.prec = 2 * len(str(m))
        want = _decimal_ceil(decimal.Decimal(m).ln())
    assert R.ceil_ln(near) == n + (delta >= 0)
    assert R.ceil_ln(m) == want


def test_ceil_scaled_exp_at_convergents_of_e():
    # p/q runs through the convergents j of e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...],
    # below e at even j and above it at odd j, and q*e lies within 1/q of p;
    # past q = 2**64 the first enclosure cannot decide ceil(q*e)
    p0, q0, p, q = 1, 0, 2, 1
    for j in range(70):
        assert R.CeilScaledExp(q)(1) == p + (j % 2 == 0), q
        a = 2 * (j + 2) // 3 if j % 3 == 1 else 1  # the partial quotient j + 1
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
    assert q > 2 ** 100


def test_ceil_scaled_exp_at_zero_is_the_scale():
    for c in (1, 2, 3, 10 ** 30, 2 ** 100):
        assert R.CeilScaledExp(c)(0) == c
        assert R.CeilScaledExp(c)(0, cap=c.bit_length()) == c


# n near a power of two: a call can then need one more entry of e's squares
# than the calls before it, at a W no larger than the cache's q, which takes
# the extend path
_near_powers_of_two = st.builds(lambda k, d: max(1, 2 ** k + d),
                                st.integers(0, 11), st.integers(-40, 40))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 2 ** 300),
                          st.integers(1, 3000) | _near_powers_of_two),
                min_size=1, max_size=8))
@example([(2 ** 300, 2047), (2, 2048), (2, 5), (2, 3000), (2, 3000), (10 ** 30, 1)])
def test_exp_enclosures_hold_on_every_cache_path(calls):
    # from a cold cache, calls in any order: a W past the cache's q rebuilds
    # it, a bits(n) past its entries extends it, and a W below q shifts the
    # entries down; each call's second enclosure asks for twice its p
    R._E_SQUARES = (0, [])
    for c, n in calls:
        p = c.bit_length() + 64
        # e**n to 20 digits past the integer part of e**n * 2**(2p) > c * e**n
        with decimal.localcontext() as ctx:
            ctx.prec = math.ceil((n * math.log2(math.e) + 2 * p) * math.log10(2)) + 20
            exp_n = decimal.Decimal(n).exp()
            assert R._ceil_scaled_exp(c, n, None) == _decimal_ceil(c * exp_n), (c, n)
            for p_got, lo, hi in islice(R._exp_enclosures(n, p), 2):
                assert p_got == p
                assert lo <= exp_n * 2 ** p <= hi <= lo + 2, (c, n, p)
                p *= 2


# sha256 of the decimal digits of ceil(2 e**47051), the largest value the
# rates benchmark forms, as square-and-multiply from E formed it before
# the cache of e's squares
_CEIL_2E_47051_SHA256 = "270962b45cfb0b84fb6cbae195e4336e2b2741341d67e3c3bf025887a3b63b65"


def test_ceil_2e_47051_is_pinned():
    def digest():
        value = R._ceil_scaled_exp(2, 47051, None)
        return hashlib.sha256(R._decimal(value).encode()).hexdigest()

    R._E_SQUARES = (0, [])
    assert digest() == _CEIL_2E_47051_SHA256
    q, squares = R._E_SQUARES
    # a larger n widens the cache: one more entry, all at a larger q, which
    # the next ceil(2 e**47051) shifts down
    R._ceil_scaled_exp(2, 65536, None)
    assert R._E_SQUARES[0] > q and len(R._E_SQUARES[1]) == len(squares) + 1 == 17
    assert digest() == _CEIL_2E_47051_SHA256


# ---------------------------------------------------------------------------
# RateValue ordering
# ---------------------------------------------------------------------------


rate_values = st.one_of(
    st.integers(0, 10 ** 12).map(R.RateValue.finite),
    st.just(R.RateValue.astronomical("x")),
)


@given(rate_values, rate_values, rate_values)
def test_ratevalue_total_order(a, b, c):
    assert a <= b or b <= a
    if a <= b and b <= c:
        assert a <= c
    if a <= b and b <= a:
        assert a == b


def test_astronomical_dominates():
    astro = R.RateValue.astronomical("big")
    assert astro > 10 ** 100
    assert astro >= R.RateValue.finite(0)
    assert astro == R.RateValue.astronomical("other")
    assert astro.render().startswith("ASTRO:")


def test_ratevalue_int_comparison():
    assert R.RateValue.finite(5) >= 5
    assert R.RateValue.finite(5) < 6
    with pytest.raises(TypeError):
        R.RateValue.finite(5) < "x"


# ---------------------------------------------------------------------------
# Elementary formulas
# ---------------------------------------------------------------------------


def test_omega_formulas():
    assert R.r_of_k(3, 2) == 16
    assert R.omega1(0, 1) == 24
    assert R.omega2(0, 1) == 4
    for k in range(6):
        for K in (1, 2, 3):
            assert R.omega1(k, K) == 24 * K * (k + 1) ** 2
            assert R.omega2(k, K) == 4 * K * K * (k + 1) ** 2


def _n_star_straight_line(k, g, K, cap=None):
    # independent recomputation: r(omega2(k)) = K^2 (4K^2 (k+1)^2 + 1) steps
    # of v -> max{omega1(v), g(omega1(v))} from 0, then omega1; every omega1
    # and g value is computed exactly, and CapExceeded raised only once one
    # of them has more than cap bits
    def exact(v):
        if cap is not None and v.bit_length() > cap:
            raise R.CapExceeded()
        return v

    def w1(n):
        return exact(24 * K * (n + 1) ** 2)

    v = 0
    for _ in range(K * K * (4 * K * K * (k + 1) ** 2 + 1)):
        w = w1(v)
        v = max(w, exact(g(w)))
    return w1(v)


def test_bound_n_star_oracle():
    # g = 0 makes each step omega1 alone; g = 2n makes g(omega1) the larger
    for g in (lambda n: 0, lambda n: 2 * n):
        for k, K in ((0, 1), (1, 1)):
            expected = _n_star_straight_line(k, g, K)
            assert R._n_star_int(k, g, K, None) == expected
            assert R._n_star_int(k, g, K, 2 ** 26) == expected


def test_hat_combines_omega1_and_f():
    # each step of the n* tower is hat(f)(h) = max{omega1(h), f(omega1(h))}
    f = R.Affine(2, 0)
    for k in range(2):
        h = 0
        for _ in range(R.r_of_k(R.omega2(k, 1), 1)):
            w = R.omega1(h, 1)
            h = max(w, 2 * w)
        assert R._n_star_int(k, f, 1, None) == R.omega1(h, 1)


def test_n_star_refuses_one_bit_below_its_value():
    g = lambda n: 2 * n
    expected = _n_star_straight_line(0, g, 1)
    bits = expected.bit_length()
    assert R._n_star_int(0, g, 1, bits) == expected
    for cap in (bits - 1, 64, 1):
        with pytest.raises(R.CapExceeded):
            R._n_star_int(0, g, 1, cap)
    with pytest.raises(R.CapExceeded):  # 68 near-squarings from 24
        R._n_star_int(0, g, 2, 2 ** 20)


def _n_star_outcome(n_star, k, g, K, cap):
    try:
        return n_star(k, g, K, cap)
    except R.CapExceeded:
        return "CapExceeded"


@settings(max_examples=200, deadline=None)
@given(_trees(with_comp=True), st.integers(0, 3), st.integers(1, 3),
       st.integers(1, 4096))
def test_n_star_refusal_matches_exact_evaluation(f, k, K, cap):
    # the remaining-squarings refusal must give the exact tower's outcome:
    # the same value, or CapExceeded on both sides; the value's own bit
    # length and one bit less are the caps where a bound too large shows
    caps = [cap]
    try:
        exact = _n_star_straight_line(k, f, K, 2 ** 14)
    except R.CapExceeded:
        pass
    else:
        caps += [exact.bit_length(), exact.bit_length() - 1]
    for c in caps:
        assert (_n_star_outcome(R._n_star_int, k, f, K, c)
                == _n_star_outcome(_n_star_straight_line, k, f, K, c))


def test_n_star_refuses_after_one_g_at_the_bench_shape():
    # the default-Phi mu_star at k = 0, K = 1: 9,217 rounds at cap 2^20; after
    # the first round, (bits(h+1) - 1) * 2**(rounds left) passes the cap
    calls = []
    g = lambda w: calls.append(w) or w
    with pytest.raises(R.CapExceeded):
        R._n_star_int(47, g, 1, 2 ** 20)
    assert calls == [24]


def test_zeta_star_telescoping_closed_form():
    b = preset("harmonic")
    for k in range(60):
        assert R.zeta_star(k, 0, b.sigma_star, 1).value == 3 * k + 4


def test_zeta_uses_ceil_ln():
    sigma = R.Identity()
    # zeta(k, n) = n + ceil(ln(3(k+1))) + 1 with S = 1
    assert R.zeta(0, 0, sigma, 1).value == math.ceil(math.log(3)) + 1
    assert R.zeta(9, 5, sigma, 1).value == 5 + math.ceil(math.log(30)) + 1


# ---------------------------------------------------------------------------
# Golden chain (constant step sizes, harmonic anchor weights, K = 1)
# ---------------------------------------------------------------------------


@pytest.fixture
def golden():
    bundle = preset("constant-gamma-harmonic-beta")
    return bundle, 1, (lambda k: 0)


def test_chi_golden(golden):
    b, K, ct = golden
    assert R.chi(0, b, K, ct).value == 7
    for k in range(10):
        assert R.chi(k, b, K, ct).value == 8 * (k + 1) - 1


def test_sigma_star_golden(golden):
    b, K, ct = golden
    assert R.Sigma_star(0, b, K, ct).value == 145
    # closed form: (chi(3k+2) + 1) * 6(k+1) + 1
    for k in range(10):
        expected = (8 * (3 * k + 3) - 1 + 1) * 6 * (k + 1) + 1
        assert R.Sigma_star(k, b, K, ct).value == expected


def test_sigma_tilde_star_golden(golden):
    b, K, ct = golden
    assert R.Sigma_tilde_star(0, b, K, ct).value == 2305


def test_psi_star_golden(golden):
    b, K, ct = golden
    assert R.Psi_star(0, b, K, ct).value == 20737


def test_sigma_golden_exponential(golden):
    b, K, ct = golden
    expected = math.ceil(2 * math.e ** 27) + 1
    assert R.Sigma(0, b, K, ct).value == expected


def test_mu_star_golden_constant_phi(golden):
    b, K, ct = golden
    got = R.mu_star(0, R.Const(0), b, K, ct, Phi_override=R.Const(0))
    assert got.value == 4609


def test_mu_star_default_phi_astronomical(golden):
    # the default regularity-rate plug-in puts a near-squaring tower with
    # thousands of levels inside the bound; it blows any desk-scale bit cap
    # (verified separately up to 2**26, which takes minutes of GMP time)
    b, K, ct = golden
    got = R.mu_star(0, R.Const(0), b, K, ct, bit_cap=2 ** 20)
    assert got.is_astronomical


def test_sigma_golden_at_a_cap_of_its_own_bit_length(golden):
    # Sigma(0) = ceil(2e^27) + 1 = 1,064,096,481,205 has 40 bits
    b, K, ct = golden
    assert R.Sigma(0, b, K, ct, bit_cap=40).value == 1_064_096_481_205
    assert R.Sigma(0, b, K, ct, bit_cap=39).is_astronomical


def test_sigma_astronomical_under_tiny_cap(golden):
    b, K, ct = golden
    assert R.Sigma(0, b, K, ct, bit_cap=16).is_astronomical
    assert R.Sigma(0, b, K, ct, bit_cap=2 ** 20).value is not None


def test_rates_monotone_in_k(golden):
    b, K, ct = golden
    for name, fn in (
        ("chi", R.chi),
        ("Sigma_star", R.Sigma_star),
        ("Sigma_tilde_star", R.Sigma_tilde_star),
        ("Psi_star", R.Psi_star),
    ):
        vals = [fn(k, b, K, ct).value for k in range(8)]
        assert vals == sorted(vals), name


def test_psi_is_the_promoted_family_rate():
    # Psi(k) = max{tilde((1 + 2*Gamma*G)(k+1) - 1), N_Gamma}, with tilde the
    # family rate Sigma_tilde (Sigma_tilde_star for Psi_star)
    ct, cap = (lambda k: 2 * k + 1), 2 ** 24
    for name, K, G in (("constant-gamma-harmonic-beta", 1, 1), ("harmonic", 2, 2)):
        b = preset(name)
        assert b.G == G
        for psi, tilde in ((R.Psi, R.Sigma_tilde), (R.Psi_star, R.Sigma_tilde_star)):
            for k in range(5):
                j = (1 + 2 * b.Gamma * b.G) * (k + 1) - 1
                t = tilde(j, b, K, ct, cap)
                assert not t.is_astronomical
                want = max(t.value, b.N_Gamma)
                assert psi(k, b, K, ct, cap).value == want, (name, psi, k)


# ---------------------------------------------------------------------------
# The table of rates, and values past the float and str() ranges
# ---------------------------------------------------------------------------


def test_rate_table_matches_public_functions(golden):
    b, K, ct = golden
    assert tuple(R.RATES) == ("chi", "Sigma", "Sigma_tilde", "Sigma_star",
                              "Sigma_tilde_star", "Psi", "Psi_star")
    for name, fn in R.RATES.items():
        for k in range(3):
            want = R.RateValue.finite(fn(k, b, K, ct, R.DEFAULT_BIT_CAP))
            assert R.rate(name, k, b, K, ct) == want
            assert getattr(R, name)(k, b, K, ct) == want
        tiny = R.rate(name, 7, b, K, ct, bit_cap=1)
        assert tiny.render() == f"ASTRO:{name}(k=7)"


def test_ceil_scaled_exp_refuses_arguments_past_float_range():
    # 10**400 does not fit a float; e**n has more than n bits, so any
    # n above the cap is refused before the float estimate is formed
    with pytest.raises(R.CapExceeded):
        R.CeilScaledExp(2)(10 ** 400, cap=2 ** 20)
    with pytest.raises(R.CapExceeded):
        R.CeilScaledExp(2)(2 ** 20 + 1, cap=2 ** 20)


def test_mu_default_phi_is_astronomical(golden):
    b, K, ct = golden
    got = R.mu(0, R.Const(0), b, K, ct, bit_cap=2 ** 20)
    assert got.render() == "ASTRO:mu(k=0,f=const:0)"


@pytest.mark.parametrize("n", [
    0, 10 ** 3999, 10 ** 4000 - 1, 10 ** 4000, 10 ** 4000 + 1,
    10 ** 8000, 10 ** 8000 + 7, 7 ** 20000,
], ids=lambda n: f"{n.bit_length()}-bits-mod-1000={n % 1000}")
def test_render_past_str_digit_limit(n):
    from decimal import Decimal

    assert R.RateValue.finite(n).render() == str(Decimal(n))


def test_render_of_a_6008_digit_mu():
    from decimal import Decimal

    b = preset("constant-gamma-harmonic-beta")
    got = R.mu(5, R.Const(0), b, 2, lambda k: 0, Phi_override=R.Const(0))
    text = got.render()
    assert len(text) == 6008
    assert text == str(Decimal(got.value))


@pytest.mark.parametrize("name", list(R.RATES))
def test_finite_rates_fit_the_bit_cap(golden, name):
    b, K, ct = golden
    for cap in range(1, 17):
        for k in range(4):
            got = R.rate(name, k, b, K, ct, bit_cap=cap)
            assert got.is_astronomical or got.value.bit_length() <= cap, (cap, k)


def test_constant_folding_obeys_the_bit_cap(golden):
    # 3**(10**9) has about 1.6e9 bits: the fold must refuse it, not build it
    b, K, ct = golden
    phi = R.parse_counterfunction("comp(pow:1000000000,const:3)")
    t0 = time.monotonic()
    got = R.mu_star(0, R.Const(0), b, K, ct, Phi_override=phi)
    assert got.is_astronomical
    assert time.monotonic() - t0 < 1.0
