"""Arbitrary-precision rate formulas over a small counterfunction algebra.

All quantities here are big naturals (Python ints).  Values that outgrow a
configured bit cap are reported as the ``Astronomical`` sentinel, which
compares strictly above every finite value, so bound checks of the form
"searched n <= rate" stay decidable even when the rate itself is not
representable.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, count
from typing import Callable, Iterator, Optional

try:  # GMP-backed integers keep the near-squaring towers fast
    from gmpy2 import mpz
except ImportError:  # pragma: no cover
    def mpz(x):
        return x

DEFAULT_BIT_CAP = 2 ** 20


class CapExceeded(Exception):
    """An intermediate value exceeded the configured bit cap."""


class RateError(ValueError):
    pass


# ---------------------------------------------------------------------------
# ceil(ln(.)) and ceil(c * e**n) on big naturals
# ---------------------------------------------------------------------------

_LN2 = math.log(2.0)


def ceil_ln(m: int) -> int:
    """Exact ceil(ln m) for a big natural m >= 1.

    A float estimate on the top bits settles all but near-integer cases;
    those are decided exactly by comparing m against integer enclosures of
    e**k at doubling precision (terminates because e**k is irrational, hence
    never equal to the integer m).
    """
    if m < 1:
        raise RateError("ceil_ln requires m >= 1")
    m = int(m)
    if m == 1:
        return 0
    r = m.bit_length()
    # ln m = (r - 53) ln 2 + ln(top 53 bits), exact up to float rounding
    shift = max(0, r - 53)
    approx = shift * _LN2 + math.log(m >> shift)
    if abs(approx - round(approx)) > 1e-6:
        return math.ceil(approx)
    k = round(approx)
    for p, lo, hi in _exp_enclosures(k, 64):
        if not lo <= m << p <= hi:
            return k if m << p < lo else k + 1


# (q, squares) with squares[j] = (X, s), X * 2**s <= e**(2**j): squares[0] is
# E * 2**-q with E <= e * 2**q < E + 2, squares[j] squares[j - 1] squared and
# cut to q bits, at the largest q asked for
_E_SQUARES = (0, [])


def _e_squares(w: int, j: int) -> list:
    """Entries 0..j (at least) of the cache of e's squares, at a q >= w.

    A w above q rebuilds the cache at q = w: E is sum_{i<=N} 1/i! by binary
    splitting, with N! > 2**(w+1), so the terms past N sum to less than
    2**-(w+1); a j past the last entry extends it by squaring."""
    global _E_SQUARES
    q, squares = _E_SQUARES
    if w > q:
        N = next(N for N in count(2) if math.lgamma(N + 1) > (w + 1) * _LN2)
        T, Q = _split(0, N)
        q, squares = _E_SQUARES = (w, [(((Q + T) << w) // Q, -w)])
    while len(squares) <= j:
        X, s = squares[-1]
        squares.append(_cut(X * X, 2 * s, q))
    return squares


def _split(a: int, b: int) -> tuple:
    """(T, Q) with Q = (a+1)...b and T/Q = sum_{a<j<=b} 1/((a+1)...j)."""
    if b - a == 1:
        return mpz(1), mpz(b)
    T1, Q1 = _split(a, (a + b) // 2)
    T2, Q2 = _split((a + b) // 2, b)
    return T1 * Q2 + T2, Q1 * Q2


def _exp_enclosures(n: int, p: int):
    """Yield (p, lo, hi) with lo <= e**n * 2**p <= hi <= lo + 2 for p, 2p, 4p,
    ... (n >= 1): e**n is x * 2**s, the product of the cached e**(2**j) over
    n's set bits j, each cut to W bits and each product cut to W bits.  A
    call whose n and W the cache holds makes popcount(n) - 1 products; a
    cold one also makes the bits(n) - 1 squarings, and the cache then holds
    bits(n) numbers of q bits for the largest n and W asked (16 entries,
    142 KiB, at ceil(2 e**47051)).

    The error count, in relative deficits (x * 2**s = e**n * (1 - delta)):
    E's is below 2**-q and a cut to q bits loses below 2**(1-q), so entry j,
    entry j - 1 squared and cut, is below 2**j * 2**-q + (2**j - 1) *
    2**(1-q) < 3 * 2**j * 2**-W, as q >= W; over n's set bits these sum to
    below 3n * 2**-W.  The popcount(n) shifts to W bits and the
    popcount(n) - 1 products add 2 popcount(n) - 1 cuts below 2**(1-W), so
    delta < (1.5n + 2 popcount(n) - 1) * 2**(1-W) <= 3n * 2**(1-W) <= 1/2
    and e**n <= x * 2**s * (1 + 6n * 2**(1-W)); W exceeds p plus the bits
    of e**n by 2 bits(n) + 7, so hi - lo <= 2."""
    while True:
        w = p + int(n * 1.4427) + 2 * n.bit_length() + 8
        squares = _e_squares(w, n.bit_length() - 1)
        factors = [_cut(X, s, w) for j, (X, s) in enumerate(squares) if n >> j & 1]
        x, s = factors[0]
        for X, t in factors[1:]:
            x, s = _cut(x * X, s + t, w)
        d = -(s + p)  # > 2 bits(n) + 6, as x * 2**s <= e**n < 2**(1.4427n)
        hi = x + (x * 6 * n >> (w - 1)) + 1
        yield p, x >> d, -(-hi >> d)
        p *= 2


def _cut(x: int, s: int, w: int) -> tuple:
    """x * 2**s rounded down to w bits of x, losing less than 2**(1-w)."""
    return x >> (x.bit_length() - w), s + x.bit_length() - w


def _ceil_scaled_exp(coeff: int, n: int, cap: Optional[int]) -> int:
    """ceil(coeff * e**n), decided on enclosures of e**n.

    coeff * e**n has at least bits(coeff) + floor(n * log2(e)) bits, so a
    certain overflow is refused before the exponential is formed, as Power
    does; the exact bit length of the value decides the rest.  An n above
    the cap is refused before the float estimate, which could not represent
    it: e**n has more than n bits.
    """
    if n < 0:
        raise RateError("negative argument")
    n = int(n)
    if cap is not None and n > cap:
        raise CapExceeded()
    # 1.4426 < log2(e), so this is a lower bound on the value's bit length
    if cap is not None and coeff.bit_length() + int(n * 1.4426) > cap:
        raise CapExceeded()
    if n == 0:  # e**0 = 1: no enclosure of it excludes an integer
        return within_cap(coeff, cap)
    for p, lo, hi in _exp_enclosures(n, coeff.bit_length() + 64):
        c = -(-coeff * lo >> p)
        if c == -(-coeff * hi >> p):
            return within_cap(int(c), cap)


# ---------------------------------------------------------------------------
# Counterfunctions
# ---------------------------------------------------------------------------


def within_cap(value: int, cap: Optional[int]) -> int:
    """value, or CapExceeded when it has more than cap bits."""
    if cap is not None and value.bit_length() > cap:
        raise CapExceeded()
    return value


def capped(f: Counterfunction, n: int, cap: int, past: int) -> int:
    """f(n), or ``past`` when f(n) has more than cap bits, for callers that
    compare f(n) only with bounds within cap bits; a huge f(n) is never formed."""
    try:
        return f(n, cap)
    except CapExceeded:
        return past


class Counterfunction:
    """A total function on big naturals, represented as an expression tree.

    f(n, cap) is f(n) when f(n) has at most cap bits, and raises CapExceeded
    otherwise."""

    # the N with f constant on [N, oo), or None where f(n) >= n for every n;
    # a node whose index depends on its fields caches it
    settles: Optional[int] = None

    def __call__(self, n: int, cap: Optional[int] = None) -> int:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counterfunction({self.render()})"


@dataclass(frozen=True, repr=False)
class Const(Counterfunction):
    c: int
    settles = 0

    def __post_init__(self):
        if self.c < 0:
            raise RateError("constant must be a natural")

    def __call__(self, n, cap=None):
        return within_cap(self.c, cap)

    def render(self):
        return f"const:{self.c}"


@dataclass(frozen=True, repr=False)
class Identity(Counterfunction):
    def __call__(self, n, cap=None):
        return within_cap(n, cap)

    def render(self):
        return "id"


@dataclass(frozen=True, repr=False)
class Affine(Counterfunction):
    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise RateError("affine coefficients must be naturals")

    def __call__(self, n, cap=None):
        return within_cap(self.a * n + self.b, cap)

    @cached_property
    def settles(self):
        return 0 if self.a == 0 else None

    def render(self):
        return f"affine:{self.a},{self.b}"


@dataclass(frozen=True, repr=False)
class Power(Counterfunction):
    e: int

    def __post_init__(self):
        if self.e < 1:
            raise RateError("power exponent must be >= 1")

    def __call__(self, n, cap=None):
        # result has between e*(bits-1)+1 and e*bits bits; refuse certain
        # overflows before forming the power
        if cap is not None and n > 1 and self.e * (n.bit_length() - 1) + 1 > cap:
            raise CapExceeded()
        return within_cap(n ** self.e, cap)

    def render(self):
        return f"pow:{self.e}"


@dataclass(frozen=True, repr=False)
class Max(Counterfunction):
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise RateError("max needs at least one child")

    def __call__(self, n, cap=None):
        return max(c(n, cap) for c in self.children)

    @cached_property
    def settles(self):
        indices = [c.settles for c in self.children]
        return None if None in indices else max(indices)

    def render(self):
        return "max(" + ",".join(c.render() for c in self.children) + ")"


@dataclass(frozen=True, repr=False)
class Compose(Counterfunction):
    outer: Counterfunction
    inner: Counterfunction

    def __call__(self, n, cap=None):
        N = self.outer.settles
        if N is None:  # outer(m) >= m: a refused inner value refuses the comp's too
            return self.outer(self.inner(n, cap), cap)
        # an inner value past bits(N) bits is past N, where the outer takes its value at N
        return self.outer(capped(self.inner, n, N.bit_length(), N), cap)

    @cached_property
    def settles(self):
        if self.outer.settles == 0:
            return 0
        inner = self.inner.settles
        return self.outer.settles if inner is None else inner

    def render(self):
        return f"comp({self.outer.render()},{self.inner.render()})"


@dataclass(frozen=True, repr=False)
class Table(Counterfunction):
    values: tuple

    def __post_init__(self):
        if not self.values:
            raise RateError("table needs at least one value")
        if min(self.values) < 0:
            raise RateError("table values must be naturals")

    def __call__(self, n, cap=None):
        i = min(n, len(self.values) - 1)
        return within_cap(self.values[i], cap)

    @cached_property
    def settles(self):
        i = len(self.values) - 1
        while i and self.values[i - 1] == self.values[-1]:
            i -= 1
        return i

    def render(self):
        return "table:[" + ",".join(str(v) for v in self.values) + "]"


@dataclass(frozen=True, repr=False)
class CeilScaledExp(Counterfunction):
    """n -> ceil(c * e**n), rounded upward (rates may be overestimated)."""

    c: int

    def __post_init__(self):
        if self.c < 1:
            raise RateError("scale must be >= 1")

    def __call__(self, n, cap=None):
        return _ceil_scaled_exp(self.c, n, cap)

    def render(self):
        return f"ceil_exp({self.c}*e^n)"


def monotonize(f: Counterfunction) -> Counterfunction:
    """A monotone upper bound on f^M(k) = max_{i<=k} f(i), built on the tree.

    Exact through Table (its prefix max) and Max.  Through Compose it is
    mono(outer) o mono(inner), which bounds f^M from above; that is sound
    because every consumer of a counterfunction accepts any larger one.
    Every other node is monotone already and is returned as is.
    """
    if isinstance(f, Table):
        return Table(tuple(accumulate(f.values, max)))
    if isinstance(f, Max):
        return Max(tuple(monotonize(c) for c in f.children))
    if isinstance(f, Compose):
        return Compose(monotonize(f.outer), monotonize(f.inner))
    return f


# ---------------------------------------------------------------------------
# Mini-grammar parser
# ---------------------------------------------------------------------------


# max, comp and mono nest at most this deep: every walk of a tree recurses per level
_MAX_DEPTH = 100
# an error quotes a refused text or token in full up to this many characters
_QUOTED = 80
# blanks, punctuation, or a word without the blanks around it; a word takes
# the "(" it touches, so "max (" holds no head
_TOKEN = re.compile(r"\s+|[()\[\],]|[^()\[\],\s](?:[^()\[\],]*[^()\[\],\s])?\(?")
_HEADS = {"max(": (2, lambda f, g: Max((f, g))), "comp(": (2, Compose), "mono(": (1, monotonize)}


def parse_counterfunction(text: str) -> Counterfunction:
    """Parse the mini-grammar: const:C | id | affine:a,b | pow:e |
    max(f,g) | comp(f,g) | table:[v0,v1,...] | mono(f).  Blanks may surround
    any token but stand before no "("; max, comp and mono nest at most
    _MAX_DEPTH deep."""
    tokens = (t for t in _TOKEN.findall(text) if not t.isspace())
    try:
        f = _parse_cf(tokens, 0)
        _expect(tokens, "")
        return f
    except ValueError as exc:  # RateError included
        raise RateError(f"cannot parse counterfunction {_quote(text)}: {exc}") from exc


def _quote(text: str) -> str:
    """text quoted, or past _QUOTED characters its quoted head, "…" and its length."""
    if len(text) <= _QUOTED:
        return repr(text)
    return f"{text[:_QUOTED]!r}… ({len(text)} characters)"


def _expect(tokens: Iterator[str], token: str) -> None:
    """Take the next token, which must be token ("" past the end)."""
    got = next(tokens, "")
    if got != token:
        got = _quote(got)
        raise ValueError(f"expected {token!r}, not {got}" if token else f"unexpected {got}")


def _parse_cf(tokens: Iterator[str], depth: int) -> Counterfunction:
    """The counterfunction the next tokens spell; its first word fixes the rest."""
    word = next(tokens, "")
    if word in _HEADS:
        if depth == _MAX_DEPTH:
            raise ValueError(f"max, comp and mono nest deeper than {_MAX_DEPTH}")
        arity, make = _HEADS[word]
        args = _items(tokens, ")", partial(_parse_cf, tokens, depth + 1))
        if len(args) != arity:
            raise ValueError(f"{word[:-1]} takes {arity} argument(s), not {len(args)}")
        return make(*args)
    if word == "table:":
        _expect(tokens, "[")
        return Table(tuple(_items(tokens, "]", lambda: int(next(tokens, "")))))
    if word.startswith("affine:"):
        _expect(tokens, ",")
        return Affine(int(word[7:]), int(next(tokens, "")))
    if word == "id":
        return Identity()
    if word.startswith("const:"):
        return Const(int(word[6:]))
    if word.startswith("pow:"):
        return Power(int(word[4:]))
    raise ValueError(f"unexpected {_quote(word)}")


def _items(tokens: Iterator[str], close: str, read: Callable[[], object]) -> list:
    """The items read() reads, separated by "," up to close."""
    items = [read()]
    while (sep := next(tokens, "")) == ",":
        items.append(read())
    if sep != close:
        raise ValueError(f"expected {close!r}, not {_quote(sep)}")
    return items


# ---------------------------------------------------------------------------
# RateValue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateValue:
    """A big natural, or the Astronomical sentinel (bit cap exceeded)."""

    value: Optional[int] = None
    expr: str = ""

    @staticmethod
    def finite(n: int) -> "RateValue":
        if n < 0:
            raise RateError("rates are naturals")
        return RateValue(value=n)

    @staticmethod
    def astronomical(expr: str) -> "RateValue":
        return RateValue(value=None, expr=expr)

    @property
    def is_astronomical(self) -> bool:
        return self.value is None

    def render(self) -> str:
        if self.is_astronomical:
            return f"ASTRO:{self.expr}"
        return _decimal(self.value)

    # total order: every Astronomical value sits above every finite one,
    # and Astronomical values compare equal among themselves
    def _key(self):
        return (1, 0) if self.is_astronomical else (0, self.value)

    def __lt__(self, other):
        return self._key() < _coerce(other)._key()

    def __le__(self, other):
        return self._key() <= _coerce(other)._key()

    def __gt__(self, other):
        return self._key() > _coerce(other)._key()

    def __ge__(self, other):
        return self._key() >= _coerce(other)._key()

    def __eq__(self, other):
        try:
            return self._key() == _coerce(other)._key()
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash(self._key())


# str() of an int refuses more than 4300 digits (CPython >= 3.11); longer
# values are rendered in chunks of fewer digits than that
_CHUNK_DIGITS = 4000
_CHUNK = 10 ** _CHUNK_DIGITS


def _decimal(n: int) -> str:
    """Decimal digits of a natural of any length."""
    if n < _CHUNK:
        return str(n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _coerce(x) -> RateValue:
    if isinstance(x, RateValue):
        return x
    if isinstance(x, int):
        return RateValue.finite(x)
    raise TypeError(f"cannot compare RateValue with {type(x)!r}")


def _guard(expr: str, bit_cap: int, thunk: Callable[[], int]) -> RateValue:
    try:
        return RateValue.finite(within_cap(int(thunk()), bit_cap))
    except CapExceeded:
        return RateValue.astronomical(expr)


# ---------------------------------------------------------------------------
# Elementary rate formulas
# ---------------------------------------------------------------------------


def r_of_k(k: int, K: int) -> int:
    if K < 1:
        raise RateError("K must be >= 1")
    return K * K * (k + 1)


def omega1(k: int, K: int) -> int:
    if K < 1:
        raise RateError("K must be >= 1")
    return 24 * K * (k + 1) ** 2


def omega2(k: int, K: int) -> int:
    if K < 1:
        raise RateError("K must be >= 1")
    return 4 * K * K * (k + 1) ** 2


def _n_star_int(k: int, g: Callable[[int], int], K: int, cap: Optional[int]) -> int:
    """The bound on n*: from h = 0, apply h -> max{omega1(h), g(omega1(h))}
    r(omega2(k)) times, then take omega1(h); each omega1 value is capped.

    Each round's new h is at least omega1(h), so bits(h+1) - 1 at least
    doubles per round: with b = bits(h+1) and R rounds left, the result has
    at least (b - 1) * 2**R + 1 bits.  A round starts only while that bound
    fits the cap; R is clamped to bits(cap), which keeps the shift small and
    still passes the cap once b >= 2."""

    def w1(h):
        # 24K(h+1)^2 has at least 2*bits(h+1) - 1 bits; refuse a certain
        # overflow before squaring, as Power does
        if cap is not None and 2 * (h + 1).bit_length() - 1 > cap:
            raise CapExceeded()
        return within_cap(omega1(h, K), cap)

    h = mpz(0)
    for left in range(r_of_k(omega2(k, K), K), 0, -1):
        if cap is not None:
            b = (h + 1).bit_length()
            if ((b - 1) << min(left, cap.bit_length())) + 1 > cap:
                raise CapExceeded()
        w = w1(h)
        h = max(w, g(w))
    return w1(h)


def zeta(
    k: int,
    n: int,
    sigma: Counterfunction,
    S: int,
    bit_cap: int = DEFAULT_BIT_CAP,
) -> RateValue:
    """sigma(n + ceil(ln(3S(k+1)))) + 1, for a divergence rate sigma."""
    if S < 1:
        raise RateError("S must be >= 1")
    expr = f"zeta(k={k},n={n})"
    return _guard(expr, bit_cap, lambda: _zeta_int(k, n, sigma, S, bit_cap))


def _zeta_int(k: int, n: int, sigma: Counterfunction, S: int, cap) -> int:
    return sigma(n + ceil_ln(3 * S * (k + 1)), cap) + 1


def zeta_star(
    k: int,
    n: int,
    sigma_star: Callable[[int, int, Optional[int]], int],
    S: int,
    bit_cap: int = DEFAULT_BIT_CAP,
) -> RateValue:
    """sigma*(n, 3S(k+1) - 1) + 1, for a product-convergence rate sigma*."""
    if S < 1:
        raise RateError("S must be >= 1")
    expr = f"zeta_star(k={k},n={n})"
    return _guard(expr, bit_cap, lambda: _zeta_star_int(k, n, sigma_star, S, bit_cap))


def _zeta_star_int(k: int, n: int, sigma_star, S: int, cap) -> int:
    return sigma_star(n, 3 * S * (k + 1) - 1, cap) + 1


# ---------------------------------------------------------------------------
# The table of asymptotic-regularity rates
# ---------------------------------------------------------------------------

ChiT = Callable[[int], int]


def _chi_int(k, bundle, K, chi_T_fn, cap):
    return max(
        chi_T_fn(2 * (k + 1) - 1),
        bundle.chi_lambda(8 * K * (k + 1) - 1, cap),
        bundle.chi_beta(8 * K * (k + 1) - 1, cap),
    )


# Sigma and Sigma* are zeta and zeta* with S = 2K, taken after chi(3k+2)


def _Sigma_int(k, bundle, K, chi_T_fn, cap):
    c = _chi_int(3 * k + 2, bundle, K, chi_T_fn, cap)
    return _zeta_int(k, c + 2, bundle.sigma, 2 * K, cap)


def _Sigma_star_int(k, bundle, K, chi_T_fn, cap):
    c = _chi_int(3 * k + 2, bundle, K, chi_T_fn, cap)
    return _zeta_star_int(k, c, bundle.sigma_star, 2 * K, cap)


def _tilde(inner_int, k, bundle, K, chi_T_fn, cap):
    L = bundle.Lambda
    return max(
        bundle.N_Lambda,
        inner_int(2 * L * (k + 1) - 1, bundle, K, chi_T_fn, cap),
        bundle.eta(4 * K * L * (k + 1) - 1, cap),
    )


def _Psi_int(inner_int, k, bundle, K, chi_T_fn, cap):
    """The T_m-asymptotic-regularity rate: the family rate _tilde(inner_int)
    promoted to a single member, max{tilde((1 + 2*Gamma*G)(k+1) - 1), N_Gamma}."""
    j = (1 + 2 * bundle.Gamma * bundle.G) * (k + 1) - 1
    return max(_tilde(inner_int, j, bundle, K, chi_T_fn, cap), bundle.N_Gamma)


# name -> integer function (k, bundle, K, chi_T_fn, cap); raises CapExceeded
RATES: dict[str, Callable[..., int]] = {
    "chi": _chi_int,
    "Sigma": _Sigma_int,
    "Sigma_tilde": partial(_tilde, _Sigma_int),
    "Sigma_star": _Sigma_star_int,
    "Sigma_tilde_star": partial(_tilde, _Sigma_star_int),
    "Psi": partial(_Psi_int, _Sigma_int),
    "Psi_star": partial(_Psi_int, _Sigma_star_int),
}


def rate(
    name: str, k: int, bundle, K: int, chi_T_fn: ChiT, bit_cap: int = DEFAULT_BIT_CAP
) -> RateValue:
    """The rate RATES[name] at k, or Astronomical past the bit cap."""
    fn = RATES[name]
    expr = f"{name}(k={k})"
    return _guard(expr, bit_cap, lambda: fn(k, bundle, K, chi_T_fn, bit_cap))


# one public function per table entry: chi(k, bundle, K, chi_T_fn, bit_cap)
chi, Sigma, Sigma_tilde, Sigma_star, Sigma_tilde_star, Psi, Psi_star = (
    partial(rate, name) for name in RATES
)


# ---------------------------------------------------------------------------
# Metastability rates
# ---------------------------------------------------------------------------


def _mu_int(k, f, bundle, K, chi_T_fn, Phi_override, cap, star: bool) -> int:
    """zeta(kt, max{w3, eta}) with w3 = Phi(n*), where n* is the tower of
    ftilde o Phi; Phi is the table's Psi-type rate unless overridden."""
    f = monotonize(f)
    kt = 4 * (k + 1) ** 2 - 1
    eta_val = bundle.eta(24 * K * K * (kt + 1) - 1, cap)

    # zeta (or zeta*) with S = 4K^2
    if star:
        zeta_fn = lambda i, m: _zeta_star_int(i, m, bundle.sigma_star, 4 * K * K, cap)
    else:
        zeta_fn = lambda i, m: _zeta_int(i, m, bundle.sigma, 4 * K * K, cap)

    def ftilde(i: int) -> int:
        fb = f(zeta_fn(kt, max(i, eta_val)), cap)
        return within_cap(12 * K * (kt + 1) * (fb + 1) * bundle.B(fb, cap) - 1, cap)

    if Phi_override is not None:
        Phi = monotonize(Phi_override)
        phi = lambda j: Phi(j, cap)
        w3 = phi(0) if Phi.settles == 0 else None  # a constant Phi swallows the tower
    else:
        psi = RATES["Psi_star" if star else "Psi"]
        w3 = None
        phi = lambda j: within_cap(psi(j, bundle, K, chi_T_fn, cap), cap)
    if w3 is None:
        w3 = phi(_n_star_int(12 * (kt + 1) - 1, lambda w: ftilde(phi(w)), K, cap))
    return zeta_fn(kt, max(w3, eta_val))


def _metastability(name: str, star: bool, doc: str):
    def value(
        k: int,
        f: Counterfunction,
        bundle,
        K: int,
        chi_T_fn: ChiT,
        Phi_override: Optional[Counterfunction] = None,
        bit_cap: int = DEFAULT_BIT_CAP,
    ) -> RateValue:
        expr = f"{name}(k={k},f={f.render()})"
        thunk = lambda: _mu_int(k, f, bundle, K, chi_T_fn, Phi_override, bit_cap, star)
        return _guard(expr, bit_cap, thunk)

    value.__name__ = value.__qualname__ = name
    value.__doc__ = doc
    return value


mu = _metastability(
    "mu", False, "Metastability rate built on the divergence rate sigma."
)
mu_star = _metastability(
    "mu_star", True, "Metastability rate built on the product-convergence rate sigma*."
)
