"""Rigorous evaluation of central-binomial tail sums and symmetric zeta tails.

Exact rational scaffolding (Bernoulli numbers, a Machin-style pi enclosure,
Euler--Maclaurin Hurwitz zeta with a proven remainder rule) feeds a small
self-validating arithmetic: every result is an ``ApproxReal`` carrying a
floating value, a bound on its absolute error and the mpmath precision it
was built at.  Each public function picks that precision from its digit
request; arithmetic on enclosures rounds at the larger operand precision,
never at the caller's ``mp.prec``.  Constants and closed forms propagate
the bounds conservatively through each operation; the tail descent
counts its own rounding exactly in fixed point (below).
A reported enclosure ``value +- abs_error`` is honest: recomputing at
higher precision stays inside it.

Notation used throughout the module:

* ``sigma(a)_n``    = sum over n1 > ... > nr > n of
  binomial(2*n1, n1)^(-1) * prod(n_i^(-a_i));  ``sigma(a) = sigma(a)_0``.
* ``zeta_sym(a)_n`` = sum over n1 > ... > nr > n of
  binomial(n1 + n, n)^(-1) * prod(n_i^(-a_i)); at n = 0 this is the plain
  nested zeta value of the composition.
* ``L(s, chi3)``    = Dirichlet L value for the quadratic character mod 3.

One descent evaluates every tail: ``sigma_tail``, ``zeta_sym_tail`` and
``evaluate`` (a linear combination of both kinds, keyed by compositions and
duality classes) step all the recurrences they need down together.  The
descent runs in Python integers scaled by 2^B: each node holds its value
and an exact bound on its error in ulps of 2^-B (the seed's truncation
bound, carried through every division, plus one ulp per floor division),
and one ``ApproxReal`` is built per requested key at the end.

Two independent oracles (``sigma_oracle``, ``zeta_double_tail_oracle``)
evaluate the same sums by direct prefix-sum dynamic programming with their
own error accounting; they share no code with the production descent and
exist to cross-check it.

``reduce_integer_entries`` rewrites sigma sums whose index tuple contains
zero or negative entries as polynomial-coefficient combinations of genuine
compositions, via Faulhaber summation of the inner power factors.

``th7_coeffs`` / ``th8_coeffs`` / ``zagier_coeffs`` produce exact rational
coefficient vectors over the constant basis
{pi^(k-1-2r) zeta(2r+1), pi^(k-2r) sqrt(3) L(2r, chi3)} for the closed
forms of sigma(2^a,1,2^b), sigma(2^a,3,2^b) and zeta_sym(2^a,3,2^b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mp

from .compositions import (
    Composition,
    DualityClass,
    _class_of,
    _init_mid_fin,
    check_composition,
    is_admissible,
)
from .delta import delta_class
from .lincomb import LinComb, Poly, _basis_weight

__all__ = [
    "ApproxReal",
    "CapabilityError",
    "ConstantBasisVector",
    "Precision",
    "PrecisionCapError",
    "PRECISION",
    "L_chi3",
    "agrees_to_digits",
    "bbb_coefficient",
    "bernoulli_number",
    "bernoulli_poly",
    "eu127_matrix",
    "eu128_matrix",
    "eu129_matrix",
    "evaluate",
    "harmonic",
    "hurwitz_rational",
    "pi",
    "power_sum",
    "reduce_integer_entries",
    "residual_upper",
    "sigma_oracle",
    "sigma_tail",
    "sqrt3",
    "th7_block_matrix",
    "th7_coeffs",
    "th8_coeffs",
    "weight5_xyzw",
    "zagier_coeffs",
    "zeta_double_tail_oracle",
    "zeta_even_over_pi",
    "zeta_int",
    "zeta_sym_tail",
]

LOG2_10 = 3.3219280948873626


class PrecisionCapError(ValueError):
    """Requested digits exceed the configured cap (a configuration error)."""


class CapabilityError(RuntimeError):
    """The requested accuracy is beyond what the method can certify."""


@dataclass(frozen=True)
class Precision:
    """Digit budget configuration: default request, guard digits, hard cap."""

    digits: int = 40
    guard: int = 10
    cap: int = 200

    def check(self, digits=None) -> int:
        d = self.digits if digits is None else int(digits)
        if d < 1:
            raise PrecisionCapError(f"need at least 1 digit, got {d}")
        if d > self.cap:
            raise PrecisionCapError(f"{d} digits exceeds the cap of {self.cap}")
        return d


PRECISION = Precision()


def _bits(digits: int, terms: int = 1) -> int:
    """Working mantissa bits for a digit request over roughly `terms` operations."""
    return int((digits + PRECISION.guard) * LOG2_10) + max(terms, 2).bit_length() + 24


def _rnd(v) -> "mp.mpf":
    # Bound for the rounding of the single mpf operation that produced v,
    # with a factor-16 safety margin that also absorbs the (relatively
    # negligible) rounding inside our own error-term arithmetic.
    return mp.ldexp(abs(v), 4 - mp.prec)


def _mpf_upper(q: Fraction) -> "mp.mpf":
    """An mpf upper bound for a nonnegative Fraction."""
    if q == 0:
        return mp.mpf(0)
    v = mp.mpf(q.numerator) / q.denominator
    return v + 4 * _rnd(v)


class ApproxReal:
    """A floating value with a proven bound on its absolute error.

    ``prec`` is the mpmath precision in force when the value was built.
    Arithmetic runs at the larger operand ``prec`` and stamps it on the
    result, so a result never depends on the caller's ``mp.prec``.

    >>> x = ApproxReal.from_fraction(Fraction(1, 3))
    >>> float(x)  # doctest: +ELLIPSIS
    0.333...
    """

    __slots__ = ("value", "abs_error", "prec")

    def __init__(self, value=0, abs_error=0):
        self.value = mp.mpf(value)
        self.abs_error = mp.mpf(abs_error)
        self.prec = mp.prec
        assert self.abs_error >= 0

    @classmethod
    def from_fraction(cls, q) -> "ApproxReal":
        q = Fraction(q)
        v = mp.mpf(q.numerator) / q.denominator
        return cls(v, 4 * _rnd(v))

    @classmethod
    def from_enclosure(cls, value: Fraction, bound: Fraction) -> "ApproxReal":
        v = mp.mpf(value.numerator) / value.denominator
        return cls(v, _mpf_upper(Fraction(bound)) + 4 * _rnd(v))

    def __add__(self, other: "ApproxReal") -> "ApproxReal":
        with mp.workprec(max(self.prec, other.prec)):
            v = self.value + other.value
            return ApproxReal(v, self.abs_error + other.abs_error + _rnd(v))

    def __sub__(self, other: "ApproxReal") -> "ApproxReal":
        with mp.workprec(max(self.prec, other.prec)):
            v = self.value - other.value
            return ApproxReal(v, self.abs_error + other.abs_error + _rnd(v))

    def __neg__(self) -> "ApproxReal":
        with mp.workprec(self.prec):
            return ApproxReal(-self.value, self.abs_error)

    def __mul__(self, other: "ApproxReal") -> "ApproxReal":
        with mp.workprec(max(self.prec, other.prec)):
            v = self.value * other.value
            e = (
                abs(self.value) * other.abs_error
                + abs(other.value) * self.abs_error
                + self.abs_error * other.abs_error
                + _rnd(v)
            )
            return ApproxReal(v, e)

    def scale(self, q) -> "ApproxReal":
        with mp.workprec(self.prec):
            return self * ApproxReal.from_fraction(q)

    def pow_int(self, k: int) -> "ApproxReal":
        assert k >= 0
        with mp.workprec(self.prec):
            out = ApproxReal(mp.mpf(1), 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def abs_upper(self) -> "mp.mpf":
        with mp.workprec(self.prec):
            return abs(self.value) + self.abs_error

    def __float__(self) -> float:
        return float(self.value)

    def formatted(self, digits: int) -> str:
        return f"{mp.nstr(self.value, digits)} ± {mp.nstr(self.abs_error, 3)}"

    def __repr__(self):
        return f"ApproxReal({mp.nstr(self.value, 12)}, ±{mp.nstr(self.abs_error, 3)})"


def residual_upper(x: ApproxReal, y: ApproxReal) -> "mp.mpf":
    """A proven upper bound for |x_true - y_true| given the two enclosures."""
    d = x - y
    return d.abs_upper()


def _tolerance(digits: int, prec: int) -> "mp.mpf":
    """10^-digits, rounded at prec bits."""
    with mp.workprec(prec):
        return mp.mpf(10) ** (-digits)


def agrees_to_digits(x: ApproxReal, y: ApproxReal, digits: int) -> bool:
    return residual_upper(x, y) < _tolerance(digits, max(x.prec, y.prec))


# ---------------------------------------------------------------------------
# Exact rational building blocks.
# ---------------------------------------------------------------------------

#: B_0, B_2, B_4, ...: the even-index Bernoulli numbers computed so far
_BERNOULLI_EVEN: list[Fraction] = [Fraction(1)]


def _tangent_numbers(n: int) -> list[int]:
    """[0, T_1, ..., T_n], tan x = sum_k T_k x^(2k-1) / (2k-1)!, by the
    O(n^2) integer recurrence of Brent and Harvey (2011, "Fast computation of
    Bernoulli, tangent and secant numbers")."""
    T = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return T


def bernoulli_number(k: int) -> Fraction:
    """B_k with B_1 = -1/2.

    Even indices come from the tangent numbers through
    B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)).  A table that falls short is
    at least doubled, so a run of increasing indices costs O(n^2) in all.

    >>> bernoulli_number(12)
    Fraction(-691, 2730)
    """
    if k < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if k % 2:
        return Fraction(-1, 2) if k == 1 else Fraction(0)
    n, have = k // 2, len(_BERNOULLI_EVEN) - 1
    if n > have:
        top = max(n, 2 * have)
        T = _tangent_numbers(top)
        _BERNOULLI_EVEN.extend(
            Fraction((-1) ** (j - 1) * 2 * j * T[j], 4**j * (4**j - 1)) for j in range(have + 1, top + 1)
        )
    return _BERNOULLI_EVEN[n]


@lru_cache(maxsize=None)
def _bernoulli_poly_coeffs(k: int) -> tuple:
    """Coefficients (index = exponent) of the k-th Bernoulli polynomial."""
    return tuple(Fraction(math.comb(k, k - e)) * bernoulli_number(k - e) for e in range(k + 1))


def bernoulli_poly(k: int, x) -> Fraction:
    """The k-th Bernoulli polynomial evaluated at a rational point."""
    x = Fraction(x)
    acc = Fraction(0)
    for e in range(k, -1, -1):
        acc = acc * x + _bernoulli_poly_coeffs(k)[e]
    return acc


def power_sum(c: int, a, b) -> Fraction:
    """sum_{t=a}^{b-1} t^c, by Faulhaber; exact for empty ranges too.

    >>> power_sum(2, 1, 5)
    Fraction(30, 1)
    """
    if c < 0:
        raise ValueError("exponent must be >= 0")
    return (bernoulli_poly(c + 1, b) - bernoulli_poly(c + 1, a)) / (c + 1)


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


def zeta_even_over_pi(s: int) -> Fraction:
    """The rational c with zeta(s) = c * pi^s, for even s >= 2."""
    if s < 2 or s % 2:
        raise ValueError("need even s >= 2")
    m = s // 2
    c = Fraction((-1) ** (m + 1)) * bernoulli_number(s) * Fraction(2**s, 2 * math.factorial(s))
    assert c > 0
    return c


def _atan_inv(m: int, exp10: int) -> tuple:
    """Enclosure of arctan(1/m): (value, bound) with bound <= 10^-exp10."""
    terms = int((exp10 / (2 * math.log10(m)))) + 2
    s = Fraction(0)
    sign = 1
    for k in range(terms):
        s += Fraction(sign, (2 * k + 1) * m ** (2 * k + 1))
        sign = -sign
    bound = Fraction(1, (2 * terms + 1) * m ** (2 * terms + 1))
    assert bound <= Fraction(1, 10**exp10)
    return s, bound


@lru_cache(maxsize=32)
def _pi_fraction(exp10: int) -> tuple:
    """Machin enclosure of pi: (value, bound), bound <= 10^-exp10."""
    s5, b5 = _atan_inv(5, exp10 + 2)
    s239, b239 = _atan_inv(239, exp10 + 2)
    return 16 * s5 - 4 * s239, 16 * b5 + 4 * b239


def _pi_ar(exp10: int) -> ApproxReal:
    v, b = _pi_fraction(exp10)
    return ApproxReal.from_enclosure(v, b)


def pi(digits=None) -> ApproxReal:
    d = PRECISION.check(digits)
    with mp.workprec(_bits(d, 16)):
        return _pi_ar(d + 6)


def _sqrt3_ar() -> ApproxReal:
    """sqrt(3) via integer square root, at the ambient working precision."""
    p = mp.prec - 8
    n = math.isqrt(3 << (2 * p))
    v = mp.ldexp(mp.mpf(n), -p)
    return ApproxReal(v, mp.ldexp(mp.mpf(1), -p) + 4 * _rnd(v))


def sqrt3(digits=None) -> ApproxReal:
    d = PRECISION.check(digits)
    with mp.workprec(_bits(d, 16)):
        return _sqrt3_ar()


def _hurwitz_fraction(s: int, x: Fraction, exp10: int) -> tuple:
    """Exact-rational enclosure of the Hurwitz zeta value sum_{t>=0} (t+x)^-s.

    Euler--Maclaurin with all arithmetic in Fraction.  The summand is
    completely monotone in t, so the remainder after stopping is bounded by
    the first omitted correction term; that term is returned as the bound.
    """
    if s < 2:
        raise ValueError("need integer s >= 2")
    x = Fraction(x)
    if x <= 0:
        raise ValueError("need x > 0")
    target = Fraction(1, 10**exp10)
    p, q = x.numerator, x.denominator
    n_direct = max(16, exp10 // 2, s)
    while n_direct <= (1 << 22):
        direct = sum(Fraction(q**s, (t * q + p) ** s) for t in range(n_direct))
        w = n_direct + x
        winv = 1 / w
        acc = winv ** (s - 1) / (s - 1) + winv**s / 2
        poch = Fraction(s)
        wpow = winv ** (s + 1)
        prev = None
        for j in range(1, 600):
            term = bernoulli_number(2 * j) * poch * wpow / math.factorial(2 * j)
            at = abs(term)
            if at <= target / 4:
                return direct + acc, at
            if prev is not None and at >= prev:
                break  # asymptotic divergence reached before the target
            acc += term
            prev = at
            poch *= (s + 2 * j - 1) * (s + 2 * j)
            wpow *= winv * winv
        n_direct *= 2
    raise CapabilityError("Hurwitz zeta enclosure did not converge")


def hurwitz_rational(s: int, x, digits=None) -> tuple:
    """Exact-rational enclosure (value, bound) of sum_{t>=0} (t+x)^-s with
    bound <= 10^-digits, for integer s >= 2 and rational x > 0."""
    d = PRECISION.check(digits)
    return _hurwitz_fraction(int(s), Fraction(x), d)


def zeta_int(s: int, digits=None) -> ApproxReal:
    """zeta(s) for integer s >= 2; even s goes through exact rational * pi^s.

    >>> abs(float(zeta_int(2, 15)) - 1.6449340668482264) < 1e-14
    True
    """
    d = PRECISION.check(digits)
    s = int(s)
    if s < 2:
        raise ValueError("need s >= 2")
    with mp.workprec(_bits(d, 64) + 2 * s):
        if s % 2 == 0:
            c = zeta_even_over_pi(s)
            pad = d + 8 + int(0.5 * s) + 2
            return ApproxReal.from_fraction(c) * _pi_ar(pad).pow_int(s)
        v, b = _hurwitz_fraction(s, Fraction(1), d + 8)
        return ApproxReal.from_enclosure(v, b)


def _L_chi3_enclosure(s: int, exp10: int) -> tuple:
    v1, b1 = _hurwitz_fraction(s, Fraction(1, 3), exp10 + 1)
    v2, b2 = _hurwitz_fraction(s, Fraction(2, 3), exp10 + 1)
    scale = Fraction(1, 3**s)
    return (v1 - v2) * scale, (b1 + b2) * scale


def L_chi3(s: int, digits=None) -> ApproxReal:
    """L(s, chi3) = sum_{n>=1} chi3(n) n^-s for the quadratic character mod 3."""
    d = PRECISION.check(digits)
    s = int(s)
    if s < 2:
        raise ValueError("need s >= 2")
    with mp.workprec(_bits(d, 64) + 2 * s):
        v, b = _L_chi3_enclosure(s, d + 8)
        return ApproxReal.from_enclosure(v, b)


# ---------------------------------------------------------------------------
# Constant-basis coefficient vectors.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantBasisVector:
    """Exact rational coordinates over the odd-weight constant basis.

    For odd weight k, the basis is
    ``pi^(k-1-2r) * zeta(2r+1)`` and ``pi^(k-2r) * sqrt(3) * L(2r, chi3)``
    for 1 <= r <= (k-1)/2, giving k-1 slots in total.  Coordinates are
    stored sparsely as sorted (r, coefficient) pairs.
    """

    k: int
    zeta_odd: tuple
    L_even: tuple

    @staticmethod
    def build(k: int, zeta_odd=None, L_even=None) -> "ConstantBasisVector":
        if k < 3 or k % 2 == 0:
            raise ValueError("need odd weight k >= 3")
        rmax = (k - 1) // 2

        def norm(d):
            out = []
            for r, c in sorted((d or {}).items()):
                c = Fraction(c)
                if not 1 <= r <= rmax:
                    raise ValueError(f"basis index r={r} out of range for k={k}")
                if c:
                    out.append((int(r), c))
            return tuple(out)

        return ConstantBasisVector(k, norm(zeta_odd), norm(L_even))

    def zeta_dict(self) -> dict:
        return dict(self.zeta_odd)

    def L_dict(self) -> dict:
        return dict(self.L_even)

    def __add__(self, other: "ConstantBasisVector") -> "ConstantBasisVector":
        if self.k != other.k:
            raise ValueError("weights differ")
        z = self.zeta_dict()
        for r, c in other.zeta_odd:
            z[r] = z.get(r, Fraction(0)) + c
        L = self.L_dict()
        for r, c in other.L_even:
            L[r] = L.get(r, Fraction(0)) + c
        return ConstantBasisVector.build(self.k, z, L)

    def scale(self, q) -> "ConstantBasisVector":
        q = Fraction(q)
        return ConstantBasisVector.build(
            self.k,
            {r: c * q for r, c in self.zeta_odd},
            {r: c * q for r, c in self.L_even},
        )

    def __sub__(self, other: "ConstantBasisVector") -> "ConstantBasisVector":
        return self + other.scale(-1)

    def evaluate(self, digits=None) -> ApproxReal:
        d = PRECISION.check(digits)
        k = self.k
        with mp.workprec(_bits(d, 1 << 10) + 2 * k):
            e10 = d + 10
            pi_ar = _pi_ar(e10 + int(0.5 * k) + 4)
            out = ApproxReal(0, 0)
            for r, c in self.zeta_odd:
                v, b = _hurwitz_fraction(2 * r + 1, Fraction(1), e10)
                out = out + ApproxReal.from_fraction(c) * pi_ar.pow_int(k - 1 - 2 * r) * ApproxReal.from_enclosure(v, b)
            if self.L_even:
                s3 = _sqrt3_ar()
                for r, c in self.L_even:
                    v, b = _L_chi3_enclosure(2 * r, e10)
                    out = (
                        out
                        + ApproxReal.from_fraction(c)
                        * pi_ar.pow_int(k - 2 * r)
                        * s3
                        * ApproxReal.from_enclosure(v, b)
                    )
            return out


def th7_coeffs(a: int, b: int) -> ConstantBasisVector:
    """Constant-basis coordinates of sigma(2^a, 1, 2^b), for a >= 1, b >= 0."""
    if a < 1 or b < 0:
        raise ValueError("need a >= 1 and b >= 0")
    k = 2 * a + 2 * b + 1
    zo: dict = {}
    le: dict = {}
    for r in range(a, a + b + 1):
        pref = Fraction(math.comb(2 * r, 2 * a - 1), 3 ** (k - 1 - 2 * r) * math.factorial(k - 1 - 2 * r))
        zo[r] = zo.get(r, Fraction(0)) + pref * (-1) ** r * (1 - Fraction(1, 3 ** (2 * r)))
        prefL = Fraction(math.comb(2 * r - 1, 2 * a - 1), 3 ** (k - 2 * r) * math.factorial(k - 2 * r))
        le[r] = le.get(r, Fraction(0)) + prefL * (-1) ** r
    for r in range(b + 1, a + b + 1):
        pref = Fraction(math.comb(2 * r, 2 * b + 1), 3 ** (k - 1 - 2 * r) * math.factorial(k - 1 - 2 * r))
        zo[r] = zo.get(r, Fraction(0)) - pref * (-1) ** r * 2 * (1 - Fraction(1, 2 ** (2 * r)))
    return ConstantBasisVector.build(k, zo, le)


def th8_coeffs(a: int, b: int) -> ConstantBasisVector:
    """Constant-basis coordinates of sigma(2^a, 3, 2^b), for a, b >= 0."""
    if a < 0 or b < 0:
        raise ValueError("need a >= 0 and b >= 0")
    k = 2 * a + 2 * b + 3
    zo: dict = {}
    le: dict = {}
    for r in range(max(a, 1), a + b + 2):
        pref = Fraction(math.comb(2 * r, 2 * a), 3 ** (k - 1 - 2 * r) * math.factorial(k - 1 - 2 * r))
        zo[r] = zo.get(r, Fraction(0)) - pref * (-1) ** r * (1 - Fraction(1, 2 ** (2 * r))) * (
            1 - Fraction(1, 3 ** (2 * r))
        )
    for r in range(a + 1, a + b + 2):
        prefL = Fraction(math.comb(2 * r - 1, 2 * a), 3 ** (k - 2 * r) * math.factorial(k - 2 * r))
        le[r] = le.get(r, Fraction(0)) - prefL * (-1) ** r * (1 + Fraction(2, 2 ** (2 * r)))
    for r in range(b + 1, a + b + 2):
        pref = Fraction(math.comb(2 * r, 2 * b + 2), 3 ** (k - 1 - 2 * r) * math.factorial(k - 1 - 2 * r))
        zo[r] = zo.get(r, Fraction(0)) + pref * 2 * (-1) ** r
    return ConstantBasisVector.build(k, zo, le)


def zagier_coeffs(a: int, b: int) -> ConstantBasisVector:
    """Coordinates of zeta_sym(2^a, 3, 2^b) over {pi^(k-1-2r) zeta(2r+1)}."""
    if a < 0 or b < 0:
        raise ValueError("need a >= 0 and b >= 0")
    k = 2 * a + 2 * b + 3
    zo: dict = {}
    for r in range(b + 1, a + b + 2):
        zo[r] = zo.get(r, Fraction(0)) + 2 * (-1) ** r * Fraction(
            math.comb(2 * r, 2 * b + 2), math.factorial(k - 2 * r)
        )
    for r in range(a + 1, a + b + 2):
        zo[r] = zo.get(r, Fraction(0)) - 2 * (-1) ** r * Fraction(
            math.comb(2 * r, 2 * a + 1), math.factorial(k - 2 * r)
        ) * (1 - Fraction(1, 2 ** (2 * r)))
    return ConstantBasisVector.build(k, zo, {})


def weight5_xyzw(v: ConstantBasisVector) -> tuple:
    """Coordinates of a weight-5 vector over
    (x, y, z, w) = (pi^3 sqrt3 L(2,chi3), pi sqrt3 L(4,chi3), pi^2 zeta(3), zeta(5))."""
    if v.k != 5:
        raise ValueError("need weight 5")
    L = v.L_dict()
    z = v.zeta_dict()
    return (
        L.get(1, Fraction(0)),
        L.get(2, Fraction(0)),
        z.get(1, Fraction(0)),
        z.get(2, Fraction(0)),
    )


def eu127_matrix() -> list:
    """Rows: coordinates of sigma(3,2), sigma(2,3), sigma(2,2,1), sigma(2,1,2)
    over the weight-5 basis (x, y, z, w)."""
    return [
        list(weight5_xyzw(th8_coeffs(0, 1))),
        list(weight5_xyzw(th8_coeffs(1, 0))),
        list(weight5_xyzw(th7_coeffs(2, 0))),
        list(weight5_xyzw(th7_coeffs(1, 1))),
    ]


#: Coordinates of zeta_sym(4, 1) over (z, w) = (pi^2 zeta(3), zeta(5)); a
#: classical double-zeta evaluation, re-verified numerically by the test suite.
ZETA41_ZW = (Fraction(-1, 6), Fraction(2))


def eu128_matrix() -> list:
    """Rows: coordinates of zeta_sym(5), zeta_sym(4,1), zeta_sym(3,2),
    zeta_sym(2,3) over (z, w) = (pi^2 zeta(3), zeta(5))."""
    z32 = weight5_xyzw(zagier_coeffs(0, 1))
    z23 = weight5_xyzw(zagier_coeffs(1, 0))
    assert z32[0] == z32[1] == z23[0] == z23[1] == 0
    return [
        [Fraction(0), Fraction(1)],
        list(ZETA41_ZW),
        [z32[2], z32[3]],
        [z23[2], z23[3]],
    ]


def eu129_matrix() -> list:
    """Rows: coordinates of sigma(5), sigma(4,1), 2 sigma(3,1,1) + 3 sigma(2,1,1,1)
    over (y, z, w), derived exactly from the weight-5 coefficient vectors and the
    map delta; internal cross-checks are asserted."""
    s32, s23 = th8_coeffs(0, 1), th8_coeffs(1, 0)
    s221, s212 = th7_coeffs(2, 0), th7_coeffs(1, 1)
    known = {(3, 2): s32, (2, 3): s23, (2, 2, 1): s221, (2, 1, 2): s212}
    z5 = ConstantBasisVector.build(5, {2: 1})
    z41 = ConstantBasisVector.build(5, dict(zip((1, 2), ZETA41_ZW)))

    def solve(zvec, rep: Composition, unknown: Composition) -> ConstantBasisVector:
        """The vector of sigma(unknown), from zvec, that of zeta_sym(rep) =
        delta([rep]), with every other sigma in its support known."""
        dlc = delta_class(DualityClass.of(rep))
        for b, c in dlc.items():
            if b != unknown:
                zvec = zvec - known[b].scale(c)
        piv = dlc.coefficient_of(unknown)
        if not piv:
            raise ValueError(f"{unknown} not in support")
        return zvec.scale(Fraction(1, piv))

    u = solve(zagier_coeffs(0, 1), (3, 2), (4, 1))
    v = solve(zagier_coeffs(1, 0), (2, 3), (5,))

    d5 = delta_class(DualityClass.of((5,)))
    assert d5.coefficient_of((5,)) == 2 and d5.coefficient_of((4, 1)) == 2
    assert d5.coefficient_of((3, 1, 1)) == 2 and d5.coefficient_of((2, 1, 1, 1)) == 3
    q = z5 - (u + v).scale(2)

    d41 = delta_class(DualityClass.of((4, 1)))
    assert d41.coefficient_of((3, 1, 1)) == 6 and d41.coefficient_of((2, 1, 1, 1)) == 9
    rhs = (u + s32).scale(2) + (s221 + s212 + q).scale(3)
    assert rhs == z41, "weight-5 relation cross-check failed"
    u, v, q = (weight5_xyzw(x) for x in (u, v, q))
    assert u[0] == v[0] == q[0] == 0
    return [list(v[1:]), list(u[1:]), list(q[1:])]


def bbb_coefficient(k: int) -> Fraction:
    """The rational multiple of zeta(k) produced by the alternating
    even-composition combination at even weight k.

    >>> bbb_coefficient(4)
    Fraction(17, 16)
    """
    if k < 2 or k % 2:
        raise ValueError("need even k >= 2")
    tot = Fraction(0)
    for p in range(0, k + 1, 2):
        q = k - p
        sign = -1 if (p // 2 - 1) % 2 else 1
        tot += (
            Fraction(2**p - 2)
            * sign
            * bernoulli_number(p)
            * Fraction(1, 2 ** (q // 2))
            / (math.factorial(p) * math.factorial(q + 1))
        )
    return tot / 3 / zeta_even_over_pi(k)


def th7_block_matrix(k: int) -> list:
    """The integer (k-1) x (k-1) block matrix [[A, B], [C, D]] that governs
    solvability of the height-one closed forms at odd weight k."""
    if k < 3 or k % 2 == 0:
        raise ValueError("need odd k >= 3")
    h = (k - 1) // 2

    def comb0(n, r):
        return math.comb(n, r) if 0 <= r <= n else 0

    top = []
    bot = []
    for p in range(1, h + 1):
        rowa = [-comb0(2 * q - 1, 2 * p - 2) * (2 ** (2 * q - 1) + 1) for q in range(1, h + 1)]
        rowb = [
            -comb0(2 * q, 2 * p - 2) * (2 ** (2 * q) - 1) * (3 ** (2 * q) - 1)
            + comb0(2 * q, k + 1 - 2 * p) * 2 ** (2 * q + 1) * 3 ** (2 * q)
            for q in range(1, h + 1)
        ]
        rowc = [comb0(2 * q - 1, k - 2 * p) * 2 ** (2 * q - 1) for q in range(1, h + 1)]
        rowd = [
            -comb0(2 * q, k - 2 * p) * 2 ** (2 * q) * (3 ** (2 * q) - 1)
            - 2 * comb0(2 * q, 2 * p - 1) * (2 ** (2 * q) - 1) * 3 ** (2 * q)
            for q in range(1, h + 1)
        ]
        top.append(rowa + rowb)
        bot.append(rowc + rowd)
    return top + bot


# ---------------------------------------------------------------------------
# Production tail evaluators.
# ---------------------------------------------------------------------------

#: sigma(a) <= C0 * RHO^(depth-1) / (depth-1)!  for every composition a.
_SIGMA_C0 = Fraction(605, 1000)
_SIGMA_RHO = Fraction(2877, 10000)


def _sigma_depth_bound(i: int) -> Fraction:
    return _SIGMA_C0 * _SIGMA_RHO ** (i - 1) / math.factorial(i - 1)


def _edges(node) -> tuple:
    """The (child, exponent) pairs of the exact one-step recurrence
    tail(node)_{m-1} - tail(node)_m = sum of m^(-exponent) * tail(child)_m.

    A composition prefix p has the single child init(p); a duality class of
    weight k has its init, mid and fin classes.  A child of weight 0 is the
    key ``()``, whose tail is the base 1/C(2m, m).
    """
    if isinstance(node, DualityClass):
        return tuple(
            (_class_of(p) if p else (), node.weight - sum(p)) for p in _init_mid_fin(node.rep)
        )
    return ((node[:-1], node[-1]),) if node else ()


def _seed_bound(node) -> Fraction:
    """tail(node)_M <= bound * 4^-M for every M."""
    if isinstance(node, DualityClass):
        return Fraction(1645, 1000)
    return _sigma_depth_bound(len(node))


def _descend(keys, n: int, d: int) -> tuple:
    """tail(key)_n to d digits for every key, by one descent over the union of
    the keys' recurrence graphs: a composition key is a sigma tail, a
    DualityClass key a zeta_sym tail, and a key of weight 0 the base.

    Every node starts from its seed bound at a common start M and steps down
    to n; nodes update in place in decreasing weight, so each node reads its
    children's values at m.  When n >= M nothing steps: every tail is 0
    within its seed bound at M, which bounds it at every n >= M too.  The
    descent runs in integers scaled by 2^B: a node holds V ~ 2^B * tail and
    an exact bound E on |V - 2^B * tail|, which grows by ceil(E_child / q)
    + 1 for each floor division by q = m^e, since |floor(x/q) - y/q| <=
    |x - y|/q + 1.  Returns (B, {key: (V, E)}).
    """
    graph: dict = {}
    stack = list(keys)
    while stack:
        node = stack.pop()
        if node not in graph:
            graph[node] = _edges(node)
            stack.extend(child for child, _ in graph[node])
    nodes = sorted((v for v in graph if _basis_weight(v)), key=_basis_weight, reverse=True)
    # the least start >= 1 with top / 4^start <= 10^-(d+6), i.e. 4^start >= r;
    # top >= 0.6 (1 for the base alone) keeps 1/C(2 start, start) that small too
    top = max((_seed_bound(v) for v in nodes), default=Fraction(1))
    r = -(-top.numerator * 10 ** (d + 6) // top.denominator)
    start = max(1, -(-(r - 1).bit_length() // 2))
    fan = max((len(graph[v]) for v in nodes), default=1)
    B = _bits(d, (start + 4) * (len(nodes) + 2) * fan)
    one = 1 << B
    # nodes by position, the base () last; it is the only child of weight 0
    index = {v: i for i, v in enumerate(nodes)}
    index[()] = len(nodes)
    rows = [[(index[c], e) for c, e in graph[v]] for v in nodes]
    exps = {e for row in rows for _, e in row}
    val = [0] * (len(nodes) + 1)
    seeds = (_seed_bound(v) / 4**start for v in nodes)
    err = [-(-(s.numerator << B) // s.denominator) for s in seeds] + [1]
    binom = math.comb(2 * start, start)
    for m in range(start, n, -1):
        q = {e: m**e for e in exps}
        val[-1] = one // binom
        binom = binom * m // (4 * m - 2)  # C(2m - 2, m - 1)
        for i, row in enumerate(rows):
            x, y = val[i], err[i]
            for j, e in row:
                x += val[j] // q[e]
                y += -(-err[j] // q[e]) + 1
            val[i], err[i] = x, y
    # binom is C(2n, n) after a descent; 1/C(2n, n) <= 1/C(2M, M) for n >= M
    base = (one // binom, 1) if n < start else (0, -(-one // binom))
    return B, {
        key: (val[index[key]], err[index[key]]) if _basis_weight(key) else base for key in keys
    }


def _enclosure(B: int, x, e) -> ApproxReal:
    """The ApproxReal for x * 2^-B with error bound e * 2^-B."""
    with mp.workprec(B):
        return ApproxReal.from_enclosure(Fraction(x, 1 << B), Fraction(e, 1 << B))


def sigma_tail(a, n: int = 0, digits=None) -> ApproxReal:
    """sigma(a)_n to the requested accuracy, by the exact one-step recurrence
    sigma(p)_{m-1} - sigma(p)_m = m^(-last(p)) sigma(init(p))_m applied
    simultaneously to all prefixes of a, descending from a seeded start.

    >>> abs(float(sigma_tail((2,), 0, 20)) - 0.5483113556160755) < 1e-15
    True
    """
    return evaluate(LinComb.single(check_composition(a)), n, digits)


def zeta_sym_tail(c, n: int = 0, digits=None) -> ApproxReal:
    """zeta_sym(a)_n on the symmetric diagonal, for the duality class of a.

    Uses the exact three-part descent
    zeta(a)_{m-1} - zeta(a)_m =
        m^(w(init)-k) zeta(init)_m + m^(w(mid)-k) zeta(mid)_m
        + m^(w(fin)-k) zeta(fin)_m
    over the closure of the class under (init, mid, fin), seeded with the
    universal bound zeta(a)_M <= 1.645 * 4^-M.
    """
    if not isinstance(c, DualityClass):
        c = DualityClass.of(check_composition(c))
    return evaluate(LinComb.single(c), n, digits)


def evaluate(lc: LinComb, n: int = 0, digits=None) -> ApproxReal:
    """sum of c * tail(b)_n over the terms c * b of lc, by one descent.

    The key type picks the tail: a composition b gives sigma(b)_n and a
    DualityClass b gives zeta_sym(b)_n; the key ``()`` gives 1/C(2n, n).
    Coefficients are rational, or polynomials in n (:class:`Poly`), as
    :func:`reduce_integer_entries` returns, which are evaluated at n.

    >>> zeta3 = LinComb({(3,): 2, (2, 1): 3})
    >>> residual_upper(zeta_int(3, 30), evaluate(zeta3, 0, 30)) < 1e-30
    True
    """
    n = int(n)
    if n < 0:
        raise ValueError("need n >= 0")
    d = PRECISION.check(digits)
    keys = [b if isinstance(b, DualityClass) else check_composition(b) for b, _ in lc.items()]
    B, out = _descend(keys, n, d)
    x = e = Fraction(0)
    for b, c in lc.items():
        c = Fraction(c.evaluate(n) if isinstance(c, Poly) else c)
        x += c * out[b][0]
        e += abs(c) * out[b][1]
    return _enclosure(B, x, e)


# ---------------------------------------------------------------------------
# Independent oracles.
# ---------------------------------------------------------------------------


def _zeta_depth1_exact(s: int, m: int, n: int, exp10: int) -> tuple:
    """Enclosure of zeta_two_param((s))_{m,n} = sum_{j>n} C(j+m,m)^-1 j^-s."""
    if m == 0:
        return _hurwitz_fraction(s, Fraction(n + 1), exp10)
    val = Fraction(0)
    err = Fraction(0)
    hn = harmonic(n)
    zt = {t: _hurwitz_fraction(t, Fraction(n + 1), exp10 + 2) for t in range(2, s + 1)}
    mfact = math.factorial(m)
    for i in range(1, m + 1):
        ai = Fraction((-1) ** (i - 1), math.factorial(i - 1) * math.factorial(m - i))
        tv = (harmonic(n + i) - hn) / i
        te = Fraction(0)
        for t in range(2, s + 1):
            zv, zb = zt[t]
            tv = (zv - tv) / i
            te = (zb + te) / i
        val += mfact * ai * tv
        err += mfact * abs(ai) * te
    return val, err


def _negpow(v: np.ndarray, e: int) -> np.ndarray:
    """v ** (-e) for integer e >= 1 using only IEEE divisions/multiplications."""
    base = 1.0 / v
    out = None
    k = e
    while k:
        if k & 1:
            out = base.copy() if out is None else out * base
        k >>= 1
        if k:
            base = base * base
    return out


def _powrel(e: int) -> int:
    return 2 * max(e, 1).bit_length() + 4


_EPS64 = 2.0**-52
_PREFIX_BLOCK = 256


def _prefix_exclusive(arr: np.ndarray) -> tuple:
    """Exclusive prefix sums of a nonnegative array, three-level blocked.

    Returns (G, rnd) where rnd bounds the rounding error of every G entry:
    each output is assembled from at most three length-<=256 running sums
    plus two additions, and all cumulative quantities are bounded by the
    grand total because the input is nonnegative.
    """
    n = arr.size
    b = _PREFIX_BLOCK
    nb = -(-n // b)
    a3 = np.concatenate([arr, np.zeros(nb * b - n)]).reshape(nb, b)
    c3 = np.cumsum(a3, axis=1)
    tot3 = c3[:, -1].copy()
    nb2 = -(-nb // b)
    a2 = np.concatenate([tot3, np.zeros(nb2 * b - nb)]).reshape(nb2, b)
    c2 = np.cumsum(a2, axis=1)
    tot2 = c2[:, -1].copy()
    c1 = np.cumsum(tot2)
    off2 = np.concatenate([[0.0], c1[:-1]])
    off3 = (off2[:, None] + np.concatenate([np.zeros((nb2, 1)), c2[:, :-1]], axis=1)).reshape(-1)[:nb]
    g = (off3[:, None] + np.concatenate([np.zeros((nb, 1)), c3[:, :-1]], axis=1)).reshape(-1)[:n]
    total = float(c1[-1]) if c1.size else 0.0
    rnd = (3 * b + 8) * _EPS64 * total * 1.01
    return g, rnd


def _float_multi_tail(a: tuple, m: int, n: int, target: float):
    """Depth >= 2 truncated dynamic program in float64 with full error audit.

    Returns (value, total_error_bound) or None when the target accuracy is
    not certifiable within the size ladder.
    """
    r = len(a)
    q1 = a[0] + m
    if q1 < 3:
        return None
    mfact = float(math.factorial(m))
    for t_cap in (4096, 16384, 65536, 262144, 1048576, 4194304, 16777216):
        if t_cap <= n + r + 2:
            continue
        ln_t = math.log(t_cap)
        aux = (r - 1) / ((q1 - 1) * (1 + ln_t))
        if aux >= 0.5:
            continue
        trunc = (
            mfact
            / math.factorial(r - 1)
            * (1 + ln_t) ** (r - 1)
            * t_cap ** (1.0 - q1)
            / (q1 - 1)
            / (1 - aux)
            * 1.05
        )
        if trunc > target * 0.5:
            continue
        v = np.arange(n + 1.0, t_cap + 1.0)
        g = _negpow(v, a[-1])
        ge = _powrel(a[-1]) * _EPS64 * float(np.sum(g)) * 1.01
        perr = 0.0
        big = None
        for j in range(r - 1, 0, -1):
            big, rnd = _prefix_exclusive(g)
            perr = ge + rnd
            if j == 1:
                break
            w = _negpow(v, a[j - 1])
            hs = float(np.sum(w)) * 1.01
            g = w * big
            ge = hs * perr + (_powrel(a[j - 1]) + 2) * _EPS64 * float(np.sum(g)) * 1.01
        u = _negpow(v, a[0])
        urel = _powrel(a[0]) * _EPS64
        if m:
            binv = np.ones_like(v)
            for t in range(1, m + 1):
                binv *= t / (v + t)
            u = u * binv
            urel += (3 * m + 2) * _EPS64
        terms = u * big
        s = float(np.sum(terms))
        sabs = float(np.sum(np.abs(terms))) * 1.01
        usum = float(np.sum(u)) * 1.01
        ferr = usum * perr + sabs * (urel + 4 * _EPS64) + (math.log2(v.size) + 4) * _EPS64 * sabs
        total = (trunc + ferr) * 1.01
        if total <= target:
            return s, total
    return None


def zeta_double_tail_oracle(a, m: int = 0, n: int = 0, low_digits: int = 10) -> ApproxReal:
    """Direct evaluation of the two-parameter tail
    sum_{n1>...>nr>n} C(n1+m, m)^-1 prod n_i^-a_i, for cross-checking.

    Depth 1 is evaluated exactly through partial fractions and Hurwitz zeta
    enclosures; depth >= 2 through an audited float64 dynamic program.
    Raises CapabilityError when the requested accuracy cannot be certified.
    """
    a = check_composition(a)
    if not is_admissible(a) or not a:
        raise ValueError("need a nonempty admissible composition")
    m, n = int(m), int(n)
    if m < 0 or n < 0:
        raise ValueError("need m, n >= 0")
    low_digits = int(low_digits)
    if not 1 <= low_digits <= 15:
        raise PrecisionCapError("oracle supports 1..15 digits")
    with mp.workprec(_bits(low_digits + 8, 64)):
        if len(a) == 1:
            v, b = _zeta_depth1_exact(a[0], m, n, low_digits + 8)
            return ApproxReal.from_enclosure(v, b)
        res = _float_multi_tail(a, m, n, 0.9 * 10.0 ** (-low_digits))
        if res is None:
            raise CapabilityError(
                f"cannot certify {low_digits} digits for {a} at (m, n)=({m}, {n})"
            )
        return ApproxReal(mp.mpf(res[0]), mp.mpf(res[1]))


def sigma_oracle(a, n: int = 0, low_digits: int = 15) -> ApproxReal:
    """Direct evaluation of sigma(a)_n by truncated nested summation, for
    cross-checking; entries may be arbitrary integers (zero or negative
    entries included).  Designed for depth <= 4 at the default budget.
    """
    a = tuple(int(x) for x in a)
    n = int(n)
    if n < 0:
        raise ValueError("need n >= 0")
    low_digits = int(low_digits)
    if not 1 <= low_digits <= 20:
        raise PrecisionCapError("oracle supports 1..20 digits")
    r = len(a)
    target = Fraction(1, 10 ** (low_digits + 2))
    if r == 0:
        with mp.workprec(_bits(low_digits, 16)):
            return ApproxReal.from_fraction(Fraction(1, math.comb(2 * n, n)))
    p_tot = sum(max(0, -e) for e in a)

    def shell(x: int) -> Fraction:
        return Fraction(x ** (p_tot + r - 1), math.comb(2 * x, x) * math.factorial(r - 1))

    t_cap = max(n + r + 2, 8)
    while True:
        ratio = Fraction(t_cap + 2, 2 * (2 * t_cap + 3)) * Fraction(t_cap + 2, t_cap + 1) ** (
            p_tot + r - 1
        )
        if ratio <= Fraction(1, 2) and 2 * shell(t_cap + 1) <= target:
            break
        t_cap += max(4, t_cap // 4)
        if t_cap > 500000:
            raise CapabilityError(f"truncation bound will not reach {low_digits} digits")
    wp = int(LOG2_10 * (low_digits + 16 + (p_tot + r + 2) * math.log10(t_cap + 2))) + 48
    with mp.workprec(wp):
        vs = list(range(n + 1, t_cap + 1))
        row = [mp.mpf(1)] * len(vs)
        for lvl in range(r - 1, -1, -1):
            e = a[lvl]
            if lvl > 0:
                nxt = []
                acc = mp.mpf(0)
                for idx, v in enumerate(vs):
                    nxt.append(acc)
                    acc += row[idx] * mp.mpf(v) ** (-e)
                row = nxt
            else:
                tot = mp.mpf(0)
                for idx, v in enumerate(vs):
                    tot += row[idx] * mp.mpf(v) ** (-e) / math.comb(2 * v, v)
        rel = 64 * (len(vs) + 16) * (r + 3) * mp.mpf(2) ** (-wp)
        err = _mpf_upper(2 * shell(t_cap + 1)) + abs(tot) * rel + rel
        return ApproxReal(tot, err)


# ---------------------------------------------------------------------------
# Integer-entry reduction.
# ---------------------------------------------------------------------------


def _lambda_cd(c: int, d: int) -> Fraction:
    return (
        2
        * Fraction((-1) ** (c - d) * math.factorial(c), math.factorial(d + 1) * math.factorial(c - d))
        * (c + d + 2)
    )


def _mono(coeff: Fraction, e: int) -> Poly:
    return Poly((Fraction(0),) * e + (coeff,)) if coeff else Poly(())


_REDUCE_MEMO: dict = {}


def reduce_integer_entries(a) -> LinComb:
    """Rewrite sigma(a)_n for an arbitrary integer tuple a as a combination
    sum_b f_b(n) sigma(b)_n with polynomial coefficients f_b and every b a
    genuine composition (the empty composition may appear).

    Zero/negative leading entries are removed with the weighted three-term
    contiguous-shift rule; zero/negative inner entries are summed out
    exactly by Faulhaber's formula, splitting into boundary contributions.

    >>> reduce_integer_entries((0, 3)) == (
    ...     LinComb.single((3,), Poly((Fraction(1, 3),)))
    ...     + LinComb.single((1, 3), Poly((Fraction(2, 3),)))
    ... )
    True
    """
    key = tuple(int(x) for x in a)
    if key in _REDUCE_MEMO:
        return _REDUCE_MEMO[key]
    t = key
    r = len(t)
    if r == 0 or all(e >= 1 for e in t):
        out = LinComb.single(t, Poly((Fraction(1),)))
        _REDUCE_MEMO[key] = out
        return out
    i = next(idx for idx, e in enumerate(t) if e <= 0)
    third = Fraction(1, 3)
    if i == 0:
        c = -t[0]
        rest = t[1:]
        out = LinComb.zero()
        if r == 1:
            out = out + LinComb.single((), _mono(third, c))
        else:
            out = out + reduce_integer_entries((t[1] - c,) + t[2:]).scale(Poly((third,)))
        for d in range(c):
            out = out - reduce_integer_entries((-d,) + rest).scale(Poly((third * _lambda_cd(c, d),)))
        out = out - reduce_integer_entries((1,) + rest).scale(Poly((third * 2 * (-1) ** (c + 1),)))
    else:
        c = -t[i]
        c1 = c + 1
        beta = _bernoulli_poly_coeffs(c1)
        gamma = list(beta)
        gamma[c] = gamma[c] + c1  # B_{c+1}(X+1) = B_{c+1}(X) + (c+1) X^c
        out = LinComb.zero()
        if i < r - 1:
            for e in range(c1 + 1):
                if beta[e]:
                    nc = t[: i - 1] + (t[i - 1] - e,) + t[i + 1 :]
                    out = out + reduce_integer_entries(nc).scale(Poly((beta[e] / c1,)))
                if gamma[e]:
                    nc = t[:i] + (t[i + 1] - e,) + t[i + 2 :]
                    out = out - reduce_integer_entries(nc).scale(Poly((gamma[e] / c1,)))
        else:
            for e in range(c1 + 1):
                if beta[e]:
                    nc = t[: i - 1] + (t[i - 1] - e,)
                    out = out + reduce_integer_entries(nc).scale(Poly((beta[e] / c1,)))
                if gamma[e]:
                    out = out - reduce_integer_entries(t[:i]).scale(_mono(gamma[e] / c1, e))
    _REDUCE_MEMO[key] = out
    return out

